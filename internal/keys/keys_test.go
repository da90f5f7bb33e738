package keys

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"datablinder/internal/crypto/primitives"
)

func store(t *testing.T) *Store {
	t.Helper()
	s, err := NewRandomStore()
	if err != nil {
		t.Fatalf("NewRandomStore: %v", err)
	}
	return s
}

func TestKeyDeterministic(t *testing.T) {
	s := store(t)
	ref := Ref{Schema: "obs", Field: "status", Tactic: "det", Purpose: "enc"}
	k1, err := s.Key(ref)
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	k2, err := s.Key(ref)
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	if k1 != k2 {
		t.Fatal("same ref yielded different keys")
	}
}

func TestKeySeparation(t *testing.T) {
	s := store(t)
	base := Ref{Schema: "obs", Field: "status", Tactic: "det", Purpose: "enc"}
	variants := []Ref{
		{Schema: "other", Field: "status", Tactic: "det", Purpose: "enc"},
		{Schema: "obs", Field: "code", Tactic: "det", Purpose: "enc"},
		{Schema: "obs", Field: "status", Tactic: "rnd", Purpose: "enc"},
		{Schema: "obs", Field: "status", Tactic: "det", Purpose: "mac"},
	}
	k0, err := s.Key(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		k, err := s.Key(v)
		if err != nil {
			t.Fatal(err)
		}
		if k == k0 {
			t.Fatalf("ref %+v collided with base", v)
		}
	}
}

func TestKeyValidation(t *testing.T) {
	s := store(t)
	bad := []Ref{
		{},
		{Schema: "s", Field: "f", Tactic: "t"},  // missing purpose
		{Schema: "s", Field: "f", Purpose: "p"}, // missing tactic
		{Schema: "a/b", Field: "f", Tactic: "t", Purpose: "p"}, // separator in component
		{Schema: "s", Field: "f", Tactic: "t", Purpose: "p/q"}, // separator in purpose
	}
	for _, ref := range bad {
		if _, err := s.Key(ref); err == nil {
			t.Errorf("Key(%+v) succeeded, want error", ref)
		}
	}
}

func TestLabelInjectionResistance(t *testing.T) {
	// ("ab", "c") and ("a", "bc") style splits must not collide because
	// components cannot contain the separator.
	s := store(t)
	k1, err := s.Key(Ref{Schema: "ab", Field: "c", Tactic: "t", Purpose: "p"})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := s.Key(Ref{Schema: "a", Field: "bc", Tactic: "t", Purpose: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("distinct refs produced the same key")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := store(t)
	path := filepath.Join(t.TempDir(), "master.key")
	if err := s.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o600 {
		t.Fatalf("key file mode = %v, want 0600", info.Mode().Perm())
	}
	s2, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	ref := Ref{Schema: "s", Field: "f", Tactic: "t", Purpose: "p"}
	k1, _ := s.Key(ref)
	k2, _ := s2.Key(ref)
	if k1 != k2 {
		t.Fatal("loaded store derives different keys")
	}
}

func TestSaveRefusesExistingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "master.key")
	if err := store(t).Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store(t).Save(path); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("second Save = %v, want fs.ErrExist", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatal("second Save replaced the key file")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("Load(missing) succeeded")
	}
	path := filepath.Join(t.TempDir(), "bad.key")
	os.WriteFile(path, []byte("nothex"), 0o600)
	if _, err := Load(path); !errors.Is(err, ErrBadKeyFile) {
		t.Fatalf("Load(bad hex) = %v", err)
	}
	os.WriteFile(path, []byte("abcd"), 0o600)
	if _, err := Load(path); !errors.Is(err, ErrBadKeyFile) {
		t.Fatalf("Load(short) = %v", err)
	}
}

func TestConcurrentDerivation(t *testing.T) {
	s := store(t)
	var wg sync.WaitGroup
	results := make([]primitives.Key, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k, err := s.Key(Ref{Schema: "s", Field: "f", Tactic: "t", Purpose: "p"})
			if err != nil {
				t.Errorf("Key: %v", err)
				return
			}
			results[i] = k
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent derivations disagree")
		}
	}
}
