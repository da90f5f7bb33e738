// Package keys implements DataBlinder's key management integration (the
// resources subsystem of Fig. 4 and the Keys interface of Fig. 3). The
// middleware requests per-(schema, field, tactic, purpose) keys through the
// Provider interface; the bundled implementation derives them from a master
// secret with HKDF, mimicking an on-premise HSM that never releases the
// master key itself.
package keys

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"

	"datablinder/internal/crypto/primitives"
)

// Errors returned by this package.
var (
	ErrEmptyLabel = errors.New("keys: key label components must be non-empty")
	ErrBadKeyFile = errors.New("keys: key file must hold 64 hex characters")
)

// Ref names one derived key: schema/field/tactic/purpose. All components
// are required; purpose distinguishes multiple keys inside one tactic
// (e.g. "enc" vs "mac" vs "token").
type Ref struct {
	Schema  string
	Field   string
	Tactic  string
	Purpose string
}

func (r Ref) validate() error {
	if r.Schema == "" || r.Field == "" || r.Tactic == "" || r.Purpose == "" {
		return ErrEmptyLabel
	}
	for _, c := range []string{r.Schema, r.Field, r.Tactic, r.Purpose} {
		if strings.Contains(c, "/") {
			return fmt.Errorf("keys: label component %q contains '/'", c)
		}
	}
	return nil
}

// label renders the derivation label. Components are '/'-separated and
// forbidden from containing '/', so distinct refs never collide.
func (r Ref) label() string {
	return r.Schema + "/" + r.Field + "/" + r.Tactic + "/" + r.Purpose
}

// Provider hands out symmetric keys for tactic protocols. Implementations
// must return stable keys: the same Ref always yields the same Key.
type Provider interface {
	// Key returns the symmetric key for ref.
	Key(ref Ref) (primitives.Key, error)
}

// Store is the bundled Provider: an HKDF hierarchy under a master key with
// a memoization cache. It is safe for concurrent use.
type Store struct {
	master primitives.Key

	mu    sync.RWMutex
	cache map[string]primitives.Key
}

// NewStore builds a Store over the given master key.
func NewStore(master primitives.Key) *Store {
	return &Store{master: master, cache: make(map[string]primitives.Key)}
}

// NewRandomStore builds a Store over a fresh random master key. The key is
// irrecoverable once the process exits; use Load/Save for durable setups.
func NewRandomStore() (*Store, error) {
	master, err := primitives.NewRandomKey()
	if err != nil {
		return nil, err
	}
	return NewStore(master), nil
}

// Load reads a 64-hex-character master key from path.
func Load(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("keys: reading key file: %w", err)
	}
	raw, err := hex.DecodeString(strings.TrimSpace(string(data)))
	if err != nil || len(raw) != primitives.KeySize {
		return nil, ErrBadKeyFile
	}
	master, err := primitives.KeyFromBytes(raw)
	if err != nil {
		return nil, err
	}
	return NewStore(master), nil
}

// Save writes the master key to a new file at path (0600). It refuses to
// replace an existing file, so a key — and all data sealed under it — can
// never be silently overwritten, not even by two concurrent starts. It
// exists for demo and development deployments; production setups should
// source the master key from an HSM.
func (s *Store) Save(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return fmt.Errorf("keys: creating key file: %w", err)
	}
	_, err = f.WriteString(hex.EncodeToString(s.master[:]) + "\n")
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path) // a partial file would block every later CreateKey
		return fmt.Errorf("keys: writing key file: %w", err)
	}
	return nil
}

// Key implements Provider.
func (s *Store) Key(ref Ref) (primitives.Key, error) {
	if err := ref.validate(); err != nil {
		return primitives.Key{}, err
	}
	label := ref.label()
	s.mu.RLock()
	k, ok := s.cache[label]
	s.mu.RUnlock()
	if ok {
		return k, nil
	}
	k, err := primitives.DeriveKey(s.master, label)
	if err != nil {
		return primitives.Key{}, err
	}
	s.mu.Lock()
	s.cache[label] = k
	s.mu.Unlock()
	return k, nil
}

var _ Provider = (*Store)(nil)
