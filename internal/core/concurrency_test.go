package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"datablinder/internal/model"
)

// TestConcurrentInsertsAndSearches drives the engine the way the
// benchmark's virtual users do: many goroutines inserting and searching
// simultaneously, then a full consistency check against a plaintext
// reference.
func TestConcurrentInsertsAndSearches(t *testing.T) {
	env := registeredEnv(t)
	ctx := context.Background()

	const (
		workers       = 8
		docsPerWorker = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < docsPerWorker; i++ {
				doc := obs(
					fmt.Sprintf("w%02d-%03d", w, i),
					[]string{"final", "draft"}[i%2],
					[]string{"glucose", "insulin"}[w%2],
					fmt.Sprintf("patient-%d", w),
					int64(1000000+w*1000+i),
					"performer",
					float64(i),
				)
				if _, err := env.engine.Insert(ctx, "observation", doc); err != nil {
					errs <- fmt.Errorf("insert w%d i%d: %w", w, i, err)
					return
				}
				// Interleave reads while writes are in flight; results
				// vary but must never error.
				if i%5 == 0 {
					if _, err := env.engine.SearchIDs(ctx, "observation",
						Eq{Field: "subject", Value: fmt.Sprintf("patient-%d", w)}); err != nil {
						errs <- fmt.Errorf("search w%d: %w", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Post-hoc consistency: every per-worker subject search returns
	// exactly that worker's documents.
	for w := 0; w < workers; w++ {
		ids, err := env.engine.SearchIDs(ctx, "observation",
			Eq{Field: "subject", Value: fmt.Sprintf("patient-%d", w)})
		if err != nil {
			t.Fatalf("final search w%d: %v", w, err)
		}
		if len(ids) != docsPerWorker {
			t.Fatalf("worker %d: %d docs found, want %d", w, len(ids), docsPerWorker)
		}
	}
	// Cross-field conjunction over the whole corpus.
	ids, err := env.engine.SearchIDs(ctx, "observation", And{Preds: []Predicate{
		Eq{Field: "status", Value: "final"},
		Eq{Field: "code", Value: "glucose"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// workers 0,2,4,6 insert glucose; ~half their docs are final.
	want := 4 * (docsPerWorker/2 + docsPerWorker%2)
	if len(ids) != want {
		t.Fatalf("conjunction = %d docs, want %d", len(ids), want)
	}
	// Count documents.
	n, err := env.engine.Count(ctx, "observation")
	if err != nil || n != workers*docsPerWorker {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

// TestEngineCompact exercises the maintenance path through the engine.
func TestEngineCompact(t *testing.T) {
	env := registeredEnv(t)
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		doc := obs(fmt.Sprintf("c%03d", i), "final", "glucose", "p", int64(i), "x", 1.0)
		if _, err := env.engine.Insert(ctx, "observation", doc); err != nil {
			t.Fatal(err)
		}
	}
	before, err := env.engine.SearchIDs(ctx, "observation", Eq{Field: "code", Value: "glucose"})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.engine.Compact(ctx, "observation", "code", "glucose"); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after, err := env.engine.SearchIDs(ctx, "observation", Eq{Field: "code", Value: "glucose"})
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("Compact changed results: %d -> %d", len(before), len(after))
	}
	// Unknown field errors; non-compactable field (subject -> Mitra) is a
	// no-op.
	if err := env.engine.Compact(ctx, "observation", "nope", "x"); err == nil {
		t.Fatal("Compact(unknown field) succeeded")
	}
	if err := env.engine.Compact(ctx, "observation", "subject", "p"); err != nil {
		t.Fatalf("Compact(Mitra field): %v", err)
	}
}

// TestAggregateWithComplexWhere combines a boolean where-clause with the
// homomorphic sum.
func TestAggregateWithComplexWhere(t *testing.T) {
	env := registeredEnv(t)
	seed(t, env)
	ctx := context.Background()
	sum, err := env.engine.Aggregate(ctx, "observation", "value", model.AggSum,
		Or{Preds: []Predicate{
			Eq{Field: "code", Value: "insulin"},
			Eq{Field: "status", Value: "draft"},
		}})
	if err != nil {
		t.Fatal(err)
	}
	want := 11.0 + 7.9 // f004 (insulin) + f003 (draft)
	if d := sum - want; d > 1e-6 || d < -1e-6 {
		t.Fatalf("sum = %g, want %g", sum, want)
	}
}

// TestConcurrentUpdatesLeaveNoStaleIndexEntries: 8 updaters race on one
// document for 20 rounds, each writing a subject of its own. Afterwards
// only the stored subject may find the document: an index entry for a
// superseded subject is a wrong result, and it reveals an old value.
func TestConcurrentUpdatesLeaveNoStaleIndexEntries(t *testing.T) {
	env := registeredEnv(t)
	seed(t, env)
	ctx := context.Background()

	const updaters, rounds = 8, 20
	subject := func(u, r int) string { return fmt.Sprintf("subject-%d-%02d", u, r) }
	var wg sync.WaitGroup
	errs := make(chan error, updaters)
	for u := 0; u < updaters; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				doc := obs("f001", "final", "glucose", subject(u, r), 1359966610, "john-smith", float64(r))
				if err := env.engine.Update(ctx, "observation", doc); err != nil {
					errs <- fmt.Errorf("updater %d round %d: %w", u, r, err)
					return
				}
			}
		}(u)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	got, err := env.engine.Get(ctx, "observation", "f001")
	if err != nil {
		t.Fatal(err)
	}
	stale := 0
	for u := 0; u < updaters; u++ {
		for r := 0; r < rounds; r++ {
			v := subject(u, r)
			ids, err := env.engine.SearchIDs(ctx, "observation", Eq{Field: "subject", Value: v})
			if err != nil {
				t.Fatal(err)
			}
			found := slices.Contains(ids, "f001")
			if v == got.Fields["subject"] && !found {
				t.Fatalf("the stored subject %s does not find f001", v)
			}
			if v != got.Fields["subject"] && found {
				stale++
			}
		}
	}
	if stale > 0 {
		t.Fatalf("%d of %d superseded subjects still find f001", stale, updaters*rounds-1)
	}
}

// TestUpdateRacingDeleteLeavesNoIndexEntries: an Update and a Delete of
// one document race. In either serial order the document ends up deleted
// (the Update either runs first or finds it missing), and neither its old
// nor its new subject finds it.
func TestUpdateRacingDeleteLeavesNoIndexEntries(t *testing.T) {
	env := registeredEnv(t)
	ctx := context.Background()
	for r := 0; r < 20; r++ {
		id := fmt.Sprintf("race-%02d", r)
		oldSubject, newSubject := "old-"+id, "new-"+id
		if _, err := env.engine.Insert(ctx, "observation",
			obs(id, "draft", "insulin", oldSubject, 1359966610, "john-smith", 1)); err != nil {
			t.Fatal(err)
		}
		var updErr, delErr error
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			updErr = env.engine.Update(ctx, "observation",
				obs(id, "final", "glucose", newSubject, 1359966620, "john-smith", 2))
		}()
		go func() {
			defer wg.Done()
			<-start
			delErr = env.engine.Delete(ctx, "observation", id)
		}()
		close(start)
		wg.Wait()
		if delErr != nil {
			t.Fatalf("round %d: Delete: %v", r, delErr)
		}
		if updErr != nil && !errors.Is(updErr, ErrDocumentMissing) {
			t.Fatalf("round %d: Update: %v", r, updErr)
		}
		if _, err := env.engine.Get(ctx, "observation", id); !errors.Is(err, ErrDocumentMissing) {
			t.Fatalf("round %d: %s survived its Delete (Get err %v, Update err %v)", r, id, err, updErr)
		}
		for _, v := range []string{oldSubject, newSubject} {
			ids, err := env.engine.SearchIDs(ctx, "observation", Eq{Field: "subject", Value: v})
			if err != nil {
				t.Fatal(err)
			}
			if slices.Contains(ids, id) {
				t.Fatalf("round %d: subject %s still finds deleted %s", r, v, id)
			}
		}
	}
}
