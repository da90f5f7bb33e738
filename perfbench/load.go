package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"datablinder"
)

// outcome is one executed op.
type outcome struct {
	class opClass
	lat   time.Duration // from the due time in the open loop
	lag   time.Duration // open loop: how late the generator started the op
	wrong bool          // failed, or answered wrongly
}

// runner executes ops and remembers which deletes have started, so an
// update that loses a race with a concurrent delete of the same document
// is told apart from a document that vanished on its own. (The generator
// never updates a document after issuing its delete, so a started delete
// of the same id ran concurrently.)
type runner struct {
	col collection

	mu      sync.Mutex
	deletes map[string]bool
	errs    []string
}

func newRunner(col collection) *runner {
	return &runner{col: col, deletes: map[string]bool{}}
}

func copyFields(f map[string]any) map[string]any {
	out := make(map[string]any, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// exec runs one op and reports whether it failed or answered wrongly.
func (r *runner) exec(ctx context.Context, o *op) (wrong bool) {
	var err error
	switch o.kind {
	case kInsert:
		_, err = r.col.Insert(ctx, &datablinder.Document{ID: o.id, Fields: copyFields(o.fields)})
	case kGet:
		var d *datablinder.Document
		d, err = r.col.Get(ctx, o.id)
		if err == nil && !sameFields(d.Fields, o.fields) {
			r.fail("get %s: stored %v, want %v", o.id, d.Fields, o.fields)
			return true
		}
	case kUpdate:
		err = r.col.Update(ctx, &datablinder.Document{ID: o.id, Fields: copyFields(o.fields)})
	case kDelete:
		r.mu.Lock()
		r.deletes[o.id] = true
		r.mu.Unlock()
		err = r.col.Delete(ctx, o.id)
	case kSearch:
		_, err = r.col.Search(ctx, o.pred)
	case kSearchIDs:
		_, err = r.col.SearchIDs(ctx, o.pred)
	case kAgg:
		_, err = r.col.Aggregate(ctx, "value", datablinder.AggAvg, o.pred)
	}
	if err == nil {
		return false
	}
	if o.kind == kUpdate && errors.Is(err, datablinder.ErrDocumentMissing) {
		r.mu.Lock()
		raced := r.deletes[o.id]
		r.mu.Unlock()
		if raced {
			return false // losing the race with a delete is a correct answer
		}
	}
	r.fail("%v: %v", o.kind, err)
	return true
}

// closedLoop runs ops from `workers` clients, each sending its next op
// when the previous one returns, and returns the elapsed time.
func (r *runner) closedLoop(ctx context.Context, ops []op, workers int, out []outcome) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				t0 := time.Now()
				wrong := r.exec(ctx, &ops[i])
				out[i] = outcome{class: ops[i].kind.class(), lat: time.Since(t0), wrong: wrong}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// openLoop sends ops[i] at start+due[i] from at most `workers` clients.
// Latency runs from the due time, so a stall is charged to every request
// it delays. The lag is how late a client that was free started an op
// after it came due.
func (r *runner) openLoop(ctx context.Context, ops []op, due []float64, workers int, out []outcome) {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := start
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				at := start.Add(time.Duration(due[i] * float64(time.Second)))
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				ready := at
				if free.After(ready) {
					ready = free
				}
				began := time.Now()
				wrong := r.exec(ctx, &ops[i])
				free = time.Now()
				out[i] = outcome{class: ops[i].kind.class(), lat: free.Sub(at), lag: began.Sub(ready), wrong: wrong}
			}
		}()
	}
	wg.Wait()
}

// sameFields compares a stored document with the version written,
// numbers by value (the store may decode an int as another integer type).
func sameFields(got, want map[string]any) bool {
	if len(got) != len(want) {
		return false
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return false
		}
		gf, gnum := asFloat(g)
		wf, wnum := asFloat(w)
		if gnum != wnum || (gnum && gf != wf) || (!gnum && g != w) {
			return false
		}
	}
	return true
}

func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case interface{ Float64() (float64, error) }:
		f, err := x.Float64()
		return f, err == nil
	}
	return 0, false
}

// quantile returns the q-quantile (nearest rank) of xs, sorting xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
