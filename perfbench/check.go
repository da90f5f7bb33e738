package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"datablinder"
	"datablinder/internal/fhir"
)

// checkResult is the quiescence check's verdict.
type checkResult struct {
	queries int
	wrong   int
	final   map[string]map[string]any // id -> stored fields of live documents
}

// maxEqValues caps how many values of one field the check queries; larger
// domains are sampled with the run's seed.
const maxEqValues = 600

// check runs after all load has returned. It reads back every document
// ever written, compares each with the versions the history allows, and
// then answers each query class over the stored documents with a
// plaintext oracle: ids from equality, boolean and range searches, and
// avg(value) within float tolerance. Values of superseded versions are
// queried too, so an index entry a rewrite failed to remove shows up.
func check(ctx context.Context, w *workload, p *plan, col collection, seed int64, workers int) checkResult {
	res := checkResult{final: map[string]map[string]any{}}
	var mu sync.Mutex
	wrong := func(format string, args ...any) {
		mu.Lock()
		res.wrong++
		if res.wrong <= 10 {
			logf("perfbench: check: "+format, args...)
		}
		mu.Unlock()
	}
	m := p.model
	ids := m.ids()
	parallel(len(ids), workers, func(i int) {
		id := ids[i]
		d, err := col.Get(ctx, id)
		if err != nil {
			if !m.deleted[id] {
				wrong("get %s: %v", id, err)
			}
			return
		}
		ok := slices.ContainsFunc(m.versions[id], func(v map[string]any) bool { return sameFields(d.Fields, v) })
		if !ok {
			wrong("get %s: stored %v matches no version written", id, d.Fields)
		}
		mu.Lock()
		res.final[id] = d.Fields
		mu.Unlock()
	})
	res.queries += len(ids)

	var queries []datablinder.Predicate
	seen := map[string]map[any]bool{}
	for _, versions := range m.versions {
		for _, v := range versions {
			for _, f := range []string{"subject", "code", "status", "effective"} {
				if seen[f] == nil {
					seen[f] = map[any]bool{}
				}
				seen[f][v[f]] = true
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for _, f := range []string{"subject", "code", "status", "effective"} {
		vals := make([]string, 0, len(seen[f]))
		byKey := map[string]any{}
		for v := range seen[f] {
			k := fmt.Sprint(v)
			vals = append(vals, k)
			byKey[k] = v
		}
		sort.Strings(vals)
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		for _, k := range vals[:min(len(vals), maxEqValues)] {
			queries = append(queries, datablinder.Eq{Field: f, Value: byKey[k]})
		}
	}
	if w.checkBool {
		for _, c := range fhir.Codes {
			for _, s := range fhir.Statuses {
				queries = append(queries, datablinder.And{Preds: []datablinder.Predicate{
					datablinder.Eq{Field: "code", Value: c}, datablinder.Eq{Field: "status", Value: s}}})
			}
		}
	}
	if w.checkRange {
		var effs []int64
		for _, f := range res.final {
			v, _ := asFloat(f["effective"])
			effs = append(effs, int64(v))
		}
		slices.Sort(effs)
		for range 50 {
			lo := effs[rng.Intn(len(effs))]
			queries = append(queries, datablinder.Between("effective", lo, lo+rangeWidth))
		}
	}
	parallel(len(queries), workers, func(i int) {
		q := queries[i]
		got, err := col.SearchIDs(ctx, q)
		if err != nil {
			wrong("%#v: %v", q, err)
			return
		}
		want := oracleIDs(res.final, q)
		if !slices.Equal(got, want) {
			wrong("%#v: got %d ids, oracle %d (extra %v, missing %v)", q, len(got), len(want), diff(got, want), diff(want, got))
		}
	})
	res.queries += len(queries)

	// Aggregates: avg(value) per code, over the stored documents.
	parallel(len(fhir.Codes), workers, func(i int) {
		q := datablinder.Eq{Field: "code", Value: fhir.Codes[i]}
		want := oracleIDs(res.final, q)
		if len(want) == 0 {
			return
		}
		got, err := col.Aggregate(ctx, "value", datablinder.AggAvg, q)
		if err != nil {
			wrong("avg(value) where %v: %v", q, err)
			return
		}
		var sum float64
		for _, id := range want {
			v, _ := asFloat(res.final[id]["value"])
			sum += v
		}
		exp := sum / float64(len(want))
		if math.Abs(got-exp) > 1e-6*math.Max(1, math.Abs(exp)) {
			wrong("avg(value) where %v: got %v, oracle %v", q, got, exp)
		}
	})
	res.queries += len(fhir.Codes)
	return res
}

// oracleIDs evaluates a predicate over plaintext documents.
func oracleIDs(docs map[string]map[string]any, q datablinder.Predicate) []string {
	out := []string{}
	for id, f := range docs {
		if matches(f, q) {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

func matches(f map[string]any, q datablinder.Predicate) bool {
	switch q := q.(type) {
	case datablinder.Eq:
		a, anum := asFloat(f[q.Field])
		b, bnum := asFloat(q.Value)
		if anum && bnum {
			return a == b
		}
		return f[q.Field] == q.Value
	case datablinder.And:
		for _, c := range q.Preds {
			if !matches(f, c) {
				return false
			}
		}
		return true
	case datablinder.Range:
		v, _ := asFloat(f[q.Field])
		lo, _ := asFloat(q.Lo)
		hi, _ := asFloat(q.Hi)
		return v >= lo && v <= hi
	}
	panic(fmt.Sprintf("perfbench: oracle cannot evaluate %T", q))
}

// diff returns up to three elements of a missing from b (both sorted).
func diff(a, b []string) []string {
	var out []string
	for _, x := range a {
		if _, ok := slices.BinarySearch(b, x); !ok {
			out = append(out, x)
			if len(out) == 3 {
				break
			}
		}
	}
	return out
}

// parallel calls fn(0..n-1) from `workers` goroutines and waits for them.
func parallel(n, workers int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
