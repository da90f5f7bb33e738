package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"datablinder"
	"datablinder/internal/fhir"
	"datablinder/internal/model"
)

// opKind is one public Collection call.
type opKind uint8

const (
	kInsert opKind = iota
	kGet
	kUpdate
	kDelete
	kSearch    // Collection.Search: ids, then the decrypted documents
	kSearchIDs // Collection.SearchIDs
	kAgg       // Collection.Aggregate avg(value)
)

// opClass groups op kinds for the per-class latency metrics.
type opClass uint8

const (
	classRead opClass = iota
	classWrite
	classAgg
	numClasses
)

var classNames = [numClasses]string{"read", "write", "agg"}

var kindNames = [...]string{"insert", "get", "update", "delete", "search", "searchIDs", "aggregate"}

func (k opKind) String() string { return kindNames[k] }

func (k opKind) class() opClass {
	switch k {
	case kInsert, kUpdate, kDelete:
		return classWrite
	case kAgg:
		return classAgg
	}
	return classRead
}

// op is one generated request. Inputs are fixed by the seed before any
// request is sent; the program under test sees only these values.
type op struct {
	kind   opKind
	id     string         // target of get/update/delete, id of an insert
	fields map[string]any // insert/update payload; expected fields of a get
	pred   datablinder.Predicate
}

// workload is one traffic mix over one deployment shape.
type workload struct {
	name     string
	schema   func() *model.Schema
	shards   int
	durable  bool // WAL-backed shards at fsync=always
	preload  int
	patients int
	// capacity is the closed-loop op budget per measured second: the
	// closed phase issues capacity*seconds*closedShare ops, so the corpus
	// evolves identically on every commit whatever its speed. It was set
	// to the seed commit's closed-loop throughput on 2 vCPUs.
	capacity float64
	// rate is the open-loop offered rate in ops/s, about an eighth of
	// capacity (a quarter for the durable workloads): requests rarely
	// overlap, so open-loop latency stays close to service time even when
	// a shared machine runs slow.
	rate float64
	// mix gives each op kind's count per block of ops. Every block holds
	// exactly these counts in seeded random order, so class shares are
	// exact and a percentile never falls on a boundary between classes
	// by chance.
	mix []weighted
	// checks lists the query classes the quiescence check verifies.
	checkBool, checkRange bool
}

type weighted struct {
	n    int
	kind opKind
	pred string // which predicate family a read uses
}

// The closed phase gets 30% of the measured time (at the seed's
// throughput), the open phase 70%: a p99 needs at least ten samples beyond
// it, and a steady one many more.
const (
	closedShare = 0.3
	openShare   = 0.7
)

var workloads = map[string]*workload{
	// The paper's §5.2 set-up: tactic crypto, mostly Paillier, does the
	// work; the WAL and the ring do none.
	"fig5": {
		name:     "fig5",
		schema:   fhir.BenchmarkSchema,
		shards:   1,
		preload:  500,
		patients: 200,
		capacity: 450,
		rate:     60,
		mix: []weighted{
			{3, kInsert, ""},
			{2, kSearch, "subject"},
			{1, kSearch, "effective"},
			{3, kAgg, "code"},
		},
	},
	// Reads only, over a patient pool larger than keycache.DefaultSize:
	// coalescer read merging, ring fan-out, result decoding, doc getmany
	// and openDoc do the work; Paillier encryption and the WAL idle.
	"read": {
		name:     "read",
		schema:   fhir.ObservationSchema,
		shards:   3,
		preload:  3000,
		patients: 4096,
		capacity: 1100,
		rate:     125,
		mix: []weighted{
			{8, kGet, ""},
			{6, kSearch, "subject"},
			{3, kSearch, "code-status"},
			{3, kSearch, "effective-range"},
		},
		checkBool:  true,
		checkRange: true,
	},
	// Durable inserts beside equality reads: WAL fsync, coalescer group
	// commit and kvstore writes do the work. Not in BENCHMARK.json: its
	// latencies varied between runs by more than the largest bound, with
	// fsync=always and with the default interval policy alike.
	"ingest": {
		name:     "ingest",
		schema:   fhir.ObservationSchema,
		shards:   3,
		durable:  true,
		preload:  1000,
		patients: 500,
		capacity: 450,
		rate:     120,
		mix: []weighted{
			{15, kInsert, ""},
			{7, kSearchIDs, "subject"},
			{3, kSearchIDs, "code"},
		},
		checkBool:  true,
		checkRange: true,
	},
	// Updates and deletes on Zipf-skewed live ids beside equality reads:
	// docMu serialization and index maintenance. Not in BENCHMARK.json:
	// its check fails, because concurrent writes to one document leave
	// stale index entries (Engine.Update and Delete read the old document
	// before they take the schema's document lock).
	"churn": {
		name:     "churn",
		schema:   fhir.ObservationSchema,
		shards:   3,
		durable:  true,
		preload:  1000,
		patients: 500,
		capacity: 400,
		rate:     120,
		mix: []weighted{
			{4, kInsert, ""},
			{6, kUpdate, ""},
			{3, kDelete, ""},
			{5, kSearchIDs, "subject"},
			{2, kSearchIDs, "code"},
		},
		checkBool:  true,
		checkRange: true,
	},
}

// zipfS is the key skew of gets, updates and deletes.
const zipfS = 1.1

// plan is everything one run sends, generated from the seed.
type plan struct {
	preload []op
	closed  []op
	open    []op
	// due holds the open-loop arrival offsets (Poisson at the workload
	// rate); latency is timed from these.
	due []float64 // seconds from the open phase's start
	// model is the sequential history the generator assumed.
	model *corpusModel
}

// corpusModel tracks which documents exist and every version written to
// each, as the generator issued them. The quiescence check compares the
// stored documents with it.
type corpusModel struct {
	versions map[string][]map[string]any // id -> every version written
	deleted  map[string]bool             // ids a delete was issued for
	live     []string                    // ids not deleted, in insert order
	pos      map[string]int
}

func newCorpusModel() *corpusModel {
	return &corpusModel{versions: map[string][]map[string]any{}, deleted: map[string]bool{}, pos: map[string]int{}}
}

func (m *corpusModel) write(id string, fields map[string]any) {
	if _, ok := m.versions[id]; !ok {
		m.pos[id] = len(m.live)
		m.live = append(m.live, id)
	}
	m.versions[id] = append(m.versions[id], fields)
}

func (m *corpusModel) remove(id string) {
	i := m.pos[id]
	last := len(m.live) - 1
	m.live[i] = m.live[last]
	m.pos[m.live[i]] = i
	m.live = m.live[:last]
	delete(m.pos, id)
	m.deleted[id] = true
}

func (m *corpusModel) current(id string) map[string]any {
	v := m.versions[id]
	return v[len(v)-1]
}

// ids returns every id ever inserted, sorted.
func (m *corpusModel) ids() []string {
	out := make([]string, 0, len(m.versions))
	for id := range m.versions {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// opCounts returns the closed- and open-phase op counts for a run of the
// given length.
func (w *workload) opCounts(seconds int) (closed, open int) {
	closed = int(math.Round(w.capacity * float64(seconds) * closedShare))
	open = int(math.Round(w.rate * float64(seconds) * openShare))
	return max(closed, 1), max(open, 1)
}

// makePlan generates the run's inputs from seed.
func (w *workload) makePlan(seed int64, seconds int) *plan {
	rng := rand.New(rand.NewSource(seed))
	gen := fhir.NewGenerator(seed, w.patients, 0)
	m := newCorpusModel()
	p := &plan{model: m}
	for range w.preload {
		d := gen.Observation()
		m.write(d.ID, d.Fields)
		p.preload = append(p.preload, op{kind: kInsert, id: d.ID, fields: d.Fields})
	}
	nClosed, nOpen := w.opCounts(seconds)
	var block []weighted
	next := func() op {
		if len(block) == 0 {
			for _, c := range w.mix {
				for range c.n {
					block = append(block, c)
				}
			}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		pick := block[0]
		block = block[1:]
		return w.nextOp(rng, gen, m, pick)
	}
	for range nClosed {
		p.closed = append(p.closed, next())
	}
	t := 0.0
	for range nOpen {
		t += rng.ExpFloat64() / w.rate
		p.due = append(p.due, t)
		p.open = append(p.open, next())
	}
	return p
}

// zipfLive picks a live id with Zipf-skewed rank (rank 0 is the oldest
// surviving document, the hottest key).
func zipfLive(rng *rand.Rand, m *corpusModel) string {
	n := uint64(len(m.live))
	if n == 1 {
		return m.live[0]
	}
	return m.live[rand.NewZipf(rng, zipfS, 1, n-1).Uint64()]
}

func (w *workload) nextOp(rng *rand.Rand, gen *fhir.Generator, m *corpusModel, pick weighted) op {
	switch pick.kind {
	case kInsert:
		d := gen.Observation()
		m.write(d.ID, d.Fields)
		return op{kind: kInsert, id: d.ID, fields: d.Fields}
	case kGet:
		id := zipfLive(rng, m)
		return op{kind: kGet, id: id, fields: m.current(id)}
	case kUpdate:
		id := zipfLive(rng, m)
		fields := gen.Observation().Fields
		m.write(id, fields)
		return op{kind: kUpdate, id: id, fields: fields}
	case kDelete:
		id := zipfLive(rng, m)
		m.remove(id)
		return op{kind: kDelete, id: id}
	case kAgg:
		code := fhir.Codes[rng.Intn(len(fhir.Codes))]
		return op{kind: kAgg, pred: datablinder.Eq{Field: "code", Value: code}}
	}
	// Reads take their values from a Zipf-picked live document, so the
	// answer is never empty by construction.
	cur := m.current(zipfLive(rng, m))
	var pred datablinder.Predicate
	switch pick.pred {
	case "subject", "effective", "code":
		pred = datablinder.Eq{Field: pick.pred, Value: cur[pick.pred]}
	case "code-status":
		pred = datablinder.And{Preds: []datablinder.Predicate{
			datablinder.Eq{Field: "code", Value: cur["code"]},
			datablinder.Eq{Field: "status", Value: cur["status"]},
		}}
	case "effective-range":
		lo := cur["effective"].(int64)
		pred = datablinder.Between("effective", lo, lo+rangeWidth)
	default:
		panic(fmt.Sprintf("perfbench: unknown predicate family %q", pick.pred))
	}
	return op{kind: pick.kind, pred: pred}
}

// rangeWidth is the width of a Between(effective) query in seconds: two
// days of the generator's three-year span, about 0.2% of the corpus.
const rangeWidth = 2 * 24 * 3600
