// Command perfbench is the repository benchmark: it drives the public
// datablinder API over real TCP on 127.0.0.1 against in-process cloud
// shards, measures one workload end to end, checks every answer class
// against a plaintext oracle, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload fig5|read|ingest|churn --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 repeats the run
// with a traced gateway and reports the per-layer metrics. METRICS.md in
// this directory defines every metric and workload.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"time"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// settle is the idle pause between set-up and the timed phases, so
// background work set-up started (the Paillier mask pools refilling after
// the preload drained them) has finished when timing starts.
const settle = time.Second

// lagBoundMs invalidates a run whose open-loop generator started its
// requests late by more than this at the 99th percentile.
const lagBoundMs = 50.0

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: fig5, read, ingest or churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 24, "measured seconds (closed plus open phase)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := benchmark(context.Background(), w, *seed, *seconds, *trace == 1)
	if err != nil {
		logf("perfbench: %v", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("perfbench: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// closedSlices is how many consecutive slices the closed phase runs in;
// its throughput and CPU cost are the medians over the slices, so a
// transient stall on a shared machine moves one slice, not the result.
const closedSlices = 8

// slice is one slice of the closed phase.
type slice struct {
	ops     int
	elapsed time.Duration
	cpu     time.Duration // process user+sys
	traced  bool          // spans were recorded
}

// pass is one measured run over one gateway.
type pass struct {
	slices        []slice
	closed, open  []outcome
	before, after counters
	chk           checkResult
	stealTicks    int64 // host steal during the timed phases, all CPUs
}

func (p *pass) ops() int { return len(p.closed) + len(p.open) }

func (p *pass) failed() int {
	n := p.chk.wrong
	for _, outs := range [][]outcome{p.closed, p.open} {
		for _, o := range outs {
			if o.wrong {
				n++
			}
		}
	}
	return n
}

func (p *pass) throughput() float64 {
	var xs []float64
	for _, s := range p.slices {
		xs = append(xs, float64(s.ops)/s.elapsed.Seconds())
	}
	return median(xs)
}

// traceOverhead is the closed-loop throughput without spans over that
// with spans, median over the adjacent slice pairs of a traced pass.
func (p *pass) traceOverhead() float64 {
	var xs []float64
	for k := 0; k+1 < len(p.slices); k += 2 {
		a, b := p.slices[k], p.slices[k+1]
		if a.traced {
			a, b = b, a
		}
		xs = append(xs, (float64(a.ops)/a.elapsed.Seconds())/(float64(b.ops)/b.elapsed.Seconds()))
	}
	return median(xs)
}

func (p *pass) cpuMsPerOp() float64 {
	var xs []float64
	for _, s := range p.slices {
		xs = append(xs, float64(s.cpu)/1e6/float64(s.ops))
	}
	return median(xs)
}

// openLatMs returns the open-loop latencies in ms of the given classes.
func (p *pass) openLatMs(classes ...opClass) []float64 {
	var out []float64
	for _, o := range p.open {
		for _, c := range classes {
			if o.class == c {
				out = append(out, float64(o.lat)/1e6)
			}
		}
	}
	return out
}

func benchmark(ctx context.Context, w *workload, seed int64, seconds int, traced bool) (*result, error) {
	base, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	workers := runtime.NumCPU()
	p := w.makePlan(seed, seconds)
	collection := w.schema().Name

	var cl *cluster
	var g *gateway
	setups := make([]float64, 0, setupRepeats)
	for i := range setupRepeats {
		t0 := time.Now()
		cl, g, err = setup(ctx, w, p, filepath.Join(base, fmt.Sprint("setup-", i)), workers, nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			g.close()
			cl.close()
		}
	}
	un, err := measure(ctx, w, p, g, seed, workers, nil)
	storage, live := storageBytes(cl, collection, un.chk)
	heapMB := liveHeapMB()
	g.close()
	cl.close()
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: un.ops() + un.chk.queries, Failed: un.failed(), Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }

	lag := make([]float64, 0, len(un.open))
	for _, o := range un.open {
		lag = append(lag, float64(o.lag)/1e6)
	}
	lagP99 := quantile(lag, 0.99)
	if lagP99 > lagBoundMs {
		return nil, fmt.Errorf("run invalid: open-loop generator lag p99 %.2f ms exceeds %.1f ms", lagP99, lagBoundMs)
	}
	if n := len(un.open); n < 1000 {
		logf("perfbench: warning: %d open-loop samples leave fewer than 10 beyond p99", n)
	}
	all := un.openLatMs(classRead, classWrite, classAgg)
	p99 := quantile(all, 0.99)
	fmt.Printf("%s seed %d: closed %d ops in %d slices, open %d ops at %.0f ops/s, check %d queries, %d failed\n",
		w.name, seed, len(un.closed), closedSlices, len(un.open), w.rate, un.chk.queries, un.failed())
	fmt.Printf("  p50_ms %.4f p99_ms %.4f (n=%d, %d beyond p99)\n", median(all), p99, len(all), len(all)-int(math.Ceil(0.99*float64(len(all)))))
	for c := range numClasses {
		if lat := un.openLatMs(c); len(lat) > 0 {
			fmt.Printf("  %s_p50_ms %.4f (n=%d)\n", classNames[c], median(lat), len(lat))
		}
	}
	if un.stealTicks >= 0 {
		fmt.Printf("  host steal %.2f CPU-s during the timed phases\n", float64(un.stealTicks)/100)
	}
	if us := fsyncMeanUs(un.before, un.after); us > 0 {
		fmt.Printf("  wal.fsync_mean_us %.2f (sandbox disk)\n", us)
	}

	if !traced {
		put("throughput_ops_s", un.throughput(), "ops/s")
		put("p50_ms", median(all), "ms")
		put("read_p50_ms", median(un.openLatMs(classRead)), "ms")
		put("cpu_ms_per_op", un.cpuMsPerOp(), "ms")
		put("setup_s", median(setups), "s")
		put("storage_bytes_per_user_byte", float64(storage.total())/float64(storage.user), "ratio")
		put("live_heap_mb", heapMB, "MB")
	} else {
		layers := map[string]float64{}
		layerMetrics(un.before, un.after, un.ops(), userBytesWritten(p), layers)
		for k, v := range layers {
			put(k, v, unitOf(k))
		}
		put("loadgen.open_samples", float64(len(un.open)), "count")
		put("loadgen.p99_ms", p99, "ms")
		put("loadgen.lag_p99_ms", lagP99, "ms")
		put("kvstore.index_bytes_per_doc", float64(storage.kv)/float64(live), "B")
		put("docstore.blob_bytes_per_doc", float64(storage.docs)/float64(live), "B")

		tr := newTracer()
		tcl, tg, err := setup(ctx, w, p, filepath.Join(base, "traced"), workers, tr)
		if err != nil {
			return nil, fmt.Errorf("traced setup: %w", err)
		}
		tp, err := measure(ctx, w, p, tg, seed, workers, tr)
		tg.close()
		tcl.close()
		if err != nil {
			return nil, err
		}
		res.Attempted += tp.ops() + tp.chk.queries
		res.Failed += tp.failed()
		st := tr.analyse()
		var self []float64
		for c := range numClasses {
			self = append(self, st.selfMs[c]...)
			if len(st.selfMs[c]) > 0 {
				fmt.Printf("  core.gateway_self_ms.%s %.4f (n=%d isolated)\n", classNames[c], median(st.selfMs[c]), len(st.selfMs[c]))
			}
		}
		put("core.gateway_self_ms", median(self), "ms")
		put("core.gateway_self_ms.read", median(st.selfMs[classRead]), "ms")
		put("transport.rpc_ms_p50", median(st.rpcMs), "ms")
		put("transport.rpc_ms_p99", quantile(st.rpcMs, 0.99), "ms")
		lo, hi := -1, 0
		for s := range w.shards {
			n := st.rpcsByShard[s]
			hi = max(hi, n)
			if lo < 0 || n < lo {
				lo = n
			}
		}
		put("ring.shard_rpc_skew", ratio(float64(hi), float64(lo)), "ratio")
		put("ring.rpcs_per_read", ratio(float64(st.readRPCs), float64(st.readOps)), "count")
		put("loadgen.trace_overhead", tp.traceOverhead(), "ratio")
		dump := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, seed))
		if err := tr.write(dump); err != nil {
			logf("perfbench: writing spans: %v", err)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// setup starts the cloud shards, opens the gateway (traced when tr is
// set), registers the schema and preloads the corpus.
func setup(ctx context.Context, w *workload, p *plan, dir string, workers int, tr *tracer) (*cluster, *gateway, error) {
	cl, err := startCluster(w, dir)
	if err != nil {
		return nil, nil, err
	}
	schema := w.schema()
	var g *gateway
	if tr != nil {
		g, err = openTracedGateway(ctx, cl.addrs, schema, tr)
	} else {
		g, err = openGateway(ctx, cl.addrs, schema)
	}
	if err != nil {
		cl.close()
		return nil, nil, err
	}
	r := newRunner(g.col)
	var failed atomic.Bool
	parallel(len(p.preload), workers, func(i int) {
		if r.exec(ctx, &p.preload[i]) {
			failed.Store(true)
		}
	})
	if failed.Load() {
		g.close()
		cl.close()
		return nil, nil, fmt.Errorf("preload: %v", r.errs)
	}
	return cl, g, nil
}

// measure runs the closed and the open phase, then the quiescence check.
func measure(ctx context.Context, w *workload, p *plan, g *gateway, seed int64, workers int, tr *tracer) (*pass, error) {
	ps := &pass{closed: make([]outcome, len(p.closed)), open: make([]outcome, len(p.open))}
	r := newRunner(g.col)
	time.Sleep(settle)
	ps.before = readCounters(g)
	steal0 := stealTicks()
	for k := range closedSlices {
		traced := false
		if tr != nil {
			// Spans go on and off by slice, in the order off-on, on-off,
			// ..., so paired slices cancel the machine's drift and the
			// corpus's growth when tracing overhead is taken from them.
			traced = (k%2 == 1) != (k/2%2 == 1)
			tr.on.Store(traced)
		}
		lo, hi := k*len(p.closed)/closedSlices, (k+1)*len(p.closed)/closedSlices
		cpu0 := processCPU()
		elapsed := r.closedLoop(ctx, p.closed[lo:hi], workers, ps.closed[lo:hi])
		ps.slices = append(ps.slices, slice{ops: hi - lo, elapsed: elapsed, cpu: processCPU() - cpu0, traced: traced})
	}
	if tr != nil {
		tr.on.Store(true)
	}
	r.openLoop(ctx, p.open, p.due, workers, ps.open)
	if tr != nil {
		tr.on.Store(false)
	}
	ps.after = readCounters(g)
	ps.stealTicks = -1
	if steal1 := stealTicks(); steal0 >= 0 && steal1 >= 0 {
		ps.stealTicks = steal1 - steal0
	}
	for _, e := range r.errs {
		logf("perfbench: op failed: %s", e)
	}
	ps.chk = check(ctx, w, p, g.col, seed, workers)
	if len(ps.chk.final) == 0 {
		return ps, errors.New("check read back no documents")
	}
	return ps, nil
}

type storage struct {
	kv, docs, wal int64
	user          int64
}

func (s storage) total() int64 { return s.kv + s.docs + s.wal }

// storageBytes sums what the cloud stores against the plaintext bytes of
// the live documents (their JSON encoding).
func storageBytes(cl *cluster, collection string, chk checkResult) (storage, int) {
	var s storage
	for _, n := range cl.nodes {
		ns, err := n.KV.Stats()
		if err != nil {
			logf("perfbench: kv stats: %v", err)
		}
		for _, st := range ns {
			s.kv += st.Bytes
		}
		after := ""
		for {
			recs, err := n.Docs.Scan(collection, after, 1000)
			if err != nil || len(recs) == 0 {
				break
			}
			for _, r := range recs {
				s.docs += int64(len(r.Blob))
			}
			after = recs[len(recs)-1].ID
		}
	}
	if cl.dir != "" {
		s.wal = dirBytes(cl.dir)
	}
	for _, f := range chk.final {
		b, _ := json.Marshal(f)
		s.user += int64(len(b))
	}
	return s, len(chk.final)
}

// userBytesWritten is the plaintext size of every insert and update the
// timed phases send.
func userBytesWritten(p *plan) float64 {
	var n int
	for _, ops := range [][]op{p.closed, p.open} {
		for _, o := range ops {
			if o.kind == kInsert || o.kind == kUpdate {
				b, _ := json.Marshal(o.fields)
				n += len(b)
			}
		}
	}
	return float64(n)
}

func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// unitOf names the unit of a counter-based per-layer metric.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, "_ms_per_op"):
		return "ms"
	case strings.HasSuffix(name, "_us"), strings.HasSuffix(name, "_us_per_op"):
		return "us"
	case strings.HasSuffix(name, "bytes_per_op"):
		return "B"
	case strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_rate"), strings.HasSuffix(name, "per_user_byte"):
		return "ratio"
	}
	return "count"
}
