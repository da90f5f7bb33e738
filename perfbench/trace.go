package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval: a request root (an op, kind 'o') or an
// RPC forwarded to one shard (kind 'r'). Times are nanoseconds since the
// tracer's epoch.
type span struct {
	Kind  byte    `json:"k"`
	Class opClass `json:"c,omitempty"` // ops only
	Shard int     `json:"s,omitempty"` // RPCs only
	Start int64   `json:"b"`
	End   int64   `json:"e"`
}

// tracer keeps spans in memory while on; they are analysed and written
// out after the run.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) op(c opClass, start int64) {
	t.add(span{Kind: 'o', Class: c, Start: start, End: t.now()})
}

func (t *tracer) rpc(shard int, start int64) {
	t.add(span{Kind: 'r', Shard: shard, Start: start, End: t.now()})
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats is what the per-layer metrics take from the spans.
type spanStats struct {
	selfMs      [numClasses][]float64 // per isolated op: duration minus RPC-covered time
	rpcMs       []float64
	rpcsByShard map[int]int
	readOps     int // isolated reads
	readRPCs    int // RPC spans within isolated reads
}

// analyse relates RPC spans to the ops they served. The write coalescer
// sends merged batches detached from any one caller's context, so an RPC
// cannot be tied to its caller by identifier. An op that overlapped no
// other op is different: every RPC overlapping it is its own. Self time
// and RPCs per read are therefore taken over these isolated ops, which
// the open phase at its low offered rate provides.
func (t *tracer) analyse() spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ops, rpcs []span
	st := spanStats{rpcsByShard: map[int]int{}}
	for _, s := range t.spans {
		if s.Kind == 'o' {
			ops = append(ops, s)
			continue
		}
		rpcs = append(rpcs, s)
		st.rpcMs = append(st.rpcMs, float64(s.End-s.Start)/1e6)
		st.rpcsByShard[s.Shard]++
	}
	byStart := func(xs []span) {
		sort.Slice(xs, func(i, j int) bool { return xs[i].Start < xs[j].Start })
	}
	byStart(ops)
	byStart(rpcs)
	var prevEnd int64 // latest end among ops before i
	j := 0            // first RPC that may overlap ops[i:]
	for i, o := range ops {
		isolated := prevEnd <= o.Start && (i+1 == len(ops) || ops[i+1].Start >= o.End)
		prevEnd = max(prevEnd, o.End)
		if !isolated {
			continue
		}
		// Ops before o ended before it started, so their RPCs did too.
		for j < len(rpcs) && rpcs[j].End <= o.Start {
			j++
		}
		var covered int64
		cursor, n := o.Start, 0
		for k := j; k < len(rpcs) && rpcs[k].Start < o.End; k++ {
			r := rpcs[k]
			if r.End <= o.Start {
				continue
			}
			n++
			lo, hi := max(r.Start, cursor), min(r.End, o.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		st.selfMs[o.Class] = append(st.selfMs[o.Class], float64(o.End-o.Start-covered)/1e6)
		if o.Class == classRead {
			st.readOps++
			st.readRPCs += n
		}
	}
	return st
}
