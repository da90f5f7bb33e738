package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"datablinder/internal/coalesce"
	"datablinder/internal/planner"
	"datablinder/internal/store/wal"
	"datablinder/internal/transport"
)

// counters is one reading of every process-global and per-client counter
// the per-layer metrics are deltas of.
type counters struct {
	wire     transport.WireStatsSnapshot
	wal      wal.Stats
	coalesce coalesce.Stats
	tactics  planner.Snapshot
	rt       []metrics.Sample
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readCounters(g *gateway) counters {
	c := counters{
		wire:     transport.WireStats(),
		wal:      wal.Aggregate(),
		coalesce: g.coalesceStat(),
		tactics:  g.tacticStats(),
		rt:       make([]metrics.Sample, len(rtNames)),
	}
	for i, n := range rtNames {
		c.rt[i].Name = n
	}
	metrics.Read(c.rt)
	return c
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func rtValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tacticSeries are the (tactic, op) cost series reported per layer.
var tacticSeries = [][2]string{
	{"Paillier", "I"},
	{"DET", "I"}, {"DET", "EQ"},
	{"Mitra", "I"}, {"Mitra", "EQ"},
	{"RND", "I"},
	{"BIEX-2Lev", "I"}, {"BIEX-2Lev", "BL"},
	{"OPE", "I"}, {"OPE", "RG"},
}

// fsyncMeanUs is the mean fsync latency between two readings, 0 when no
// fsync ran.
func fsyncMeanUs(before, after counters) float64 {
	wb, wa := before.wal, after.wal
	return ratio(wa.FsyncMeanUs*float64(wa.Fsyncs)-wb.FsyncMeanUs*float64(wb.Fsyncs), float64(wa.Fsyncs-wb.Fsyncs))
}

// layerMetrics derives the counter-based per-layer metrics from two
// readings taken around the timed phases, which ran `ops` ops and wrote
// `userBytes` bytes of plaintext documents.
func layerMetrics(before, after counters, ops int, userBytes float64, out map[string]float64) {
	n := float64(ops)

	// transport: every frame is written once and read once in this
	// process, so frame bytes are half the codec totals.
	var framesOut, codecNs, codecBytes float64
	for name, m := range after.wire.Methods {
		b := before.wire.Methods[name]
		framesOut += float64(m.FramesOut - b.FramesOut)
		codecNs += float64(m.EncodeNs + m.DecodeNs - b.EncodeNs - b.DecodeNs)
	}
	for name, c := range after.wire.Codecs {
		codecBytes += float64(c.Bytes - before.wire.Codecs[name].Bytes)
	}
	out["transport.frames_per_op"] = framesOut / 2 / n
	out["transport.wire_bytes_per_op"] = codecBytes / 2 / n
	out["transport.codec_us_per_op"] = codecNs / 1e3 / n

	// coalesce
	cb, ca := before.coalesce, after.coalesce
	sub := float64(ca.SubCalls - cb.SubCalls)
	flushes := float64(ca.Flushes - cb.Flushes)
	out["coalesce.merge_rate"] = ratio(float64(ca.CoalescedSubCalls-cb.CoalescedSubCalls), sub)
	out["coalesce.subcalls_per_flush"] = ratio(sub, flushes)
	out["coalesce.dedup_hits_per_op"] = float64(ca.DedupHits-cb.DedupHits) / n
	out["coalesce.gets_merged_per_op"] = float64(ca.GetsMerged-cb.GetsMerged) / n
	out["coalesce.window_flush_share"] = ratio(float64(ca.FlushByTrigger["window"]-cb.FlushByTrigger["window"]), flushes)

	// tactics: the engine's own timing, as count and total per series.
	seriesMs := map[[2]string]float64{}
	var busyMs float64
	for name, t := range after.tactics.Tactics {
		for opName, o := range t.Ops {
			p := before.tactics.Tactics[name].Ops[opName]
			ms := o.AvgMs*float64(o.Count) - p.AvgMs*float64(p.Count)
			seriesMs[[2]string{name, opName}] = ms
			busyMs += ms
		}
	}
	out["tactics.busy_ms_per_op"] = busyMs / n
	for _, s := range tacticSeries {
		cnt := after.tactics.Tactics[s[0]].Ops[s[1]].Count - before.tactics.Tactics[s[0]].Ops[s[1]].Count
		out["tactics."+s[0]+"."+s[1]+"_per_op"] = float64(cnt) / n
		out["tactics."+s[0]+"."+s[1]+"_share"] = ratio(seriesMs[s], busyMs)
	}
	out["tactics.Paillier.rpcs_per_op"] = float64(after.tactics.Tactics["Paillier"].RPCs-before.tactics.Tactics["Paillier"].RPCs) / n

	// wal
	wb, wa := before.wal, after.wal
	fsyncs := float64(wa.Fsyncs - wb.Fsyncs)
	out["wal.fsyncs_per_op"] = fsyncs / n
	out["wal.records_per_fsync"] = ratio(float64(wa.Appends-wb.Appends), fsyncs)
	out["wal.bytes_per_user_byte"] = ratio(float64(wa.AppendBytes-wb.AppendBytes), userBytes)

	// runtime
	d := func(i int) float64 { return rtValue(after.rt[i]) - rtValue(before.rt[i]) }
	out["runtime.alloc_bytes_per_op"] = d(0) / n
	out["runtime.allocs_per_op"] = d(1) / n
	out["runtime.gc_cpu_share"] = ratio(d(2), d(3))
}

// stealTicks reads the host's steal time from /proc/stat in clock ticks
// (1/100 s), summed over CPUs; -1 where it is not available. A shared
// virtual machine loses this time to other guests.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	n, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
