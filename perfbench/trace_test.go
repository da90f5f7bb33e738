package main

import (
	"context"
	"fmt"
	"testing"

	"datablinder/internal/cloud"
	"datablinder/internal/coalesce"
	"datablinder/internal/transport"
)

// wireCounts is the delta of the frame counters the traced wrapper must
// leave unchanged.
type wireCounts struct {
	jsonFrames  uint64 // frames framed as v1 JSON, either direction
	batchFrames uint64 // _batch.exec frames written, either end
	batchBytes  uint64 // their bytes
}

func wireDelta(t *testing.T, fn func()) wireCounts {
	t.Helper()
	before := transport.WireStats()
	fn()
	after := transport.WireStats()
	return wireCounts{
		jsonFrames:  after.Codecs["json"].Frames - before.Codecs["json"].Frames,
		batchFrames: after.Methods["_batch.exec"].FramesOut - before.Methods["_batch.exec"].FramesOut,
		batchBytes:  after.Methods["_batch.exec"].BytesOut - before.Methods["_batch.exec"].BytesOut,
	}
}

// bareConn forwards calls only: the wrapper the traced run must not be.
type bareConn struct{ under transport.Conn }

func (c bareConn) Call(ctx context.Context, service, method string, args, reply any) error {
	return c.under.Call(ctx, service, method, args, reply)
}
func (c bareConn) Close() error { return c.under.Close() }

// TestTracedConnKeepsWirePath sends the same batches over a bare TCP
// client and over the traced run's shard wrapper, directly and through a
// write coalescer: the wrapper must negotiate the binary codec, send no
// JSON frame and frame batches exactly as the bare client does. A
// wrapper that forwards only Call is the control that the counters see
// the difference.
func TestTracedConnKeepsWirePath(t *testing.T) {
	ctx := context.Background()
	node, err := cloud.NewNode(cloud.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	srv := transport.NewServer(node.Mux)
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Enough payload for several 56 KiB chunks.
	calls := make([]transport.BatchCall, 120)
	blob := make([]byte, 2000)
	for i := range calls {
		calls[i] = transport.BatchCall{Service: cloud.DocService, Method: "put",
			Args: cloud.DocPutArgs{Collection: "c", ID: fmt.Sprintf("d%03d", i), Blob: blob}}
	}
	send := func(conn transport.Conn) wireCounts {
		return wireDelta(t, func() {
			if _, err := transport.CallBatch(ctx, conn, calls); err != nil {
				t.Fatal(err)
			}
			cc := coalesce.New(conn, coalesce.Options{})
			if _, err := cc.CallBatch(ctx, calls); err != nil {
				t.Fatal(err)
			}
			cc.Drain()
		})
	}
	dial := func() transport.Conn {
		c, err := transport.Dial(addr, transport.DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}

	bare := send(dial())
	tr := newTracer()
	tr.on.Store(true)
	traced := &tracedConn{under: dial(), tr: tr}
	if name := transport.ConnCodec(traced).Name(); name != "binary" {
		t.Fatalf("traced conn codec = %s, want binary", name)
	}
	got := send(traced)
	if bare.jsonFrames != 0 || got.jsonFrames != 0 {
		t.Fatalf("JSON frames: bare %d, traced %d; want 0", bare.jsonFrames, got.jsonFrames)
	}
	if bare.batchFrames < 4 || got != bare {
		t.Fatalf("_batch.exec frames/bytes: traced %d/%d, bare %d/%d (want equal, at least 4 frames)",
			got.batchFrames, got.batchBytes, bare.batchFrames, bare.batchBytes)
	}
	if st := tr.analyse(); len(st.rpcMs) == 0 {
		t.Fatal("traced conn recorded no RPC spans")
	}
	if ctl := send(bareConn{under: dial()}); ctl == bare {
		t.Fatal("control: a Call-only wrapper framed batches like the bare client; the counters cannot tell the paths apart")
	}
}

// TestTracedRunMatchesUntraced runs a small workload through the untraced
// and the traced gateway: neither may send a JSON frame, both must batch,
// and both must pass the quiescence check.
func TestTracedRunMatchesUntraced(t *testing.T) {
	ctx := context.Background()
	w := *workloads["read"]
	w.preload, w.capacity, w.rate = 300, 150, 150
	w.mix = []weighted{{1, kInsert, ""}, {1, kSearch, "code-status"}}
	p := w.makePlan(7, 1)
	run := func(tr *tracer) wireCounts {
		var ps *pass
		c := wireDelta(t, func() {
			cl, g, err := setup(ctx, &w, p, t.TempDir(), 2, tr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.close()
			defer g.close()
			ps, err = measure(ctx, &w, p, g, 7, 2, tr)
			if err != nil {
				t.Fatal(err)
			}
		})
		if n := ps.failed(); n != 0 {
			t.Fatalf("%d failed ops or wrong answers", n)
		}
		return c
	}
	un := run(nil)
	tr := newTracer()
	traced := run(tr)
	if un.jsonFrames != 0 || traced.jsonFrames != 0 {
		t.Fatalf("JSON frames: untraced %d, traced %d; want 0", un.jsonFrames, traced.jsonFrames)
	}
	if un.batchFrames == 0 || traced.batchFrames == 0 {
		t.Fatalf("_batch.exec frames: untraced %d, traced %d; want both > 0", un.batchFrames, traced.batchFrames)
	}
	st := tr.analyse()
	if len(st.selfMs[classRead]) == 0 || len(st.selfMs[classWrite]) == 0 || len(st.rpcMs) == 0 {
		t.Fatal("traced run recorded no op or RPC spans")
	}
}
