package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"datablinder"
	"datablinder/internal/cloud"
	"datablinder/internal/cloud/ring"
	"datablinder/internal/coalesce"
	"datablinder/internal/core"
	"datablinder/internal/keys"
	"datablinder/internal/planner"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/store/wal"
	"datablinder/internal/tactics"
	"datablinder/internal/transport"
)

// cluster is the cloud tier of one run: one node per shard, each served
// over real TCP on 127.0.0.1 by the same server cmd/cloudserver runs.
type cluster struct {
	nodes   []*cloud.Node
	servers []*transport.Server
	addrs   []string
	dir     string // WAL directory of durable shards, "" in memory
}

func startCluster(w *workload, dir string) (*cluster, error) {
	c := &cluster{}
	if w.durable {
		c.dir = dir
	}
	for i := range w.shards {
		var opts cloud.Options
		if w.durable {
			shard := filepath.Join(dir, fmt.Sprintf("shard-%d", i))
			opts = cloud.Options{KVPath: filepath.Join(shard, "kv"), DocDir: filepath.Join(shard, "docs"), FsyncPolicy: "always"}
		}
		node, err := cloud.NewNode(opts)
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, node)
		srv := transport.NewServer(node.Mux)
		c.servers = append(c.servers, srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		c.addrs = append(c.addrs, addr)
	}
	return c, nil
}

func (c *cluster) close() {
	for _, s := range c.servers {
		s.Close()
	}
	for _, n := range c.nodes {
		if err := n.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing node:", err)
		}
	}
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}

// collection is the public per-schema API the load runs against:
// *datablinder.Collection itself, or the traced run's span-recording copy.
type collection interface {
	Insert(ctx context.Context, doc *datablinder.Document) (string, error)
	Get(ctx context.Context, id string) (*datablinder.Document, error)
	Update(ctx context.Context, doc *datablinder.Document) error
	Delete(ctx context.Context, id string) error
	Search(ctx context.Context, p datablinder.Predicate) ([]*datablinder.Document, error)
	SearchIDs(ctx context.Context, p datablinder.Predicate) ([]string, error)
	Aggregate(ctx context.Context, field string, agg datablinder.Agg, where datablinder.Predicate) (float64, error)
}

// gateway is an open client with the layer counters it exposes.
type gateway struct {
	col          collection
	tacticStats  func() planner.Snapshot
	coalesceStat func() coalesce.Stats
	close        func() error
}

// openGateway opens the untraced client exactly as an application does.
func openGateway(ctx context.Context, addrs []string, schema *datablinder.Schema) (*gateway, error) {
	client, err := datablinder.Open(ctx, datablinder.Options{CloudAddrs: addrs})
	if err != nil {
		return nil, err
	}
	if err := client.RegisterSchema(ctx, schema); err != nil {
		client.Close()
		return nil, err
	}
	return &gateway{
		col:          client.Entities(schema.Name),
		tacticStats:  client.TacticStats,
		coalesceStat: client.CoalesceStats,
		close:        client.Close,
	}, nil
}

// openTracedGateway assembles the gateway the way datablinder.Open does
// for Options{CloudAddrs: addrs}, step for step, except that every shard's
// TCP client is wrapped in a span-recording conn before the ring and the
// engine (whose write coalescers then sit above the wrapper) see it.
func openTracedGateway(ctx context.Context, addrs []string, schema *datablinder.Schema, tr *tracer) (*gateway, error) {
	provider, err := keys.NewRandomStore()
	if err != nil {
		return nil, fmt.Errorf("key setup: %w", err)
	}
	if _, err := wal.ParsePolicy(""); err != nil {
		return nil, err
	}
	local := kvstore.New()
	conns := make([]transport.Conn, 0, len(addrs))
	for i, addr := range addrs {
		conn, err := transport.Dial(addr, transport.DialOptions{})
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			local.Close()
			return nil, fmt.Errorf("dialing shard %s: %w", addr, err)
		}
		conns = append(conns, &tracedConn{under: conn, shard: i, tr: tr})
	}
	var cloudConn transport.Conn
	if len(conns) == 1 {
		cloudConn = conns[0]
	} else {
		cloudConn = ring.NewClient(conns, 0)
	}
	closeAll := func() error {
		err := cloudConn.Close()
		if lerr := local.Close(); lerr != nil && err == nil && !errors.Is(lerr, kvstore.ErrClosed) {
			err = lerr
		}
		return err
	}
	registry, err := tactics.Registry()
	if err != nil {
		closeAll()
		return nil, err
	}
	engine, err := core.NewEngine(core.Config{
		Keys:     provider,
		Cloud:    cloudConn,
		Local:    local,
		Registry: registry,
		Coalesce: coalesce.Options{},
	})
	if err != nil {
		closeAll()
		return nil, err
	}
	if err := engine.LoadSchemas(ctx); err != nil {
		engine.Close()
		closeAll()
		return nil, fmt.Errorf("restoring schemas: %w", err)
	}
	if err := engine.RegisterSchema(ctx, schema); err != nil {
		engine.Close()
		closeAll()
		return nil, err
	}
	return &gateway{
		col:          &tracedCollection{e: engine, schema: schema.Name, tr: tr},
		tacticStats:  engine.TacticStats,
		coalesceStat: engine.CoalesceStats,
		close: func() error {
			engine.Close()
			return closeAll()
		},
	}, nil
}

// tracedConn records one RPC span per call it forwards to one shard's TCP
// client. It forwards the wire codec and the batch path so the layers
// above it encode and frame exactly as they do over the bare client:
// without WireCodec the coalescer would size and encode for JSON, and
// without CallBatch batches would fall back to the v1 JSON framing.
type tracedConn struct {
	under transport.Conn
	shard int
	tr    *tracer
}

func (c *tracedConn) Call(ctx context.Context, service, method string, args, reply any) error {
	start := c.tr.now()
	err := c.under.Call(ctx, service, method, args, reply)
	c.tr.rpc(c.shard, start)
	return err
}

// CallBatch implements transport.BatchCaller by handing the batch to the
// wrapped client's native framing.
func (c *tracedConn) CallBatch(ctx context.Context, calls []transport.BatchCall) ([]transport.BatchResult, error) {
	start := c.tr.now()
	res, err := transport.CallBatch(ctx, c.under, calls)
	c.tr.rpc(c.shard, start)
	return res, err
}

// WireCodec reports the wrapped client's negotiated codec.
func (c *tracedConn) WireCodec() transport.WireCodec { return transport.ConnCodec(c.under) }

func (c *tracedConn) Close() error { return c.under.Close() }

// tracedCollection records the request-root span around each engine call,
// standing in for the one-line datablinder.Collection forwarders.
type tracedCollection struct {
	e      *core.Engine
	schema string
	tr     *tracer
}

func (t *tracedCollection) Insert(ctx context.Context, doc *datablinder.Document) (string, error) {
	defer t.tr.op(classWrite, t.tr.now())
	return t.e.Insert(ctx, t.schema, doc)
}

func (t *tracedCollection) Get(ctx context.Context, id string) (*datablinder.Document, error) {
	defer t.tr.op(classRead, t.tr.now())
	return t.e.Get(ctx, t.schema, id)
}

func (t *tracedCollection) Update(ctx context.Context, doc *datablinder.Document) error {
	defer t.tr.op(classWrite, t.tr.now())
	return t.e.Update(ctx, t.schema, doc)
}

func (t *tracedCollection) Delete(ctx context.Context, id string) error {
	defer t.tr.op(classWrite, t.tr.now())
	return t.e.Delete(ctx, t.schema, id)
}

func (t *tracedCollection) Search(ctx context.Context, p datablinder.Predicate) ([]*datablinder.Document, error) {
	defer t.tr.op(classRead, t.tr.now())
	return t.e.Search(ctx, t.schema, p)
}

func (t *tracedCollection) SearchIDs(ctx context.Context, p datablinder.Predicate) ([]string, error) {
	defer t.tr.op(classRead, t.tr.now())
	return t.e.SearchIDs(ctx, t.schema, p)
}

func (t *tracedCollection) Aggregate(ctx context.Context, field string, agg datablinder.Agg, where datablinder.Predicate) (float64, error) {
	defer t.tr.op(classAgg, t.tr.now())
	return t.e.Aggregate(ctx, t.schema, field, agg, where)
}
