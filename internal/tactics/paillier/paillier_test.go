package paillier_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/spi"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics/paillier"
	"datablinder/internal/transport"
)

type env struct {
	binding spi.Binding
	cloudKV *kvstore.Store
}

func newEnv(t *testing.T) env {
	t.Helper()
	mux := transport.NewMux()
	cloudKV := kvstore.New()
	t.Cleanup(func() { cloudKV.Close() })
	paillier.RegisterCloud(mux, cloudKV)
	kp, err := keys.NewRandomStore()
	if err != nil {
		t.Fatal(err)
	}
	local := kvstore.New()
	t.Cleanup(func() { local.Close() })
	return env{
		binding: spi.Binding{Schema: "obs", Keys: kp, Cloud: transport.NewLoopback(mux), Local: local},
		cloudKV: cloudKV,
	}
}

func instance(t *testing.T, e env) spi.Tactic {
	t.Helper()
	inst, err := paillier.New(e.binding)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Setup(context.Background()); err != nil {
		t.Fatalf("Setup: %v", err)
	}
	return inst
}

func TestSumAndAverage(t *testing.T) {
	e := newEnv(t)
	inst := instance(t, e)
	ctx := context.Background()
	ins := inst.(spi.Inserter)
	agg := inst.(spi.Aggregator)

	values := map[string]float64{"d1": 6.3, "d2": 5.1, "d3": 7.9}
	var ids []string
	var sum float64
	for id, v := range values {
		if err := ins.Insert(ctx, "value", id, v); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		sum += v
	}
	got, err := agg.Aggregate(ctx, "value", model.AggSum, ids)
	if err != nil {
		t.Fatalf("sum: %v", err)
	}
	if math.Abs(got-sum) > 1e-6 {
		t.Fatalf("sum = %g, want %g", got, sum)
	}
	got, err = agg.Aggregate(ctx, "value", model.AggAvg, ids)
	if err != nil {
		t.Fatalf("avg: %v", err)
	}
	if math.Abs(got-sum/3) > 1e-6 {
		t.Fatalf("avg = %g, want %g", got, sum/3)
	}
}

func TestNegativeAndIntValues(t *testing.T) {
	e := newEnv(t)
	inst := instance(t, e)
	ctx := context.Background()
	ins := inst.(spi.Inserter)
	if err := ins.Insert(ctx, "v", "d1", int64(-50)); err != nil {
		t.Fatal(err)
	}
	if err := ins.Insert(ctx, "v", "d2", 30); err != nil {
		t.Fatal(err)
	}
	got, err := inst.(spi.Aggregator).Aggregate(ctx, "v", model.AggSum, []string{"d1", "d2"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-(-20)) > 1e-6 {
		t.Fatalf("sum = %g, want -20", got)
	}
}

func TestMissingDocsSkipped(t *testing.T) {
	e := newEnv(t)
	inst := instance(t, e)
	ctx := context.Background()
	if err := inst.(spi.Inserter).Insert(ctx, "v", "d1", 10.0); err != nil {
		t.Fatal(err)
	}
	// d2 never inserted: the average must divide by the count of present
	// ciphertexts, not the requested ids.
	got, err := inst.(spi.Aggregator).Aggregate(ctx, "v", model.AggAvg, []string{"d1", "d2", "d3"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-6 {
		t.Fatalf("avg with misses = %g, want 10", got)
	}
}

func TestEmptyAggregate(t *testing.T) {
	e := newEnv(t)
	inst := instance(t, e)
	got, err := inst.(spi.Aggregator).Aggregate(context.Background(), "v", model.AggSum, nil)
	if err != nil || got != 0 {
		t.Fatalf("empty sum = %g, %v", got, err)
	}
}

func TestDeleteRemovesCiphertext(t *testing.T) {
	e := newEnv(t)
	inst := instance(t, e)
	ctx := context.Background()
	inst.(spi.Inserter).Insert(ctx, "v", "d1", 10.0)
	inst.(spi.Inserter).Insert(ctx, "v", "d2", 20.0)
	if err := inst.(spi.Deleter).Delete(ctx, "v", "d1", nil); err != nil {
		t.Fatal(err)
	}
	got, err := inst.(spi.Aggregator).Aggregate(ctx, "v", model.AggSum, []string{"d1", "d2"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-20) > 1e-6 {
		t.Fatalf("sum after delete = %g", got)
	}
}

func TestKeyPersistsAcrossInstances(t *testing.T) {
	// A restarted gateway must decrypt sums over ciphertexts produced by
	// the previous instance (the Paillier key is persisted locally).
	e := newEnv(t)
	ctx := context.Background()
	inst1 := instance(t, e)
	if err := inst1.(spi.Inserter).Insert(ctx, "v", "d1", 42.0); err != nil {
		t.Fatal(err)
	}
	inst2 := instance(t, e)
	got, err := inst2.(spi.Aggregator).Aggregate(ctx, "v", model.AggSum, []string{"d1"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-42) > 1e-6 {
		t.Fatalf("sum across restart = %g", got)
	}
	// The record holds the two primes and nothing derivable from them.
	raw, ok, err := e.binding.Local.Get([]byte("paillierkey/obs"))
	if err != nil || !ok {
		t.Fatalf("stored key: ok=%v err=%v", ok, err)
	}
	var rec map[string][]byte
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec) != 2 || len(rec["p"]) != paillier.KeyBits/16 || len(rec["q"]) != paillier.KeyBits/16 {
		t.Fatalf("stored key fields = %v, want 512-bit p and q only", rec)
	}
}

// TestStoredKeyWithoutPrimesFailsSetup: a record lacking p and q must fail
// Setup naming the schema, and must never be replaced by a new key, which
// would orphan every stored ciphertext.
func TestStoredKeyWithoutPrimesFailsSetup(t *testing.T) {
	e := newEnv(t)
	old := []byte(`{"n":"AQ==","lambda":"AQ==","mu":"AQ=="}`)
	if err := e.binding.Local.Set([]byte("paillierkey/obs"), old); err != nil {
		t.Fatal(err)
	}
	inst, err := paillier.New(e.binding)
	if err != nil {
		t.Fatal(err)
	}
	err = inst.Setup(context.Background())
	if err == nil || !strings.Contains(err.Error(), `"obs"`) {
		t.Fatalf("Setup = %v, want an error naming schema \"obs\"", err)
	}
	raw, _, _ := e.binding.Local.Get([]byte("paillierkey/obs"))
	if !bytes.Equal(raw, old) {
		t.Fatalf("stored key rewritten to %s", raw)
	}
}

// TestSumWithoutFieldIsCountZero: a cloud sum over ids none of which have
// the field replies with the trivial ciphertext 1 and count 0, and the
// gateway decodes 0.
func TestSumWithoutFieldIsCountZero(t *testing.T) {
	e := newEnv(t)
	inst := instance(t, e)
	ctx := context.Background()
	if err := inst.(spi.Inserter).Insert(ctx, "other", "d1", 5.0); err != nil {
		t.Fatal(err)
	}
	var reply paillier.SumReply
	if err := e.binding.Cloud.Call(ctx, paillier.Service, "sum",
		paillier.SumArgs{Schema: "obs", Field: "v", DocIDs: []string{"d1", "d2"}}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Count != 0 || !bytes.Equal(reply.CT, []byte{1}) {
		t.Fatalf("reply = %x count %d, want 01 count 0", reply.CT, reply.Count)
	}
	for _, a := range []model.Agg{model.AggSum, model.AggAvg} {
		got, err := inst.(spi.Aggregator).Aggregate(ctx, "v", a, []string{"d1", "d2"})
		if err != nil || got != 0 {
			t.Fatalf("%s over docs without the field = %g, %v", a, got, err)
		}
	}
}

func TestRejectsNonNumeric(t *testing.T) {
	e := newEnv(t)
	inst := instance(t, e)
	if err := inst.(spi.Inserter).Insert(context.Background(), "v", "d1", "not a number"); err == nil {
		t.Fatal("string value accepted")
	}
}

func TestSetupRequired(t *testing.T) {
	e := newEnv(t)
	inst, err := paillier.New(e.binding)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.(spi.Inserter).Insert(context.Background(), "v", "d1", 1.0); err == nil {
		t.Fatal("Insert before Setup succeeded")
	}
}

func TestFixedPointPrecision(t *testing.T) {
	e := newEnv(t)
	inst := instance(t, e)
	ctx := context.Background()
	// Six decimal places survive the fixed-point encoding.
	inst.(spi.Inserter).Insert(ctx, "v", "d1", 0.000001)
	inst.(spi.Inserter).Insert(ctx, "v", "d2", 0.000002)
	got, err := inst.(spi.Aggregator).Aggregate(ctx, "v", model.AggSum, []string{"d1", "d2"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.000003) > 1e-9 {
		t.Fatalf("precision lost: %g", got)
	}
}
