package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"testing"

	"datablinder/internal/wirefmt"
)

// fuzzArgs is a payload shape with every wirefmt primitive, registered
// under a dedicated service so the fuzz table exercises typed dispatch
// without touching production codecs.
type fuzzArgs struct {
	S  string   `json:"s"`
	B  []byte   `json:"b"`
	N  uint64   `json:"n"`
	I  int64    `json:"i"`
	OK bool     `json:"ok"`
	BS [][]byte `json:"bs"`
	SS []string `json:"ss"`
	US []uint64 `json:"us"`
}

type fuzzReply struct {
	Echo []byte `json:"echo"`
}

func init() {
	RegisterCodec("fuzz", "echo", Codec(
		func(b []byte, a *fuzzArgs) []byte {
			b = wirefmt.AppendString(b, a.S)
			b = wirefmt.AppendBytes(b, a.B)
			b = wirefmt.AppendUvarint(b, a.N)
			b = wirefmt.AppendInt64(b, a.I)
			b = wirefmt.AppendBool(b, a.OK)
			b = wirefmt.AppendByteSlices(b, a.BS)
			b = wirefmt.AppendStrings(b, a.SS)
			return wirefmt.AppendUint64s(b, a.US)
		},
		func(r *wirefmt.Reader, a *fuzzArgs) {
			a.S = r.String()
			a.B = r.Bytes()
			a.N = r.Uvarint()
			a.I = r.Int64()
			a.OK = r.Bool()
			a.BS = r.ByteSlices()
			a.SS = r.Strings()
			a.US = r.Uint64s()
		},
		func(b []byte, out *fuzzReply) []byte { return wirefmt.AppendBytes(b, out.Echo) },
		func(r *wirefmt.Reader, out *fuzzReply) { out.Echo = r.Bytes() },
	))
}

// fuzzTable negotiates the full registry, like a same-binary loopback.
func fuzzTable(t testing.TB) *wireTable {
	proposal := RegisteredWireMethods()
	table, err := newWireTable(proposal, acceptIndexes(proposal))
	if err != nil {
		t.Fatalf("building fuzz table: %v", err)
	}
	return table
}

func fuzzMux() *Mux {
	mux := NewMux()
	HandleTyped(mux, "fuzz", "echo", func(_ context.Context, a *fuzzArgs) (any, error) {
		return fuzzReply{Echo: a.B}, nil
	})
	mux.Handle("fuzz", "json", func(_ context.Context, p json.RawMessage) (any, error) {
		return map[string]int{"n": len(p)}, nil
	})
	return mux
}

// FuzzBinaryFrame throws arbitrary bytes at both ends of the binary
// framing: the server's request parse+execute path and the client's
// response parse path. Malformed input must error (or be ignored), never
// panic, never over-allocate, and a parse that succeeds must consume the
// body exactly.
func FuzzBinaryFrame(f *testing.F) {
	table := fuzzTable(f)
	mux := fuzzMux()

	// Seed with well-formed frames of every section kind.
	argPayload, _, err := encodeArgsPayload(table, "fuzz.echo", &fuzzArgs{S: "s", B: []byte{1, 2}, US: []uint64{7}})
	if err != nil {
		f.Fatal(err)
	}
	req := binary.AppendUvarint([]byte{wireKindReq}, 99)
	req = appendCall(req, table, "fuzz.echo", encTyped, argPayload)
	f.Add(req)
	jsonReq := binary.AppendUvarint([]byte{wireKindReq}, 100)
	jsonReq = appendCall(jsonReq, table, "fuzz.json", encJSON, []byte(`{"x":1}`))
	f.Add(jsonReq)

	batchBody := binary.AppendUvarint(nil, 2)
	batchBody = appendCall(batchBody, table, "fuzz.echo", encTyped, argPayload)
	batchBody = appendCall(batchBody, table, "fuzz.json", encJSON, []byte(`{}`))
	batchReq := binary.AppendUvarint([]byte{wireKindReq}, 101)
	batchReq = appendCall(batchReq, table, BatchService+"."+BatchMethod, encBatch, batchBody)
	f.Add(batchReq)

	okResp := binary.AppendUvarint([]byte{wireKindResp}, 99)
	okResp = appendResultOK(okResp, encTyped, []byte{3, 1, 2, 3})
	f.Add(okResp)
	errResp := binary.AppendUvarint([]byte{wireKindResp}, 99)
	errResp = appendResultErr(errResp, "not_found", "gone")
	f.Add(errResp)
	f.Add([]byte{})
	f.Add([]byte{wireKindReq})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, body []byte) {
		// Server side: parse and, when valid, execute.
		r := wirefmt.NewReader(body)
		kind := r.Byte()
		r.Uvarint() // request id
		if kind == wireKindReq {
			if call, err := parseCall(r, table); err == nil && r.Finish() == nil {
				out := wireExec(context.Background(), mux, table, nil, call)
				// Whatever the handler did, the result section must parse.
				rr := wirefmt.NewReader(out)
				if _, err := parseResult(rr); err != nil {
					t.Fatalf("wireExec produced unparsable result: %v", err)
				}
				if err := rr.Finish(); err != nil {
					t.Fatalf("wireExec result has trailing bytes: %v", err)
				}
			}
			return
		}
		// Client side: response parse.
		if res, err := parseResult(r); err == nil && r.Finish() == nil {
			if res.ok && res.enc == encBatch {
				// Batch results parse one level deeper: two sub-slots of
				// arbitrary encoding, as deliverResult would see them.
				subs := []encodedSub{{service: "fuzz", method: "echo"}, {service: "fuzz", method: "json"}}
				parseBatchResults(subs, res.payload)
			}
		}
	})
}

// FuzzWirefmtReader drives the primitive reader directly: every accessor
// in sequence over arbitrary input, checking the latched-error contract.
func FuzzWirefmtReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x61, 0x02, 0x01, 0x02})
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := wirefmt.NewReader(data)
		_ = r.String() // vet: String() results must be used
		r.Bytes()
		r.Uvarint()
		r.Int64()
		r.Bool()
		r.ByteSlices()
		r.Strings()
		r.Uint64s()
		if r.Err() != nil && r.Finish() == nil {
			t.Fatal("Finish must fail after a read error")
		}
	})
}
