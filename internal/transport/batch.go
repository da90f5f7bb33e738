// Batch calls: many service.method invocations coalesced into one frame
// and one round trip. A document insert that touches many indexed fields
// issues one per-field index write per tactic; batching turns those into a
// single gateway↔cloud exchange (paper §6: round trips, not crypto,
// dominate distributed-tactic cost).

package transport

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"datablinder/internal/wirefmt"
)

// BatchService is the reserved service every Mux serves; it executes the
// sub-calls received in one batch frame. The leading underscore keeps it
// out of Services().
const (
	BatchService = "_batch"
	BatchMethod  = "exec"
)

// BatchCall is one sub-call of a batch. Raw optionally carries the payload
// pre-encoded by the connection's WireCodec (the coalescer encodes at
// enqueue time for byte-accurate flush triggers); RawTyped says whether it
// used the typed binary encoding. Args is still required alongside Raw so
// the call can be re-encoded if the connection has since renegotiated a
// method table without the method.
type BatchCall struct {
	Service  string
	Method   string
	Args     any
	Raw      []byte
	RawTyped bool
}

// BatchResult is one sub-call's outcome. Err is a *RemoteError when the
// sub-handler failed; Payload is the encoded reply otherwise — JSON, or
// the method's typed binary encoding (Decode handles both).
type BatchResult struct {
	Err     error
	Payload json.RawMessage
	typed   bool
	method  string // service.method, for typed reply codec lookup
}

// Decode unmarshals the sub-reply into reply, returning the sub-call error
// if there was one.
func (r BatchResult) Decode(reply any) error {
	if r.Err != nil {
		return r.Err
	}
	if reply == nil || len(r.Payload) == 0 {
		return nil
	}
	if r.typed {
		codec := LookupCodec(r.method)
		if codec == nil || codec.DecodeReply == nil {
			return fmt.Errorf("transport: no reply codec for %s", r.method)
		}
		if err := codec.DecodeReply(r.Payload, reply); err != nil {
			return fmt.Errorf("transport: decoding %s batch reply: %w", r.method, err)
		}
		return nil
	}
	if err := json.Unmarshal(r.Payload, reply); err != nil {
		return fmt.Errorf("transport: decoding batch reply: %w", err)
	}
	return nil
}

// BatchCaller is implemented by connections that coalesce batch sub-calls
// themselves (the gateway's per-shard write coalescer). CallBatch hands
// such a connection the call list directly, so a caller-built batch merges
// into the shared group commit instead of framing its own _batch.exec.
type BatchCaller interface {
	CallBatch(ctx context.Context, calls []BatchCall) ([]BatchResult, error)
}

// maxBatchChunkBytes caps the encoded size of the sub-calls shipped in one
// _batch.exec frame. It leaves headroom under maxPooledBuf (64 KiB) for
// the outer request envelope, so a coalesced mega-batch keeps reusing
// pooled frame buffers instead of allocating past the pool cap. A single
// sub-call larger than the cap still ships (in a chunk of its own); only
// that frame's buffer escapes the pool.
const maxBatchChunkBytes = 56 << 10

// encodedSub is one sub-call with its payload encoded for the connection's
// codec.
type encodedSub struct {
	service, method string
	args            any
	payload         []byte
	typed           bool
	size            int // encoded sub-call size (WireCodec.SubSize)
}

// batchChunk is the argument CallBatch passes to Conn.Call for one chunk
// of a batch. TCPClient and Loopback recognise it and frame the chunk as
// one `_batch.exec` call with an encBatch payload, storing the sub-results
// in results — so a wrapper Conn that forwards only Call still sends one
// batch frame per chunk.
type batchChunk struct {
	subs    []encodedSub
	results []BatchResult
}

// CallBatch executes calls over conn and returns one result per call, in
// order. The connection's peer mux always supports it (the batch executor
// is built into every Mux). Sub-call payloads are encoded once, with the
// connection's wire codec, and chunked by their encoded sizes: batches
// that would exceed the frame-buffer pool cap split into several
// sequential frames — still in order, so per-document index-update
// ordering is preserved. Transport-level failures return a non-nil error;
// per-call handler failures are reported in the corresponding BatchResult
// only.
func CallBatch(ctx context.Context, conn Conn, calls []BatchCall) ([]BatchResult, error) {
	if len(calls) == 0 {
		return nil, nil
	}
	if bc, ok := conn.(BatchCaller); ok {
		return bc.CallBatch(ctx, calls)
	}
	codec := ConnCodec(conn)
	subs := make([]encodedSub, len(calls))
	for i, call := range calls {
		sub := encodedSub{service: call.Service, method: call.Method, args: call.Args, payload: call.Raw, typed: call.RawTyped}
		if call.Raw == nil {
			payload, typed, err := codec.EncodeArgs(call.Service, call.Method, call.Args)
			if err != nil {
				return nil, fmt.Errorf("transport: encoding batch args [%d]: %w", i, err)
			}
			sub.payload, sub.typed = payload, typed
		}
		sub.size = codec.SubSize(call.Service, call.Method, len(sub.payload))
		subs[i] = sub
	}
	out := make([]BatchResult, 0, len(calls))
	for start := 0; start < len(subs); {
		end := start + 1
		bytes := subs[start].size
		for end < len(subs) && bytes+subs[end].size <= maxBatchChunkBytes {
			bytes += subs[end].size
			end++
		}
		chunk := &batchChunk{subs: subs[start:end]}
		if err := conn.Call(ctx, BatchService, BatchMethod, chunk, nil); err != nil {
			return nil, err
		}
		if len(chunk.results) != end-start {
			return nil, fmt.Errorf("transport: batch returned %d results for %d calls", len(chunk.results), end-start)
		}
		out = append(out, chunk.results...)
		start = end
	}
	return out, nil
}

// appendBatchCall appends the call section of a batch chunk: the method,
// encBatch, and the length-prefixed batch payload, built in place.
func appendBatchCall(b []byte, t *wireTable, name string, subs []encodedSub) ([]byte, error) {
	start := time.Now()
	b = append(appendMethod(b, t, name), encBatch)
	lenMark := len(b)
	b = append(b, 0, 0, 0, 0, 0) // payload length placeholder (uvarint ≤ 5)
	payloadStart := len(b)
	b, err := appendBatchPayload(b, t, subs)
	if err != nil {
		return b, err
	}
	// Back-fill the payload length, shifting the payload down over the
	// placeholder slack.
	plen := len(b) - payloadStart
	var lbuf [5]byte
	ln := binary.PutUvarint(lbuf[:], uint64(plen))
	copy(b[lenMark:], lbuf[:ln])
	copy(b[lenMark+ln:], b[payloadStart:])
	b = b[:lenMark+ln+plen]
	wireRecordEncode(name, time.Since(start))
	return b, nil
}

// appendBatchPayload encodes subs as a batch payload, re-encoding as JSON
// any typed sub whose method is not in the socket's table (a payload
// pre-encoded for another socket's table).
func appendBatchPayload(b []byte, t *wireTable, subs []encodedSub) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(subs)))
	for i, sub := range subs {
		name := sub.service + "." + sub.method
		payload, typed := sub.payload, sub.typed
		if typed {
			if _, ok := t.ids[name]; !ok {
				jb, err := json.Marshal(sub.args)
				if err != nil {
					return nil, fmt.Errorf("transport: encoding batch args [%d]: %w", i, err)
				}
				payload, typed = jb, false
			}
		}
		enc := byte(encJSON)
		if typed {
			enc = encTyped
		}
		b = appendCall(b, t, name, enc, payload)
		wireRecordSub(name, true, len(payload))
	}
	return b, nil
}

// parseBatchResults decodes a batch response payload.
func parseBatchResults(subs []encodedSub, payload []byte) ([]BatchResult, error) {
	r := wirefmt.NewReader(payload)
	n := r.Count()
	if r.Err() != nil || n != len(subs) {
		return nil, fmt.Errorf("transport: batch returned %d results for %d calls", n, len(subs))
	}
	out := make([]BatchResult, n)
	for i := range out {
		res, err := parseResult(r)
		if err != nil {
			return nil, err
		}
		name := subs[i].service + "." + subs[i].method
		if !res.ok {
			out[i] = BatchResult{Err: &RemoteError{Code: res.code, Msg: res.msg}}
			continue
		}
		wireRecordSub(name, false, len(res.payload))
		out[i] = BatchResult{
			Payload: append([]byte(nil), res.payload...),
			typed:   res.enc == encTyped,
			method:  name,
		}
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("transport: decoding batch results: %w", err)
	}
	return out, nil
}

// deliverResult hands one call's result to its caller: a remote error, the
// sub-results of a batch chunk, or the decoded reply.
func deliverResult(name string, res parsedResult, args, reply any) error {
	if !res.ok {
		return &RemoteError{Code: res.code, Msg: res.msg}
	}
	chunk, ok := args.(*batchChunk)
	if !ok {
		return decodeResultPayload(name, res.enc, res.payload, reply)
	}
	if res.enc != encBatch {
		return fmt.Errorf("%w: non-batch result for %s", ErrWireProtocol, name)
	}
	start := time.Now()
	results, err := parseBatchResults(chunk.subs, res.payload)
	wireRecordDecode(name, time.Since(start))
	chunk.results = results
	return err
}
