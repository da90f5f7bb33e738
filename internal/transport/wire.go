// Wire protocol version 2: the binary framing of the gateway↔cloud channel.
//
// Every frame is a varint-framed binary envelope. For the hot RPCs the
// payload inside it is a hand-rolled typed encoding in which ciphertexts,
// PRF labels and BIEX cells ride as raw bytes; cold setup/admin methods
// carry JSON payloads inside the same envelope.
//
// Negotiation: the first frame a client sends on a fresh socket is a
// `_wire.hello` request (method named inline, JSON payload) carrying the
// sorted list of methods it has typed codecs for. The server replies with
// version 2 and the subset it also supports; the agreed subset, in order,
// becomes the socket's method id table (id i+1 = i'th accepted method,
// id 0 = inline method name). A server drops a connection whose first
// frame is anything else, and a client whose peer does not answer
// version 2 fails the dial.
//
// Frame layout (both directions, the hello included):
//
//	frame    := uvarint(len(body)) body            // len ≤ MaxFrameSize
//	body     := 0x01 uvarint(id) call              // request
//	          | 0x02 uvarint(id) result            // response
//	call     := method enc uvarint(len) payload
//	method   := uvarint(mid)                       // mid=0: + str(service.method)
//	enc      := 0x00 (JSON) | 0x01 (typed) | 0x02 (batch, _batch.exec only)
//	result   := 0x00 enc uvarint(len) payload      // ok
//	          | 0x01 str(code) str(msg)            // handler error
//	batch    := uvarint(n) n×call                  // request payload, enc 0|1
//	batchres := uvarint(n) n×result                // response payload
//	str      := uvarint(len) bytes
//
// Typed payloads are used only for methods in the agreed table (both ends
// are then guaranteed to hold the codec); everything else — including any
// argument value a codec does not recognise — travels as a JSON payload
// inside the same envelope.
package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"datablinder/internal/wirefmt"
)

// Reserved negotiation endpoint, served only as a connection's first
// frame. The leading underscore marks it as internal.
const (
	wireService     = "_wire"
	wireHelloMethod = "hello"
	wireVersion     = 2
)

// Binary frame kind and payload encoding tags.
const (
	wireKindReq  = 0x01
	wireKindResp = 0x02

	encJSON  = 0x00 // payload is JSON bytes
	encTyped = 0x01 // payload is the method's registered PayloadCodec encoding
	encBatch = 0x02 // payload is a batch of calls (_batch.exec only)

	wireStatusOK  = 0x00
	wireStatusErr = 0x01
)

// ErrWireProtocol reports a malformed binary frame (truncated varint,
// oversized length, unknown method id, bad tag byte). Peers that send one
// have their connection dropped.
var ErrWireProtocol = errors.New("transport: wire protocol violation")

// helloArgs is the client's negotiation proposal: the sorted service.method
// names it holds typed payload codecs for.
type helloArgs struct {
	Version int      `json:"version"`
	Methods []string `json:"methods,omitempty"`
}

// helloReply is the server's answer. Accept indexes into the client's
// Methods list and fixes the method id table (id = position in Accept + 1).
type helloReply struct {
	Version int   `json:"version"`
	Accept  []int `json:"accept,omitempty"`
}

// PayloadCodec is the typed binary encoding of one method's argument and
// reply payloads. Encode appends to dst (which may be a pooled frame
// buffer) and returns the extended slice; an encode error (e.g. an
// unexpected argument type) makes the transport send a JSON payload for
// that call instead. Decode must be strictly bounds-checked: malformed
// input returns an error, never panics. Decoded byte slices may alias the
// input buffer.
type PayloadCodec struct {
	NewArgs     func() any
	EncodeArgs  func(dst []byte, args any) ([]byte, error)
	DecodeArgs  func(data []byte, args any) error
	NewReply    func() any                                  // nil when the reply stays JSON
	EncodeReply func(dst []byte, reply any) ([]byte, error) // nil: reply always JSON
	DecodeReply func(data []byte, reply any) error
}

// codecReg maps service.method → *PayloadCodec. Populated by package
// init() functions on both ends of the channel (the tactic and cloud
// packages register their wire shapes when imported), so gateway and
// cloudserver agree on the encodable set without central coordination.
var (
	codecMu  sync.RWMutex
	codecReg = make(map[string]*PayloadCodec)
)

// RegisterCodec registers the typed payload codec for service.method.
// Intended to be called from init(); later registrations replace earlier
// ones.
func RegisterCodec(service, method string, c *PayloadCodec) {
	codecMu.Lock()
	defer codecMu.Unlock()
	codecReg[service+"."+method] = c
}

// LookupCodec returns the codec registered for name ("service.method"),
// or nil.
func LookupCodec(name string) *PayloadCodec {
	codecMu.RLock()
	defer codecMu.RUnlock()
	return codecReg[name]
}

// RegisteredWireMethods returns the sorted names of all methods with typed
// codecs — the client's negotiation proposal.
func RegisteredWireMethods() []string {
	codecMu.RLock()
	out := make([]string, 0, len(codecReg))
	for k := range codecReg {
		out = append(out, k)
	}
	codecMu.RUnlock()
	sort.Strings(out)
	return out
}

// errCodecType reports an argument/reply value a typed codec does not
// recognise; the transport sends a JSON payload instead.
var errCodecType = errors.New("transport: value type not handled by codec")

// NoReply marks a method without a typed reply encoding in Codec.
type NoReply = struct{}

// Codec builds a PayloadCodec from four append/consume functions, keeping
// per-method codecs down to their field lists. encR may be nil for
// write-style methods whose replies stay JSON (use NoReply for R).
// Encoders must be deterministic (coalescing dedups on encoded bytes).
// Decode functions receive a pooled Reader and must not retain it past
// the call (decoded values alias the payload buffer, not the Reader).
func Codec[A, R any](
	encA func(dst []byte, a *A) []byte,
	decA func(r *wirefmt.Reader, a *A),
	encR func(dst []byte, out *R) []byte,
	decR func(r *wirefmt.Reader, out *R),
) *PayloadCodec {
	c := &PayloadCodec{
		NewArgs: func() any { return new(A) },
		EncodeArgs: func(dst []byte, args any) ([]byte, error) {
			a, ok := argPtr[A](args)
			if !ok {
				return nil, errCodecType
			}
			return encA(dst, a), nil
		},
		DecodeArgs: func(data []byte, args any) error {
			a, ok := args.(*A)
			if !ok {
				return errCodecType
			}
			r := wirefmt.GetReader(data)
			decA(r, a)
			err := r.Finish()
			wirefmt.PutReader(r)
			return err
		},
	}
	if encR != nil {
		c.NewReply = func() any { return new(R) }
		c.EncodeReply = func(dst []byte, reply any) ([]byte, error) {
			out, ok := argPtr[R](reply)
			if !ok {
				return nil, errCodecType
			}
			return encR(dst, out), nil
		}
		c.DecodeReply = func(data []byte, reply any) error {
			out, ok := reply.(*R)
			if !ok {
				return errCodecType
			}
			r := wirefmt.GetReader(data)
			decR(r, out)
			err := r.Finish()
			wirefmt.PutReader(r)
			return err
		}
	}
	return c
}

// WriteCodec builds a PayloadCodec for a write-style method whose reply is
// empty (the handler returns nil); only the arguments get a typed encoding.
func WriteCodec[A any](
	encA func(dst []byte, a *A) []byte,
	decA func(r *wirefmt.Reader, a *A),
) *PayloadCodec {
	return Codec[A, NoReply](encA, decA, nil, nil)
}

// argPtr views v as *T, accepting both T and *T (handlers return reply
// values, callers pass pointers).
func argPtr[T any](v any) (*T, bool) {
	switch x := v.(type) {
	case *T:
		return x, true
	case T:
		return &x, true
	}
	return nil, false
}

// wireTable is one connection's negotiated method id table: the ordered
// intersection of the two peers' codec registries. mid i+1 ↔ names[i].
type wireTable struct {
	names  []string
	codecs []*PayloadCodec
	ids    map[string]uint16
}

// noMethodTable has no method ids: every call is named inline and carries a
// JSON payload. The hello is framed with it (no table exists yet), and
// ConnCodec reports it for Conns that do not expose their own codec.
var noMethodTable = &wireTable{}

// newWireTable builds the table both peers derive from a hello exchange.
// proposal is the client's method list, accept the server's chosen indexes
// (strictly increasing, in range); every accepted method must be in the
// local registry.
func newWireTable(proposal []string, accept []int) (*wireTable, error) {
	t := &wireTable{ids: make(map[string]uint16, len(accept))}
	prev := -1
	for _, idx := range accept {
		if idx <= prev || idx >= len(proposal) {
			return nil, fmt.Errorf("%w: bad accept index %d", ErrWireProtocol, idx)
		}
		prev = idx
		name := proposal[idx]
		c := LookupCodec(name)
		if c == nil {
			return nil, fmt.Errorf("%w: accepted unknown method %q", ErrWireProtocol, name)
		}
		t.names = append(t.names, name)
		t.codecs = append(t.codecs, c)
		t.ids[name] = uint16(len(t.names))
	}
	return t, nil
}

// resolve maps a method id to its name and codec.
func (t *wireTable) resolve(mid uint64) (string, *PayloadCodec, bool) {
	if mid == 0 || mid > uint64(len(t.names)) {
		return "", nil, false
	}
	return t.names[mid-1], t.codecs[mid-1], true
}

// acceptIndexes picks the proposal entries present in the local registry.
func acceptIndexes(proposal []string) []int {
	var accept []int
	for i, name := range proposal {
		if LookupCodec(name) != nil {
			accept = append(accept, i)
		}
	}
	return accept
}

// wireBufPool recycles frame encode buffers and typed-payload scratch.
var wireBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// wireFrameHdr is the reserved prefix for the frame length uvarint
// (MaxFrameSize < 2^28 → at most 4 bytes, +1 slack).
const wireFrameHdr = 5

// newWireFrameBuf returns a pooled buffer pre-seeded with the length
// placeholder. Finish with finishWireFrame; recycle with putWireFrameBuf.
func newWireFrameBuf() []byte {
	b := (*wireBufPool.Get().(*[]byte))[:0]
	return append(b, 0, 0, 0, 0, 0)
}

func putWireFrameBuf(b []byte) {
	if cap(b) <= maxPooledBuf {
		b = b[:0]
		wireBufPool.Put(&b)
	}
}

// finishWireFrame writes the body length uvarint immediately before the
// body and returns the wire-ready frame (a suffix of buf).
func finishWireFrame(buf []byte) ([]byte, error) {
	body := len(buf) - wireFrameHdr
	if body > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	var hdr [wireFrameHdr]byte
	n := binary.PutUvarint(hdr[:], uint64(body))
	frame := buf[wireFrameHdr-n:]
	copy(frame[:n], hdr[:n])
	return frame, nil
}

// readWireFrame reads one varint-framed body. The returned buffer is
// freshly allocated and owned by the caller: typed decoders alias it, so
// it is never pooled.
func readWireFrame(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, err
	}
	return body, nil
}

// appendCall appends one call section (method, enc, length-prefixed
// payload).
func appendCall(b []byte, t *wireTable, name string, enc byte, payload []byte) []byte {
	b = append(appendMethod(b, t, name), enc)
	return wirefmt.AppendBytes(b, payload)
}

// appendMethod appends a call's method, compressed to its table id when
// negotiated and named inline otherwise.
func appendMethod(b []byte, t *wireTable, name string) []byte {
	if mid, ok := t.ids[name]; ok {
		return binary.AppendUvarint(b, uint64(mid))
	}
	b = append(b, 0)
	return wirefmt.AppendString(b, name)
}

// appendCallArgs appends the call section for name with args encoded for
// table t: a batch chunk (see CallBatch) as one encBatch payload, any other
// value as encodeArgsScratch chooses.
func appendCallArgs(b []byte, t *wireTable, name string, args any) ([]byte, error) {
	if chunk, ok := args.(*batchChunk); ok {
		return appendBatchCall(b, t, name, chunk.subs)
	}
	scratch := (*wireBufPool.Get().(*[]byte))[:0]
	payload, enc, fromScratch, err := encodeArgsScratch(scratch, t, name, args)
	if err == nil {
		b = appendCall(b, t, name, enc, payload)
	}
	if fromScratch {
		putWireFrameBuf(payload) // scratch, possibly grown
	} else {
		putWireFrameBuf(scratch)
	}
	return b, err
}

// callWireSize is the exact encoded size of one call section — the
// codec-derived per-sub-call overhead the batch chunker uses.
func callWireSize(t *wireTable, name string, payloadLen int) int {
	n := 1 // enc byte
	if mid, ok := t.ids[name]; ok {
		n += uvarintLen(uint64(mid))
	} else {
		n += 1 + uvarintLen(uint64(len(name))) + len(name)
	}
	return n + uvarintLen(uint64(payloadLen)) + payloadLen
}

func uvarintLen(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

// parsedCall is one decoded call section.
type parsedCall struct {
	name    string
	codec   *PayloadCodec // non-nil when resolved via the table
	enc     byte
	payload []byte // aliases the frame buffer
}

// parseCall consumes one call section from r.
func parseCall(r *wirefmt.Reader, t *wireTable) (parsedCall, error) {
	var c parsedCall
	mid := r.Uvarint()
	if mid == 0 {
		c.name = r.String()
	} else {
		name, codec, ok := t.resolve(mid)
		if !ok {
			return c, fmt.Errorf("%w: unknown method id %d", ErrWireProtocol, mid)
		}
		c.name, c.codec = name, codec
	}
	c.enc = r.Byte()
	c.payload = r.Bytes()
	if err := r.Err(); err != nil {
		return c, fmt.Errorf("%w: %v", ErrWireProtocol, err)
	}
	if c.enc > encBatch {
		return c, fmt.Errorf("%w: bad payload encoding 0x%02x", ErrWireProtocol, c.enc)
	}
	if c.codec == nil && c.enc == encTyped {
		// Typed payloads are only legal for table methods; an inline-named
		// typed payload would be undecodable.
		c.codec = LookupCodec(c.name)
		if c.codec == nil {
			return c, fmt.Errorf("%w: typed payload for unregistered method %s", ErrWireProtocol, c.name)
		}
	}
	return c, nil
}

// appendResultOK appends an ok result section.
func appendResultOK(b []byte, enc byte, payload []byte) []byte {
	b = append(b, wireStatusOK, enc)
	return wirefmt.AppendBytes(b, payload)
}

// appendResultErr appends a handler-error result section.
func appendResultErr(b []byte, code, msg string) []byte {
	b = append(b, wireStatusErr)
	b = wirefmt.AppendString(b, code)
	return wirefmt.AppendString(b, msg)
}

// parsedResult is one decoded result section.
type parsedResult struct {
	ok      bool
	enc     byte
	payload []byte // aliases the frame buffer
	code    string
	msg     string
}

func parseResult(r *wirefmt.Reader) (parsedResult, error) {
	var res parsedResult
	switch status := r.Byte(); status {
	case wireStatusOK:
		res.ok = true
		res.enc = r.Byte()
		res.payload = r.Bytes()
	case wireStatusErr:
		res.code = r.String()
		res.msg = r.String()
	default:
		if err := r.Err(); err != nil {
			return res, fmt.Errorf("%w: %v", ErrWireProtocol, err)
		}
		return res, fmt.Errorf("%w: bad result status 0x%02x", ErrWireProtocol, status)
	}
	if err := r.Err(); err != nil {
		return res, fmt.Errorf("%w: %v", ErrWireProtocol, err)
	}
	if res.ok && res.enc > encBatch {
		return res, fmt.Errorf("%w: bad result encoding 0x%02x", ErrWireProtocol, res.enc)
	}
	return res, nil
}

// encodeArgsPayload encodes args for one outgoing call: typed when the
// method is in the negotiated table and its codec recognises the value,
// JSON otherwise. Pre-encoded RawArgs pass through unchanged unless the
// socket's table can no longer carry the payload — see RawArgs. The
// payload may be retained by the caller, so it is always freshly
// allocated; hot paths that copy it into a frame immediately should use
// encodeArgsScratch instead.
func encodeArgsPayload(t *wireTable, name string, args any) (payload []byte, enc byte, err error) {
	payload, enc, _, err = encodeArgsScratch(nil, t, name, args)
	return payload, enc, err
}

// encodeArgsScratch is encodeArgsPayload with a caller-supplied scratch
// buffer for the typed-codec branch. fromScratch reports that the payload
// was appended to scratch (possibly grown) and may be recycled once the
// caller has copied it into a frame; when false the payload is a
// pass-through (RawArgs) or a fresh JSON buffer and scratch is untouched.
func encodeArgsScratch(scratch []byte, t *wireTable, name string, args any) (payload []byte, enc byte, fromScratch bool, err error) {
	if raw, ok := args.(RawArgs); ok {
		if raw.Typed {
			if _, ok := t.ids[name]; ok {
				return raw.Payload, encTyped, false, nil
			}
			// The socket renegotiated since the payload was encoded:
			// re-encode from the retained args.
			if raw.Args != nil {
				return encodeArgsScratch(scratch, t, name, raw.Args)
			}
			return nil, 0, false, fmt.Errorf("transport: typed RawArgs for unnegotiated method %s", name)
		}
		return raw.Payload, encJSON, false, nil
	}
	if mid, ok := t.ids[name]; ok {
		codec := t.codecs[mid-1]
		start := time.Now()
		if b, cerr := codec.EncodeArgs(scratch, args); cerr == nil {
			wireRecordEncode(name, time.Since(start))
			return b, encTyped, scratch != nil, nil
		}
		// Unrecognised argument type: send JSON.
	}
	if args == nil {
		return nil, encJSON, false, nil
	}
	b, err := json.Marshal(args)
	if err != nil {
		return nil, 0, false, fmt.Errorf("transport: encoding args: %w", err)
	}
	return b, encJSON, false, nil
}

// decodeResultPayload decodes a result payload into reply, honouring the
// payload encoding. A *BatchResult reply captures the raw payload without
// decoding (the coalescer's deferred-decode path).
func decodeResultPayload(name string, enc byte, payload []byte, reply any) error {
	if enc == encBatch {
		// Batch results are consumed by deliverResult for a batch chunk.
		return fmt.Errorf("%w: unexpected batch result for %s", ErrWireProtocol, name)
	}
	if br, ok := reply.(*BatchResult); ok {
		br.Payload = append(br.Payload[:0], payload...)
		br.typed = enc == encTyped
		br.method = name
		return nil
	}
	if reply == nil || len(payload) == 0 {
		return nil
	}
	if enc == encTyped {
		codec := LookupCodec(name)
		if codec == nil || codec.DecodeReply == nil {
			return fmt.Errorf("transport: no reply codec for %s", name)
		}
		start := time.Now()
		err := codec.DecodeReply(payload, reply)
		wireRecordDecode(name, time.Since(start))
		if err != nil {
			return fmt.Errorf("transport: decoding %s reply: %w", name, err)
		}
		return nil
	}
	if err := json.Unmarshal(payload, reply); err != nil {
		return fmt.Errorf("transport: decoding reply: %w", err)
	}
	return nil
}

// wireExec executes one parsed call against m and appends its result
// section to dst. Batch payloads recurse one level; their sub-calls run in
// order, one after another — the saving is the round trip, and in-order
// execution preserves per-document index-update ordering for tactic
// protocols.
func wireExec(ctx context.Context, m *Mux, t *wireTable, dst []byte, call parsedCall) []byte {
	if call.enc == encBatch {
		if call.name != BatchService+"."+BatchMethod {
			return appendResultErr(dst, "", "transport: batch payload on non-batch method "+call.name)
		}
		r := wirefmt.NewReader(call.payload)
		n := r.Count()
		if r.Err() != nil {
			return appendResultErr(dst, "", "transport: decoding batch: malformed count")
		}
		body := newWireFrameBuf()
		defer putWireFrameBuf(body)
		body = binary.AppendUvarint(body[:wireFrameHdr], uint64(n))
		for i := 0; i < n; i++ {
			sub, err := parseCall(r, t)
			if err != nil {
				return appendResultErr(dst, "", fmt.Sprintf("transport: decoding batch sub-call %d: %v", i, err))
			}
			if sub.enc == encBatch || sub.name == BatchService+"."+BatchMethod {
				body = appendResultErr(body, "", "transport: nested batch calls are not allowed")
				continue
			}
			body = wireExec(ctx, m, t, body, sub)
		}
		if err := r.Finish(); err != nil {
			return appendResultErr(dst, "", "transport: decoding batch: trailing bytes")
		}
		return appendResultOK(dst, encBatch, body[wireFrameHdr:])
	}

	entry := m.lookup(call.name)
	if entry == nil {
		return appendResultErr(dst, "", fmt.Sprintf("%v: %s", ErrNoHandler, call.name))
	}

	var (
		result any
		err    error
	)
	switch call.enc {
	case encTyped:
		args := call.codec.NewArgs()
		start := time.Now()
		derr := call.codec.DecodeArgs(call.payload, args)
		wireRecordDecode(call.name, time.Since(start))
		if derr != nil {
			return appendResultErr(dst, "", fmt.Sprintf("transport: decoding %s args: %v", call.name, derr))
		}
		if entry.typed != nil {
			result, err = entry.typed(ctx, args)
		} else {
			// Handler registered without a typed path: re-encode the decoded
			// args as JSON so plain Handle registrations keep working.
			b, merr := json.Marshal(args)
			if merr != nil {
				return appendResultErr(dst, "", fmt.Sprintf("transport: re-encoding %s args: %v", call.name, merr))
			}
			result, err = entry.h(ctx, b)
		}
	default: // encJSON
		result, err = entry.h(ctx, call.payload)
	}
	if err != nil {
		return appendResultErr(dst, ErrorCode(err), err.Error())
	}

	// A nil result (write-style methods) needs no payload at all.
	if result == nil {
		return appendResultOK(dst, encJSON, nil)
	}

	// Encode the reply: typed when the peer negotiated the method and the
	// codec recognises the handler's value, JSON otherwise. The typed
	// encode runs in a pooled scratch buffer — it is copied into dst
	// immediately.
	if codec := codecForReply(t, call); codec != nil && codec.EncodeReply != nil {
		mark := len(dst)
		dst = append(dst, wireStatusOK, encTyped)
		lenMark := len(dst)
		scratch := (*wireBufPool.Get().(*[]byte))[:0]
		start := time.Now()
		b, cerr := codec.EncodeReply(scratch, result)
		wireRecordEncode(call.name, time.Since(start))
		if cerr == nil {
			dst = wirefmt.AppendBytes(dst[:lenMark], b)
			putWireFrameBuf(b)
			return dst
		}
		putWireFrameBuf(scratch)
		dst = dst[:mark]
	}
	payload, merr := json.Marshal(result)
	if merr != nil {
		return appendResultErr(dst, "", fmt.Sprintf("transport: encoding response: %v", merr))
	}
	return appendResultOK(dst, encJSON, payload)
}

// codecForReply returns the codec authorised for a typed reply to call:
// the table entry when the call came in by id, or the registry entry for
// an inline-named call the peer nevertheless negotiated.
func codecForReply(t *wireTable, call parsedCall) *PayloadCodec {
	if call.codec != nil {
		return call.codec
	}
	if mid, ok := t.ids[call.name]; ok {
		return t.codecs[mid-1]
	}
	return nil
}

// RawArgs is an argument value whose payload was already encoded by the
// connection's WireCodec (see ConnCodec / WireCodec.EncodeArgs). The
// coalescer encodes sub-calls at enqueue time — for byte-accurate flush
// triggers and dedup keys — and ships them with RawArgs so the transport
// does not encode twice. A Typed payload is only sendable on a socket whose
// method table holds the method; if the socket has since renegotiated a
// table without it, the transport re-encodes from the retained Args (when
// set) instead of failing the call.
type RawArgs struct {
	Payload []byte
	Typed   bool
	// Args is the original argument value, kept for re-encoding when the
	// pre-encoded payload no longer matches the socket's codec.
	Args any
}

// WireCodec describes how a Conn encodes call payloads, letting the batch
// chunker and the coalescer account exact per-sub-call wire sizes and
// pre-encode payloads for the connection's method table.
type WireCodec interface {
	// Name is "binary" when payloads of negotiated methods use their typed
	// encodings, "json" when every payload is JSON.
	Name() string
	// EncodeArgs returns the payload for service.method and whether it used
	// the typed encoding.
	EncodeArgs(service, method string, args any) (payload []byte, typed bool, err error)
	// SubSize is the encoded size of one batch sub-call with a payload of
	// payloadLen bytes.
	SubSize(service, method string, payloadLen int) int
}

// wireCodecProvider is implemented by Conns whose codec can be queried.
type wireCodecProvider interface {
	WireCodec() WireCodec
}

// ConnCodec returns conn's active wire codec. A Conn that does not expose
// one (a wrapper that forwards only Call, a test fake) gets JSON payloads
// inside the v2 envelope, each sub-call sized exactly as a call section
// that names its method inline — what such a wrapper's batches cost on a
// socket whose table lacks the method, and an upper bound otherwise.
func ConnCodec(conn Conn) WireCodec {
	if p, ok := conn.(wireCodecProvider); ok {
		if c := p.WireCodec(); c != nil {
			return c
		}
	}
	return wireCodec{table: noMethodTable}
}

// wireCodec accounts for one method table.
type wireCodec struct{ table *wireTable }

func (c wireCodec) Name() string {
	if len(c.table.names) == 0 {
		return "json"
	}
	return "binary"
}

func (c wireCodec) EncodeArgs(service, method string, args any) ([]byte, bool, error) {
	payload, enc, err := encodeArgsPayload(c.table, service+"."+method, args)
	return payload, enc == encTyped, err
}

func (c wireCodec) SubSize(service, method string, payloadLen int) int {
	return callWireSize(c.table, service+"."+method, payloadLen)
}
