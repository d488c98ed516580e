package obs

// Distributed trace identity. A TraceContext names one request across
// every layer it touches — HTTP handler, binary framing, batcher, pool
// queue, engine, sharded plan steps — and across process boundaries:
// the context rides an X-Parlist-Trace header on HTTP and a trailing
// trace block in the version-2 binary request header (see
// internal/server/binary.go). Identifiers are minted by a TraceSource,
// a seedable splitmix64 stream, so tests that fix the seed see the
// same trace ids run after run.

import (
	"encoding/hex"
	"sync/atomic"
)

// TraceContext is one request's distributed tracing identity: a 128-bit
// trace id (TraceHi, TraceLo), the 64-bit id of the request's root
// span, and the head-sampling decision. The zero value means "no
// context" — an untraced request — and every propagation path decodes
// missing or garbage wire bytes to it.
type TraceContext struct {
	// TraceHi and TraceLo are the 128-bit trace id halves. A zero
	// trace id (both halves zero) marks the context invalid.
	TraceHi, TraceLo uint64
	// SpanID is the root request span's id; child spans across all
	// layers parent onto it.
	SpanID uint64
	// Sampled is the head-sampling decision: only sampled requests
	// record spans (tail sampling later decides which recorded traces
	// are kept).
	Sampled bool
}

// Valid reports whether the context carries a trace id.
func (tc TraceContext) Valid() bool { return tc.TraceHi|tc.TraceLo != 0 }

// TraceID renders the 128-bit trace id as 32 lowercase hex digits —
// the form logs, exemplars and /debug/traces use.
func (tc TraceContext) TraceID() string {
	var b [16]byte
	putU64(b[:8], tc.TraceHi)
	putU64(b[8:], tc.TraceLo)
	return hex.EncodeToString(b[:])
}

// Header renders the context in X-Parlist-Trace form:
// <32 hex trace id>-<16 hex span id>-<2 hex flags>, flags bit 0 =
// sampled. An invalid context renders "".
func (tc TraceContext) Header() string {
	if !tc.Valid() {
		return ""
	}
	var trace [16]byte
	putU64(trace[:8], tc.TraceHi)
	putU64(trace[8:], tc.TraceLo)
	var span [8]byte
	putU64(span[:], tc.SpanID)
	flags := "00"
	if tc.Sampled {
		flags = "01"
	}
	return hex.EncodeToString(trace[:]) + "-" + hex.EncodeToString(span[:]) + "-" + flags
}

// ParseTraceHeader parses an X-Parlist-Trace header value. Anything
// that is not exactly <32 hex>-<16 hex>-<2 hex> with a non-zero trace
// id decodes as the zero context and ok=false — garbage on the wire is
// tolerated, never an error.
func ParseTraceHeader(s string) (tc TraceContext, ok bool) {
	if len(s) != 32+1+16+1+2 || s[32] != '-' || s[49] != '-' {
		return TraceContext{}, false
	}
	var raw [16]byte
	if _, err := hex.Decode(raw[:], []byte(s[0:32])); err != nil {
		return TraceContext{}, false
	}
	tc.TraceHi = getU64(raw[:8])
	tc.TraceLo = getU64(raw[8:])
	if _, err := hex.Decode(raw[:8], []byte(s[33:49])); err != nil {
		return TraceContext{}, false
	}
	tc.SpanID = getU64(raw[:8])
	var fl [1]byte
	if _, err := hex.Decode(fl[:], []byte(s[50:52])); err != nil {
		return TraceContext{}, false
	}
	tc.Sampled = fl[0]&1 != 0
	if !tc.Valid() {
		return TraceContext{}, false
	}
	return tc, true
}

// putU64 writes v big-endian (hex renderings read naturally).
func putU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v >> 56)
	b[1] = byte(v >> 48)
	b[2] = byte(v >> 40)
	b[3] = byte(v >> 32)
	b[4] = byte(v >> 24)
	b[5] = byte(v >> 16)
	b[6] = byte(v >> 8)
	b[7] = byte(v)
}

// getU64 reads a big-endian uint64.
func getU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

// TraceSource mints trace and span ids: a splitmix64 stream behind one
// atomic counter, so concurrent minting is lock-free and a fixed seed
// yields a fixed id sequence (deterministic tests). The mixer is the
// same one the retry jitter and fault planner use.
type TraceSource struct {
	state atomic.Uint64
}

// NewTraceSource returns a source seeded with seed.
func NewTraceSource(seed int64) *TraceSource {
	s := &TraceSource{}
	s.state.Store(uint64(seed))
	return s
}

// next returns the next non-zero id in the stream.
func (s *TraceSource) next() uint64 {
	for {
		x := s.state.Add(0x9e3779b97f4a7c15)
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// SpanID mints one span id.
func (s *TraceSource) SpanID() uint64 { return s.next() }

// NewContext mints a fresh trace context (128-bit trace id plus root
// span id) with the given head-sampling decision.
func (s *TraceSource) NewContext(sampled bool) TraceContext {
	return TraceContext{
		TraceHi: s.next(),
		TraceLo: s.next(),
		SpanID:  s.next(),
		Sampled: sampled,
	}
}
