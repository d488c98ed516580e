package server

import (
	"reflect"
	"testing"

	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/obs"
)

// FuzzBinaryFrameRoundTrip throws arbitrary bytes at the request
// decoder (it must reject or round-trip, never panic or over-allocate)
// and checks decode→encode→decode is the identity on accepted frames.
// The response decoder gets the same no-panic treatment.
func FuzzBinaryFrameRoundTrip(f *testing.F) {
	l := &list.List{Next: []int{1, 2, -1}, Head: 0}
	seeds := []engine.Request{
		{Op: engine.OpRank, List: l},
		{Op: engine.OpPrefix, List: l, Values: []int{1, 2, 3}},
		{Op: engine.OpSchedule, List: l, Labels: []int{0, 1, 0}, K: 2},
		{Op: engine.OpMatching, List: l, Algorithm: engine.AlgoRandomized, Seed: 42},
		// The v2 trace block, sampled and not, exercises the new header
		// bytes through decode∘encode.
		{Op: engine.OpRank, List: l,
			Trace: obs.TraceContext{TraceHi: 1, TraceLo: 2, SpanID: 3, Sampled: true}},
		{Op: engine.OpPrefix, List: l, Values: []int{4, 5, 6},
			Trace: obs.TraceContext{TraceHi: ^uint64(0), TraceLo: ^uint64(0), SpanID: ^uint64(0)}},
	}
	for i, req := range seeds {
		frame, err := appendRequestFrame(nil, uint64(i), "fuzz-tenant", &req)
		if err != nil {
			f.Fatalf("seed %d: %v", i, err)
		}
		f.Add(frame[4:]) // payload only; the length prefix is the transport's
	}
	resp := appendResponseFrame(nil, &item{id: 9, batched: 3, bi: engine.BatchItem{
		Req: engine.Request{Op: engine.OpRank, Trace: obs.TraceContext{TraceHi: 0xfeed, TraceLo: 0xbeef, SpanID: 7}},
		Res: engine.Result{Op: engine.OpRank, Algorithm: "contraction", Ranks: []int{0, 1, 2}}}})
	f.Add(resp[4:])

	f.Fuzz(func(t *testing.T, data []byte) {
		// The response decoder must never panic on hostile input.
		decodeResponseFrame(data)

		id, tenant, req, err := decodeRequestFrame(data)
		if err != nil {
			return
		}
		enc, err := appendRequestFrame(nil, id, tenant, &req)
		if err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		id2, tenant2, req2, err := decodeRequestFrame(enc[4:])
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if id2 != id || tenant2 != tenant || !reflect.DeepEqual(req, req2) {
			t.Fatalf("round trip drifted:\n got id %d tenant %q %+v\nwant id %d tenant %q %+v",
				id2, tenant2, req2, id, tenant, req)
		}
	})
}
