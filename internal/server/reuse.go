package server

// Buffer ownership on the wire path. A binary round trip allocates
// nothing proportional to n on either side of the socket:
//
//   - each connection — the server's read loop and Client.readLoop —
//     reads every frame into one buffer it reuses (frameBuf);
//   - each request rides an item from the server's itemPool: its
//     arrays decode into the item's workspace, the engine writes the
//     result into the item's Result (reusing its slice capacity), and
//     the connection's writer encodes the response into the item's
//     frame buffer.
//
// An item has one owner at a time and goes back to the pool only from
// the last one, once its response has been written. retainCap bounds
// what survives a request, so one maxFrame-sized frame cannot pin its
// memory for good.

import (
	"sync"

	"parlist/internal/engine"
	"parlist/internal/ws"
)

// retainCap is the most bytes a reused buffer keeps — a connection's
// read buffer is kept only while it fits — and the most the item pool
// keeps across all its idle items.
const retainCap = 1 << 20

// frameBuf returns a size-byte buffer for one frame, reusing *keep
// when it is large enough. A larger buffer replaces *keep only while it
// fits retainCap; beyond that it serves this frame alone.
func frameBuf(keep *[]byte, size int) []byte {
	if size <= cap(*keep) {
		return (*keep)[:size]
	}
	b := make([]byte, size)
	if size <= retainCap {
		*keep = b
	}
	return b
}

// itemPool keeps idle items for the next request, up to retainCap
// retained bytes in all.
type itemPool struct {
	mu    sync.Mutex
	free  []*item
	bytes int // retained bytes of the items in free
}

// get returns an idle item, or a fresh one when none is left.
func (p *itemPool) get() *item {
	p.mu.Lock()
	if k := len(p.free); k > 0 {
		it := p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
		p.bytes -= it.retained()
		p.mu.Unlock()
		return it
	}
	p.mu.Unlock()
	return &item{wsp: ws.New()}
}

// put recycles an item whose response has been written, unless
// keeping it would take the pool past retainCap; an item that grew
// past retainCap alone is always dropped.
func (p *itemPool) put(it *item) {
	kept := it.retained()
	it.reset()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.bytes+kept > retainCap {
		return
	}
	p.free = append(p.free, it)
	p.bytes += kept
}

// retained is the memory an idle item keeps: its workspace's arrays
// (an item draws at most three per request, well under the
// workspace's per-bucket cap, so every byte it ever allocated is still
// held), its Result's slice capacity and its frame buffer. reset
// leaves it unchanged.
func (it *item) retained() int {
	r := &it.bi.Res
	return int(it.wsp.Stats().BytesAllocated) + cap(r.In) + 8*(cap(r.Labels)+cap(r.Ranks)) + cap(it.frame)
}

// reset clears an item for its next request, keeping only its
// recycled storage: the workspace, the frame buffer and the Result,
// whose slices the engine reuses. A stale Result is never read: the
// engine rewrites it on every success, and only a success is encoded.
func (it *item) reset() {
	it.wsp.Reset()
	*it = item{wsp: it.wsp, frame: it.frame[:0], bi: engine.BatchItem{Res: it.bi.Res}}
}
