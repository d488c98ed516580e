package server

// The binary framing is the hot path: length-prefixed frames over a
// plain TCP (or unix) socket, pipelined — a client may have any number
// of requests in flight on one connection and responses come back
// tagged with the request's id, in completion order.
//
// Every frame is a uint32 little-endian length followed by that many
// payload bytes. Request payloads start with a 96-byte fixed header:
//
//	off size field
//	  0    1 magic 0x70 ('p')
//	  1    1 version (2; any other is refused)
//	  2    1 op (0 matching, 1 partition, 2 threecolor, 3 mis,
//	           4 rank, 5 prefix, 6 schedule)
//	  3    1 flags: bit0 values present, bit1 labels present,
//	           bit2 tenant present
//	  4    1 algorithm (0 default, 1 match1, 2 match2, 3 match3,
//	           4 match4, 5 sequential, 6 randomized)
//	  5    1 rank scheme (0 default, 1 contraction, 2 wyllie,
//	           3 loadbalanced, 4 randommate)
//	  6    1 variant (0 MSB, 1 LSB)
//	  7    1 bools: bit0 useTable, bit1 crcw
//	  8    8 id (uint64, echoed on the response)
//	 16    8 deadline (int64 nanoseconds, 0 = unbounded)
//	 24    4 processors (uint32)
//	 28    4 i (uint32)
//	 32    4 iters (uint32)
//	 36    4 k (uint32)
//	 40    8 seed (int64)
//	 48    8 n (uint64, node count)
//	 56    8 head (int64)
//	 64    8 trace id high half (uint64; all-zero trace id = untraced)
//	 72    8 trace id low half
//	 80    8 root span id
//	 88    1 trace flags: bit0 sampled
//	 89    7 reserved (zero)
//
// followed by n int64 next pointers, then — when flagged — n int64
// values, n int64 labels, and a uint16-length-prefixed tenant string.
// The payload length must land exactly on the end of the last field.
//
// Response payloads start with a 72-byte fixed header:
//
//	off size field
//	  0    1 magic 0x50 ('P')
//	  1    1 version (2)
//	  2    1 status (see Status* constants)
//	  3    1 op
//	  4    4 batched (uint32, fused-batch size; 0 when never batched)
//	  8    8 id
//	 16    8 enqueue timestamp (int64 Unix ns)
//	 24    8 flush timestamp
//	 32    8 service-start timestamp
//	 40    8 respond timestamp
//	 48    8 trace id high half (all-zero trace id = untraced)
//	 56    8 trace id low half
//	 64    8 root span id
//
// A non-OK status is followed by a uint32-length-prefixed message. An
// OK status is followed by six int64s (size, sets, rounds, tableSize,
// simTime, simWork), a uint32-length-prefixed algorithm string, and
// three length-prefixed result arrays: uint64 count + count bytes of
// In booleans, uint64 count + count int64 labels, uint64 count + count
// int64 ranks.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"time"

	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/obs"
	"parlist/internal/partition"
	"parlist/internal/ws"
)

const (
	reqMagic    byte = 0x70 // 'p'
	respMagic   byte = 0x50 // 'P'
	wireVersion byte = 2
	reqHdrLen        = 96
	respHdrLen       = 72

	flagValues byte = 1 << 0
	flagLabels byte = 1 << 1
	flagTenant byte = 1 << 2

	traceFlagSampled byte = 1 << 0
)

// DefaultMaxFrame bounds a single frame's payload; Config.MaxFrame
// overrides it. An oversized frame is refused with StatusInvalid and
// the connection is closed (the stream offset can no longer be
// trusted).
const DefaultMaxFrame = 1 << 28

var (
	errBadMagic   = errors.New("server: bad frame magic")
	errBadVersion = errors.New("server: unsupported wire version")
	errTruncated  = errors.New("server: truncated frame")
	errTrailing   = errors.New("server: trailing bytes after frame")
)

var algoByCode = []engine.Algorithm{
	"", engine.AlgoMatch1, engine.AlgoMatch2, engine.AlgoMatch3,
	engine.AlgoMatch4, engine.AlgoSequential, engine.AlgoRandomized,
}

var rankByCode = []engine.RankScheme{
	"", engine.RankContraction, engine.RankWyllie,
	engine.RankLoadBalanced, engine.RankRandomMate,
}

func codeOfAlgo(a engine.Algorithm) (byte, error) {
	for i, v := range algoByCode {
		if v == a {
			return byte(i), nil
		}
	}
	return 0, fmt.Errorf("server: algorithm %q has no wire code", a)
}

func codeOfRank(r engine.RankScheme) (byte, error) {
	for i, v := range rankByCode {
		if v == r {
			return byte(i), nil
		}
	}
	return 0, fmt.Errorf("server: rank scheme %q has no wire code", r)
}

// appendRequestFrame encodes one request as a binary frame (length
// prefix included) and appends it to dst. Used by the client and by
// the fuzz round-trip; the server only decodes.
func appendRequestFrame(dst []byte, id uint64, tenant string, req *engine.Request) ([]byte, error) {
	if req.List == nil {
		return dst, engine.ErrNilList
	}
	ac, err := codeOfAlgo(req.Algorithm)
	if err != nil {
		return dst, err
	}
	rc, err := codeOfRank(req.Rank)
	if err != nil {
		return dst, err
	}
	n := len(req.List.Next)
	var flags byte
	size := reqHdrLen + 8*n
	if req.Values != nil {
		if len(req.Values) != n {
			return dst, engine.ErrBadValues
		}
		flags |= flagValues
		size += 8 * n
	}
	if req.Labels != nil {
		if len(req.Labels) != n {
			return dst, fmt.Errorf("server: labels length %d != n %d", len(req.Labels), n)
		}
		flags |= flagLabels
		size += 8 * n
	}
	if tenant != "" {
		if len(tenant) > 0xffff {
			return dst, fmt.Errorf("server: tenant name too long")
		}
		flags |= flagTenant
		size += 2 + len(tenant)
	}

	dst = slices.Grow(dst, 4+size)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(size))
	var hdr [reqHdrLen]byte
	hdr[0] = reqMagic
	hdr[1] = wireVersion
	hdr[2] = byte(req.Op)
	hdr[3] = flags
	hdr[4] = ac
	hdr[5] = rc
	hdr[6] = byte(req.Variant)
	if req.UseTable {
		hdr[7] |= 1
	}
	if req.CRCW {
		hdr[7] |= 2
	}
	binary.LittleEndian.PutUint64(hdr[8:], id)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(req.Deadline))
	binary.LittleEndian.PutUint32(hdr[24:], uint32(req.Processors))
	binary.LittleEndian.PutUint32(hdr[28:], uint32(req.I))
	binary.LittleEndian.PutUint32(hdr[32:], uint32(req.Iters))
	binary.LittleEndian.PutUint32(hdr[36:], uint32(req.K))
	binary.LittleEndian.PutUint64(hdr[40:], uint64(req.Seed))
	binary.LittleEndian.PutUint64(hdr[48:], uint64(n))
	binary.LittleEndian.PutUint64(hdr[56:], uint64(req.List.Head))
	binary.LittleEndian.PutUint64(hdr[64:], req.Trace.TraceHi)
	binary.LittleEndian.PutUint64(hdr[72:], req.Trace.TraceLo)
	binary.LittleEndian.PutUint64(hdr[80:], req.Trace.SpanID)
	if req.Trace.Sampled {
		hdr[88] |= traceFlagSampled
	}
	dst = append(dst, hdr[:]...)
	for _, v := range req.List.Next {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	for _, v := range req.Values {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	for _, v := range req.Labels {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	if flags&flagTenant != 0 {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(tenant)))
		dst = append(dst, tenant...)
	}
	return dst, nil
}

// decodeRequest parses a request payload (length prefix already
// stripped) into it: the id and tenant into it.id and it.tenant, the
// request into it.bi.Req, its list header into it.list and its arrays
// into it.wsp (fresh allocations when it.wsp is nil). Every length is
// validated against the payload size before any allocation, so a
// hostile frame cannot force a huge allocation.
func decodeRequest(buf []byte, it *item) error {
	req := &it.bi.Req
	switch {
	case len(buf) < 2:
		return errTruncated
	case buf[0] != reqMagic:
		return errBadMagic
	case buf[1] != wireVersion:
		return errBadVersion
	case len(buf) < reqHdrLen:
		return errTruncated
	}
	op := engine.Op(buf[2])
	flags := buf[3]
	if flags&^(flagValues|flagLabels|flagTenant) != 0 {
		return fmt.Errorf("server: unknown flags 0x%x", flags)
	}
	if int(buf[4]) >= len(algoByCode) {
		return fmt.Errorf("server: unknown algorithm code %d", buf[4])
	}
	if int(buf[5]) >= len(rankByCode) {
		return fmt.Errorf("server: unknown rank code %d", buf[5])
	}
	if buf[6] > 1 {
		return fmt.Errorf("server: unknown variant code %d", buf[6])
	}
	it.id = binary.LittleEndian.Uint64(buf[8:])
	*req = engine.Request{
		Op:         op,
		Algorithm:  algoByCode[buf[4]],
		Rank:       rankByCode[buf[5]],
		Variant:    partition.Variant(buf[6]),
		UseTable:   buf[7]&1 != 0,
		CRCW:       buf[7]&2 != 0,
		Deadline:   time.Duration(binary.LittleEndian.Uint64(buf[16:])),
		Processors: int(int32(binary.LittleEndian.Uint32(buf[24:]))),
		I:          int(int32(binary.LittleEndian.Uint32(buf[28:]))),
		Iters:      int(int32(binary.LittleEndian.Uint32(buf[32:]))),
		K:          int(int32(binary.LittleEndian.Uint32(buf[36:]))),
		Seed:       int64(binary.LittleEndian.Uint64(buf[40:])),
	}
	n64 := binary.LittleEndian.Uint64(buf[48:])
	head := int64(binary.LittleEndian.Uint64(buf[56:]))
	// An all-zero trace block decodes as "no context"; reserved bytes
	// are ignored for forward compatibility.
	req.Trace = obs.TraceContext{
		TraceHi: binary.LittleEndian.Uint64(buf[64:]),
		TraceLo: binary.LittleEndian.Uint64(buf[72:]),
		SpanID:  binary.LittleEndian.Uint64(buf[80:]),
		Sampled: buf[88]&traceFlagSampled != 0,
	}
	if !req.Trace.Valid() {
		req.Trace = obs.TraceContext{}
	}
	rest := len(buf) - reqHdrLen
	arrays := 1 // next
	if flags&flagValues != 0 {
		arrays++
	}
	if flags&flagLabels != 0 {
		arrays++
	}
	if n64 > uint64(rest)/uint64(8*arrays) {
		return errTruncated
	}
	n := int(n64)
	off := reqHdrLen
	readInts := func() []int {
		out := ws.IntsNoZero(it.wsp, n)
		for i := range out {
			out[i] = int(int64(binary.LittleEndian.Uint64(buf[off:])))
			off += 8
		}
		return out
	}
	it.list = list.List{Next: readInts(), Head: int(head)}
	req.List = &it.list
	if flags&flagValues != 0 {
		req.Values = readInts()
	}
	if flags&flagLabels != 0 {
		req.Labels = readInts()
	}
	if flags&flagTenant != 0 {
		if len(buf)-off < 2 {
			return errTruncated
		}
		tl := int(binary.LittleEndian.Uint16(buf[off:]))
		off += 2
		if len(buf)-off < tl {
			return errTruncated
		}
		it.tenant = string(buf[off : off+tl])
		off += tl
	}
	if off != len(buf) {
		return errTrailing
	}
	return nil
}

// appendResponseFrame encodes the item's response (length prefix included),
// growing dst once to the frame's size up front. The stamps a request
// never reached are zero, and the trace block echoes the request's
// (possibly server-minted) context so the client learns its trace id.
func appendResponseFrame(dst []byte, it *item) []byte {
	var hdr [respHdrLen]byte
	hdr[0] = respMagic
	hdr[1] = wireVersion
	hdr[2] = it.status
	hdr[3] = byte(it.bi.Req.Op)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(it.batched))
	binary.LittleEndian.PutUint64(hdr[8:], it.id)
	for i, t := range [...]time.Time{it.enq, it.flush, it.bi.Start, time.Now()} {
		if !t.IsZero() {
			binary.LittleEndian.PutUint64(hdr[16+8*i:], uint64(t.UnixNano()))
		}
	}
	tc := it.bi.Req.Trace
	binary.LittleEndian.PutUint64(hdr[48:], tc.TraceHi)
	binary.LittleEndian.PutUint64(hdr[56:], tc.TraceLo)
	binary.LittleEndian.PutUint64(hdr[64:], tc.SpanID)

	res := &it.bi.Res
	var errMsg string
	size := respHdrLen
	if it.status != StatusOK {
		errMsg = it.err.Error()
		size += 4 + len(errMsg)
	} else {
		size += 6*8 + 4 + len(res.Algorithm) + 8 + len(res.In) + 8 + 8*len(res.Labels) + 8 + 8*len(res.Ranks)
	}
	dst = slices.Grow(dst, 4+size)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(size))
	dst = append(dst, hdr[:]...)
	if it.status != StatusOK {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(errMsg)))
		return append(dst, errMsg...)
	}
	for _, v := range []int64{int64(res.Size), int64(res.Sets), int64(res.Rounds),
		int64(res.TableSize), res.Stats.Time, res.Stats.Work} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(res.Algorithm)))
	dst = append(dst, res.Algorithm...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(res.In)))
	for _, b := range res.In {
		if b {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(res.Labels)))
	for _, v := range res.Labels {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(res.Ranks)))
	for _, v := range res.Ranks {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// decodeResponseFrame parses a response payload into a client Response.
func decodeResponseFrame(buf []byte) (*Response, error) {
	switch {
	case len(buf) < 2:
		return nil, errTruncated
	case buf[0] != respMagic:
		return nil, errBadMagic
	case buf[1] != wireVersion:
		return nil, errBadVersion
	case len(buf) < respHdrLen:
		return nil, errTruncated
	}
	r := &Response{
		Status:  buf[2],
		Op:      engine.Op(buf[3]),
		Batched: int(binary.LittleEndian.Uint32(buf[4:])),
		ID:      binary.LittleEndian.Uint64(buf[8:]),
		Timing: Timing{
			Enqueue: unixNano(buf[16:]),
			Flush:   unixNano(buf[24:]),
			Service: unixNano(buf[32:]),
			Respond: unixNano(buf[40:]),
		},
	}
	r.Trace = obs.TraceContext{
		TraceHi: binary.LittleEndian.Uint64(buf[48:]),
		TraceLo: binary.LittleEndian.Uint64(buf[56:]),
		SpanID:  binary.LittleEndian.Uint64(buf[64:]),
	}
	if !r.Trace.Valid() {
		r.Trace = obs.TraceContext{}
	}
	off := respHdrLen
	if r.Status != StatusOK {
		if len(buf)-off < 4 {
			return nil, errTruncated
		}
		ml := int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		if len(buf)-off < ml {
			return nil, errTruncated
		}
		r.Message = string(buf[off : off+ml])
		return r, nil
	}
	if len(buf)-off < 6*8+4 {
		return nil, errTruncated
	}
	vals := make([]int64, 6)
	for i := range vals {
		vals[i] = int64(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	r.Result.Op = r.Op
	r.Result.Size = int(vals[0])
	r.Result.Sets = int(vals[1])
	r.Result.Rounds = int(vals[2])
	r.Result.TableSize = int(vals[3])
	r.Result.Stats.Time = vals[4]
	r.Result.Stats.Work = vals[5]
	al := int(binary.LittleEndian.Uint32(buf[off:]))
	off += 4
	if len(buf)-off < al {
		return nil, errTruncated
	}
	r.Result.Algorithm = string(buf[off : off+al])
	off += al
	if len(buf)-off < 8 {
		return nil, errTruncated
	}
	nIn := binary.LittleEndian.Uint64(buf[off:])
	off += 8
	if nIn > uint64(len(buf)-off) {
		return nil, errTruncated
	}
	if nIn > 0 {
		r.Result.In = make([]bool, nIn)
		for i := range r.Result.In {
			r.Result.In[i] = buf[off] != 0
			off++
		}
	}
	for _, dst := range []*[]int{&r.Result.Labels, &r.Result.Ranks} {
		if len(buf)-off < 8 {
			return nil, errTruncated
		}
		cnt := binary.LittleEndian.Uint64(buf[off:])
		off += 8
		if cnt > uint64(len(buf)-off)/8 {
			return nil, errTruncated
		}
		if cnt > 0 {
			out := make([]int, cnt)
			for i := range out {
				out[i] = int(int64(binary.LittleEndian.Uint64(buf[off:])))
				off += 8
			}
			*dst = out
		}
	}
	if off != len(buf) {
		return nil, errTrailing
	}
	return r, nil
}

func unixNano(b []byte) time.Time {
	ns := int64(binary.LittleEndian.Uint64(b))
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// ServeBinary accepts binary-framing connections on ln until the
// listener is closed (Shutdown closes every listener it has seen).
// It returns nil on a clean close.
func (s *Server) ServeBinary(ln net.Listener) error {
	if err := s.trackListener(ln); err != nil {
		return err
	}
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.isDraining() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.connWG.Add(1)
		go s.serveConn(c)
	}
}

// Binary-listener read bounds. A connection must start its next frame
// (the length prefix) within binaryIdleTimeout — parlistd's HTTP idle
// timeout — and finish the frame's body within binaryFrameTimeout of
// the prefix, so a client that goes silent or stalls mid-frame cannot
// hold a connection and its goroutines indefinitely. Variables only so
// a test can shorten them.
var (
	binaryIdleTimeout  = 2 * time.Minute
	binaryFrameTimeout = 10 * time.Second
)

// maxConnInflight caps the frames one binary connection holds between
// read and response write: twice the largest batch E21 fuses, and a
// quarter of the batcher's default inbox. At the cap the read loop
// stops reading until a response is written, so a pipelining client
// gets backpressure instead of the whole inbox. The bound is also why
// finish's send on the connection's out queue, which has this many
// slots, never blocks.
//
// The slots also bound a connection's bytes: a frame takes one slot
// per maxFrame/maxConnInflight bytes or part of it (frameSlots), so
// the frames a connection holds add up to at most one largest frame.
// A frame under that unit, 4 MiB at DefaultMaxFrame, takes one slot.
const maxConnInflight = 64

// frameSlots is how many in-flight slots a frame of size ≤ maxFrame
// bytes takes: ⌈size·maxConnInflight/maxFrame⌉, and at least one.
func frameSlots(size, maxFrame int) int {
	return max(1, (size*maxConnInflight-1)/maxFrame+1)
}

// serveConn serves one binary connection with two goroutines: readConn
// decodes and submits frames, and this one, the writer, takes each
// settled item from out in completion order, encodes and writes its
// response, and releases it. After a failed write it closes the
// connection, since a partial frame leaves the stream unreadable, and
// goes on releasing items unwritten. It returns once readConn has
// closed out.
func (s *Server) serveConn(c net.Conn) {
	defer s.connWG.Done()
	s.trackConn(c)
	defer s.untrackConn(c)
	out := make(chan *item, maxConnInflight)
	slots := make(chan struct{}, maxConnInflight)
	go s.readConn(c, out, slots)
	failed := false
	for it := range out {
		if !failed {
			it.frame = appendResponseFrame(it.frame[:0], it)
			c.SetWriteDeadline(time.Now().Add(30 * time.Second))
			if _, err := c.Write(it.frame); err != nil {
				failed = true
				c.Close()
			}
		}
		k := it.slots
		s.release(it)
		for range k {
			<-slots
		}
	}
}

// readConn is a binary connection's read loop. Each frame takes its
// frameSlots of slots, which the writer frees once the frame's
// response is written. A frame the decoder rejects never becomes a
// request: it goes to the writer with an error response and the loop
// ends, since after a framing error the stream offset can't be
// trusted. A read that outlives its deadline ends the loop the way a
// client close does. Either way the responses in flight are still
// written: the loop closes out only once every slot is back.
func (s *Server) readConn(c net.Conn, out chan<- *item, slots chan struct{}) {
	// take returns an item for the next frame, of size bytes, waiting
	// until the connection has the frame's slots free.
	take := func(size int) *item {
		k := frameSlots(size, s.maxFrame)
		for range k {
			slots <- struct{}{}
		}
		it := s.items.get()
		it.out, it.slots = out, k
		return it
	}
	br := bufio.NewReaderSize(c, 1<<16)
	var lenBuf [4]byte
	var rbuf []byte // the connection's reused read buffer (frameBuf)
	for {
		c.SetReadDeadline(time.Now().Add(binaryIdleTimeout))
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			break // client closed or idle (or half a prefix: nothing to answer)
		}
		size := int(binary.LittleEndian.Uint32(lenBuf[:]))
		if size > s.maxFrame {
			it := take(0)
			it.status, it.err = StatusInvalid, fmt.Errorf("frame of %d bytes exceeds limit %d", size, s.maxFrame)
			out <- it
			break
		}
		c.SetReadDeadline(time.Now().Add(binaryFrameTimeout))
		buf := frameBuf(&rbuf, size)
		if _, err := io.ReadFull(br, buf); err != nil {
			break
		}
		// The decode copies everything it keeps out of buf, so the next
		// frame may overwrite it while this request is served.
		it := take(size)
		if err := decodeRequest(buf, it); err != nil {
			it.status, it.err = StatusInvalid, err
			out <- it
			break
		}
		s.submit(it, "binary")
	}
	for range maxConnInflight {
		slots <- struct{}{}
	}
	close(out)
}
