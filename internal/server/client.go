package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"parlist/internal/engine"
	"parlist/internal/obs"
)

// Timing is the server-stamped life cycle of one request: admission
// into the batcher, coalescing-group flush, service start on the
// machine, response write. Flush and Service are zero when the request
// failed before reaching that stage.
type Timing struct {
	Enqueue time.Time
	Flush   time.Time
	Service time.Time
	Respond time.Time
}

// Response is one binary-framing reply. On StatusOK, Result carries
// the engine output (Stats reduced to Time and Work — the wire does
// not ship per-phase detail); otherwise Message explains the failure.
// Trace is the request's trace context as the server saw it —
// wire-propagated or server-minted — zero when the server ran
// untraced; its TraceID keys /debug/traces.
type Response struct {
	ID      uint64
	Status  byte
	Op      engine.Op
	Batched int
	Timing  Timing
	Trace   obs.TraceContext
	Message string
	Result  engine.Result
}

// StatusError is a non-OK response surfaced as an error by Client.Do.
// TraceID ("" when untraced) and Timing carry enough context to find
// the failure in /debug/traces and see how far the request got before
// dying — an error you can debug without re-running the request.
type StatusError struct {
	Code    byte
	Message string
	TraceID string
	Timing  Timing
}

// Error renders the taxonomy code, the server's message, and — when
// the request was traced — the trace id to look it up by.
func (e *StatusError) Error() string {
	if e.TraceID != "" {
		return fmt.Sprintf("server: %s: %s (trace %s)", statusName(e.Code), e.Message, e.TraceID)
	}
	return fmt.Sprintf("server: %s: %s", statusName(e.Code), e.Message)
}

// Client speaks the binary framing over one connection, pipelined: any
// number of requests may be in flight; responses are demultiplexed by
// id. A Client is safe for concurrent use. A write never holds the
// lock the read loop takes, so responses keep arriving while a write
// waits on a server that has stopped reading at its per-connection
// cap.
type Client struct {
	conn   net.Conn
	tenant string

	mu      sync.Mutex // guards nextID, pending, closed and readErr
	pending map[uint64]chan *Response
	nextID  uint64
	closed  bool
	readErr error

	wmu  sync.Mutex // serializes frame writes and guards wbuf
	wbuf []byte
}

// Dial connects a binary-framing client to addr. tenant names the
// caller for rate limiting ("" = DefaultTenant).
func Dial(addr, tenant string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, tenant: tenant, pending: make(map[uint64]chan *Response)}
	go c.readLoop()
	return c, nil
}

// Close tears the connection down; every in-flight request fails.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}

// Submit writes one request and returns a 1-slot channel its response
// will arrive on, without waiting for the response — the pipelining
// primitive. The write itself may wait while the server holds its
// per-connection cap of unanswered requests. A failed write closes the
// connection: a partial frame leaves the stream unreadable.
func (c *Client) Submit(req engine.Request) (<-chan *Response, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	ch := make(chan *Response, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("server: client closed")
	}
	if err := c.readErr; err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	var err error
	if c.wbuf, err = appendRequestFrame(c.wbuf[:0], id, c.tenant, &req); err == nil {
		if _, err = c.conn.Write(c.wbuf); err != nil {
			c.conn.Close()
		}
	}
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, err
	}
	return ch, nil
}

// Do submits one request and waits for its response. A non-OK status
// comes back as a *StatusError (alongside the response, whose Timing
// is still meaningful); transport failures return a nil response.
func (c *Client) Do(ctx context.Context, req engine.Request) (*Response, error) {
	ch, err := c.Submit(req)
	if err != nil {
		return nil, err
	}
	select {
	case r, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.readErr
			c.mu.Unlock()
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if r.Status != StatusOK {
			se := &StatusError{Code: r.Status, Message: r.Message, Timing: r.Timing}
			if r.Trace.Valid() {
				se.TraceID = r.Trace.TraceID()
			}
			return r, se
		}
		return r, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// readLoop demultiplexes responses to their waiting channels; on any
// read or decode error it fails every pending request by closing its
// channel.
func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, 1<<16)
	var lenBuf [4]byte
	// rbuf is reused for every frame: decodeResponseFrame copies the
	// result arrays out, so each Response stays the caller's.
	var rbuf []byte
	var err error
	for {
		if _, err = io.ReadFull(br, lenBuf[:]); err != nil {
			break
		}
		size := int(binary.LittleEndian.Uint32(lenBuf[:]))
		buf := frameBuf(&rbuf, size)
		if _, err = io.ReadFull(br, buf); err != nil {
			break
		}
		var r *Response
		if r, err = decodeResponseFrame(buf); err != nil {
			break
		}
		c.mu.Lock()
		ch := c.pending[r.ID]
		delete(c.pending, r.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- r
		}
	}
	c.mu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.mu.Unlock()
}
