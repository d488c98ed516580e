package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestSlowHeadersDisconnected plays a client that dribbles its request
// headers one byte at a time: the server must drop the connection once
// the header deadline passes instead of holding it open. The test runs
// the daemon's own http.Server with the deadline shortened, after
// checking that the constants are what the daemon sets.
func TestSlowHeadersDisconnected(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts: header %v idle %v, want %v and %v",
			hs.ReadHeaderTimeout, hs.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	const deadline = 200 * time.Millisecond
	hs.ReadHeaderTimeout = deadline
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	// The server arms the header deadline when its connection goroutine
	// starts reading, which can come before Dial returns here, so the
	// clock starts before the dial.
	start := time.Now()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	dropped := make(chan time.Duration, 1)
	go func() {
		// The server answers nothing; the read ends when it closes.
		io.Copy(io.Discard, conn)
		dropped <- time.Since(start)
	}()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: parlistd\r\n"); err != nil {
		t.Fatalf("write: %v", err)
	}
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	giveUp := time.After(5 * time.Second)
	for {
		select {
		case d := <-dropped:
			if d < deadline {
				t.Errorf("dropped after %v, before the %v header deadline", d, deadline)
			}
			return
		case <-tick.C:
			// Write errors are expected once the server has closed.
			conn.Write([]byte("X"))
		case <-giveUp:
			t.Fatalf("connection still open after 5s of dribbled headers")
		}
	}
}
