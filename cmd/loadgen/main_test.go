package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"parlist/internal/engine"
	"parlist/internal/obs"
	"parlist/internal/pram"
	"parlist/internal/server"
)

func TestSmokeInProcess(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	if err := run([]string{"-smoke", "-trace", trace}, &out); err != nil {
		t.Fatalf("loadgen -smoke: %v\n%s", err, &out)
	}
	for _, want := range []string{
		"conc=1   requests=16    shed=0", "conc=2   requests=16    shed=0", "queue-wait p50=", "service p50=",
		"pool totals: requests=32", "sampled traces", "trace spans to " + trace,
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, &out)
		}
	}
}

// TestSmokeOverWire runs the wire-mode smoke against an in-test daemon
// that records traces and serves them on /debug/traces, as parlistd
// does.
func TestSmokeOverWire(t *testing.T) {
	rec := obs.NewSpanRecorder(obs.NewTraceSource(1), 1)
	srv, err := server.New(server.Config{
		Pool: engine.NewPool(engine.PoolConfig{Engines: 2, QueueDepth: 64,
			Engine: engine.Config{Processors: 64, Exec: pram.Native}}),
		BatchSize: 8,
		Trace:     rec,
	})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.ServeBinary(ln)
	debug := httptest.NewServer(srv.Handler())
	defer debug.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()

	var out bytes.Buffer
	args := []string{"-connect", ln.Addr().String(), "-smoke", "-debug-addr", strings.TrimPrefix(debug.URL, "http://")}
	if err := run(args, &out); err != nil {
		t.Fatalf("loadgen %s: %v\n%s", strings.Join(args, " "), err, &out)
	}
	for _, want := range []string{
		"wire qps-target=400 offered=40 served=40 shed=0", "late-p50=", "mean-batch=", "sampled traces",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, &out)
		}
	}
}

// TestUsageErrors pins exit class 2 (a usageError) for bad invocations,
// -shards among them: sharded runs are not a loadgen mode.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "2"}, {"-bogus"}, {"-p", "0"}, {"-engines", "0"}, {"-requests", "0"},
		{"-conc", "1,x"}, {"-n", "0"}, {"-exec", "goroutines"},
		// Flags wire mode ignores, and -debug-addr without wire mode.
		{"-connect", "127.0.0.1:1", "-trace", "unwritten.json"},
		{"-connect", "127.0.0.1:1", "-listen", "127.0.0.1:0"},
		{"-connect", "127.0.0.1:1", "-engines", "2"},
		{"-connect", "127.0.0.1:1", "-queue", "8"},
		{"-connect", "127.0.0.1:1", "-p", "8"},
		{"-connect", "127.0.0.1:1", "-exec", "native"},
		{"-connect", "127.0.0.1:1", "-smoke", "-trace", "unwritten.json"},
		{"-debug-addr", "127.0.0.1:1", "-n", "16", "-requests", "1", "-conc", "1"},
	} {
		err := run(args, io.Discard)
		var ue usageError
		if !errors.As(err, &ue) {
			t.Errorf("loadgen %s: %v, want a usage error", strings.Join(args, " "), err)
		}
	}
}
