package matching

import (
	"reflect"
	"testing"

	"parlist/internal/list"
	"parlist/internal/pram"
	"parlist/internal/ws"
)

// TestRunnerMatchesMatch4 asserts the Runner is a bit-identical mirror
// of Match4's default configuration: same matching, same counters, same
// phase attribution, on every executor.
func TestRunnerMatchesMatch4(t *testing.T) {
	execs := []struct {
		name string
		exec pram.Exec
	}{
		{"sequential", pram.Sequential},
		{"pooled", pram.Pooled},
	}
	for _, ex := range execs {
		for _, n := range []int{1, 2, 3, 7, 64, 1000, 4096} {
			for _, iters := range []int{1, 3} {
				l := list.RandomList(n, int64(n)+7)

				ref := pram.New(8, pram.WithExec(ex.exec), pram.WithWorkers(4))
				want, err := Match4(ref, l, nil, Match4Config{I: iters})
				if err != nil {
					t.Fatalf("%s n=%d i=%d: Match4: %v", ex.name, n, iters, err)
				}

				m := pram.New(8, pram.WithExec(ex.exec), pram.WithWorkers(4), pram.WithWorkspace(ws.New()))
				r, err := NewRunner(m, iters)
				if err != nil {
					t.Fatalf("NewRunner: %v", err)
				}
				var got Result
				if err := r.Run(l, &got); err != nil {
					t.Fatalf("%s n=%d i=%d: Run: %v", ex.name, n, iters, err)
				}

				if err := Verify(l, got.In); err != nil {
					t.Errorf("%s n=%d i=%d: runner matching invalid: %v", ex.name, n, iters, err)
				}
				for v := range want.In {
					if want.In[v] != got.In[v] {
						t.Fatalf("%s n=%d i=%d: In[%d] = %v, Match4 has %v", ex.name, n, iters, v, got.In[v], want.In[v])
					}
				}
				if got.Size != want.Size || got.Sets != want.Sets || got.Rounds != want.Rounds || got.TableSize != want.TableSize {
					t.Errorf("%s n=%d i=%d: meta %d/%d/%d/%d, want %d/%d/%d/%d", ex.name, n, iters,
						got.Size, got.Sets, got.Rounds, got.TableSize,
						want.Size, want.Sets, want.Rounds, want.TableSize)
				}
				if !reflect.DeepEqual(got.Stats, want.Stats) {
					t.Errorf("%s n=%d i=%d: stats diverge\n got: %+v\nwant: %+v", ex.name, n, iters, got.Stats, want.Stats)
				}
			}
		}
	}
}

// TestRunnerReuseIsDeterministic reruns one Runner on a warm machine and
// workspace: the second and third results must be identical to the first
// (counters included, after the machine reset).
func TestRunnerReuseIsDeterministic(t *testing.T) {
	l := list.RandomList(2048, 11)
	m := pram.New(8, pram.WithExec(pram.Pooled), pram.WithWorkers(4), pram.WithWorkspace(ws.New()))
	defer m.Close()
	r, err := NewRunner(m, 3)
	if err != nil {
		t.Fatal(err)
	}

	run := func() (Result, []bool) {
		m.Workspace().Reset()
		m.Reset()
		var res Result
		if err := r.Run(l, &res); err != nil {
			t.Fatal(err)
		}
		return res, append([]bool(nil), res.In...)
	}

	first, firstIn := run()
	for i := 0; i < 2; i++ {
		res, in := run()
		if !reflect.DeepEqual(in, firstIn) {
			t.Fatalf("rerun %d: matching diverged", i)
		}
		if res.Size != first.Size || res.Sets != first.Sets {
			t.Fatalf("rerun %d: meta diverged", i)
		}
		if !reflect.DeepEqual(res.Stats, first.Stats) {
			t.Fatalf("rerun %d: stats diverged\n got: %+v\nwant: %+v", i, res.Stats, first.Stats)
		}
	}
}

// TestRunnerSteadyStateZeroAllocs is the tentpole's headline property:
// after a warm-up run, a full maximal-matching request on a reused
// machine + workspace performs no heap allocation.
func TestRunnerSteadyStateZeroAllocs(t *testing.T) {
	l := list.RandomList(4096, 5)
	m := pram.New(8, pram.WithWorkspace(ws.New()))
	r, err := NewRunner(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	run := func() {
		m.Workspace().Reset()
		m.Reset()
		if err := r.Run(l, &res); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the workspace free lists and the stats buffers
	run()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Errorf("steady-state allocs/run = %v, want 0", avg)
	}
}
