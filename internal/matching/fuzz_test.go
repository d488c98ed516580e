package matching

import (
	"reflect"
	"testing"

	"parlist/internal/list"
	"parlist/internal/pram"
	"parlist/internal/verify"
)

// Go fuzz targets: `go test` runs the seed corpus as regression
// tests; `go test -fuzz=FuzzMatch4` explores further. Every fuzzed
// input runs under all four executors; outputs must satisfy both the
// neighbour-walking checker (Verify) and the independent
// incidence-counting checker (verify.MaximalMatching), and must be
// bit-identical across executors. (Direct algorithm calls on a Native
// machine exercise its simulated-fallback dispatch, which must keep
// accounting bit-identical too; the native team kernels are fuzzed
// separately in internal/engine's FuzzNativeEquivalence.)

var fuzzExecs = []pram.Exec{pram.Sequential, pram.Pooled, pram.Native}

// checkMatching applies both checkers to a candidate matching.
func checkMatching(t *testing.T, l *list.List, in []bool, ctx string) {
	t.Helper()
	if err := Verify(l, in); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if err := verify.MaximalMatching(l, in); err != nil {
		t.Fatalf("%s: independent checker: %v", ctx, err)
	}
}

func FuzzMatch4(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(3), uint8(4), false)
	f.Add(int64(7), uint16(2), uint8(1), uint8(1), true)
	f.Add(int64(42), uint16(4097), uint8(2), uint8(16), false)
	f.Add(int64(3), uint16(0), uint8(1), uint8(1), false)      // singleton list
	f.Add(int64(4), uint16(1), uint8(2), uint8(7), true)       // minimal chain
	f.Add(int64(5), uint16(4999), uint8(4), uint8(255), false) // max fuzzed length
	f.Fuzz(func(t *testing.T, seed int64, nn uint16, ii uint8, pp uint8, via bool) {
		n := int(nn)%5000 + 1
		i := int(ii)%4 + 1
		p := int(pp)%256 + 1
		l := list.RandomList(n, seed)
		var ref *Result
		for _, exec := range fuzzExecs {
			m := pram.New(p, pram.WithExec(exec), pram.WithWorkers(4))
			r, err := Match4(m, l, nil, Match4Config{I: i, ViaColoring: via})
			m.Close()
			if err != nil {
				t.Fatalf("n=%d i=%d p=%d %v: %v", n, i, p, exec, err)
			}
			checkMatching(t, l, r.In, exec.String())
			if exec == pram.Sequential {
				ref = r
				continue
			}
			if !reflect.DeepEqual(r.In, ref.In) {
				t.Fatalf("n=%d i=%d p=%d via=%v: %v matching differs from sequential", n, i, p, via, exec)
			}
			if r.Stats.Time != ref.Stats.Time || r.Stats.Work != ref.Stats.Work {
				t.Fatalf("n=%d i=%d p=%d via=%v: %v accounting %d/%d differs from sequential %d/%d",
					n, i, p, via, exec, r.Stats.Time, r.Stats.Work, ref.Stats.Time, ref.Stats.Work)
			}
		}
	})
}

func FuzzCutAndWalk(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 1, 0, 2})
	f.Add(int64(2), []byte{2, 2, 2})
	f.Add(int64(3), []byte{0})
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		n := len(raw)
		if n < 1 || n > 4096 {
			return
		}
		l := list.RandomList(n, seed)
		// Build labels from the fuzz bytes, repaired into a proper
		// labelling along the list (consecutive pointers must differ).
		lab := make([]int, n)
		prev := -1
		for v := l.Head; v != list.Nil; v = l.Next[v] {
			c := int(raw[v]) % 3
			if c == prev {
				c = (c + 1) % 3
			}
			lab[v] = c
			prev = c
		}
		var ref []bool
		for _, exec := range fuzzExecs {
			m := pram.New(9, pram.WithExec(exec), pram.WithWorkers(4))
			in := CutAndWalk(m, l, lab, 3, nil)
			m.Close()
			checkMatching(t, l, in, exec.String())
			if exec == pram.Sequential {
				ref = in
				continue
			}
			if !reflect.DeepEqual(in, ref) {
				t.Fatalf("n=%d: %v matching differs from sequential (labels %v)", n, exec, lab)
			}
		}
	})
}

func FuzzMatch2(f *testing.F) {
	f.Add(int64(5), uint16(17), uint8(3))
	f.Add(int64(9), uint16(1000), uint8(64))
	f.Add(int64(11), uint16(0), uint8(1)) // singleton list
	f.Fuzz(func(t *testing.T, seed int64, nn uint16, pp uint8) {
		n := int(nn)%4000 + 1
		p := int(pp)%128 + 1
		l := list.RandomList(n, seed)
		var ref *Result
		for _, exec := range fuzzExecs {
			m := pram.New(p, pram.WithExec(exec), pram.WithWorkers(4))
			r := Match2(m, l, nil)
			m.Close()
			checkMatching(t, l, r.In, exec.String())
			if exec == pram.Sequential {
				ref = r
				continue
			}
			if !reflect.DeepEqual(r.In, ref.In) {
				t.Fatalf("n=%d p=%d: %v matching differs from sequential", n, p, exec)
			}
		}
	})
}
