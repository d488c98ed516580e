package rank

import (
	"slices"
	"testing"

	"parlist/internal/list"
	"parlist/internal/pram"
	"parlist/internal/ws"
)

// TestNativeWalkReached: the splitter walk reports how many nodes it
// reached from the head — n on a valid list, with Rank's output, and
// exactly the head's path length on a list whose other nodes form a
// cycle (here through node 0, a splitter at every party count) — on the
// serial path and the team path alike.
func TestNativeWalkReached(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		m := pram.New(8, pram.WithExec(pram.Native), pram.WithWorkers(workers), pram.WithWorkspace(ws.New()))
		w := NewNativeWalker(m)
		for _, n := range []int{5, 63, 64, 65, 1000} {
			l := list.RandomList(n, int64(n))
			out, reached := w.Walk(l, nil)
			if reached != n || !slices.Equal(out, l.Position()) {
				t.Errorf("workers=%d n=%d valid: reached %d, ranks ok %v", workers, n, reached, slices.Equal(out, l.Position()))
			}

			// Cut node 0 and its successor out of the path into a 2-cycle.
			broken := l.Clone()
			a, b := 0, broken.Next[0]
			if b == list.Nil || a == broken.Head {
				continue
			}
			pred := slices.Index(broken.Next, a)
			broken.Next[pred] = broken.Next[b]
			broken.Next[a], broken.Next[b] = b, a
			path := 0
			for v := broken.Head; v != list.Nil; v = broken.Next[v] {
				path++
			}
			if err := broken.ValidateDegrees(nil); err != nil {
				t.Fatalf("fixture: %v", err)
			}
			if _, reached := w.Walk(broken, make([]int, n)); reached != path {
				t.Errorf("workers=%d n=%d broken: reached %d, want %d", workers, n, reached, path)
			}
		}
		m.Close()
	}
}
