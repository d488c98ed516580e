package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/pram"
	"parlist/internal/verify"
)

// processors is parlistd's default simulated processor count (-p).
const processors = 256

// listsPerSize is how many distinct random lists back each input size
// of a workload. The corpus is small on purpose: every workload repeats
// its inputs, with the result cache off as parlistd ships it.
const listsPerSize = 4

// entry is one corpus request with its certified reference result.
type entry struct {
	id    int
	req   engine.Request
	ref   *engine.Result
	nodes int
	// key names the entry's (op, n) class, e.g. "rank.1024".
	key string
}

// corpus is a workload's inputs: the entries, the (op, n) classes the
// mix touches (one warm-up request each), and how arrivals pick among
// them.
type corpus struct {
	entries []*entry
	// classes holds one entry per (op, n) class, in mix order.
	classes []*entry
	// hot, when non-empty, receives half of all arrivals (the hot
	// coalescing group); the other half is uniform over all entries.
	hot []*entry
}

// pick draws one arrival's entry.
func (c *corpus) pick(rng *rand.Rand) *entry {
	if len(c.hot) > 0 && rng.Intn(2) == 0 {
		return c.hot[rng.Intn(len(c.hot))]
	}
	return c.entries[rng.Intn(len(c.entries))]
}

// buildCorpus generates the workload's inputs from seed, lists random
// lists per size, and computes every reference with the Sequential
// executor, certifying it with the independent checkers in
// internal/verify where one exists.
func buildCorpus(w *workload, seed int64, lists int) (*corpus, error) {
	rng := rand.New(rand.NewSource(seed))
	ref := engine.New(engine.Config{Processors: processors, Exec: pram.Sequential})
	defer ref.Close()
	c := &corpus{}
	add := func(req engine.Request) (*entry, error) {
		res, err := ref.Run(context.Background(), req)
		if err != nil {
			return nil, fmt.Errorf("reference %v n=%d: %w", req.Op, req.List.Len(), err)
		}
		if err := certify(req, res); err != nil {
			return nil, fmt.Errorf("reference %v n=%d: %w", req.Op, req.List.Len(), err)
		}
		n := req.List.Len()
		e := &entry{id: len(c.entries), req: req, ref: res, nodes: n, key: classKey(req.Op, n)}
		c.entries = append(c.entries, e)
		return e, nil
	}
	classSeen := map[string]bool{}
	for _, n := range w.sizes {
		for j := 0; j < lists; j++ {
			l := list.RandomList(n, rng.Int63())
			var part *engine.Result
			for _, op := range w.ops {
				req := engine.Request{Op: op, List: l}
				switch op {
				case engine.OpPartition:
					req.Iters = partitionIters
				case engine.OpPrefix:
					req.Values = make([]int, n)
					for i := range req.Values {
						req.Values[i] = rng.Intn(100)
					}
				case engine.OpSchedule:
					// The §4 conversion runs on a partition the service
					// computed during set-up.
					if part == nil {
						r, err := ref.Run(context.Background(), engine.Request{Op: engine.OpPartition, List: l, Iters: partitionIters})
						if err != nil {
							return nil, fmt.Errorf("schedule labels: %w", err)
						}
						part = r
					}
					req.Labels, req.K = part.Labels, part.Sets
				}
				e, err := add(req)
				if err != nil {
					return nil, err
				}
				if op == engine.OpPartition {
					part = e.ref
				}
				if !classSeen[e.key] {
					classSeen[e.key] = true
					c.classes = append(c.classes, e)
				}
				if w.hotOp == op && w.hotN == n {
					c.hot = append(c.hot, e)
				}
			}
		}
	}
	return c, nil
}

// partitionIters is the partition requests' application count i.
const partitionIters = 2

func classKey(op engine.Op, n int) string { return fmt.Sprintf("%v.%d", op, n) }

// certify checks a reference result with internal/verify. Prefix sums
// and independent sets have no checker there; their references are
// trusted as the Sequential executor's output.
func certify(req engine.Request, res *engine.Result) error {
	l := req.List
	switch req.Op {
	case engine.OpMatching, engine.OpSchedule:
		return verify.MaximalMatching(l, res.In)
	case engine.OpPartition:
		return verify.Partition(l, res.Labels, res.Sets)
	case engine.OpThreeColor:
		return verify.Partition(l, res.Labels, 3)
	case engine.OpRank:
		return verify.Ranks(l, res.Ranks)
	}
	return nil
}

// check compares a served result's outputs with the entry's reference.
// Stats are not compared: the native kernels charge none.
func (e *entry) check(res *engine.Result) error {
	switch {
	case res == nil:
		return errors.New("no result")
	case res.Op != e.ref.Op:
		return fmt.Errorf("op %v, want %v", res.Op, e.ref.Op)
	case !slices.Equal(res.In, e.ref.In):
		return errors.New("membership differs from reference")
	case !slices.Equal(res.Labels, e.ref.Labels):
		return errors.New("labels differ from reference")
	case !slices.Equal(res.Ranks, e.ref.Ranks):
		return errors.New("ranks differ from reference")
	case res.Size != e.ref.Size || res.Sets != e.ref.Sets:
		return fmt.Errorf("size/sets %d/%d, want %d/%d", res.Size, res.Sets, e.ref.Size, e.ref.Sets)
	}
	return nil
}
