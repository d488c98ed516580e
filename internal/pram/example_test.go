package pram_test

import (
	"fmt"

	"parlist/internal/pram"
)

// ExampleTracer attaches a round-level tracer to a machine and renders
// the per-phase accounting table after two named phases run.
func ExampleTracer() {
	var tr pram.Tracer
	m := pram.New(4, pram.WithObserver(&tr))
	defer m.Close()

	m.Phase("fill")
	m.ParFor(8, func(i int) {}) // ⌈8/4⌉ = 2 steps, 8 work
	m.Phase("reduce")
	m.ParFor(4, func(i int) {}) // 1 step, 4 work
	m.Charge(1, 1)              // analytic charge in the same phase

	fmt.Print(tr.Summary())
	// Output:
	// phase              rounds         time           work   share
	// fill                    1            2              8   50.0%
	// reduce                  2            2              5   50.0%
	// total                   3            4
}
