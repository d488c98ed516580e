// Package obs is the unified observability layer: a dependency-free
// metrics core (atomic counters, gauges, and log-linear latency
// histograms with a lock-free zero-allocation Observe hot path), a
// Registry that renders everything in Prometheus text format, a Chrome
// trace-event span log viewable in Perfetto, and the event stream the
// pram and engine layers emit (event.go) with the Collector that
// consumes it.
//
// The package imports only the standard library and none of the other
// parlist packages. The producers (pram.Machine, engine.Engine,
// engine.EnginePool) import it for Observer and Event, and send every
// observation as one Event; consumers (Collector, pram.Tracer) switch
// on its Kind. So observation flows producer → Observer → Registry
// without the metrics code depending on the simulator.
//
// Observation is a wall-clock side channel only: with no observer
// attached every producer hook is a nil-check no-op, the simulated
// Stats (model time/work/phases) are bit-identical observer-on vs
// observer-off, and the engine's steady-state request path stays
// allocation-free (both are asserted by tests).
package obs

import "sync/atomic"

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n must be ≥ 0).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous atomic value that may go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }
