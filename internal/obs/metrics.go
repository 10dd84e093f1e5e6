// Package obs is the unified observability layer of the serving stack:
// a dependency-free metrics core (lock-free atomic counters and gauges,
// fixed-bucket latency histograms with mergeable shards), a process-wide
// Registry of labeled metric families with hand-rolled Prometheus
// text-format exposition, per-request Traces threaded through
// context.Context, and an HTTP handler exposing /metrics, /healthz,
// /readyz, /debug/traces, and net/http/pprof.
//
// Design constraints, in order:
//
//  1. Hot-path recording must be allocation-free and nearly free in
//     time: Counter.Add and Gauge.Set are single atomic ops;
//     Histogram.Observe is a branchless shard pick, an inlined binary
//     search, and three atomic ops on a padded shard. Trace recording
//     is nil-safe, so un-traced paths (the zero-allocation kernel
//     entry points under an un-traced context) pay only a context
//     value lookup.
//  2. Exposition can never disagree with programmatic snapshots: the
//     serving layers register the very counter objects they increment
//     (or read-through funcs over their mutex-guarded stats), so
//     /metrics and Server.Stats read the same memory.
//  3. No third-party dependencies: the Prometheus text format v0.0.4
//     encoder (and the grammar validator the tests and CI smoke use)
//     are hand-rolled in this package.
//
// Naming convention (DESIGN.md §11): spmmrr_<subsystem>_<name>_<unit>,
// with _total for counters, _seconds for time, and bare names for
// gauges.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Label is one name="value" pair attached to a metric within a family.
type Label struct{ Name, Value string }

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing int64. The zero value is ready
// to use; a nil *Counter ignores writes and reads as 0, so optional
// instrumentation never needs a guard at the call site.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an int64 value that can go up and down. The zero value is
// ready to use; a nil *Gauge ignores writes and reads as 0.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the value by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// GaugeFloat is a float64 gauge stored as atomic bits. The zero value
// is ready to use; a nil *GaugeFloat ignores writes and reads as 0.
type GaugeFloat struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *GaugeFloat) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *GaugeFloat) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// SetDuration stores d in seconds (the Prometheus base unit for time).
func (g *GaugeFloat) SetDuration(d time.Duration) { g.Set(d.Seconds()) }
