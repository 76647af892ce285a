// Package chaos is a deterministic crash-point fault-injection harness.
//
// The engine threads named points through its riskiest windows — log
// publication and truncation, buffer write-back, restore worker
// completion, restart preparation — as bare chaos.At("name") calls. A
// point is completely inert until a test arms it: when nothing is armed,
// At is a single atomic load, so the points can live on hot paths
// (publication runs per log append) without a measurable cost.
//
// A test arms a point with the 1-based hit count at which its action
// should fire. Determinism comes from counting, not timing: under a
// seeded workload the k-th execution of a named site is the same engine
// state on every run, so a schedule derived from a seed replays the same
// crash window every time. Actions must not block on engine shutdown
// paths (a point inside a WAL append cannot wait for Crash, which
// quiesces appenders); the actions of spf's model-based checker therefore
// signal a controller goroutine and return, which models a real crash
// anyway — the failure lands asynchronously to the in-flight operation.
//
// Observe mode records hit counts without firing anything, so a driver
// can run a workload once to learn how often each site executes, then
// derive in-range trip points from a seed.
package chaos

import (
	"sync"
	"sync/atomic"
)

// Hit describes one firing of an armed point.
type Hit struct {
	// Point is the site name, e.g. "wal.publish".
	Point string
	// N is the 1-based count of executions of the site so far.
	N int64
}

// Action runs synchronously inside the engine at the armed hit. It must
// not block on anything that needs the engine to make progress.
type Action func(Hit)

type arm struct {
	hits    atomic.Int64
	fireAt  int64 // 0 = never fire (observe only)
	fn      Action
	fired   atomic.Bool
	observe bool
}

var (
	active atomic.Int64 // number of live arms; 0 = every point inert
	mu     sync.Mutex
	arms   map[string]*arm
)

// At marks one execution of the named point. Inert (one atomic load)
// unless something is armed or observing.
func At(point string) {
	if active.Load() == 0 {
		return
	}
	mu.Lock()
	a := arms[point]
	mu.Unlock()
	if a == nil {
		return
	}
	n := a.hits.Add(1)
	if a.observe || a.fn == nil {
		return
	}
	if n == a.fireAt && a.fired.CompareAndSwap(false, true) {
		a.fn(Hit{Point: point, N: n})
	}
}

// Arm installs fn to fire on the fireAt-th execution of point (1-based).
// It fires at most once; re-arming a point replaces any previous arm and
// resets its hit count. Call Reset when done.
func Arm(point string, fireAt int64, fn Action) {
	mu.Lock()
	defer mu.Unlock()
	if arms == nil {
		arms = make(map[string]*arm)
	}
	if _, ok := arms[point]; !ok {
		active.Add(1)
	}
	arms[point] = &arm{fireAt: fireAt, fn: fn}
}

// Observe starts counting executions of the named points without firing
// anything. Use Counts to read the tallies.
func Observe(points ...string) {
	mu.Lock()
	defer mu.Unlock()
	if arms == nil {
		arms = make(map[string]*arm)
	}
	for _, p := range points {
		if _, ok := arms[p]; !ok {
			active.Add(1)
		}
		arms[p] = &arm{observe: true}
	}
}

// Counts returns the hit count of every armed or observed point.
func Counts() map[string]int64 {
	mu.Lock()
	defer mu.Unlock()
	out := make(map[string]int64, len(arms))
	for p, a := range arms {
		out[p] = a.hits.Load()
	}
	return out
}

// Fired reports whether the named point's armed action has fired.
func Fired(point string) bool {
	mu.Lock()
	a := arms[point]
	mu.Unlock()
	return a != nil && a.fired.Load()
}

// Reset disarms everything and returns every point to the inert state.
// Tests must call it (deferred) so armed points never leak across tests.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	active.Add(-int64(len(arms)))
	arms = nil
}
