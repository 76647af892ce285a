package clock

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// record returns a tick function that records each tick's time and Now
// while it handles the tick.
func record(c *Clock, seen *[][2]time.Duration) func(time.Time) {
	return func(at time.Time) {
		*seen = append(*seen, [2]time.Duration{at.Sub(time.Time{}), c.Now().Sub(time.Time{})})
	}
}

// TestAdvanceDeliversEachDueTickInOrder: Advance hands every tick that
// falls due to the loop, across two tickers in time order, and returns
// once the loop has handled them; a stopped ticker no longer holds it up.
func TestAdvanceDeliversEachDueTickInOrder(t *testing.T) {
	c := NewManual()
	var fast, slow [][2]time.Duration
	quit := make(chan struct{})
	var wg sync.WaitGroup
	c.Go(10*time.Millisecond, quit, &wg, record(c, &fast))
	c.Go(25*time.Millisecond, quit, &wg, record(c, &slow))

	c.Advance(9 * time.Millisecond)
	if len(fast) != 0 || len(slow) != 0 {
		t.Fatalf("ticks before the first was due: %v %v", fast, slow)
	}
	c.Advance(41 * time.Millisecond)
	ms := time.Millisecond
	if want := [][2]time.Duration{{10 * ms, 10 * ms}, {20 * ms, 20 * ms}, {30 * ms, 30 * ms}, {40 * ms, 40 * ms}, {50 * ms, 50 * ms}}; !slices.Equal(fast, want) {
		t.Errorf("fast ticks (time, Now) = %v, want %v", fast, want)
	}
	if want := [][2]time.Duration{{25 * ms, 25 * ms}, {50 * ms, 50 * ms}}; !slices.Equal(slow, want) {
		t.Errorf("slow ticks (time, Now) = %v, want %v", slow, want)
	}
	if got := c.Now().Sub(time.Time{}); got != 50*ms {
		t.Errorf("Now = %v after advancing 50ms", got)
	}

	close(quit)
	wg.Wait()
	c.Advance(time.Second) // no ticker left: returns at once
	if len(fast) != 5 || len(slow) != 2 {
		t.Errorf("ticks after Stop: %d fast, %d slow", len(fast), len(slow))
	}
}
