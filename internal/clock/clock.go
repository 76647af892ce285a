// Package clock is the time source of the two timer-driven background
// loops, the scrub campaign (internal/maintenance) and the archiver
// (internal/archive). The nil *Clock is the wall clock, which every
// database runs on. A manual clock moves only on Advance, which hands each
// tick that falls due to the loop's own goroutine and returns once the
// loop has handled it: a test steps a loop instead of waiting on wall time.
package clock

import (
	"slices"
	"sync"
	"time"
)

// Clock gives a loop the time and its ticks. The nil *Clock is the wall
// clock.
type Clock struct {
	mu      sync.Mutex // guards now, tickers and each ticker's next
	now     time.Time
	tickers []*ticker
}

// NewManual returns a clock that stands still until Advance moves it.
func NewManual() *Clock { return &Clock{} }

// Now returns the clock's time.
func (c *Clock) Now() time.Time {
	if c == nil {
		return time.Now()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// ticker is a manual clock's: Advance sends each tick on c and waits on
// handled, or on stopped once the loop has exited.
type ticker struct {
	c                chan time.Time
	handled, stopped chan struct{}
	period           time.Duration
	next             time.Time
}

// Go starts a goroutine, counted in wg, that calls fn with each tick's
// time until quit closes: a tick every period, the first a period from
// now.
func (c *Clock) Go(period time.Duration, quit <-chan struct{}, wg *sync.WaitGroup, fn func(now time.Time)) {
	var ticks <-chan time.Time
	var handled, stop func()
	if c == nil {
		w := time.NewTicker(period)
		ticks, handled, stop = w.C, func() {}, w.Stop
	} else {
		t := &ticker{c: make(chan time.Time), handled: make(chan struct{}),
			stopped: make(chan struct{}), period: period}
		c.mu.Lock()
		t.next = c.now.Add(period)
		c.tickers = append(c.tickers, t)
		c.mu.Unlock()
		ticks, handled, stop = t.c, func() { t.handled <- struct{}{} }, func() { close(t.stopped) }
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop()
		for {
			select {
			case <-quit:
				return
			case now := <-ticks:
				fn(now)
				handled()
			}
		}
	}()
}

// Advance moves a manual clock forward by d. It delivers the ticks that
// fall due on the way in time order, Now reading each tick's time while it
// is handled, and waits for each to be handled, or its ticker stopped,
// before the next. Call it from one goroutine at a time.
func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	end := c.now.Add(d)
	for len(c.tickers) > 0 {
		t := slices.MinFunc(c.tickers, func(a, b *ticker) int { return a.next.Compare(b.next) })
		at := t.next
		if at.After(end) {
			break
		}
		c.now, t.next = at, at.Add(t.period)
		c.mu.Unlock()
		select {
		case t.c <- at:
			<-t.handled
			c.mu.Lock()
		case <-t.stopped:
			c.mu.Lock()
			c.tickers = slices.DeleteFunc(c.tickers, func(o *ticker) bool { return o == t })
		}
	}
	c.now = end
}
