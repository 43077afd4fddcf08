package server

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrQueueFull reports that a request was rejected at admission: every
// execution slot was busy and the bounded wait queue was already at
// capacity. The HTTP layer maps it to 429 Too Many Requests — shedding
// load at the door is what keeps tail latency bounded under overload.
var ErrQueueFull = errors.New("server: admission queue full")

// admission is the concurrency gate in front of query evaluation: at
// most `slots` queries evaluate at once, at most `maxQueue` more wait
// for a slot, and everything beyond that is rejected immediately with
// ErrQueueFull. Waiting is cancellation-aware — a caller whose context
// expires leaves the queue with the context's error, so the guard
// taxonomy (408/499) applies to queued requests too.
type admission struct {
	slots    chan struct{}
	maxQueue int64
	waiting  atomic.Int64
}

// newAdmission sizes the gate; both arguments must be positive.
func newAdmission(slots, maxQueue int) *admission {
	a := &admission{slots: make(chan struct{}, slots), maxQueue: int64(maxQueue)}
	for i := 0; i < slots; i++ {
		a.slots <- struct{}{}
	}
	return a
}

// acquire takes an execution slot, waiting in the bounded queue when
// none is free. It returns the release function on success; the caller
// must invoke it exactly once.
func (a *admission) acquire(ctx context.Context) (func(), error) {
	// Fast path: a slot is free, skip the queue accounting entirely.
	select {
	case <-a.slots:
		return a.releaseFunc(), nil
	default:
	}
	// Slow path: join the bounded wait queue. The increment-then-check
	// pattern over-admits by at most the number of concurrent arrivals
	// in the race window, which is the usual semaphore tradeoff — the
	// bound is enforced exactly against the post-increment count.
	if a.waiting.Add(1) > a.maxQueue {
		a.waiting.Add(-1)
		return nil, ErrQueueFull
	}
	defer a.waiting.Add(-1)
	select {
	case <-a.slots:
		return a.releaseFunc(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (a *admission) releaseFunc() func() {
	var once atomic.Bool
	return func() {
		if once.CompareAndSwap(false, true) {
			a.slots <- struct{}{}
		}
	}
}

// queueDepth reports how many requests are currently waiting for a
// slot, for the /metrics gauge.
func (a *admission) queueDepth() int64 { return a.waiting.Load() }

// inFlight reports how many execution slots are currently held.
func (a *admission) inFlight() int64 { return int64(cap(a.slots) - len(a.slots)) }
