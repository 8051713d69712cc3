// Package fifo provides the unbounded first-in first-out queue behind
// the engines' apply and read queues and every in-memory transport link.
//
// A buffered channel of fixed capacity would do the same job, but it
// costs its whole capacity at construction and blocks the producer once
// full. The protocols forbid both: a transport handler must never block
// (comm.Handler), and a site's queue depth is bounded only by how far its
// applier falls behind. Queue grows on demand instead, zeroes each slot it
// hands out, and lets go of its backing array once drained, so a burst
// does not pin memory after it has been consumed.
package fifo

import "sync"

// idleCap is the largest backing array a drained queue keeps for reuse.
// Steady-state depths stay below it, so the common push-then-pop cycle
// allocates nothing; anything larger was a burst and is released.
const idleCap = 64

// Queue is an unbounded FIFO for any number of producers and a single
// consumer. The zero value is not ready; use New.
type Queue[T any] struct {
	mu   sync.Mutex
	buf  []T // buf[head:] holds the queued values in order // repl:guardedby(mu)
	head int // repl:guardedby(mu)

	// ready holds a token once a Push has made the empty queue
	// non-empty. The single consumer sleeps on it only after finding the
	// queue empty, and re-checks the queue after every wake-up, so one
	// slot suffices and a stale token costs one extra check.
	ready chan struct{}
}

// New returns an empty queue. It allocates no slots until the first Push.
func New[T any]() *Queue[T] {
	return &Queue[T]{ready: make(chan struct{}, 1)}
}

// Push appends v. It never blocks beyond the queue's own short critical
// section.
func (q *Queue[T]) Push(v T) {
	q.mu.Lock()
	if q.head > 0 && len(q.buf) == cap(q.buf) && q.head >= len(q.buf)/2 {
		// Full, with at least half of it already consumed: slide the live
		// tail to the front instead of growing past the dead prefix.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	wasEmpty := q.head == len(q.buf)
	q.buf = append(q.buf, v)
	q.mu.Unlock()
	if wasEmpty {
		select {
		case q.ready <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
}

// Pop removes and returns the oldest value, waiting for one if the queue
// is empty. It returns false once stop is closed, checked before every
// value, so a stopped consumer leaves the rest of the queue untouched.
// Only one goroutine may call Pop at a time.
func (q *Queue[T]) Pop(stop <-chan struct{}) (T, bool) {
	for {
		select {
		case <-stop:
			var zero T
			return zero, false
		default:
		}
		if v, ok := q.take(); ok {
			return v, true
		}
		select {
		case <-q.ready:
		case <-stop:
			var zero T
			return zero, false
		}
	}
}

// take pops the oldest value without waiting.
func (q *Queue[T]) take() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var zero T
	if q.head == len(q.buf) {
		return zero, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero // drop the reference for the garbage collector
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
		if cap(q.buf) > idleCap {
			q.buf = nil
		} else {
			q.buf = q.buf[:0]
		}
	}
	return v, true
}
