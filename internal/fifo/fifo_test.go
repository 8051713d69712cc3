package fifo

import (
	"sync"
	"testing"
	"time"
)

// backing reports the queue's slot count and backing-array capacity.
func backing[T any](q *Queue[T]) (n, capacity int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf) - q.head, cap(q.buf)
}

func TestNewAllocatesNoSlots(t *testing.T) {
	q := New[int]()
	if n, c := backing(q); n != 0 || c != 0 {
		t.Fatalf("fresh queue: %d queued, capacity %d; want 0, 0", n, c)
	}
}

// TestFIFOAcrossCompaction interleaves pushes and pops so the live tail
// is slid to the front of the backing array many times, and checks that
// values still come out in push order.
func TestFIFOAcrossCompaction(t *testing.T) {
	q := New[int]()
	next, want := 0, 0
	for round := 0; round < 200; round++ {
		for i := 0; i < 7; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < 5; i++ {
			got, ok := q.Pop(nil)
			if !ok || got != want {
				t.Fatalf("pop %d: got %d, %v; want %d, true", want, got, ok, want)
			}
			want++
		}
	}
	for want < next {
		got, _ := q.Pop(nil)
		if got != want {
			t.Fatalf("drain: got %d, want %d", got, want)
		}
		want++
	}
	if n, _ := backing(q); n != 0 {
		t.Fatalf("%d values left after draining", n)
	}
}

func TestPopReturnsFalseOnStop(t *testing.T) {
	q := New[int]()
	stop := make(chan struct{})
	done := make(chan bool)
	go func() {
		_, ok := q.Pop(stop)
		done <- ok
	}()
	close(stop)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Pop on an empty queue returned a value after stop")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Pop did not return after stop was closed")
	}

	// A closed stop wins over queued values: the consumer leaves them.
	q.Push(1)
	if _, ok := q.Pop(stop); ok {
		t.Fatal("Pop returned a value after stop was closed")
	}
	if n, _ := backing(q); n != 1 {
		t.Fatalf("stopped Pop consumed the queue: %d left, want 1", n)
	}
}

// TestConcurrentProducers pushes from several goroutines while one
// consumer pops; run under -race. Each producer's values must arrive in
// that producer's order, and every value exactly once.
func TestConcurrentProducers(t *testing.T) {
	const producers, per = 8, 5000
	q := New[[2]int]()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Push([2]int{p, i})
			}
		}(p)
	}
	next := make([]int, producers)
	for n := 0; n < producers*per; n++ {
		v, ok := q.Pop(nil)
		if !ok {
			t.Fatal("Pop without stop returned false")
		}
		if v[1] != next[v[0]] {
			t.Fatalf("producer %d: got value %d, want %d", v[0], v[1], next[v[0]])
		}
		next[v[0]]++
	}
	wg.Wait()
	if n, _ := backing(q); n != 0 {
		t.Fatalf("%d values left over", n)
	}
}

func TestPoppedSlotsZeroed(t *testing.T) {
	q := New[*int]()
	for i := 0; i < 10; i++ {
		v := i
		q.Push(&v)
	}
	for i := 0; i < 4; i++ {
		if _, ok := q.Pop(nil); !ok {
			t.Fatal("Pop failed")
		}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, p := range q.buf[:q.head] {
		if p != nil {
			t.Fatalf("popped slot %d still references %d", i, *p)
		}
	}
}

func TestDrainedBurstReleasesBackingArray(t *testing.T) {
	q := New[[64]byte]()
	const burst = 1 << 16
	for i := 0; i < burst; i++ {
		q.Push([64]byte{})
	}
	if _, c := backing(q); c < burst {
		t.Fatalf("capacity %d below the burst of %d", c, burst)
	}
	for i := 0; i < burst; i++ {
		q.Pop(nil)
	}
	if _, c := backing(q); c > idleCap {
		t.Fatalf("drained queue still holds %d slots (keeps at most %d)", c, idleCap)
	}

	// A steady trickle after the burst reuses a small array.
	for i := 0; i < 1000; i++ {
		q.Push([64]byte{})
		q.Push([64]byte{})
		q.Pop(nil)
		q.Pop(nil)
	}
	if _, c := backing(q); c > idleCap {
		t.Fatalf("steady depth-2 traffic grew the array to %d slots", c)
	}
}

// TestSteadyBacklogStaysBounded keeps a constant backlog that never
// drains: compaction must stop the dead prefix from growing the array.
func TestSteadyBacklogStaysBounded(t *testing.T) {
	q := New[int]()
	const backlog = 100
	for i := 0; i < backlog; i++ {
		q.Push(i)
	}
	for i := backlog; i < 100000; i++ {
		q.Push(i)
		if v, _ := q.Pop(nil); v != i-backlog {
			t.Fatalf("got %d, want %d", v, i-backlog)
		}
	}
	if _, c := backing(q); c > 4*backlog {
		t.Fatalf("backlog of %d grew the array to %d slots", backlog, c)
	}
}
