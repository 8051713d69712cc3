package fifo

import "testing"

// msg is the size of an engine's queued message (a comm.Message plus its
// enqueue stamp, 136 bytes on 64-bit platforms).
type msg [17]uint64

// handoffWindow bounds the values in flight in the Handoff benchmarks.
const handoffWindow = 32

// BenchmarkQueuePushPop compares Queue with a fixed-capacity channel of
// 65,536 slots (make(chan queuedMsg, 1<<16)). Serial pushes and pops on one
// goroutine at a steady depth of one; Handoff has a producer goroutine
// feeding the benchmark goroutine, which consumes, with at most
// handoffWindow values in flight (an applier keeping up with its link).
func BenchmarkQueuePushPop(b *testing.B) {
	b.Run("Queue/Serial", func(b *testing.B) {
		q := New[msg]()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q.Push(msg{})
			q.Pop(nil)
		}
	})
	b.Run("Chan65536/Serial", func(b *testing.B) {
		ch := make(chan msg, 1<<16)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ch <- msg{}
			<-ch
		}
	})
	b.Run("Queue/Handoff", func(b *testing.B) {
		q := New[msg]()
		b.ReportAllocs()
		credit := make(chan struct{}, handoffWindow)
		go func() {
			for i := 0; i < b.N; i++ {
				credit <- struct{}{}
				q.Push(msg{})
			}
		}()
		for i := 0; i < b.N; i++ {
			q.Pop(nil)
			<-credit
		}
	})
	b.Run("Chan65536/Handoff", func(b *testing.B) {
		ch := make(chan msg, 1<<16)
		b.ReportAllocs()
		b.ResetTimer()
		credit := make(chan struct{}, handoffWindow)
		go func() {
			for i := 0; i < b.N; i++ {
				credit <- struct{}{}
				ch <- msg{}
			}
		}()
		for i := 0; i < b.N; i++ {
			<-ch
			<-credit
		}
	})
}
