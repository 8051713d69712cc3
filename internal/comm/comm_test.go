package comm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

func TestMemTransportDelivers(t *testing.T) {
	tr := NewMemTransport(0)
	defer tr.Close()
	got := make(chan Message, 1)
	tr.Register(1, func(m Message) { got <- m })
	if err := tr.Send(Message{From: 0, To: 1, Kind: 7, Payload: "hi"}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Kind != 7 || m.Payload.(string) != "hi" {
			t.Errorf("got %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
}

func TestMemTransportFIFOPerPair(t *testing.T) {
	tr := NewMemTransport(100 * time.Microsecond)
	defer tr.Close()
	const n = 500
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	tr.Register(1, func(m Message) {
		mu.Lock()
		got = append(got, m.Kind)
		if len(got) == n {
			close(done)
		}
		mu.Unlock()
	})
	for i := 0; i < n; i++ {
		if err := tr.Send(Message{From: 0, To: 1, Kind: i}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("only %d/%d delivered", len(got), n)
	}
	for i, k := range got {
		if k != i {
			t.Fatalf("reordered at %d: got kind %d", i, k)
		}
	}
}

func TestMemTransportLatency(t *testing.T) {
	tr := NewMemTransport(30 * time.Millisecond)
	defer tr.Close()
	got := make(chan time.Time, 1)
	tr.Register(1, func(Message) { got <- time.Now() })
	start := time.Now()
	_ = tr.Send(Message{From: 0, To: 1})
	at := <-got
	if d := at.Sub(start); d < 25*time.Millisecond {
		t.Errorf("delivered after %v, want >= ~30ms", d)
	}
}

func TestMemTransportEdgeLatencyOverride(t *testing.T) {
	tr := NewMemTransport(1 * time.Millisecond)
	defer tr.Close()
	tr.SetEdgeLatency(0, 2, 60*time.Millisecond)
	type stamped struct {
		to model.SiteID
		at time.Time
	}
	got := make(chan stamped, 2)
	tr.Register(1, func(m Message) { got <- stamped{1, time.Now()} })
	tr.Register(2, func(m Message) { got <- stamped{2, time.Now()} })
	_ = tr.Send(Message{From: 0, To: 2})
	_ = tr.Send(Message{From: 0, To: 1})
	first := <-got
	second := <-got
	if first.to != 1 || second.to != 2 {
		t.Errorf("slow edge should deliver last: first=%v second=%v", first.to, second.to)
	}
}

func TestMemTransportJitterPreservesFIFO(t *testing.T) {
	tr := NewMemTransport(200 * time.Microsecond)
	tr.SetJitter(3 * time.Millisecond)
	defer tr.Close()
	const n = 300
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	tr.Register(1, func(m Message) {
		mu.Lock()
		got = append(got, m.Kind)
		if len(got) == n {
			close(done)
		}
		mu.Unlock()
	})
	for i := 0; i < n; i++ {
		if err := tr.Send(Message{From: 0, To: 1, Kind: i}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d/%d delivered", len(got), n)
	}
	for i, k := range got {
		if k != i {
			t.Fatalf("jitter reordered messages at %d: got kind %d", i, k)
		}
	}
}

func TestMemTransportSendAfterClose(t *testing.T) {
	tr := NewMemTransport(0)
	tr.Register(1, func(Message) {})
	_ = tr.Close()
	if err := tr.Send(Message{From: 0, To: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("want ErrClosed, got %v", err)
	}
	// Double close is fine.
	if err := tr.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// TestMemTransportSendNeverBlocksOnStalledHandler holds a receiver's
// handler on its first message while the sender keeps going: Send must
// keep returning (the Transport contract; engines forward while holding
// their commit lock), and once the handler resumes every message must
// arrive in send order.
func TestMemTransportSendNeverBlocksOnStalledHandler(t *testing.T) {
	tr := NewMemTransport(0)
	defer tr.Close()
	const n = 10000
	release := make(chan struct{})
	done := make(chan struct{})
	var got []int // only the link's delivery goroutine appends
	tr.Register(1, func(m Message) {
		if len(got) == 0 {
			<-release
		}
		got = append(got, m.Kind)
		if len(got) == n {
			close(done)
		}
	})

	sent := make(chan time.Duration, 1)
	go func() {
		var slowest time.Duration
		for i := 0; i < n; i++ {
			start := time.Now()
			if err := tr.Send(Message{From: 0, To: 1, Kind: i}); err != nil {
				t.Errorf("send %d: %v", i, err)
				break
			}
			if d := time.Since(start); d > slowest {
				slowest = d
			}
		}
		sent <- slowest
	}()
	blocked := false
	select {
	case slowest := <-sent:
		if slowest > time.Second {
			t.Errorf("slowest Send took %v with the handler stalled", slowest)
		}
	case <-time.After(30 * time.Second):
		blocked = true
	}

	close(release)
	if blocked {
		<-sent // the released handler unblocks the sender
		t.Fatal("Send blocked behind a stalled handler")
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("messages not delivered after the handler resumed")
	}
	for i, k := range got {
		if k != i {
			t.Fatalf("reordered at %d: got kind %d", i, k)
		}
	}
}

func TestRPCCallReply(t *testing.T) {
	tr := NewMemTransport(0)
	defer tr.Close()
	server := NewRPC(1, tr)
	client := NewRPC(0, tr)
	tr.Register(1, func(m Message) {
		if m.IsResp {
			server.HandleResponse(m)
			return
		}
		server.Reply(m, m.Payload.(int)*2)
	})
	tr.Register(0, func(m Message) {
		if m.IsResp {
			client.HandleResponse(m)
		}
	})
	resp, err := client.Call(1, 5, 21, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.(int) != 42 {
		t.Errorf("resp = %v", resp)
	}
}

func TestRPCTimeout(t *testing.T) {
	tr := NewMemTransport(0)
	defer tr.Close()
	tr.Register(1, func(Message) {}) // never replies
	client := NewRPC(0, tr)
	tr.Register(0, func(m Message) { client.HandleResponse(m) })
	_, err := client.Call(1, 5, nil, 30*time.Millisecond)
	if !errors.Is(err, ErrRPCTimeout) {
		t.Errorf("want ErrRPCTimeout, got %v", err)
	}
}

func TestRPCRemoteError(t *testing.T) {
	tr := NewMemTransport(0)
	defer tr.Close()
	server := NewRPC(1, tr)
	client := NewRPC(0, tr)
	tr.Register(1, func(m Message) { server.ReplyError(m, fmt.Errorf("boom")) })
	tr.Register(0, func(m Message) { client.HandleResponse(m) })
	_, err := client.Call(1, 5, nil, time.Second)
	var re RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if re.Msg != "boom" {
		t.Errorf("msg = %q", re.Msg)
	}
}

func TestRPCLateResponseDropped(t *testing.T) {
	tr := NewMemTransport(0)
	defer tr.Close()
	server := NewRPC(1, tr)
	client := NewRPC(0, tr)
	proceed := make(chan struct{})
	tr.Register(1, func(m Message) {
		go func() {
			<-proceed
			server.Reply(m, "late")
		}()
	})
	tr.Register(0, func(m Message) { client.HandleResponse(m) })
	_, err := client.Call(1, 5, nil, 20*time.Millisecond)
	if !errors.Is(err, ErrRPCTimeout) {
		t.Fatalf("want timeout, got %v", err)
	}
	close(proceed)
	time.Sleep(20 * time.Millisecond) // late reply must not panic or leak
}

func TestReplyToNonRequestPanics(t *testing.T) {
	tr := NewMemTransport(0)
	defer tr.Close()
	r := NewRPC(0, tr)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	r.Reply(Message{ReqID: 0}, nil)
}

// TestMemTransportJitterDeterministicUnderSeed pins the seeded-jitter
// contract: same seed, same draw order → the identical delay sequence
// (chaos runs depend on this for reproducibility); a different seed must
// diverge.
func TestMemTransportJitterDeterministicUnderSeed(t *testing.T) {
	draw := func(seed int64) []time.Duration {
		tr := NewMemTransport(time.Millisecond)
		defer tr.Close()
		tr.SetJitter(5 * time.Millisecond)
		tr.SetSeed(seed)
		out := make([]time.Duration, 100)
		tr.mu.Lock()
		for i := range out {
			out[i] = tr.delayFor(pair{0, 1})
		}
		tr.mu.Unlock()
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := draw(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced the identical jitter sequence")
	}
}

// TestMemTransportDelayForEdgeOverride verifies the per-edge override
// replaces (not augments) the default latency, only on its own edge, and
// composes with jitter as base + draw.
func TestMemTransportDelayForEdgeOverride(t *testing.T) {
	tr := NewMemTransport(time.Millisecond)
	defer tr.Close()
	tr.SetEdgeLatency(0, 2, 40*time.Millisecond)

	tr.mu.Lock()
	plain := tr.delayFor(pair{0, 1})
	slow := tr.delayFor(pair{0, 2})
	reverse := tr.delayFor(pair{2, 0})
	tr.mu.Unlock()
	if plain != time.Millisecond {
		t.Errorf("default edge: %v, want 1ms", plain)
	}
	if slow != 40*time.Millisecond {
		t.Errorf("overridden edge: %v, want 40ms", slow)
	}
	if reverse != time.Millisecond {
		t.Errorf("override leaked to the reverse edge: %v", reverse)
	}

	tr.SetJitter(5 * time.Millisecond)
	tr.mu.Lock()
	jittered := tr.delayFor(pair{0, 2})
	tr.mu.Unlock()
	if jittered < 40*time.Millisecond || jittered >= 45*time.Millisecond {
		t.Errorf("override+jitter: %v, want in [40ms, 45ms)", jittered)
	}
}
