package main

import (
	"testing"
	"time"
)

func TestOpenLoopTimesFromDueAndReportsLag(t *testing.T) {
	const rate = 1000.0 // one request due every millisecond
	stall := 30 * time.Millisecond
	samples := openLoop(rate, 10, 1, func(_, i int) bool {
		if i == 0 {
			time.Sleep(stall)
		}
		return true
	})
	for i, s := range samples {
		if want := time.Duration(i) * time.Millisecond; s.due != want {
			t.Fatalf("request %d due at %v, want %v", i, s.due, want)
		}
		if s.sent < s.due || s.done < s.sent || !s.ok {
			t.Fatalf("request %d: due %v sent %v done %v ok %v", i, s.due, s.sent, s.done, s.ok)
		}
	}
	// Request 1 was due at 1 ms but the only sender was stalled for 30 ms:
	// the generator ran late, and the request's latency counts from its
	// due time, not from when it was finally sent.
	s := samples[1]
	if s.lag() < stall-2*time.Millisecond {
		t.Fatalf("lag %v, want about %v", s.lag(), stall)
	}
	if s.latency() < s.lag() || s.latency() != s.done-s.due {
		t.Fatalf("latency %v does not count from the due time (lag %v)", s.latency(), s.lag())
	}
}

func TestOpenLoopUsesEverySender(t *testing.T) {
	seen := make([]bool, 2)
	done := make(chan int, 2)
	openLoop(1e6, 2, 2, func(w, _ int) bool {
		// Each request waits until both have started, which only works if
		// two senders run concurrently.
		done <- w
		for len(done) < 2 {
			time.Sleep(time.Millisecond)
		}
		seen[w] = true
		return true
	})
	if !seen[0] || !seen[1] {
		t.Fatalf("senders used: %v", seen)
	}
}

// steady builds n samples with the given latency and lag per request.
func steady(n int, latency, lag func(i int) time.Duration) []reqSample {
	out := make([]reqSample, n)
	for i := range out {
		due := time.Duration(i) * time.Millisecond
		out[i] = reqSample{due: due, sent: due + lag(i), done: due + latency(i), ok: true}
	}
	return out
}

func TestLadderMaxRate(t *testing.T) {
	const limit = 10.0
	fast := func(int) time.Duration { return time.Millisecond }
	none := func(int) time.Duration { return 0 }
	pass := steady(1000, fast, none)
	slowTail := steady(1000, func(i int) time.Duration {
		if i%50 == 0 { // 2% of requests, above the p99
			return 20 * time.Millisecond
		}
		return time.Millisecond
	}, none)
	backlog := steady(1000, func(i int) time.Duration { return time.Duration(i) * 9 * time.Microsecond },
		func(i int) time.Duration { return time.Duration(i) * 8 * time.Microsecond })
	refused := steady(1000, fast, none)
	refused[500].ok = false

	if !rungPasses(pass, limit) {
		t.Fatal("a fast, steady rung must pass")
	}
	if rungPasses(slowTail, limit) {
		t.Fatal("a rung whose p99 misses the limit must fail")
	}
	if p99, _, _ := rungStats(backlog); p99 > limit {
		t.Fatalf("backlog fixture p99 %.2f ms should meet the limit", p99)
	}
	if rungPasses(backlog, limit) {
		t.Fatal("a rung whose generator lag keeps growing must fail")
	}
	if rungPasses(refused, limit) {
		t.Fatal("a rung with a failed request must fail")
	}
	rungs := []rung{{1000, pass}, {2000, pass}, {3000, slowTail}, {4000, pass}, {5000, backlog}, {6000, refused}}
	if got := maxRate(rungs, limit); got != 4000 {
		t.Fatalf("max rate %g, want the highest passing rung 4000", got)
	}
	if got := maxRate([]rung{{1000, slowTail}}, limit); got != 0 {
		t.Fatalf("max rate %g with no passing rung, want 0", got)
	}
}
