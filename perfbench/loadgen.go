package main

import (
	"sync"
	"syscall"
	"time"
)

// reqSample is one open-loop request. Times are offsets from the start of
// its phase.
type reqSample struct {
	due, sent, done time.Duration
	// ok is false for a request that failed or was refused.
	ok bool
}

// latency is the request's latency measured from when it was due, so a
// stall that delays later sends is charged to them.
func (s reqSample) latency() time.Duration { return s.done - s.due }

// lag is how late the generator sent the request.
func (s reqSample) lag() time.Duration { return s.sent - s.due }

// openLoop sends n requests at a fixed arrival rate, request i due at
// i/rate after the start, over `workers` concurrent senders (one
// connection each). A dispatcher releases each request at its due time to
// a free sender; when every sender is still busy the request waits, and
// its latency still counts from the due time. send returns whether the
// request succeeded; the samples are indexed by request number.
func openLoop(rate float64, n, workers int, send func(worker, i int) bool) []reqSample {
	out := make([]reqSample, n)
	start := time.Now()
	due := func(i int) time.Duration { return time.Duration(float64(i) / rate * float64(time.Second)) }
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				sent := time.Since(start)
				ok := send(w, i)
				out[i] = reqSample{due: due(i), sent: sent, done: time.Since(start), ok: ok}
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		if wait := due(i) - time.Since(start); wait > 0 {
			sleepPrecise(wait)
		}
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// sleepPrecise blocks in the kernel for d. The Go runtime's timers wake an
// idle process up to a millisecond late, which would add up to a
// millisecond of generator lag to every sub-millisecond request.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// closedLoop keeps `workers` senders busy back to back for d. It returns
// how many requests completed per second and how many were sent.
func closedLoop(d time.Duration, workers int, send func(worker, i int) bool) (rate float64, sent int) {
	var mu sync.Mutex
	next, done := 0, 0
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Since(start) < d {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if send(w, i) {
					mu.Lock()
					done++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return float64(done) / time.Since(start).Seconds(), next
}

// rung is one step of the rate ladder.
type rung struct {
	rate    float64
	samples []reqSample
}

// rungStats summarises a rung: the p99 latency from due time in ms, the
// number of failed requests, and how much the generator's lag grew from
// the first to the last quarter of the rung (ms), which is positive when a
// backlog builds up.
func rungStats(samples []reqSample) (p99ms float64, failed int, lagGrowthMs float64) {
	lat := make([]float64, 0, len(samples))
	for _, s := range samples {
		if !s.ok {
			failed++
		}
		lat = append(lat, ms(s.latency()))
	}
	p99ms, _ = percentile(lat, 99)
	q := len(samples) / 4
	if q > 0 {
		var first, last float64
		for _, s := range samples[:q] {
			first += ms(s.lag())
		}
		for _, s := range samples[len(samples)-q:] {
			last += ms(s.lag())
		}
		lagGrowthMs = (last - first) / float64(q)
	}
	return p99ms, failed, lagGrowthMs
}

// rungPasses is the ladder rule: a rate is sustained when every request
// succeeded, the p99 latency from due time meets the limit and the
// generator's lag did not grow by more than half the limit across the
// rung (no growing backlog).
func rungPasses(samples []reqSample, limitMs float64) bool {
	if len(samples) == 0 {
		return false
	}
	p99, failed, growth := rungStats(samples)
	return failed == 0 && p99 <= limitMs && growth <= limitMs/2
}

// maxRate is the highest ladder rate that passes; 0 when none does.
func maxRate(rungs []rung, limitMs float64) float64 {
	best := 0.0
	for _, r := range rungs {
		if r.rate > best && rungPasses(r.samples, limitMs) {
			best = r.rate
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
