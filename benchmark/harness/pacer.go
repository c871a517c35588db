package harness

import (
	"sync"
	"time"
)

// Clock is the pacer's view of time, so tests can drive it with a fake.
type Clock interface {
	Now() time.Time
	// Sleep blocks for about d; the pacer re-reads Now afterwards, so
	// oversleeping shows up as lateness rather than as a lower rate.
	Sleep(d time.Duration)
}

// Sent is one open-loop request as the pacer saw it, as offsets from the
// phase start. Done is zero and Shed true when the in-flight cap was
// reached and the request was never issued.
type Sent struct {
	Due, Sent, Done time.Duration
	Shed            bool
}

// OpenLoop issues n requests on a fixed schedule — request i is due at
// i/rate seconds — from the calling goroutine. Each request runs do(i, due)
// on its own goroutine, which parks until the reply arrives, so a stalled
// reply never delays the requests behind it (no coordinated omission). At
// most maxInFlight requests are outstanding; one that would exceed the cap
// is recorded as shed instead of making the pacer wait. OpenLoop returns
// the phase's start time and every request's record once every issued
// request has completed.
func OpenLoop(clk Clock, rate float64, n, maxInFlight int, do func(i int, due time.Time)) (time.Time, []Sent) {
	out := make([]Sent, n)
	interval := time.Duration(float64(time.Second) / rate)
	slots := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := clk.Now()
	for i := range out {
		due := time.Duration(i) * interval
		now := clk.Now().Sub(start)
		for now < due {
			clk.Sleep(due - now)
			now = clk.Now().Sub(start)
		}
		s := &out[i]
		s.Due, s.Sent = due, now
		select {
		case slots <- struct{}{}:
		default:
			s.Shed = true
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			do(i, start.Add(due))
			s.Done = clk.Now().Sub(start)
			<-slots
		}()
	}
	wg.Wait()
	return start, out
}

// ClosedLoop runs clients goroutines that each call do back to back until
// the deadline d has passed, and returns how many calls completed and the
// wall time they took. do receives the client index and that client's
// call count.
func ClosedLoop(d time.Duration, clients int, do func(client, call int)) (completed int, wall time.Duration) {
	counts := make([]int, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				do(c, counts[c])
				counts[c]++
			}
		}()
	}
	wg.Wait()
	wall = time.Since(start)
	for _, k := range counts {
		completed += k
	}
	return completed, wall
}
