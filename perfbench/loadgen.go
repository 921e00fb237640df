package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one open-loop operation as the generator saw it. ready is
// when its worker could first send it: its due time, or later if the
// worker's previous request was still outstanding.
type sample struct {
	kind                   string
	due, ready, sent, done time.Time
	err                    error
}

// latency is the operation's latency timed from when it was due, so a
// stall also charges the requests queued behind it.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// openLoop sends n operations, the i-th due at start+due(i), from workers
// goroutines; each worker sends its next operation when it is due or, if
// it is still busy, as soon as it is free. do performs operation i and
// names its type.
func openLoop(ctx context.Context, start time.Time, n, workers int, due func(i int) time.Duration, do func(ctx context.Context, i int) (string, error)) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := start
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				at := start.Add(due(i))
				sleepUntil(at)
				s := sample{due: at, ready: at, sent: time.Now()}
				if free.After(at) {
					s.ready = free
				}
				s.kind, s.err = do(ctx, i)
				s.done = time.Now()
				free = s.done
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out[:min(int(next.Load()), n)]
}

// sleepUntil blocks the calling goroutine's thread in nanosleep until t.
// time.Sleep parks the goroutine on the runtime's timer, whose wake-ups
// on an idle process land up to a millisecond late on Linux; that
// lateness would be charged to every request timed from its due time.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(wait)
		}
	}
}

// step summarizes one open-loop rate step: the generator's health and the
// latencies it measured.
type step struct {
	name     string
	offered  float64 // req/s
	achieved float64 // completed req/s over the step
	lateP50  float64 // ms, send time minus due time
	lateP99  float64
	// lagP99 is the generator's own lateness (ms): send time minus the
	// time its worker was free to send, which excludes waiting on the
	// daemon's previous answer.
	lagP99     float64
	backlog    int // operations due but not completed at the step's end
	backlogMid int
	lat        latencies
	failed     int
}

// genLagLimit is how late, at p99, the generator may send a request its
// worker was free to send before the step counts as invalid.
const genLagLimit = 5 * time.Millisecond

// valid reports whether the step's figures can be trusted: the generator
// itself kept up (its own lag stayed within genLagLimit at p99) and the
// backlog did not grow, i.e. at the step's end no more requests were
// outstanding than the connections hold or than limit's worth of the
// offered rate. An invalid step feeds no latency figure.
func (s step) valid(workers int, limit time.Duration) bool {
	return s.lagP99 <= ms(genLagLimit) && float64(s.backlog) <= max(float64(workers), s.offered*limit.Seconds())
}

func summarize(name string, offered float64, start time.Time, length time.Duration, samples []sample) step {
	st := step{name: name, offered: offered, lat: latencies{}}
	end, mid := start.Add(length), start.Add(length/2)
	var late, lag []float64
	last := start
	for _, s := range samples {
		late = append(late, ms(s.sent.Sub(s.due)))
		lag = append(lag, ms(s.sent.Sub(s.ready)))
		if s.err != nil {
			st.failed++
		} else {
			st.lat.add(s.kind, s.latency())
		}
		if !s.due.After(end) && s.done.After(end) {
			st.backlog++
		}
		if !s.due.After(mid) && s.done.After(mid) {
			st.backlogMid++
		}
		if s.done.After(last) {
			last = s.done
		}
	}
	st.lateP50, st.lateP99, st.lagP99 = quantile(late, 0.5), quantile(late, 0.99), quantile(lag, 0.99)
	if span := last.Sub(start); span > 0 {
		st.achieved = float64(len(samples)-st.failed) / span.Seconds()
	}
	return st
}

func (s step) print(workers int, lateLimit time.Duration) {
	verdict := "valid"
	switch {
	case s.lagP99 > ms(genLagLimit):
		verdict = "INVALID: the generator fell behind"
	case !s.valid(workers, lateLimit):
		verdict = "INVALID: the backlog grew"
	}
	fmt.Printf("  step %-8s offered=%7.0f/s achieved=%7.0f/s late p50=%.3f ms p99=%.3f ms (own lag p99=%.3f ms) backlog mid=%d end=%d failed=%d  %s\n",
		s.name, s.offered, s.achieved, s.lateP50, s.lateP99, s.lagP99, s.backlogMid, s.backlog, s.failed, verdict)
}
