package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"milr/internal/obs"
	"milr/internal/par"
)

// conns is the number of keep-alive connections and sender goroutines:
// one per CPU the process may use.
func conns() int { return runtime.GOMAXPROCS(0) }

// reqRecord is one open-loop request's outcome.
type reqRecord struct {
	// lag is how late the sender started it; lat is due time to full
	// response, +Inf when the request failed.
	lag, lat time.Duration
	failed   bool
	// stale marks an answer that differs from the clean reference but
	// was served while a fault was in the model.
	stale bool
	err   error
}

// openLoop sends sched from start on conns() senders, each request at
// its due time or as soon as a sender is free. Answers are checked
// against the clean reference. traceTag, when set, makes every request
// a trace of its own with a bench.request span around the round trip.
func (r *rig) openLoop(ctx context.Context, url string, sched []arrival, in *inputs, start time.Time, traceTag string) []reqRecord {
	recs := make([]reqRecord, len(sched))
	par.For(len(sched), conns(), func(i int) {
		a := sched[i]
		due := start.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		rec := &recs[i]
		sent := time.Now()
		rec.lag = sent.Sub(due)
		reqID := ""
		rctx := ctx
		if traceTag != "" {
			reqID = fmt.Sprintf("%s-%06d", traceTag, i)
			rctx = obs.WithTracer(ctx, r.tracer, reqID)
		}
		rctx, sp := obs.Start(rctx, "bench.request")
		s0 := r.state.Load()
		ans, err := r.post(rctx, url, in.bodies[a.input], reqID)
		sp.End()
		rec.lat = time.Since(due)
		s1 := r.state.Load()
		switch {
		case err != nil:
			rec.err = err
		case ans.Class == nil:
			rec.err = fmt.Errorf("answer without a class")
		case *ans.Class != r.want[a.input]:
			if strict(s0, s1) {
				rec.err = fmt.Errorf("input %d: class %d, want %d", a.input, *ans.Class, r.want[a.input])
			} else {
				rec.stale = true
			}
		}
		if rec.err != nil {
			rec.failed = true
			rec.lat = time.Duration(math.MaxInt64)
		}
	})
	return recs
}

// closedStats is the outcome of one or more closed-loop phases.
type closedStats struct {
	requests, failed int
	// correct and busy are, per connection, the correctly answered
	// samples and the time from each phase start to the connection's
	// last answer in it, so no request is cut at a phase end.
	correct []int
	busy    []time.Duration
	// fill is the mean executed batch size over the last phase.
	fill float64
	err  error
}

// add folds the phase o into s.
func (s *closedStats) add(o closedStats) {
	s.requests += o.requests
	s.failed += o.failed
	if s.correct == nil {
		s.correct, s.busy = make([]int, len(o.correct)), make([]time.Duration, len(o.busy))
	}
	for c := range o.correct {
		s.correct[c] += o.correct[c]
		s.busy[c] += o.busy[c]
	}
	s.fill = o.fill
	if o.err != nil {
		s.err = o.err
	}
}

// rate is correctly answered samples per second: the sum over
// connections of each one's correct samples over its busy time.
func (s *closedStats) rate() float64 {
	total := 0.0
	for c := range s.correct {
		total += float64(s.correct[c]) / s.busy[c].Seconds()
	}
	return total
}

// closedLoop keeps conns() connections busy for dur, each sending the
// next batchSize-sample payload as soon as its previous answer arrives.
func (r *rig) closedLoop(ctx context.Context, url string, pls []payload, dur time.Duration) closedStats {
	n := conns()
	out := closedStats{correct: make([]int, n), busy: make([]time.Duration, n)}
	requests, failed := make([]int, n), make([]int, n)
	errs := make([]error, n)
	fill0 := r.fleet.Stats().Models[modelName].BatchFill
	start := time.Now()
	par.For(n, n, func(c int) {
		for k := 0; time.Since(start) < dur; k++ {
			p := pls[(c+k*n)%len(pls)]
			requests[c]++
			ans, err := r.post(ctx, url, p.body, "")
			out.busy[c] = time.Since(start)
			if err == nil && len(ans.Classes) != len(p.idx) {
				err = fmt.Errorf("%d classes for %d samples", len(ans.Classes), len(p.idx))
			}
			if err != nil {
				failed[c]++
				errs[c] = err
				continue
			}
			good := 0
			for i, j := range p.idx {
				if ans.Classes[i] == r.want[j] {
					good++
				}
			}
			out.correct[c] += good
			if good < len(p.idx) {
				failed[c]++
				errs[c] = fmt.Errorf("%d of %d samples answered wrong", len(p.idx)-good, len(p.idx))
			}
		}
	})
	for c := 0; c < n; c++ {
		out.requests += requests[c]
		out.failed += failed[c]
		if errs[c] != nil {
			out.err = errs[c]
		}
	}
	out.fill = meanFill(fill0, r.fleet.Stats().Models[modelName].BatchFill)
	return out
}

// meanFill is the mean batch size between two BatchFill histograms.
func meanFill(before, after []int64) float64 {
	var batches, samples int64
	for i := range after {
		d := after[i]
		if i < len(before) {
			d -= before[i]
		}
		batches += d
		samples += d * int64(i+1)
	}
	if batches == 0 {
		return math.NaN()
	}
	return float64(samples) / float64(batches)
}

// warm opens every keep-alive connection and runs every code path once
// before timing: conns() rounds of single-sample requests and one
// payload per connection. It returns the requests sent and failed.
func (r *rig) warm(ctx context.Context, url string, in *inputs, pls []payload) (sent, failed int, err error) {
	n := conns()
	errs := make([]error, n)
	fails := make([]int, n)
	par.For(n, n, func(c int) {
		for k := 0; k < 4; k++ {
			i := (c*4 + k) % len(in.bodies)
			ans, e := r.post(ctx, url, in.bodies[i], "")
			if e == nil && (ans.Class == nil || *ans.Class != r.want[i]) {
				e = fmt.Errorf("warm-up input %d answered wrong", i)
			}
			if e != nil {
				fails[c]++
				errs[c] = e
			}
		}
		p := pls[c%len(pls)]
		ans, e := r.post(ctx, url, p.body, "")
		if e == nil {
			for i, j := range p.idx {
				if i >= len(ans.Classes) || ans.Classes[i] != r.want[j] {
					e = fmt.Errorf("warm-up payload answered wrong")
				}
			}
		}
		if e != nil {
			fails[c]++
			errs[c] = e
		}
	})
	for c := range errs {
		failed += fails[c]
		if errs[c] != nil {
			err = errs[c]
		}
	}
	return 5 * n, failed, err
}
