package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"milr/internal/par"
	"milr/internal/tensor"
)

// closedPayloads is how many distinct closed-loop payloads a run draws.
const closedPayloads = 32

// prepared is everything a run derives from its seed before timing.
type prepared struct {
	in    *inputs
	pls   []payload
	sched []arrival
	evs   []event
}

// prepare draws the run's inputs, payloads and schedules.
func prepare(cfg config, seed uint64, span time.Duration) (*prepared, error) {
	m, err := newNet(cfg.net)
	if err != nil {
		return nil, err
	}
	in, err := newInputs(seed, m.InShape(), cfg.pool)
	if err != nil {
		return nil, err
	}
	pls, err := payloads(seed, in, closedPayloads)
	if err != nil {
		return nil, err
	}
	return &prepared{
		in:    in,
		pls:   pls,
		sched: arrivals(seed, cfg.rate, span, cfg.pool),
		evs:   faultSchedule(seed, m, cfg.blocks, cfg.layerOverwrites, cfg.cleans),
	}, nil
}

// traffic runs one open-loop phase over sched, with the events
// evs[live] as a live heal campaign beside it. It returns the request
// and heal records.
func (r *rig) traffic(ctx context.Context, url string, sched []arrival, evs []event, live []int, in *inputs, span time.Duration, traceTag string) ([]reqRecord, []healRecord) {
	var recs []reqRecord
	var heals []healRecord
	start := time.Now()
	if len(live) == 0 {
		return r.openLoop(ctx, url, sched, in, start, traceTag), nil
	}
	healTag := ""
	if traceTag != "" {
		healTag = "heal"
	}
	par.For(2, 2, func(j int) {
		if j == 0 {
			recs = r.openLoop(ctx, url, sched, in, start, traceTag)
		} else {
			heals = r.campaign(ctx, evs, live, start, span, healTag)
		}
	})
	return recs, heals
}

// rounds is how many times an untraced run cycles through its phases,
// so that a spell of host CPU steal falls on every phase alike.
const rounds = 15

// part returns the k-th of n equal slices of xs.
func part[T any](xs []T, k, n int) []T {
	return xs[k*len(xs)/n : (k+1)*len(xs)/n]
}

// runPlain is the untraced run: after timing setup it runs rounds of an
// open-loop phase (beside the live heals when the workload has them), a
// closed-loop phase and a quiet heal phase, and reports the end-to-end
// metrics over all rounds together.
func runPlain(ctx context.Context, cfg config, seed uint64) (*result, error) {
	p, err := prepare(cfg, seed, cfg.open)
	if err != nil {
		return nil, err
	}
	var r *rig
	setupTimes := make([]float64, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		if r != nil {
			r.close()
		}
		runtime.GC()
		var d time.Duration
		r, d, err = setup(ctx, cfg, p.in, nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, d.Seconds())
	}
	defer r.close()
	res := &result{}
	n, failed, err := r.warm(ctx, r.plainURL, p.in, p.pls)
	res.count(n, failed, err)

	live, quiet := splitEvents(p.evs, cfg.liveHeals)
	var recs []reqRecord
	var heals []healRecord
	var closed closedStats
	var alloc uint64
	for round := 0; round < rounds; round++ {
		lo, hi := round*len(p.sched)/rounds, (round+1)*len(p.sched)/rounds
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rs, hs := r.traffic(ctx, r.plainURL, rebase(p.sched, lo, hi), p.evs, part(live, round, rounds), p.in, cfg.open/rounds, "")
		runtime.ReadMemStats(&m1)
		alloc += m1.TotalAlloc - m0.TotalAlloc
		recs, heals = append(recs, rs...), append(heals, hs...)

		runtime.GC()
		closed.add(r.closedLoop(ctx, r.plainURL, p.pls, cfg.closed/rounds))

		runtime.GC()
		heals = append(heals, r.quietHeals(ctx, p.evs, part(quiet, round, rounds), "")...)
	}

	lats, lags, stale := countRequests(res, recs)
	res.count(closed.requests, closed.failed, closed.err)
	byKind := countHeals(res, heals)
	res.note("samples: open_loop_requests=%d closed_loop_requests=%d closed_loop_samples=%d heal_events block=%d layer=%d clean=%d rounds=%d",
		len(recs), closed.requests, closed.requests*batchSize, len(byKind[blockEvent]), len(byKind[layerEvent]), len(byKind[cleanEvent]), rounds)
	res.note("generator: send_lag_p99_ms=%.3f stale_answers=%d", quantile(ms(lags...), 0.99), stale)
	res.note("latency_p99_ms over all requests in one sample, for comparison: %.4g", quantile(ms(lats...), 0.99))

	res.add("setup_s", "s", quantile(setupTimes, 0.5))
	res.add("latency_p50_ms", "ms", quantile(ms(lats...), 0.5))
	res.add("latency_p99_ms", "ms", p99(ms(lats...)))
	res.add("throughput_sps", "samples/s", closed.rate())
	res.add("alloc_kb_per_req", "KB", float64(alloc)/1024/float64(len(recs)))
	res.add("heal_block_p50_ms", "ms", quantile(ms(byKind[blockEvent]...), 0.5))
	res.add("heal_block_p90_ms", "ms", quantile(ms(byKind[blockEvent]...), 0.9))
	res.add("heal_layer_p50_ms", "ms", quantile(ms(byKind[layerEvent]...), 0.5))
	res.add("scrub_clean_p50_ms", "ms", quantile(ms(byKind[cleanEvent]...), 0.5))
	return res, nil
}

// p99Block is the block length of the p99 estimate: the slowest of 69
// independent latencies lies above the 99th percentile with probability
// 1 - 0.99^69, one half.
const p99Block = 69

// p99 estimates the 99th percentile of lats, in send order, as the
// median over consecutive blocks of p99Block requests of each block's
// slowest one. For independent latencies that is the 99th percentile of
// all of them; a slow tail spread over the run counts in full, while a
// burst of slow requests in one stretch (the host stealing CPU for a
// moment) counts once per block it spans rather than once per request.
// With fewer than two blocks it is the plain 99th percentile.
func p99(lats []float64) float64 {
	nb := int(math.Round(float64(len(lats)) / p99Block))
	if nb < 2 {
		return quantile(lats, 0.99)
	}
	maxima := make([]float64, nb)
	for b := range maxima {
		maxima[b] = slices.Max(lats[b*len(lats)/nb : (b+1)*len(lats)/nb])
	}
	return quantile(maxima, 0.5)
}

// rebase returns sched[lo:hi] with due times counted from the arrival
// before lo, so the slice keeps the gap that preceded its first request.
func rebase(sched []arrival, lo, hi int) []arrival {
	var origin time.Duration
	if lo > 0 {
		origin = sched[lo-1].due
	}
	out := make([]arrival, 0, hi-lo)
	for _, a := range sched[lo:hi] {
		out = append(out, arrival{due: a.due - origin, input: a.input})
	}
	return out
}

// countRequests counts open-loop records into res and returns their
// latencies, send lags and the number of stale answers.
func countRequests(res *result, recs []reqRecord) (lats, lags []time.Duration, stale int) {
	failed := 0
	var first error
	for _, rec := range recs {
		lats = append(lats, rec.lat)
		lags = append(lags, rec.lag)
		if rec.failed {
			failed++
			if first == nil {
				first = rec.err
			}
		}
		if rec.stale {
			stale++
		}
	}
	res.count(len(recs), failed, first)
	return lats, lags, stale
}

// countHeals counts heal records into res and returns the ScrubOnce
// times by kind.
func countHeals(res *result, heals []healRecord) map[eventKind][]time.Duration {
	out := map[eventKind][]time.Duration{}
	for _, h := range heals {
		failed := 0
		if !h.ok {
			failed = 1
		}
		res.count(1, failed, h.err)
		out[h.kind] = append(out[h.kind], h.dur)
	}
	return out
}

// traceChunks is how many slices a traced run cuts its open-loop
// schedule into; each slice runs once through each gateway.
const traceChunks = 6

// runTraced is the traced run. The open-loop phase runs every slice of
// one arrival schedule twice, through the plain gateway and through the
// traced one, alternating which goes first, so the tracing overhead is a
// paired difference that run order does not bias; a live campaign
// splits its events between the two. A shorter traced closed-loop
// phase, the quiet heal events, one more quiet heal of each kind (for
// GEMM counts) and the layer sweep of both nets follow. Every span the
// ring holds is read and checked against the tracer's count.
func runTraced(ctx context.Context, cfg config, seed uint64) (*result, error) {
	half := cfg.open / 2
	p, err := prepare(cfg, seed, half)
	if err != nil {
		return nil, err
	}
	tr := newTraceRing(seed)
	r, _, err := setup(ctx, cfg, p.in, tr.tracer)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer r.close()
	res := &result{}
	n, failed, err := r.warm(ctx, r.plainURL, p.in, p.pls)
	res.count(n, failed, err)
	if _, err := tr.drain(); err != nil {
		return nil, err
	}

	live, quiet := splitEvents(p.evs, cfg.liveHeals)
	var liveA, liveB []int
	for k, i := range live {
		if k%2 == 0 {
			liveA = append(liveA, i)
		} else {
			liveB = append(liveB, i)
		}
	}
	var recsA, recsB []reqRecord
	var heals []healRecord
	var gemmsA uint64
	for c := 0; c < traceChunks; c++ {
		lo, hi := c*len(p.sched)/traceChunks, (c+1)*len(p.sched)/traceChunks
		sched, span := rebase(p.sched, lo, hi), half/traceChunks
		plain := func() {
			g0 := tensor.GEMMCalls()
			rs, hs := r.traffic(ctx, r.plainURL, sched, p.evs, part(liveA, c, traceChunks), p.in, span, "")
			gemmsA += tensor.GEMMCalls() - g0
			recsA, heals = append(recsA, rs...), append(heals, hs...)
		}
		traced := func() {
			rs, hs := r.traffic(ctx, r.tracedURL, sched, p.evs, part(liveB, c, traceChunks), p.in, span, fmt.Sprintf("open-%02d", c))
			recsB, heals = append(recsB, rs...), append(heals, hs...)
		}
		if c%2 == 0 {
			plain()
			traced()
		} else {
			traced()
			plain()
		}
	}
	spans, err := tr.drain()
	if err != nil {
		return nil, err
	}
	closed := r.closedLoop(ctx, r.tracedURL, p.pls, cfg.closed/2)
	if _, err := tr.drain(); err != nil {
		return nil, err
	}
	heals = append(heals, r.quietHeals(ctx, p.evs, quiet, "heal")...)
	healSpans, err := tr.drain()
	if err != nil {
		return nil, err
	}
	spans = append(spans, healSpans...)
	gemmsPerHeal, err := r.gemmsPerHeal(ctx)
	if err != nil {
		return nil, err
	}
	sw, err := sweep(ctx, tr, seed)
	if err != nil {
		return nil, err
	}
	if _, err := tr.drain(); err != nil {
		return nil, err
	}

	latsA, lagsA, staleA := countRequests(res, recsA)
	latsB, lagsB, staleB := countRequests(res, recsB)
	res.count(closed.requests, closed.failed, closed.err)
	byKind := countHeals(res, heals)
	res.note("samples: open_loop_requests=%d+%d closed_loop_requests=%d heal_events block=%d layer=%d clean=%d spans=%d",
		len(recsA), len(recsB), closed.requests, len(byKind[blockEvent]), len(byKind[layerEvent]), len(byKind[cleanEvent]), tr.read)
	a := analyze(spans)

	res.add("bench.send_lag_p99_ms", "ms", quantile(ms(append(lagsA, lagsB...)...), 0.99))
	res.add("gateway.transport_p50_ms", "ms", quantile(a.transport, 0.5))
	res.add("gateway.self_p50_ms", "ms", quantile(a.gatewaySelf, 0.5))
	res.add("fleet.admit_p50_ms", "ms", quantile(a.named["fleet.admit"], 0.5))
	res.add("fleet.queue_wait_p50_ms", "ms", quantile(a.named["fleet.queue_wait"], 0.5))
	res.add("fleet.queue_wait_p99_ms", "ms", quantile(a.named["fleet.queue_wait"], 0.99))
	res.add("fleet.batch_fill_mean", "samples", closed.fill)
	res.add("fleet.gate_wait_p50_ms", "ms", quantile(a.gateWait, 0.5))
	res.add("serve.batch_assemble_p50_ms", "ms", quantile(a.named["serve.batch_assemble"], 0.5))
	res.add("nn.forward_batch_p50_ms", "ms", quantile(a.named["nn.forward_batch"], 0.5))
	sw.report(res)
	res.add("tensor.gemm_calls_per_req", "count", float64(gemmsA)/float64(len(recsA)))
	res.add("core.detect_p50_ms", "ms", quantile(a.detect, 0.5))
	res.add("core.recover_block_p50_ms", "ms", quantile(a.recover[blockEvent], 0.5))
	res.add("core.recover_layer_p50_ms", "ms", quantile(a.recover[layerEvent], 0.5))
	for _, k := range []eventKind{blockEvent, layerEvent, cleanEvent} {
		res.add("core.gemm_calls_per_heal."+k.String(), "count", gemmsPerHeal[k])
	}
	detected, recovered := 0, 0
	errMax := map[eventKind]float64{}
	for _, h := range heals {
		if h.res.ErrorsDetected {
			detected++
			if h.res.Recovered {
				recovered++
			}
		}
		errMax[h.kind] = max(errMax[h.kind], h.errMax)
	}
	res.add("core.recovered_ratio", "ratio", float64(recovered)/float64(detected))
	res.add("core.weight_err_max.block", "abs", errMax[blockEvent])
	res.add("core.weight_err_max.layer", "abs", errMax[layerEvent])
	res.add("core.stale_frac", "ratio", float64(staleA+staleB)/float64(len(recsA)+len(recsB)))
	p50A, p50B := quantile(ms(latsA...), 0.5), quantile(ms(latsB...), 0.5)
	res.add("obs.overhead_p50_pct", "%", 100*(p50B-p50A)/p50A)
	return res, nil
}
