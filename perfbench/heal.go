package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"milr"
	"milr/internal/faults"
	"milr/internal/obs"
	"milr/internal/tensor"
)

// Live-campaign gaps: how long a fault sits in the served model before
// its scrub, and how long the healed model serves before the clean
// weights are restored. Requests landing in the second gap check that
// a heal left answers equal to the clean reference.
const (
	injectGap = 10 * time.Millisecond
	healedGap = 20 * time.Millisecond
)

// healRecord is one campaign event's outcome.
type healRecord struct {
	kind eventKind
	// dur is the Fleet.ScrubOnce wall time.
	dur time.Duration
	res milr.ScrubResult
	ok  bool
	// errMax is the largest |healed - clean| weight before the restore.
	errMax float64
	err    error
}

// splitEvents returns the indexes into evs of the events a workload
// runs live, beside the open-loop stream, and of those it runs in the
// quiet heal phase.
func splitEvents(evs []event, liveHeals bool) (live, quiet []int) {
	for i, ev := range evs {
		if liveHeals && ev.kind != layerEvent {
			live = append(live, i)
		} else {
			quiet = append(quiet, i)
		}
	}
	return live, quiet
}

// campaign runs the events evs[idx] beside live traffic, paced evenly
// over [start, start+span), with the live gaps between inject, scrub
// and restore. traceTag, when set, makes each scrub a trace of its own.
func (r *rig) campaign(ctx context.Context, evs []event, idx []int, start time.Time, span time.Duration, traceTag string) []healRecord {
	out := make([]healRecord, len(idx))
	for k, i := range idx {
		due := start.Add(span * time.Duration(k) / time.Duration(len(idx)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out[k] = r.event(r.scrubContext(ctx, traceTag, i, evs[i]), evs[i], i, true)
	}
	return out
}

// quietHeals runs the events evs[idx] back to back with no traffic.
func (r *rig) quietHeals(ctx context.Context, evs []event, idx []int, traceTag string) []healRecord {
	out := make([]healRecord, len(idx))
	for k, i := range idx {
		out[k] = r.event(r.scrubContext(ctx, traceTag, i, evs[i]), evs[i], i, false)
	}
	return out
}

// scrubContext makes event i's scrub a trace of its own,
// "<traceTag>-NNN-<kind>", when traceTag is set.
func (r *rig) scrubContext(ctx context.Context, traceTag string, i int, ev event) context.Context {
	if traceTag == "" {
		return ctx
	}
	return obs.WithTracer(ctx, r.tracer, fmt.Sprintf("%s-%03d-%s", traceTag, i, ev.kind))
}

// event injects one fault under the engine gate, heals it with one
// Fleet.ScrubOnce, then measures and restores the clean weights under
// the gate. A clean event is the scrub alone. A fault event must come
// back {ErrorsDetected: true, Recovered: true}, a clean one
// {false, true}; anything else is a failed heal, and the answers served
// before the restore are then not held to the clean reference.
func (r *rig) event(ctx context.Context, ev event, idx int, live bool) healRecord {
	rec := healRecord{kind: ev.kind}
	if ev.kind != cleanEvent {
		r.inject(ev)
		if live {
			time.Sleep(injectGap)
		}
	}
	if ev.kind != cleanEvent && idx >= 0 && idx == r.cfg.skipHeal {
		rec.err = fmt.Errorf("heal skipped")
	} else {
		rec.dur, rec.res, rec.err = r.scrub(ctx)
	}
	want := milr.ScrubResult{ErrorsDetected: ev.kind != cleanEvent, Recovered: true}
	if rec.err == nil && rec.res != want {
		rec.err = fmt.Errorf("%s event on layer %d: scrub %+v, want %+v", ev.kind, ev.layer, rec.res, want)
	}
	if ev.kind != cleanEvent {
		if rec.err == nil {
			r.enter(phaseHealed)
		}
		if live {
			time.Sleep(healedGap)
		}
		rec.errMax = r.restore()
	}
	rec.ok = rec.err == nil
	return rec
}

// scrub times one Fleet.ScrubOnce, inside a bench.scrub span when ctx
// carries a tracer.
func (r *rig) scrub(ctx context.Context) (time.Duration, milr.ScrubResult, error) {
	ctx, sp := obs.Start(ctx, "bench.scrub")
	defer sp.End()
	t0 := time.Now()
	_, res, err := r.fleet.ScrubOnce(ctx)
	return time.Since(t0), res, err
}

// inject applies ev's fault under the engine gate, entering the
// injected phase first so no batch computed on the faulty weights can
// be mistaken for a clean answer.
func (r *rig) inject(ev event) {
	r.prot.Sync(func() {
		r.enter(phaseInjected)
		p := r.model.Layer(ev.layer).(milr.Parameterized)
		switch ev.kind {
		case blockEvent:
			copy(p.Params().Data()[4*ev.block:], ev.vals[:])
		case layerEvent:
			faults.New(ev.fill).OverwriteLayer(p)
		}
	})
}

// restore puts the clean weights back under the engine gate, then the
// protector's initialization-time CRC codes, which a conv heal
// re-encodes against the weights it recovered, and returns the largest
// |current - clean| weight it found. Without the CRC reset, codes left
// by a heal that is off in the last bits mislocate later faults in that
// layer.
func (r *rig) restore() float64 {
	worst := 0.0
	r.prot.Sync(func() {
		r.enter(phaseClean)
		for _, li := range r.model.ParamLayers() {
			d := r.model.Layer(li).(milr.Parameterized).Params().Data()
			c := r.clean[li]
			changed := false
			for j, v := range c {
				if d[j] != v {
					changed = true
					worst = math.Max(worst, math.Abs(float64(d[j])-float64(v)))
				}
			}
			if changed {
				copy(d, c)
			}
		}
	})
	r.prot.ResetCRC()
	return worst
}

// gemmsPerHeal counts the GEMM kernel calls of one quiet heal of each
// kind: a block garble in the dense layer, a dense-layer overwrite, and
// a clean scrub.
func (r *rig) gemmsPerHeal(ctx context.Context) (map[eventKind]float64, error) {
	dense := layerIndex(r.model, "dense")
	probes := []event{
		{kind: blockEvent, layer: dense, vals: [4]float32{1.5, -2.5, 3.5, -4.5}},
		{kind: layerEvent, layer: dense, fill: weightSeed},
		{kind: cleanEvent},
	}
	out := map[eventKind]float64{}
	for _, ev := range probes {
		g0 := tensor.GEMMCalls()
		rec := r.event(ctx, ev, -1, false)
		out[ev.kind] = float64(tensor.GEMMCalls() - g0)
		if rec.err != nil {
			return nil, fmt.Errorf("gemm probe: %w", rec.err)
		}
	}
	return out, nil
}
