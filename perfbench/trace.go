package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"milr"
	"milr/internal/nn"
	"milr/internal/obs"
)

// ringCapacity bounds the span ring. The traced run drains it after
// every phase; the largest (serve-tiny's closed loop, about 10^5 spans
// on two CPUs) fits with room to spare.
const ringCapacity = 1 << 18

// traceRing is the traced run's tracer plus the count of spans read
// back, so a drain can prove nothing was overwritten.
type traceRing struct {
	tracer *obs.Tracer
	read   uint64
}

// newTraceRing builds the wall-clock tracer of a traced run.
func newTraceRing(seed uint64) *traceRing {
	return &traceRing{tracer: obs.New(obs.Config{Capacity: ringCapacity, Seed: seed | 1})}
}

// drain returns every span completed since the last drain. It fails if
// the ring overwrote any: the spans read must equal Tracer.Completed.
func (t *traceRing) drain() ([]obs.SpanRecord, error) {
	done := t.tracer.Completed()
	n := done - t.read
	spans := t.tracer.Last(int(n))
	if uint64(len(spans)) != n {
		return nil, fmt.Errorf("span ring overflow: %d spans completed since the last drain, %d readable", n, len(spans))
	}
	t.read = done
	return spans, nil
}

// analysis is the per-layer timing the traced phases' spans yield, in
// milliseconds.
type analysis struct {
	// named holds the durations of the program's own spans on the
	// traced open-loop requests, by span name.
	named map[string][]float64
	// transport is client latency minus the gateway.request span.
	transport []float64
	// gatewaySelf is gateway.request minus its bench.backend child.
	gatewaySelf []float64
	// gateWait is fleet.scrub minus its core.selfheal child: a scrub
	// waiting for the in-flight batch to release the engine gate.
	gateWait []float64
	detect   []float64
	recover  map[eventKind][]float64
}

// analyze groups spans by trace: "open-*" traces are traced open-loop
// requests, "heal-NNN-<kind>" traces are scrubs.
func analyze(spans []obs.SpanRecord) analysis {
	a := analysis{named: map[string][]float64{}, recover: map[eventKind][]float64{}}
	gatewayOf := map[string]obs.SpanRecord{}
	backendTime := map[uint64]time.Duration{}
	selfheal := map[uint64]time.Duration{}
	for _, s := range spans {
		switch s.Name {
		case "gateway.request":
			gatewayOf[s.Trace] = s
		case "bench.backend":
			backendTime[s.Parent] += s.Duration()
		case "core.selfheal":
			selfheal[s.Parent] += s.Duration()
		}
	}
	for _, s := range spans {
		d := msOf(s.Duration())
		switch {
		case strings.HasPrefix(s.Trace, "open-"):
			switch s.Name {
			case "bench.request":
				if g, ok := gatewayOf[s.Trace]; ok {
					a.transport = append(a.transport, d-msOf(g.Duration()))
				}
			case "gateway.request":
				a.gatewaySelf = append(a.gatewaySelf, d-msOf(backendTime[s.ID]))
			default:
				a.named[s.Name] = append(a.named[s.Name], d)
			}
		case strings.HasPrefix(s.Trace, "heal-"):
			switch s.Name {
			case "fleet.scrub":
				a.gateWait = append(a.gateWait, d-msOf(selfheal[s.ID]))
			case "core.detect":
				a.detect = append(a.detect, d)
			case "core.recover":
				for _, k := range []eventKind{blockEvent, layerEvent} {
					if strings.HasSuffix(s.Trace, "-"+k.String()) {
						a.recover[k] = append(a.recover[k], d)
					}
				}
			}
		}
	}
	return a
}

// msOf converts one duration to milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sweepReps is how many times the quiet sweep runs each net's batch.
const sweepReps = 15

// layerTiming is one layer's quiet-sweep result.
type layerTiming struct {
	net, layer string
	ms         float64
	// flops is 2·M·N·K of the layer's GEMM, 0 for non-GEMM layers;
	// bytes is the GEMM's operand and result size, computed from tensor
	// shapes, not measured.
	flops, bytes float64
}

// sweepResult is the quiet sweep over both nets.
type sweepResult struct {
	layers      []layerTiming
	kbPerBatch  map[string]float64
	allocsBatch map[string]float64
}

// sweep times every layer of both nets on a fixed batchSize-sample
// batch, replaying Model.ForwardBatch layer by layer with a bench.layer
// span around each call, then measures Model.ForwardBatch allocations.
func sweep(ctx context.Context, tr *traceRing, seed uint64) (*sweepResult, error) {
	out := &sweepResult{kbPerBatch: map[string]float64{}, allocsBatch: map[string]float64{}}
	for _, net := range []string{"mnist", "tiny"} {
		m, err := newNet(net)
		if err != nil {
			return nil, err
		}
		m.SetWorkers(-1)
		st := stream(seed, tagInputs)
		xs := make([]*milr.Tensor, batchSize)
		for i := range xs {
			xs[i] = st.Tensor(m.InShape()...)
		}
		if _, err := tr.drain(); err != nil {
			return nil, err
		}
		sctx := obs.WithTracer(ctx, tr.tracer, "sweep-"+net)
		for rep := 0; rep < sweepReps; rep++ {
			if err := forwardLayers(sctx, m, xs); err != nil {
				return nil, fmt.Errorf("sweep %s: %w", net, err)
			}
		}
		spans, err := tr.drain()
		if err != nil {
			return nil, err
		}
		per := map[string][]float64{}
		for _, s := range spans {
			if s.Name == "bench.layer" {
				per[s.Attrs[0].Value] = append(per[s.Attrs[0].Value], msOf(s.Duration()))
			}
		}
		for i, l := range m.Layers() {
			lt := layerTiming{net: net, layer: l.Name(), ms: quantile(per[l.Name()], 0.5)}
			lt.flops, lt.bytes = gemmShape(m, i)
			out.layers = append(out.layers, lt)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for rep := 0; rep < sweepReps; rep++ {
			if _, err := m.ForwardBatch(xs); err != nil {
				return nil, err
			}
		}
		runtime.ReadMemStats(&m1)
		out.kbPerBatch[net] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / sweepReps
		out.allocsBatch[net] = float64(m1.Mallocs-m0.Mallocs) / sweepReps
	}
	return out, nil
}

// forwardLayers is Model.ForwardBatch unrolled: GEMM layers take the
// whole batch, the others each sample, each call inside a bench.layer
// span.
func forwardLayers(ctx context.Context, m *milr.Model, xs []*milr.Tensor) error {
	cur := append([]*milr.Tensor(nil), xs...)
	for _, l := range m.Layers() {
		_, sp := obs.Start(ctx, "bench.layer")
		sp.SetAttr("layer", l.Name())
		if bc, ok := l.(nn.BatchCapable); ok {
			next, err := bc.ForwardBatch(cur)
			if err != nil {
				return err
			}
			cur = next
		} else {
			for s := range cur {
				out, err := l.Forward(cur[s])
				if err != nil {
					return err
				}
				cur[s] = out
			}
		}
		sp.End()
	}
	return nil
}

// gemmShape returns the flop count and operand bytes of layer i's
// batched GEMM (M×K times K×N), or zeros for a layer without one.
func gemmShape(m *milr.Model, i int) (flops, bytes float64) {
	var rows, inner, cols int
	switch l := m.Layer(i).(type) {
	case *nn.Conv2D:
		out, err := l.OutShape(m.LayerInShape(i))
		if err != nil {
			return 0, 0
		}
		rows = batchSize * out[0] * out[1]
		inner = l.FilterSize() * l.FilterSize() * l.InChannels()
		cols = l.Filters()
	case *nn.Dense:
		rows, inner, cols = batchSize, l.In(), l.Out()
	default:
		return 0, 0
	}
	return 2 * float64(rows) * float64(inner) * float64(cols), 4 * float64(rows*inner+inner*cols+rows*cols)
}

// report adds the sweep's per-layer metrics and notes the computed
// bytes each GEMM moves.
func (s *sweepResult) report(res *result) {
	var bytesNote []string
	for _, lt := range s.layers {
		res.add(fmt.Sprintf("nn.layer.%s.%s_ms", lt.net, lt.layer), "ms", lt.ms)
	}
	for _, net := range []string{"mnist", "tiny"} {
		res.add("nn.forward_kb_per_batch."+net, "KB", s.kbPerBatch[net])
		res.add("nn.forward_allocs_per_batch."+net, "count", s.allocsBatch[net])
	}
	for _, lt := range s.layers {
		if lt.flops == 0 {
			continue
		}
		res.add(fmt.Sprintf("tensor.gflops.%s.%s", lt.net, lt.layer), "GFLOP/s", lt.flops/(lt.ms*1e6))
		bytesNote = append(bytesNote, fmt.Sprintf("%s.%s=%.0f", lt.net, lt.layer, lt.bytes))
	}
	res.note("tensor.gemm_bytes (computed from tensor shapes, not measured): %s", strings.Join(bytesNote, " "))
}
