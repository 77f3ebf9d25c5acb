package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"time"

	"milr"
	"milr/internal/gateway"
	"milr/internal/obs"
	"milr/internal/tensor"
)

// weightSeed seeds InitWeights and the protector: the served model is
// the same in every run, only the traffic and faults vary with --seed.
const weightSeed = 20211

// modelName is the fleet routing name of the served model.
const modelName = "net"

// batchSize is the engine batch and the closed-loop payload size.
const batchSize = 8

// inputs is a workload's seeded input pool, made before any timing
// starts: each sample as the gateway will decode it, and its
// pre-encoded single-sample request body.
type inputs struct {
	samples []*milr.Tensor
	bodies  [][]byte
}

// newInputs draws n seeded samples of the given shape. Each value is
// written as the shortest decimal that names its float32, and the
// sample kept is that decimal parsed back the way the gateway parses it
// (float64, then float32), so the reference answers are computed on
// exactly the tensor the server sees.
func newInputs(seed uint64, shape milr.Shape, n int) (*inputs, error) {
	st := stream(seed, tagInputs)
	in := &inputs{}
	for i := 0; i < n; i++ {
		x := st.Tensor(shape...)
		text, err := encodeSample(x)
		if err != nil {
			return nil, err
		}
		in.samples = append(in.samples, x)
		in.bodies = append(in.bodies, []byte(`{"input":`+text+`}`))
	}
	return in, nil
}

// encodeSample renders x as a JSON array and rewrites x in place with
// the values that array decodes to.
func encodeSample(x *milr.Tensor) (string, error) {
	d := x.Data()
	b := make([]byte, 0, 12*len(d))
	b = append(b, '[')
	for i, v := range d {
		if i > 0 {
			b = append(b, ',')
		}
		start := len(b)
		b = strconv.AppendFloat(b, float64(v), 'g', -1, 32)
		f, err := strconv.ParseFloat(string(b[start:]), 64)
		if err != nil {
			return "", fmt.Errorf("encode sample: %w", err)
		}
		d[i] = float32(f)
	}
	return string(append(b, ']')), nil
}

// payload is one pre-encoded closed-loop request: batchSize pool inputs.
type payload struct {
	idx  []int
	body []byte
}

// payloads draws n seeded closed-loop payloads over the pool.
func payloads(seed uint64, in *inputs, n int) ([]payload, error) {
	st := stream(seed, tagPayloads)
	out := make([]payload, n)
	for i := range out {
		var b bytes.Buffer
		b.WriteString(`{"inputs":[`)
		out[i].idx = make([]int, batchSize)
		for k := range out[i].idx {
			j := st.Intn(len(in.samples))
			out[i].idx[k] = j
			if k > 0 {
				b.WriteByte(',')
			}
			text, err := encodeSample(in.samples[j].Clone())
			if err != nil {
				return nil, err
			}
			b.WriteString(text)
		}
		b.WriteString(`]}`)
		out[i].body = b.Bytes()
	}
	return out, nil
}

// Heal-state phases. A request reads the state before it is sent and
// after its answer arrives; an answer must equal the clean reference
// unless a fault was in the model at some point in between.
const (
	phaseClean uint64 = iota
	phaseInjected
	phaseHealed
)

// rig is one set-up system under test: the protected model, the fleet,
// the gateway on a loopback listener, a keep-alive client, and the
// clean reference the benchmark checks against.
type rig struct {
	cfg    config
	model  *milr.Model
	prot   *milr.Protector
	fleet  *milr.Fleet
	client *http.Client
	// servers are the loopback listeners: the plain gateway over the
	// fleet, then, in a traced run, the traced gateway.
	servers []*httptest.Server
	// plainURL is the plain gateway's predict route; tracedURL the
	// traced gateway's, empty in an untraced run.
	plainURL, tracedURL string
	tracer              *obs.Tracer
	// want holds the reference class of every pool input.
	want []int
	// clean holds the clean weights of every parameterized layer.
	clean map[int][]float32
	// state is epoch<<2 | phase, advanced only by the heal campaign.
	state atomic.Uint64
}

// newNet builds the named zoo network with its fixed weights.
func newNet(net string) (*milr.Model, error) {
	var m *milr.Model
	var err error
	switch net {
	case "mnist":
		m, err = milr.NewMNISTNet()
	case "tiny":
		m, err = milr.NewTinyNet()
	default:
		err = fmt.Errorf("unknown net %q", net)
	}
	if err != nil {
		return nil, err
	}
	m.InitWeights(weightSeed)
	return m, nil
}

// setup builds a rig and reports how long it took: model, protection
// (MILR initialization), fleet and gateway up, reference answers. A
// non-nil tracer adds a second gateway with tracing on, over the fleet
// wrapped in a span-recording backend.
func setup(ctx context.Context, cfg config, in *inputs, tracer *obs.Tracer) (*rig, time.Duration, error) {
	t0 := time.Now()
	m, err := newNet(cfg.net)
	if err != nil {
		return nil, 0, err
	}
	rt := milr.NewRuntime(milr.WithSeed(weightSeed), milr.WithWorkers(-1), milr.WithBatchSize(batchSize))
	prot, err := rt.Protect(ctx, m)
	if err != nil {
		return nil, 0, fmt.Errorf("protect: %w", err)
	}
	fl := milr.NewFleet(rt)
	if err := fl.RegisterProtected(modelName, prot); err != nil {
		_ = fl.Close()
		return nil, 0, fmt.Errorf("register: %w", err)
	}
	r := &rig{
		cfg: cfg, model: m, prot: prot, fleet: fl, tracer: tracer,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns(),
			MaxConnsPerHost:     conns(),
			DisableCompression:  true,
		}},
		clean: map[int][]float32{},
	}
	r.plainURL = r.listen(gateway.New(fl, gateway.Config{}))
	if tracer != nil {
		r.tracedURL = r.listen(gateway.New(spanBackend{fl}, gateway.Config{Tracer: tracer}))
	}
	for lo := 0; lo < len(in.samples); lo += batchSize {
		hi := min(lo+batchSize, len(in.samples))
		classes, err := m.PredictBatch(in.samples[lo:hi])
		if err != nil {
			r.close()
			return nil, 0, fmt.Errorf("reference answers: %w", err)
		}
		r.want = append(r.want, classes...)
	}
	elapsed := time.Since(t0)
	if cfg.flipRef >= 0 {
		r.want[cfg.flipRef] = (r.want[cfg.flipRef] + 1) % m.OutShape().NumElements()
	}
	prot.Sync(func() {
		for _, li := range m.ParamLayers() {
			r.clean[li] = append([]float32(nil), m.Layer(li).(milr.Parameterized).Params().Data()...)
		}
	})
	return r, elapsed, nil
}

// listen serves h on a fresh loopback listener and returns its
// predict URL.
func (r *rig) listen(h http.Handler) string {
	srv := httptest.NewServer(h)
	r.servers = append(r.servers, srv)
	return srv.URL + "/v1/models/" + modelName + "/predict"
}

// close shuts the rig down: listeners, client connections, fleet.
func (r *rig) close() {
	for _, srv := range r.servers {
		srv.Close()
	}
	r.client.CloseIdleConnections()
	_ = r.fleet.Close()
}

// enter advances the heal state to phase; the caller holds the engine
// gate when the phase change must order against batches.
func (r *rig) enter(phase uint64) {
	r.state.Store((r.state.Load()>>2+1)<<2 | phase)
}

// strict reports whether an answer bracketed by states s0 and s1 must
// equal the clean reference: no injected phase was current at s0 or
// began before s1. An event moves the state clean → injected → healed
// → clean, one epoch a step, so from a healed s0 only the next step,
// the restore, keeps the weights fault-free.
func strict(s0, s1 uint64) bool {
	if s0&3 == phaseInjected {
		return false
	}
	steps := s1>>2 - s0>>2
	return steps == 0 || (steps == 1 && s0&3 == phaseHealed)
}

// answer is the gateway's predict response.
type answer struct {
	Class   *int  `json:"class"`
	Classes []int `json:"classes"`
}

// post sends one pre-encoded predict body to url and decodes the
// answer. reqID, when set, becomes the request's trace ID.
func (r *rig) post(ctx context.Context, url string, body []byte, reqID string) (answer, error) {
	var a answer
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return a, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set(gateway.RequestIDHeader, reqID)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return a, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return a, err
	}
	if resp.StatusCode != http.StatusOK {
		return a, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &a); err != nil {
		return a, fmt.Errorf("decode answer: %w", err)
	}
	return a, nil
}

// spanBackend is the traced run's gateway backend: the fleet, with a
// bench.backend span around each call, so the gateway's own time is its
// request span minus this one.
type spanBackend struct {
	*milr.Fleet
}

// Predict implements gateway.Backend.
func (b spanBackend) Predict(ctx context.Context, model string, x *tensor.Tensor) (int, error) {
	ctx, sp := obs.Start(ctx, "bench.backend")
	defer sp.End()
	return b.Fleet.Predict(ctx, model, x)
}

// PredictBatch implements gateway.Backend.
func (b spanBackend) PredictBatch(ctx context.Context, model string, xs []*tensor.Tensor) ([]int, error) {
	ctx, sp := obs.Start(ctx, "bench.backend")
	defer sp.End()
	return b.Fleet.PredictBatch(ctx, model, xs)
}
