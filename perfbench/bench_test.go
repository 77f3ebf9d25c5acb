package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// short returns a quick configuration of the named workload: a couple
// of seconds of traffic and a small heal campaign.
func short(t *testing.T, name string) config {
	t.Helper()
	sp, ok := lookup(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	cfg := sp.config(2)
	cfg.blocks, cfg.layerOverwrites, cfg.cleans, cfg.setups = 10, 1, 2, 1
	return cfg
}

func TestShortRunsPass(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runPlain(context.Background(), short(t, w.name), 7)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("failed %d of %d operations; first: %v", res.failed, res.attempted, res.firstErr)
			}
		})
	}
}

func TestAlteredReferenceFails(t *testing.T) {
	cfg := short(t, "serve-tiny")
	cfg.flipRef = 0
	res, err := runPlain(context.Background(), cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 {
		t.Fatalf("one altered expected class went unnoticed in %d operations", res.attempted)
	}
}

func TestSkippedHealFails(t *testing.T) {
	cfg := short(t, "serve-tiny")
	probe, err := prepare(cfg, 7, cfg.open)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range probe.evs {
		if ev.kind != cleanEvent {
			cfg.skipHeal = i
			break
		}
	}
	res, err := runPlain(context.Background(), cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 {
		t.Fatalf("a skipped heal went unnoticed in %d operations", res.attempted)
	}
}

func TestSchedulesDeterministic(t *testing.T) {
	m, err := newNet("mnist")
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed uint64) []byte {
		return encodeSchedules(arrivals(seed, 50, 20e9, 64), faultSchedule(seed, m, blockEvents, layerEvents, cleanScrubs))
	}
	a, b, c := draw(3), draw(3), draw(4)
	if !bytes.Equal(a, b) {
		t.Fatal("one seed drew two different schedules")
	}
	if bytes.Equal(a, c) {
		t.Fatal("two seeds drew the same schedule")
	}
}

func TestStrictBrackets(t *testing.T) {
	var r rig
	clean0 := r.state.Load()
	r.enter(phaseInjected)
	injected := r.state.Load()
	r.enter(phaseHealed)
	healed := r.state.Load()
	r.enter(phaseClean)
	clean1 := r.state.Load()
	r.enter(phaseInjected)
	injected2 := r.state.Load()
	for _, c := range []struct {
		name   string
		s0, s1 uint64
		want   bool
	}{
		{"clean throughout", clean0, clean0, true},
		{"clean, then injected", clean0, injected, false},
		{"clean across a whole event", clean0, clean1, false},
		{"injected throughout", injected, injected, false},
		{"injected, then healed", injected, healed, false},
		{"healed throughout", healed, healed, true},
		{"healed, then restored", healed, clean1, true},
		{"healed, then the next fault", healed, injected2, false},
		{"restored throughout", clean1, clean1, true},
	} {
		if got := strict(c.s0, c.s1); got != c.want {
			t.Errorf("%s: strict = %t, want %t", c.name, got, c.want)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the metric test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMetricsMatchBenchmarkFile pins BENCHMARK.json to the code: its
// workloads exist, an untraced run prints exactly the end-to-end metrics
// and a traced run exactly the per-layer ones, with their units and
// measured values.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, ok := lookup(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the workload table", w.Name)
		}
	}
	cfg := short(t, "serve-tiny")
	plain, err := runPlain(context.Background(), cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runTraced(context.Background(), cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Errorf("%s: run prints %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.name != want[i].Name || m.unit != want[i].Unit {
				t.Errorf("%s %d: run prints %s [%s], BENCHMARK.json lists %s [%s]", kind, i, m.name, m.unit, want[i].Name, want[i].Unit)
			}
			if math.IsNaN(m.value) {
				t.Errorf("%s: %s not measured", kind, m.name)
			}
		}
	}
	check("end_to_end", plain.metrics, bf.EndToEnd)
	check("per_layer", traced.metrics, bf.PerLayer)
}
