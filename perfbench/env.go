package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"

	"milr/internal/par"
)

// env is the run's environment and freshness record, printed with
// every result.
type env struct {
	Revision   string `json:"revision"`
	Modified   bool   `json:"modified"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// EngineWorkers is what milr.WithWorkers(-1) resolves to.
	EngineWorkers int `json:"engine_workers"`
}

// environment reads the build's embedded VCS stamp and the runtime
// settings. A binary stamped with a revision other than the checkout's
// HEAD is stale, and its results are refused. A build outside a VCS
// checkout carries no stamp; its record says so.
func environment() (env, error) {
	e := env{
		Revision:      "none (built outside a VCS checkout)",
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		EngineWorkers: par.Resolve(-1, 0),
	}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return e, nil
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			e.Revision = s.Value
		case "vcs.modified":
			e.Modified = s.Value == "true"
		}
	}
	if strings.HasPrefix(e.Revision, "none") {
		return e, nil
	}
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return e, fmt.Errorf("binary stamped %s, but HEAD is unreadable: %w", e.Revision, err)
	}
	if h := strings.TrimSpace(string(head)); h != e.Revision {
		return e, fmt.Errorf("stale binary: built at %s, HEAD is %s; rebuild with run.sh", e.Revision, h)
	}
	return e, nil
}

// print writes the record with the run's seed and offered load.
func (e env) print(w io.Writer, cfg config, seed uint64) {
	raw, _ := json.Marshal(e)
	fmt.Fprintf(w, "env: %s\n", raw)
	fmt.Fprintf(w, "run: workload=%s net=%s seed=%d rate=%g/s open=%v closed=%v conns=%d batch=%d live_heals=%t\n",
		cfg.name, cfg.net, seed, cfg.rate, cfg.open, cfg.closed, conns(), batchSize, cfg.liveHeals)
}
