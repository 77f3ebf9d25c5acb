// Command milr-perfbench is the repository's benchmark: it runs one
// workload against the real HTTP gateway, fleet and MILR engine in one
// process, checks every answer and every heal, and prints each metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. BENCHMARK.json
// at the repository root lists the workloads and the metrics; run.sh
// builds and starts this command.
//
//	bash perfbench/run.sh --workload serve-mnist --seed 1 --seconds 30 --trace 0
//
// A run first builds its rig several times (setup_s is the median),
// then cycles fifteen times through three phases: an open-loop phase of
// Poisson single-sample predicts on at most GOMAXPROCS keep-alive
// connections, a closed-loop phase in which every connection sends
// 8-sample payloads back to back, and a quiet heal phase in which
// Fleet.ScrubOnce heals seeded faults. --seconds sets the length of the
// two traffic phases; the heal campaign has a fixed size: per campaign
// scale, 200 block events (one 16-byte AES-XTS block, 4 adjacent
// float32 weights, garbled, round-robin over the parameterized layers;
// in a conv layer redrawn until its 2-D CRC codes locate all four),
// 10 overwrites of the whole dense layer and 60 scrubs of a clean
// model. After every fault the clean weights and the protector's CRC
// codes are restored. Every metric pools all rounds: latency_p50_ms is
// the median of all open-loop requests, latency_p99_ms the median over
// blocks of 69 consecutive requests of each block's slowest (see p99),
// throughput_sps all correct closed-loop samples over the connections'
// busy time.
//
// Every open loop offers 30% of the single-sample capacity of two
// keep-alive connections sending back to back, measured on a 2-CPU
// host: about 154 requests/s for the MNIST net and 712 for the tiny
// net. At 40% the queueing that host's swings in CPU speed cause moved
// serve-mnist's latency_p50_ms by 15% from run to run. Every workload
// prints every end-to-end metric. Why each exists:
//
//   - serve-mnist: the MNIST net at 46 requests/s. A forward pass takes
//     milliseconds to tens of milliseconds, so nn and tensor do most of
//     the work: kernel, scratch-reuse and worker-pool changes show here,
//     and gateway and fleet overhead is a few percent.
//   - serve-tiny: the tiny net at 214 requests/s. It forwards in well
//     under a millisecond, so per-request cost is HTTP/JSON, admission
//     and the 2 ms coalescing window: gateway, fleet and serve changes
//     show here, and kernel changes are predicted flat. BENCHMARK.json
//     leaves it out: on the 2-vCPU host this was tuned on, its closed
//     loop and its sub-millisecond heals run at one of two speeds for
//     most of a run (about 5500 or 9000 samples/s), so their spread
//     over seeds is wider than any bound a benchmark may set. It still
//     runs by name.
//   - heal-mnist: serve-mnist's stream while the block events and clean
//     scrubs run live beside it, holding the engine gate for about a
//     tenth of the time, so inject and heal share the gate and the
//     cores with guarded batches, and core and linalg do most of the
//     work. A heal that takes both cores or holds the gate longer shows
//     as a worse latency_p99_ms here. The dense-layer overwrites, which
//     hold the gate for about half a second each, run in the quiet
//     phase. Its alloc_kb_per_req (and the traced
//     tensor.gemm_calls_per_req) count the live heals' allocations (and
//     GEMM calls) too.
//
// With --trace 1 the run enables the program's own obs spans, adds the
// benchmark's spans around each call into a layer, sweeps every layer
// of both nets on a fixed batch, and reports the per-layer metrics
// instead. End-to-end metrics always come from untraced runs.
//
// The benchmark draws all randomness (arrivals, inputs, faults) from
// seeded internal/prng streams, starts no goroutine of its own outside
// internal/par, mutates weights only inside Protector.Sync, and reads
// tensor.GEMMCalls without calling a kernel.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// spec is one workload's fixed shape.
type spec struct {
	name string
	// net is the zoo network served: "mnist" or "tiny".
	net string
	// rate is the open-loop arrival rate in requests per second.
	rate float64
	// liveHeals runs the block events and clean scrubs beside the
	// open-loop stream. Layer overwrites, which hold the engine gate for
	// about half a second each, always run in the quiet heal phase.
	liveHeals bool
	// pool is the number of distinct seeded inputs requests draw from.
	pool int
	// setups is how many times a run builds its rig; setup_s is the
	// median.
	setups int
	// campaign scales the heal campaign: the tiny net heals in about a
	// millisecond or less, so it runs twenty times the MNIST campaign.
	campaign int
}

// workloads is the workload table.
var workloads = []spec{
	{name: "serve-mnist", net: "mnist", rate: 46, pool: 64, setups: 7, campaign: 1},
	{name: "serve-tiny", net: "tiny", rate: 214, pool: 256, setups: 15, campaign: 20},
	{name: "heal-mnist", net: "mnist", rate: 46, liveHeals: true, pool: 64, setups: 7, campaign: 1},
}

// openShare and closedShare are the shares of --seconds given to the
// open-loop and the closed-loop phase. The heal campaign has a fixed
// size and takes as long as its events take.
const openShare, closedShare = 0.7, 0.2

// Heal campaign size at campaign scale 1: 20 block events per
// parameterized layer of the MNIST net, so heal_block_p90_ms has twenty
// samples beyond it, ten whole-layer events, and enough clean scrubs for
// a steady scrub_clean_p50_ms.
const (
	blockEvents = 200
	layerEvents = 10
	cleanScrubs = 60
)

// runTimeout bounds a whole run, so a hang still ends the process
// inside the 180 s budget a run is given.
const runTimeout = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs one workload and prints its
// result. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("milr-perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: serve-mnist, serve-tiny or heal-mnist")
	seed := fs.Uint64("seed", 1, "workload seed: arrivals, inputs and faults derive from it")
	seconds := fs.Float64("seconds", 30, "seconds of open- and closed-loop traffic; the heal campaign runs on top")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "milr-perfbench: want --workload %v, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	env, err := environment()
	if err != nil {
		fmt.Fprintf(stderr, "milr-perfbench: %v\n", err)
		return 2
	}
	cfg := sp.config(*seconds)
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	var res *result
	if *trace == 1 {
		res, err = runTraced(ctx, cfg, *seed)
	} else {
		res, err = runPlain(ctx, cfg, *seed)
	}
	if err == nil {
		err = res.unmeasured()
	}
	if err != nil {
		fmt.Fprintf(stderr, "milr-perfbench: %s: %v\n", cfg.name, err)
		return 1
	}
	env.print(stdout, cfg, *seed)
	res.print(stdout)
	return 0
}

// lookup finds a workload by name.
func lookup(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// workloadNames lists the workload names, sorted.
func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return names
}

// config is one run's resolved settings: a spec, the phase lengths,
// and the counts and test hooks a run needs.
type config struct {
	spec
	open, closed                    time.Duration
	blocks, layerOverwrites, cleans int
	// skipHeal, when >= 0, is the fault event whose heal is skipped; a
	// self-test hook that must make the run fail.
	skipHeal int
	// flipRef, when >= 0, is the pool input whose expected class is
	// altered; a self-test hook that must make the run fail.
	flipRef int
}

// config resolves the spec for a run of the given length.
func (s spec) config(seconds float64) config {
	total := seconds * float64(time.Second)
	return config{
		spec:            s,
		open:            time.Duration(openShare * total),
		closed:          time.Duration(closedShare * total),
		blocks:          s.campaign * blockEvents,
		layerOverwrites: s.campaign * layerEvents,
		cleans:          s.campaign * cleanScrubs,
		skipHeal:        -1,
		flipRef:         -1,
	}
}
