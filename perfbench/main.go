// Command perfbench is the repository's benchmark. One run executes one
// named workload against the program's public entry points for a fixed
// number of seconds, checks the outputs, and prints one JSON line with the
// end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1). See
// README.md in this directory for why each workload exists and which
// layer metric should move which end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// processStart anchors the first set-up: setup_s counts from here.
var processStart = time.Now()

// metricDef names one reported metric and its unit; the lists below must
// match BENCHMARK.json (the smoke test checks that they do).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"collect_cluster_h", "h"},
	{"speedup_vs_default", "x"},
	{"speedup_vs_expert", "x"},
}

var perLayer = []metricDef{
	{"op_p90_ms", "ms"},
	{"core.collect_s", "s"},
	{"sparksim.run_us", "us"},
	{"sparksim.tasks_per_run", "count"},
	{"sparksim.aborted_ratio", "ratio"},
	{"hm.fit_s", "s"},
	{"hm.trees", "count"},
	{"hm.pred_error", "ratio"},
	{"tree.grow_us", "us"},
	{"tree.subtract_ratio", "ratio"},
	{"ga.search_s", "s"},
	{"ga.evaluations", "count"},
	{"ga.unique_ratio", "ratio"},
	{"model.predict_us_per_row", "us"},
	{"model.batch1_us_per_row", "us"},
	{"model.batchN_us_per_row", "us"},
	{"serve.memo_hit_ratio", "ratio"},
	{"serve.batch_rows", "rows"},
	{"serve.modelcache_hit_ratio", "ratio"},
	{"serve.predict_server_us", "us"},
	{"serve.http_overhead_us", "us"},
	{"serve.job_overhead_s", "s"},
	{"predict.repeat_share", "ratio"},
	{"predict.late_ms", "ms"},
	{"predict.p99_us", "us"},
	{"journal.append_us", "us"},
	{"registry.save_ms", "ms"},
	{"registry.load_ms", "ms"},
	{"fleet.chunk_exec_ms", "ms"},
	{"fleet.protocol_share", "ratio"},
	{"fleet.leases_granted", "count"},
	{"fleet.leases_requeued_expired", "count"},
	{"fleet.results_rejected", "count"},
	{"obs.trace_overhead", "ratio"},
}

// scale sizes a run: fullScale is the paper's budget; the smoke test runs
// a tiny one.
type scale struct {
	name string
	// quick selects experiments.QuickBudget instead of PaperBudget.
	quick bool
	// setupReps is how many times a run sets up; setup_s is their median.
	setupReps int
	// predictRate is predict_mix's open-loop request rate (requests/s).
	// It sits well below the hot path's capacity on a 2-core machine, so
	// the open loop measures latency, not queueing.
	predictRate float64
	// minOps is the fewest timed operations a measuring pass performs,
	// even if the window has elapsed.
	minOps int
}

var fullScale = scale{name: "full", setupReps: 5, predictRate: 1000, minOps: 4}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	scale    scale
	// workDir holds daemon data directories and trace files.
	workDir string
}

type workloadFunc func(ctx context.Context, b *bench) error

var workloadRuns = map[string]workloadFunc{
	"tune_ts":     runTuneTS,
	"daemon_km":   runDaemonKM,
	"predict_mix": runPredictMix,
	"fleet_ts":    runFleetTS,
}

// output is the benchmark's last stdout line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	workload := fs.String("workload", "", "workload name (tune_ts|daemon_km|predict_mix|fleet_ts)")
	seed := fs.Int64("seed", 1, "workload seed: selects the inputs")
	seconds := fs.Int("seconds", 25, "measuring window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := fs.String("root", ".", "checkout root; work files go under <root>/.bench_build")
	fs.Parse(os.Args[1:])
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}

	cfg := config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		scale:    fullScale,
		workDir:  filepath.Join(*root, ".bench_build", "work"),
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// run executes one workload and assembles its result line.
func run(cfg config) (*output, error) {
	fn, ok := workloadRuns[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.window <= 0 {
		return nil, fmt.Errorf("measuring window must be positive")
	}
	runDir := filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	b := &bench{cfg: cfg, dir: runDir, metrics: map[string]float64{}}
	if cfg.trace {
		b.tr = newTracer()
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d window=%v trace=%v scale=%s GOMAXPROCS=%d NumCPU=%d go=%s\n",
		cfg.workload, cfg.seed, cfg.window, cfg.trace, cfg.scale.name,
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	if err := fn(context.Background(), b); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		path := filepath.Join(cfg.workDir, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := b.tr.write(path, b.env()); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: trace written to %s; self time by layer:", path)
		self := b.tr.selfTimes()
		for _, layer := range sortedKeys(self) {
			fmt.Fprintf(os.Stderr, " %s=%.3fs", layer, self[layer])
		}
		fmt.Fprintln(os.Stderr)
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out := &output{
		Correct:   len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", cfg.workload, d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "  %-30s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, p := range b.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	if out.Attempted < 1 {
		return nil, fmt.Errorf("%s: no operation was attempted", cfg.workload)
	}
	return out, nil
}
