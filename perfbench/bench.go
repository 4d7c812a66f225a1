package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/conf"
	"repro/internal/experiments"
	"repro/internal/expert"
	"repro/internal/obs"
	"repro/internal/sparksim"
	"repro/internal/workloads"
)

// bench is one run's shared state: the metrics it reports, the operation
// and failure counts, and the failed output checks.
type bench struct {
	cfg config
	// dir is this run's scratch directory (daemon data dirs live here).
	dir string
	// tr records spans in a traced run; nil otherwise.
	tr *tracer

	mu        sync.Mutex
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
}

// op counts one attempted timed operation; ok=false counts it failed.
func (b *bench) op(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if !ok {
		b.failed++
	}
}

// fail records a failed output check against an operation already counted
// by op: the operation becomes failed and the run incorrect.
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// invalid marks the whole run incorrect without blaming one operation
// (an open loop whose backlog grew measured queueing, not latency).
func (b *bench) invalid(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

func (b *bench) set(name string, v float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.metrics[name] = v
}

// layersNotRun reports 0 for per-layer metrics of layers this workload
// does not exercise in its timed window, so every run prints the full
// per-layer set.
func (b *bench) layersNotRun(names ...string) {
	for _, n := range names {
		b.set(n, 0)
	}
}

// setupRepeated sets the workload up cfg.scale.setupReps times and keeps
// the last one; setup_s is the median set-up time. The first set-up is
// timed from process start, so it includes runtime start-up; later ones
// from their own start. Earlier set-ups are torn down before the next.
func setupRepeated[T any](b *bench, fn func(rep int) (T, error), teardown func(T)) (T, error) {
	var cur T
	durs := make([]float64, 0, b.cfg.scale.setupReps)
	for rep := 0; rep < b.cfg.scale.setupReps; rep++ {
		start := time.Now()
		if rep == 0 {
			start = processStart
		}
		st, err := fn(rep)
		if err != nil {
			return cur, fmt.Errorf("set-up %d: %w", rep, err)
		}
		durs = append(durs, time.Since(start).Seconds())
		if rep < b.cfg.scale.setupReps-1 {
			teardown(st)
		}
		cur = st
	}
	b.set("setup_s", median(durs))
	return cur, nil
}

// budget is the tuning budget every tune in the benchmark uses: the
// paper's (the preset the CLI and daemon resolve), or the smoke-test
// shrink at the tiny scale.
func (b *bench) budget() experiments.Budget {
	if b.cfg.scale.quick {
		return experiments.QuickBudget()
	}
	return experiments.PaperBudget()
}

// panelSeeds is the fixed list of tuning seeds 1..size, rotated to start
// at an offset the workload seed selects. Every run draws from the same
// list, so runs on different workload seeds tune comparable inputs, while
// the seed still decides which inputs a run covers in its window.
func panelSeeds(wseed int64, size int) []int64 {
	off := int(((wseed % int64(size)) + int64(size)) % int64(size))
	out := make([]int64, size)
	for i := range out {
		out[i] = int64((off+i)%size) + 1
	}
	return out
}

// trainingRange is the collect range the CLI and daemon use: slightly
// beyond the Table 1 sizes.
func trainingRange(w *workloads.Workload) (lo, hi float64) {
	return w.InputMB(w.Sizes[0]) * 0.8, w.InputMB(w.Sizes[len(w.Sizes)-1]) * 1.1
}

// middleTargetMB is the middle Table 1 size, the CLI's default target.
func middleTargetMB(w *workloads.Workload) float64 {
	return w.InputMB(w.Sizes[len(w.Sizes)/2])
}

// evalSeeds are the simulator seeds tuned configurations are measured on.
// Collecting simulators run at tuning seed + 7 with tuning seeds below
// 1000, so these never coincide with a collecting seed.
var evalSeeds = []int64{1_000_001, 1_000_002, 1_000_003, 1_000_004, 1_000_005}

// measuredSec is the mean simulated time of cfg at dsize over evalSeeds.
func measuredSec(w *workloads.Workload, dsizeMB float64, cfg conf.Config) float64 {
	var sum float64
	for _, s := range evalSeeds {
		sum += sparksim.New(cluster.Standard(), s).Run(&w.Program, dsizeMB, cfg).TotalSec
	}
	return sum / float64(len(evalSeeds))
}

// quality accumulates the tuned-configuration quality metrics of Fig.
// 12a/12b and the collecting cost of Table 3 over a run's tunes.
type quality struct {
	w                 *workloads.Workload
	targetMB          float64
	defSec, expSec    float64
	n                 int
	logDef, logExp    float64
	predErr, clusterH float64
}

func newQuality(w *workloads.Workload) *quality {
	space := conf.StandardSpace()
	target := middleTargetMB(w)
	return &quality{
		w:        w,
		targetMB: target,
		defSec:   measuredSec(w, target, space.Default()),
		expSec:   measuredSec(w, target, expert.Config(space, cluster.Standard())),
	}
}

// add checks one tuned result and folds it into the aggregates. It
// returns a description of what is wrong with the result, or "".
func (q *quality) add(vec []float64, predSec, clusterHours float64) string {
	cfg, err := checkVector(vec)
	if err != nil {
		return err.Error()
	}
	meas := measuredSec(q.w, q.targetMB, cfg)
	if !finitePositive(predSec) || !finitePositive(meas) || !finitePositive(clusterHours) {
		return fmt.Sprintf("non-positive or non-finite time: predicted %v, measured %v, cluster hours %v",
			predSec, meas, clusterHours)
	}
	q.n++
	q.logDef += math.Log(q.defSec / meas)
	q.logExp += math.Log(q.expSec / meas)
	q.predErr += math.Abs(predSec-meas) / meas
	q.clusterH += clusterHours
	return ""
}

// report sets the end-to-end quality metrics: geometric-mean speedups and
// mean collecting hours per tune.
func (q *quality) report(b *bench) {
	if q.n == 0 {
		b.invalid("no tuned configuration passed its checks")
		return
	}
	n := float64(q.n)
	b.set("speedup_vs_default", math.Exp(q.logDef/n))
	b.set("speedup_vs_expert", math.Exp(q.logExp/n))
	b.set("collect_cluster_h", q.clusterH/n)
}

// checkVector verifies a tuned configuration is legal: Space.FromVector
// accepts it and the configuration's vector is the input, bit for bit.
func checkVector(vec []float64) (conf.Config, error) {
	space := conf.StandardSpace()
	cfg, err := space.FromVector(vec)
	if err != nil {
		return conf.Config{}, fmt.Errorf("illegal tuned configuration: %v", err)
	}
	back := cfg.Vector()
	for i := range vec {
		if math.Float64bits(back[i]) != math.Float64bits(vec[i]) {
			return conf.Config{}, fmt.Errorf("tuned configuration does not round-trip at %s: %v -> %v",
				space.Names()[i], vec[i], back[i])
		}
	}
	return cfg, nil
}

func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// reportLatency sets op_p50_ms, the median per-op latency, from seconds.
func (b *bench) reportLatency(secs []float64) {
	b.set("op_p50_ms", median(secs)*1e3)
}

// reportTail sets the per-layer tail diagnostic op_p90_ms from the traced
// pass's per-op seconds. It is not an end-to-end metric: with tens of ops
// per run (tune_ts, daemon_km), or the fleet's bimodal idle lease waits,
// the 90th percentile does not repeat within its bound across runs.
func (b *bench) reportTail(secs []float64) {
	b.set("op_p90_ms", quantile(secs, 0.9)*1e3)
}

// windowEnded records peak_rss_mb when the timed window of an untraced run
// ends, before the output checks (which tune and collect in process)
// could raise the process's peak.
func (b *bench) windowEnded() {
	b.set("peak_rss_mb", peakRSSMB())
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / (1 << 20)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// env records where a traced run ran.
func (b *bench) env() map[string]any {
	return map[string]any{
		"workload":   b.cfg.workload,
		"seed":       b.cfg.seed,
		"window_s":   b.cfg.window.Seconds(),
		"scale":      b.cfg.scale.name,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// snapDelta is the difference between two obs snapshots, read only
// through counters, histogram count/sum and span sums — never through
// bucket quantiles, which report bucket bounds.
type snapDelta struct{ before, after obs.Snapshot }

func (d snapDelta) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

func (d snapDelta) histCount(name string) float64 {
	return float64(d.after.Histograms[name].Count - d.before.Histograms[name].Count)
}

func (d snapDelta) histSum(name string) float64 {
	return d.after.Histograms[name].Sum - d.before.Histograms[name].Sum
}

// histMean is the mean of the observations made between the snapshots.
func (d snapDelta) histMean(name string) float64 {
	return ratio(d.histSum(name), d.histCount(name))
}

// spanSec is the wall time accumulated under a span path such as
// "tune/model" between the snapshots.
func (d snapDelta) spanSec(path string) float64 {
	return spanSec(d.after.Spans, path) - spanSec(d.before.Spans, path)
}

func spanSec(spans []obs.SpanSnapshot, path string) float64 {
	name, rest, nested := strings.Cut(path, "/")
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		if !nested {
			return s.Sec
		}
		return spanSec(s.Children, rest)
	}
	return 0
}

// modelLayerMetrics sets the sparksim/hm/tree/ga/model layer metrics from
// a snapshot delta covering n tunes whose collect, fit and search took the
// given total wall times.
func (b *bench) modelLayerMetrics(d snapDelta, n int, collectSec, fitSec, searchSec float64) {
	runs := d.counter("sparksim.runs")
	b.set("core.collect_s", ratio(collectSec, float64(n)))
	b.set("sparksim.run_us", ratio(collectSec, runs)*1e6)
	b.set("sparksim.tasks_per_run", ratio(d.counter("sparksim.tasks.launched"), runs))
	b.set("sparksim.aborted_ratio", ratio(d.counter("sparksim.runs.aborted"), runs))
	b.set("hm.fit_s", ratio(fitSec, float64(n)))
	b.set("hm.trees", ratio(d.counter("hm.trees"), d.counter("hm.fits")))
	b.set("tree.grow_us", ratio(d.spanSec("tree.grow"), d.counter("tree.grown"))*1e6)
	built, sub := d.counter("tree.hist.built"), d.counter("tree.hist.subtracted")
	b.set("tree.subtract_ratio", ratio(sub, built+sub))
	b.set("ga.search_s", ratio(searchSec, float64(n)))
	gaRuns := d.counter("ga.runs")
	evals := ratio(d.counter("ga.evaluations"), gaRuns)
	b.set("ga.evaluations", evals)
	ga := b.budget().GA
	b.set("ga.unique_ratio", evals/float64(ga.PopSize*(ga.Generations+1)))
	b.set("model.predict_us_per_row", d.histMean("model.predict.sec")*1e6)
}
