package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workloads"
)

const (
	// fleetPanel is how many fixed seeds fleet_ts sweeps draw from.
	fleetPanel = 64
	// fleetTuned is how many sweeps are tuned from (model and search over
	// the fleet-merged rows) for the quality metrics.
	fleetTuned = 5
)

// chunkTimer wraps the workers' runner and accumulates chunk execution
// time, attributing chunks to the sweep in flight in a traced pass.
type chunkTimer struct {
	mu     sync.Mutex
	exec   time.Duration
	chunks int
	rows   int
	// tr, op and root name the traced sweep the next chunks belong to.
	tr       *tracer
	op, root int64
}

func (c *chunkTimer) newRunner(spec fleet.SweepSpec, parallelism int) (fleet.RunnerFunc, error) {
	inner, err := fleet.SimRunner(spec, parallelism)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, indices []int) ([]fleet.ResultRow, error) {
		t0 := time.Now()
		rows, err := inner(ctx, indices)
		t1 := time.Now()
		c.mu.Lock()
		defer c.mu.Unlock()
		c.exec += t1.Sub(t0)
		c.chunks++
		c.rows += len(indices)
		c.tr.record("fleet.chunk_exec", c.op, c.root, t0, t1)
		return rows, err
	}, nil
}

// snapshot returns the accumulated totals and resets them.
func (c *chunkTimer) take() (exec time.Duration, chunks, rows int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	exec, chunks, rows = c.exec, c.chunks, c.rows
	c.exec, c.chunks, c.rows = 0, 0, 0
	return
}

// fleetRig is a coordinator behind a loopback listener plus one
// in-process worker per CPU (Parallelism 1 each), all at the fleet's
// default lease, chunk and retry settings.
type fleetRig struct {
	reg     *obs.Registry
	coord   *fleet.Coordinator
	hs      *http.Server
	served  chan struct{}
	stop    context.CancelFunc
	workers sync.WaitGroup
	timer   *chunkTimer
	nextID  int64
	workerN int
}

// startFleet starts the coordinator, queues a small warm-up sweep, then
// starts the workers and returns once they have registered and merged it.
// Queuing the sweep first means the workers' first lease requests find
// work, so every set-up walks the same path (registration, leases,
// results, merge) instead of sometimes adding an idle lease wait.
func startFleet(ctx context.Context, warmSeed int64, sizes []float64) (*fleetRig, error) {
	r := &fleetRig{reg: obs.NewRegistry(), served: make(chan struct{}), timer: &chunkTimer{}, workerN: runtime.NumCPU()}
	r.coord = fleet.NewCoordinator(fleet.Options{Obs: r.reg})
	mux := http.NewServeMux()
	r.coord.Routes(mux, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.hs = &http.Server{Handler: mux}
	go func() {
		defer close(r.served)
		r.hs.Serve(ln)
	}()
	wctx, stop := context.WithCancel(ctx)
	r.stop = stop
	queued := make(chan struct{})
	warm := make(chan error, 1)
	go func() {
		var once sync.Once
		_, err := r.sweep(wctx, warmSeed, 200, sizes, func() { once.Do(func() { close(queued) }) })
		warm <- err
	}()
	<-queued
	for i := 0; i < r.workerN; i++ {
		w := fleet.NewWorker(fleet.WorkerOptions{
			Coordinator: "http://" + ln.Addr().String(),
			Name:        fmt.Sprintf("bench-%d", i),
			Parallelism: 1,
			NewRunner:   r.timer.newRunner,
		})
		r.workers.Add(1)
		go func() {
			defer r.workers.Done()
			w.Run(wctx)
		}()
	}
	select {
	case err = <-warm:
	case <-time.After(30 * time.Second):
		err = fmt.Errorf("warm-up sweep did not finish")
	}
	if err == nil && r.coord.LiveWorkers() < r.workerN {
		err = fmt.Errorf("only %d of %d fleet workers registered", r.coord.LiveWorkers(), r.workerN)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	r.timer.take()
	return r, nil
}

// close stops the workers and the listener and waits for both.
func (r *fleetRig) close() {
	r.stop()
	r.workers.Wait()
	r.hs.Close()
	<-r.served
}

// sweepRun is one RunSweep call and the rows its OnRows hook merged.
type sweepRun struct {
	seed   int64
	times  []float64
	merged int
	bad    int // duplicate or out-of-range row indices
	sec    float64
}

// sweep runs one TeraSort collect sweep through the fleet and merges its
// rows in memory, the way the daemon's OnRows hook merges them into the
// journal. queued, when non-nil, is called as the coordinator takes the
// sweep in (its up-front Progress call).
func (r *fleetRig) sweep(ctx context.Context, seed int64, ntrain int, sizes []float64, queued func()) (sweepRun, error) {
	run := sweepRun{seed: seed, times: make([]float64, ntrain)}
	seen := make([]bool, ntrain)
	var mu sync.Mutex
	spec := fleet.SweepSpec{Workload: "TS", Seed: seed, NTrain: ntrain, SizesMB: sizes,
		MetaHash: serve.MetaHash("TS", seed, ntrain, sizes)}
	r.nextID++
	t0 := time.Now()
	hooks := fleet.SweepHooks{
		OnRows: func(rows []core.RowTime) error {
			mu.Lock()
			defer mu.Unlock()
			for _, row := range rows {
				if row.Index < 0 || row.Index >= ntrain || seen[row.Index] {
					run.bad++
					continue
				}
				seen[row.Index] = true
				run.times[row.Index] = row.TimeSec
				run.merged++
			}
			return nil
		},
	}
	if queued != nil {
		hooks.Progress = func(int, int) { queued() }
	}
	err := r.coord.RunSweep(ctx, r.nextID, spec, hooks)
	run.sec = time.Since(t0).Seconds()
	return run, err
}

// runFleetTS is the fleet_ts workload: TeraSort collect sweeps at the
// paper's ntrain, one after another, sharded by a coordinator across one
// worker per CPU over the lease/heartbeat/results protocol.
func runFleetTS(ctx context.Context, b *bench) error {
	w := workloads.TeraSort()
	seeds := panelSeeds(b.cfg.seed, fleetPanel)
	bud := b.budget()
	lo, hi := trainingRange(w)
	sizes := newTuner(w, bud, 1, nil).TrainingSizesMB(lo, hi)
	type state struct {
		r *fleetRig
		q *quality
	}
	st, err := setupRepeated(b, func(rep int) (state, error) {
		r, err := startFleet(ctx, 900+int64(rep), sizes)
		if err != nil {
			return state{}, err
		}
		return state{r, newQuality(w)}, nil
	}, func(s state) { s.r.close() })
	if err != nil {
		return err
	}
	defer st.r.close()

	pass := func(window time.Duration, traced bool) []sweepRun {
		var runs []sweepRun
		start := time.Now()
		for i := 0; time.Since(start) < window || i < b.cfg.scale.minOps; i++ {
			seed := seeds[i%len(seeds)]
			op := int64(i + 1)
			var root int64
			if traced {
				root = b.tr.reserve("bench.sweep", op, 0)
				st.r.timer.mu.Lock()
				st.r.timer.tr, st.r.timer.op, st.r.timer.root = b.tr, op, root
				st.r.timer.mu.Unlock()
			}
			t0 := time.Now()
			run, err := st.r.sweep(ctx, seed, bud.NTrain, sizes, nil)
			b.tr.fill(root, t0, time.Now())
			b.op(err == nil)
			if err != nil {
				b.invalid("sweep seed %d: %v", seed, err)
				continue
			}
			runs = append(runs, run)
		}
		st.r.timer.mu.Lock()
		st.r.timer.tr = nil
		st.r.timer.mu.Unlock()
		return runs
	}
	secsOf := func(runs []sweepRun) []float64 {
		out := make([]float64, len(runs))
		for i, r := range runs {
			out[i] = r.sec
		}
		return out
	}

	var runs []sweepRun
	if !b.cfg.trace {
		runs = pass(b.cfg.window, false)
		b.windowEnded()
		if len(runs) == 0 {
			return fmt.Errorf("no sweep finished")
		}
		secs := secsOf(runs)
		b.reportLatency(secs)
		b.set("ops_per_s", float64(len(runs)*bud.NTrain)/sum(secs))
	} else {
		untraced := pass(b.cfg.window/2, false)
		st.r.timer.take()
		before := st.r.reg.Snapshot()
		runs = pass(b.cfg.window/2, true)
		delta := snapDelta{before, st.r.reg.Snapshot()}
		exec, chunks, rows := st.r.timer.take()
		if len(untraced) == 0 || len(runs) == 0 {
			return fmt.Errorf("no sweep finished")
		}
		secs := secsOf(runs)
		b.set("fleet.chunk_exec_ms", ratio(exec.Seconds(), float64(chunks))*1e3)
		b.set("fleet.protocol_share", 1-exec.Seconds()/(sum(secs)*float64(st.r.workerN)))
		b.set("fleet.leases_granted", delta.counter("fleet.leases.granted"))
		b.set("fleet.leases_requeued_expired", delta.counter("fleet.leases.requeued")+delta.counter("fleet.leases.expired"))
		b.set("fleet.results_rejected", delta.counter("fleet.results.rejected"))
		b.set("sparksim.run_us", ratio(exec.Seconds(), float64(rows))*1e6)
		b.set("obs.trace_overhead", median(secs)/median(secsOf(untraced))-1)
		b.reportTail(secs)
		runs = append(untraced, runs...)
	}
	if err := b.checkSweeps(w, bud, sizes, runs, st.q); err != nil {
		return err
	}
	if b.cfg.trace {
		b.set("hm.pred_error", ratio(st.q.predErr, float64(st.q.n)))
		b.layersNotRun("core.collect_s", "sparksim.tasks_per_run", "sparksim.aborted_ratio",
			"hm.fit_s", "hm.trees", "tree.grow_us", "tree.subtract_ratio",
			"ga.search_s", "ga.evaluations", "ga.unique_ratio", "model.predict_us_per_row",
			"model.batch1_us_per_row", "model.batchN_us_per_row",
			"serve.memo_hit_ratio", "serve.batch_rows", "serve.modelcache_hit_ratio",
			"serve.predict_server_us", "serve.http_overhead_us", "serve.job_overhead_s",
			"predict.repeat_share", "predict.late_ms", "predict.p99_us",
			"journal.append_us", "registry.save_ms", "registry.load_ms")
	}
	return nil
}

// checkSweeps verifies every sweep merged exactly NTrain rows whose times
// equal a local Tuner.Collect of the same spec, then tunes (TuneCollected,
// untimed) from the fleet-merged rows of the fleetTuned lowest panel seeds
// the run swept, for the quality metrics. A run sweeps the whole panel, so
// the graded tunes are the same in every run.
func (b *bench) checkSweeps(w *workloads.Workload, bud experiments.Budget, sizes []float64, runs []sweepRun, q *quality) error {
	// Sweeps of one panel seed repeat the same spec; collect it locally once.
	locals := map[int64][]float64{}
	valid := map[int64]sweepRun{}
	var allHours float64
	var checked int
	for _, run := range runs {
		if run.merged != bud.NTrain || run.bad != 0 {
			b.fail("sweep seed %d merged %d of %d rows (%d duplicate or out of range)", run.seed, run.merged, bud.NTrain, run.bad)
			continue
		}
		local, ok := locals[run.seed]
		if !ok {
			set, _, err := newTuner(w, bud, run.seed, nil).Collect(sizes)
			if err != nil {
				return fmt.Errorf("local collect seed %d: %w", run.seed, err)
			}
			for _, v := range set.Vectors {
				local = append(local, v.TimeSec)
			}
			locals[run.seed] = local
		}
		if !bitsEqual(local, run.times) {
			b.fail("sweep seed %d: fleet-merged times differ from a local collect", run.seed)
			continue
		}
		allHours += sum(run.times) / 3600
		checked++
		valid[run.seed] = run
	}

	seeds := make([]int64, 0, len(valid))
	for s := range valid {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	target := middleTargetMB(w)
	for _, seed := range seeds[:min(fleetTuned, len(seeds))] {
		run := valid[seed]
		t := newTuner(w, bud, seed, nil)
		set := dataset.NewSet(conf.StandardSpace())
		for k, job := range t.CollectJobs(sizes) {
			set.Add(job.Cfg, job.DsizeMB, run.times[k])
		}
		hours := sum(run.times) / 3600
		res, err := t.TuneCollected(set, core.Overhead{CollectClusterHours: hours}, []float64{target}, nil)
		if err != nil {
			return fmt.Errorf("tuning from sweep seed %d: %w", seed, err)
		}
		if msg := q.add(res.Best[target].Vector(), res.PredictedSec[target], hours); msg != "" {
			b.fail("tune from sweep seed %d: %s", seed, msg)
		}
	}
	if !b.cfg.trace {
		q.report(b)
		// Collecting cost is known for every sweep, not only the tuned ones.
		b.set("collect_cluster_h", ratio(allHours, float64(checked)))
	}
	return nil
}
