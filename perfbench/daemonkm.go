package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// jobPanel is how many fixed tuning seeds daemon_km draws from. A 25 s
// window at the paper budget runs about 13 KMeans jobs on a 2-core
// machine, so a run covers the whole panel (see tunePanel).
const jobPanel = 12

// distinctTuneSpec is the tune job for seed. uses counts earlier
// submissions per seed; a repeated seed gets a fresh registry model name
// (which does not change the tuned result), because the daemon folds a
// spec identical to a done job into that job.
func distinctTuneSpec(uses map[int64]int, abbr string, seed int64, quick bool) serve.JobSpec {
	spec := serve.JobSpec{Type: serve.JobTune, Workload: abbr, Seed: seed, Quick: quick}
	if n := uses[seed]; n > 0 {
		spec.Model = fmt.Sprintf("%s-%d", strings.ToLower(abbr), n)
	}
	uses[seed]++
	return spec
}

// jobPhases are the client-observed transition times of one job.
type jobPhases struct {
	collectStart, collected, modeled, searched time.Time
}

func (p *jobPhases) observe(j *serve.Job, at time.Time) {
	pr := j.Progress
	switch {
	case pr.Phase == "collect" && p.collectStart.IsZero():
		p.collectStart = at
		if pr.Total > 0 && pr.Done == pr.Total {
			p.collected = at
		}
	case pr.Phase == "collect" && pr.Total > 0 && pr.Done == pr.Total && p.collected.IsZero():
		p.collected = at
	case pr.Phase == "model" && p.modeled.IsZero():
		p.modeled = at
	case pr.Phase == "search" && p.searched.IsZero():
		p.searched = at
	}
}

// record turns the observed transitions into spans under the job's root.
func (p *jobPhases) record(tr *tracer, op int64, submit, done time.Time) {
	root := tr.record("bench.job", op, 0, submit, done)
	marks := []struct {
		name string
		at   time.Time
	}{
		{"serve.queue", submit}, {"core.collect", p.collectStart}, {"hm.fit", p.collected},
		{"ga.search", p.modeled}, {"serve.finish", p.searched}, {"", done},
	}
	for i := 0; i+1 < len(marks); i++ {
		lo, hi := marks[i].at, marks[i+1].at
		if !lo.IsZero() && !hi.IsZero() && hi.After(lo) {
			tr.record(marks[i].name, op, root, lo, hi)
		}
	}
}

// runDaemonKM is the daemon_km workload: one client submits KMeans tune
// jobs at the paper budget to an in-process dacd over POST /jobs, one at
// a time, and polls each to done.
func runDaemonKM(ctx context.Context, b *bench) error {
	w := workloads.KMeans()
	seeds := panelSeeds(b.cfg.seed, jobPanel)
	type state struct {
		d *daemon
		q *quality
	}
	st, err := setupRepeated(b, func(rep int) (state, error) {
		d, err := startDaemon(filepath.Join(b.dir, fmt.Sprintf("daemon-%d", rep)))
		if err != nil {
			return state{}, err
		}
		// One smoke-budget job walks the whole job path before timing.
		warm := serve.JobSpec{Type: serve.JobTune, Workload: "KM", Seed: 900, Quick: true, Model: "warmup"}
		if _, _, _, err := d.runJob(ctx, warm, nil); err != nil {
			d.close()
			return state{}, err
		}
		return state{d, newQuality(w)}, nil
	}, func(s state) { s.d.close() })
	if err != nil {
		return err
	}
	defer st.d.close()
	uses := map[int64]int{}

	type jobRun struct {
		seed   int64
		id     int64
		vector []float64
		sec    float64
		phases jobPhases
		model  string
	}
	pass := func(window time.Duration, traced bool) []jobRun {
		var runs []jobRun
		start := time.Now()
		for i := 0; time.Since(start) < window || i < b.cfg.scale.minOps; i++ {
			seed := seeds[i%len(seeds)]
			r := jobRun{seed: seed}
			var onPoll func(*serve.Job, time.Time)
			if traced {
				onPoll = r.phases.observe
			}
			submit := time.Now()
			res, id, dur, err := st.d.runJob(ctx, distinctTuneSpec(uses, "KM", seed, b.cfg.scale.quick), onPoll)
			b.op(err == nil)
			if err != nil {
				b.invalid("job seed %d: %v", seed, err)
				continue
			}
			r.id, r.sec, r.vector = id, dur.Seconds(), res.Vector
			r.model = res.Model
			if traced {
				r.phases.record(b.tr, int64(i+1), submit, submit.Add(dur))
			}
			if msg := st.q.add(res.Vector, res.PredictedSec, res.ClusterHours); msg != "" {
				b.fail("job seed %d: %s", seed, msg)
			}
			runs = append(runs, r)
		}
		return runs
	}
	secsOf := func(runs []jobRun) []float64 {
		out := make([]float64, len(runs))
		for i, r := range runs {
			out[i] = r.sec
		}
		return out
	}

	var first jobRun
	if !b.cfg.trace {
		runs := pass(b.cfg.window, false)
		b.windowEnded()
		if len(runs) == 0 {
			return fmt.Errorf("no job finished")
		}
		secs := secsOf(runs)
		b.reportLatency(secs)
		b.set("ops_per_s", float64(len(secs))/sum(secs))
		st.q.report(b)
		first = runs[0]
	} else {
		untraced := pass(b.cfg.window/2, false)
		before, err := st.d.metrics(ctx)
		if err != nil {
			return err
		}
		st.q = newQuality(w)
		traced := pass(b.cfg.window/2, true)
		after, err := st.d.metrics(ctx)
		if err != nil {
			return err
		}
		if len(untraced) == 0 || len(traced) == 0 {
			return fmt.Errorf("no job finished")
		}
		first = untraced[0]
		last := traced[len(traced)-1]
		if err := b.daemonLayerMetrics(ctx, st.d, snapDelta{before, after}, secsOf(traced), w, last.id, last.seed, last.model); err != nil {
			return err
		}
		b.set("hm.pred_error", ratio(st.q.predErr, float64(st.q.n)))
		b.set("obs.trace_overhead", median(secsOf(traced))/median(secsOf(untraced))-1)
		b.reportTail(secsOf(traced))
	}

	// The daemon promises (tunerFor) that a tune job's result equals the
	// library pipeline's for the same spec; check it on the first job.
	lo, hi := trainingRange(w)
	target := middleTargetMB(w)
	lib, err := newTuner(w, b.budget(), first.seed, nil).Tune(lo, hi, []float64{target})
	if err != nil {
		return fmt.Errorf("library tune seed %d: %w", first.seed, err)
	}
	want := lib.Best[target].Vector()
	if !bitsEqual(want, first.vector) {
		b.fail("job seed %d: daemon result %v differs from library Tune %v", first.seed, first.vector, want)
	}
	return nil
}

// daemonLayerMetrics sets daemon_km's per-layer metrics from the /metrics
// delta over the traced pass, plus timed journal and registry calls on
// the last job's rows and model.
func (b *bench) daemonLayerMetrics(ctx context.Context, d *daemon, delta snapDelta, secs []float64, w *workloads.Workload, jobID, seed int64, modelName string) error {
	n := len(secs)
	collect, fit, search := delta.spanSec("collect"), delta.spanSec("tune/model"), delta.spanSec("tune/search")
	b.modelLayerMetrics(delta, n, collect, fit, search)
	b.set("serve.job_overhead_s", mean(secs)-(collect+fit+search)/float64(n))

	appendUS, err := b.timeJournalAppend(d, w, jobID, seed)
	if err != nil {
		return err
	}
	b.set("journal.append_us", appendUS)
	m, err := b.timeRegistry(d, modelName)
	if err != nil {
		return err
	}
	rows := randomRows(w, b.cfg.seed, 256)
	b.set("model.batch1_us_per_row", timePredictBatch(m, rows, 1))
	b.set("model.batchN_us_per_row", timePredictBatch(m, rows, b.budget().GA.PopSize))
	b.layersNotRun("serve.memo_hit_ratio", "serve.batch_rows", "serve.modelcache_hit_ratio",
		"serve.predict_server_us", "serve.http_overhead_us",
		"predict.repeat_share", "predict.late_ms", "predict.p99_us",
		"fleet.chunk_exec_ms", "fleet.protocol_share", "fleet.leases_granted",
		"fleet.leases_requeued_expired", "fleet.results_rejected")
	return nil
}

// timeJournalAppend reads a finished job's rows back from its journal and
// times serve.Journal.Append of them, in the collector's 64-row batches,
// into a fresh journal on the same disk. It returns µs per Append.
func (b *bench) timeJournalAppend(d *daemon, w *workloads.Workload, jobID, seed int64) (float64, error) {
	bud := b.budget()
	t := newTuner(w, bud, seed, nil)
	lo, hi := trainingRange(w)
	sizes := t.TrainingSizesMB(lo, hi)
	meta := serve.MetaHash(w.Abbr, seed, bud.NTrain, sizes)
	src, err := serve.OpenJournal(filepath.Join(d.dir, "journals", fmt.Sprintf("job-%d.journal", jobID)), meta)
	if err != nil {
		return 0, fmt.Errorf("reopening job %d journal: %w", jobID, err)
	}
	rows := make([]core.RowTime, 0, bud.NTrain)
	for i := 0; i < bud.NTrain; i++ {
		sec, ok := src.Known(i)
		if !ok {
			src.Close()
			return 0, fmt.Errorf("job %d journal lacks row %d", jobID, i)
		}
		rows = append(rows, core.RowTime{Index: i, TimeSec: sec})
	}
	if err := src.Close(); err != nil {
		return 0, err
	}
	dst, err := serve.OpenJournal(filepath.Join(b.dir, "append-bench.journal"), meta)
	if err != nil {
		return 0, err
	}
	const batch = 64
	var calls int
	start := time.Now()
	for lo := 0; lo < len(rows); lo += batch {
		if err := dst.Append(rows[lo:min(lo+batch, len(rows))]); err != nil {
			dst.Close()
			return 0, err
		}
		calls++
	}
	elapsed := time.Since(start)
	if err := dst.Close(); err != nil {
		return 0, err
	}
	return elapsed.Seconds() / float64(calls) * 1e6, nil
}

// timeRegistry times ModelRegistry.Load of the daemon's latest version of
// name and ModelRegistry.Save of it into a fresh registry on the same
// disk, and returns the loaded model.
func (b *bench) timeRegistry(d *daemon, name string) (model.Model, error) {
	reg, err := serve.NewModelRegistry(d.registryDir())
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	m, meta, err := reg.Load(name, 0)
	if err != nil {
		return nil, fmt.Errorf("loading model %q: %w", name, err)
	}
	b.set("registry.load_ms", time.Since(t0).Seconds()*1e3)
	dst, err := serve.NewModelRegistry(filepath.Join(b.dir, "registry-bench"))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if _, err := dst.Save(name, m, meta); err != nil {
		return nil, fmt.Errorf("saving model %q: %w", name, err)
	}
	b.set("registry.save_ms", time.Since(t1).Seconds()*1e3)
	return m, nil
}

// bitsEqual reports whether two vectors are identical bit for bit.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
