package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/conf"
	"repro/internal/dataset"
)

// RowTime is one completed collecting row: the job's index in the sweep
// order, the job itself, and its measured execution time. The index is
// the durable identity of the row — the sweep's job list is a pure
// function of (Space, Options, sizes), so a journaled (index, time) pair
// is enough to skip the row on resume.
type RowTime struct {
	Index   int
	Job     Job
	TimeSec float64
}

// CollectHooks customizes the resumable collecting path. The zero value
// runs a plain, non-durable collect at checkpoint-batch granularity.
type CollectHooks struct {
	// Known reports a row's already-measured execution time — fed from a
	// journal on resume. Rows with a known time are not re-executed; their
	// time lands in the collected set as-is.
	Known func(index int) (timeSec float64, ok bool)
	// OnBatch observes each scheduled batch's freshly executed rows,
	// index-ascending within the batch — the journal append + checkpoint
	// hook. It is called from worker goroutines concurrently;
	// implementations must synchronize.
	OnBatch func(rows []RowTime)
	// Progress receives the cumulative completed row count (known rows
	// included) after every batch, and once up front for the known rows.
	// Called from worker goroutines, one call at a time, so the counts it
	// sees never decrease.
	Progress func(done, total int)
	// BatchRows bounds the rows per scheduled batch — the checkpoint and
	// cancellation granularity (default 64). Batched executors amortize
	// per-run setup across one ExecuteBatch call per batch; results are
	// byte-identical for any value.
	BatchRows int
}

// defaultBatchRows is the checkpoint granularity when hooks don't choose:
// small enough that a killed daemon loses at most one batch of sweep
// work, large enough to keep ExecuteBatch's amortization.
const defaultBatchRows = 64

// CollectJobs returns the sweep's job list for the given sizes — the
// (configuration, datasize) pairs Collect and CollectResumable execute,
// in row order. The list is a pure function of (Space, Opt.Seed,
// Opt.NTrain, Opt.Sampler, sizesMB); durable collect journals rely on
// this to identify rows across daemon restarts by index alone.
func (t *Tuner) CollectJobs(sizesMB []float64) []Job {
	opt := t.Opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	sampler := opt.Sampler
	if sampler == nil {
		sampler = conf.UniformSampler{}
	}
	cfgs := sampler.Sample(t.Space, opt.NTrain, rng)
	jobs := make([]Job, opt.NTrain)
	for i := range jobs {
		jobs[i] = Job{Cfg: cfgs[i], DsizeMB: sizesMB[i%len(sizesMB)]}
	}
	return jobs
}

// ExecuteRows executes the named sweep rows on the tuner's executor and
// returns them as RowTimes in the given index order. This is the
// one-chunk slice of a collect sweep — the fleet coordinator's local
// fallback and the fleet workers' SimRunner use it — and runs on the
// same row runner as CollectResumable: the chunk splits into
// Opt.Parallelism equal batches that execute at once. Each row's time
// depends only on its job spec, so the times match a full
// CollectResumable run bit-for-bit.
func (t *Tuner) ExecuteRows(jobs []Job, indices []int) ([]RowTime, error) {
	chunk := make([]Job, len(indices))
	for k, i := range indices {
		if i < 0 || i >= len(jobs) {
			return nil, fmt.Errorf("core: row index %d outside sweep of %d rows", i, len(jobs))
		}
		chunk[k] = jobs[i]
	}
	par := t.Opt.withDefaults().Parallelism
	hooks := CollectHooks{BatchRows: (len(chunk) + par - 1) / par}
	times, _, err := t.runRows(context.Background(), 0, chunk, hooks)
	if err != nil {
		return nil, err
	}
	rows := make([]RowTime, len(indices))
	for k, i := range indices {
		rows[k] = RowTime{Index: i, Job: jobs[i], TimeSec: times[k]}
	}
	return rows, nil
}

// CollectResumable is Collect with durability seams: rows already known
// (journaled by a previous, interrupted run) are skipped, freshly
// executed rows are handed to OnBatch in checkpoint-sized batches as they
// complete, and ctx cancels the sweep between batches. Row times depend
// only on (Seed, Exec), never on batch boundaries, worker count, or which
// rows were resumed — so a CSV written from a resumed sweep matches an
// uninterrupted run exactly, at any GOMAXPROCS.
//
// On cancellation the error wraps ctx.Err(); rows that completed before
// the cancel were already delivered to OnBatch, so a journaling caller
// loses at most the batches in flight.
func (t *Tuner) CollectResumable(ctx context.Context, sizesMB []float64, hooks CollectHooks) (*dataset.Set, Overhead, error) {
	sp := t.Obs.StartSpan("collect")
	defer sp.End()
	return t.collect(ctx, sizesMB, hooks)
}

// collect is CollectResumable without its span, so Tune can time the
// phase as a child of its own root.
func (t *Tuner) collect(ctx context.Context, sizesMB []float64, hooks CollectHooks) (*dataset.Set, Overhead, error) {
	if len(sizesMB) == 0 {
		return nil, Overhead{}, fmt.Errorf("core: no dataset sizes")
	}
	jobs := t.CollectJobs(sizesMB)
	times, known, err := t.runRows(ctx, 0, jobs, hooks)
	if err != nil {
		return nil, Overhead{}, fmt.Errorf("core: collect interrupted: %w", err)
	}
	t.Obs.Counter("core.collect.jobs").Add(int64(len(jobs) - known))
	if known > 0 {
		t.Obs.Counter("core.collect.resumed.rows").Add(int64(known))
	}
	return t.AssembleSet(jobs, timesAt(times))
}

// runRows is the row executor behind every collecting path — Collect,
// CollectResumable, ExecuteRows (and through it the fleet's workers and
// local fallback), and the online tuner's screening, iteration and
// confirming rows. Row i of jobs has the global index base+i, under
// which hooks.Known is asked for it and hooks.OnBatch receives it.
//
// Rows Known reports are not executed. The rest queue in index order as
// hooks.BatchRows-sized batches (default 64) drained by
// min(Opt.Parallelism, pending) goroutines; a BatchExecutor gets each
// batch as one ExecuteBatch call, timed under the "core.collect.batch"
// span and counted by "core.collect.batches", and any other executor
// runs the batch row by row. ctx is checked between batches. After each
// batch, OnBatch observes its rows (concurrently across workers), then
// Progress receives the cumulative done count — the increment and the
// call are one serialized step, so reported counts never decrease.
//
// Returns every row's time in job order and how many came from Known;
// the error is ctx's when the run was cancelled. Results land by
// position, so they are identical for any batch size, worker count,
// executor kind, or GOMAXPROCS.
func (t *Tuner) runRows(ctx context.Context, base int, jobs []Job, hooks CollectHooks) ([]float64, int, error) {
	times := make([]float64, len(jobs))
	pending := make([]int, 0, len(jobs))
	for i := range jobs {
		if hooks.Known != nil {
			if sec, ok := hooks.Known(base + i); ok {
				times[i] = sec
				continue
			}
		}
		pending = append(pending, i)
	}
	known := len(jobs) - len(pending)

	var progressMu sync.Mutex
	done := known
	progress := func(n int) {
		if hooks.Progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		done += n
		hooks.Progress(done, len(jobs))
	}
	progress(0)

	batchRows := hooks.BatchRows
	if batchRows <= 0 {
		batchRows = defaultBatchRows
	}
	batches := make(chan []int, (len(pending)+batchRows-1)/batchRows)
	for lo := 0; lo < len(pending); lo += batchRows {
		batches <- pending[lo:min(lo+batchRows, len(pending))]
	}
	close(batches)

	be, batched := t.Exec.(BatchExecutor)
	var wg sync.WaitGroup
	for c := min(t.Opt.withDefaults().Parallelism, len(pending)); c > 0; c-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var jbuf []Job
			for idx := range batches {
				if ctx.Err() != nil {
					return // abandon; completed batches were already delivered
				}
				jbuf = jbuf[:0]
				for _, i := range idx {
					jbuf = append(jbuf, jobs[i])
				}
				var sec []float64
				if batched {
					sp := t.Obs.StartSpan("core.collect.batch")
					sec = be.ExecuteBatch(jbuf)
					sp.End()
					t.Obs.Counter("core.collect.batches").Inc()
				} else {
					sec = make([]float64, len(jbuf))
					for k, j := range jbuf {
						sec[k] = t.Exec.Execute(j.Cfg, j.DsizeMB)
					}
				}
				for k, i := range idx {
					times[i] = sec[k]
				}
				if hooks.OnBatch != nil {
					rows := make([]RowTime, len(idx))
					for k, i := range idx {
						rows[k] = RowTime{Index: base + i, Job: jobs[i], TimeSec: sec[k]}
					}
					hooks.OnBatch(rows)
				}
				progress(len(idx))
			}
		}()
	}
	wg.Wait()
	return times, known, ctx.Err()
}

// AssembleSet builds a sweep's training set: every job in index order
// with the time timeOf reports for it. It is where collected times are
// checked — each row must have a finite, positive time — and it adds the
// set's cluster time to "core.collect.cluster.sec". The local collector
// feeds it the row runner's times; the daemon's fleet path feeds it the
// merged journal.
func (t *Tuner) AssembleSet(jobs []Job, timeOf func(index int) (timeSec float64, ok bool)) (*dataset.Set, Overhead, error) {
	set := dataset.NewSet(t.Space)
	clusterSec, err := addRows(set, 0, jobs, timeOf)
	if err != nil {
		return nil, Overhead{}, err
	}
	t.Obs.Float("core.collect.cluster.sec").Add(clusterSec)
	return set, Overhead{CollectClusterHours: clusterSec / 3600}, nil
}

// addRows appends jobs to set with their times (row i has the global
// index base+i in errors) and returns the rows' total cluster seconds.
func addRows(set *dataset.Set, base int, jobs []Job, timeOf func(i int) (float64, bool)) (float64, error) {
	var clusterSec float64
	for i, j := range jobs {
		sec, ok := timeOf(i)
		if !ok {
			return 0, fmt.Errorf("core: row %d has no recorded time", base+i)
		}
		if sec <= 0 || math.IsNaN(sec) || math.IsInf(sec, 0) {
			return 0, fmt.Errorf("core: execution %d returned time %v", base+i, sec)
		}
		set.Add(j.Cfg, j.DsizeMB, sec)
		clusterSec += sec
	}
	return clusterSec, nil
}

// timesAt adapts a fully populated times slice to addRows' lookup.
func timesAt(times []float64) func(int) (float64, bool) {
	return func(i int) (float64, bool) { return times[i], true }
}
