package serve

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/journal"
	"repro/internal/workloads"
)

// SetFleet attaches a coordinator: collect jobs submitted after this
// shard across its registered workers whenever any are live, and fall
// back to the local pool when none are. Called once at daemon startup
// (before jobs run), so no locking.
func (m *Manager) SetFleet(c *fleet.Coordinator) { m.fleet = c }

// Fleet returns the attached coordinator (nil without -coordinator).
func (m *Manager) Fleet() *fleet.Coordinator { return m.fleet }

// collectFleet is collectDurable's sharded path: the sweep's pending
// rows run on the fleet via the coordinator, merged rows land in the
// same journal the local path uses, and the finished journal compacts to
// its canonical index-sorted form before the set is built. The resulting
// set is byte-identical to the local path's — rows times are a pure
// function of each row's spec, and the set is assembled in index order
// from the journal regardless of which worker produced each row.
func (m *Manager) collectFleet(ctx context.Context, id int64, t *core.Tuner, w *workloads.Workload, sizes []float64, jl *Journal) (*dataset.Set, core.Overhead, error) {
	spec := fleet.SweepSpec{
		Workload: w.Abbr,
		Seed:     t.Opt.Seed,
		NTrain:   t.Opt.NTrain,
		SizesMB:  sizes,
		MetaHash: journal.MetaHash(w.Abbr, t.Opt.Seed, t.Opt.NTrain, sizes),
	}
	jobs := t.CollectJobs(sizes)
	m.obs.Counter("serve.collect.fleet.sweeps").Inc()
	err := m.fleet.RunSweep(ctx, id, spec, fleet.SweepHooks{
		Known: jl.Known,
		OnRows: func(rows []core.RowTime) error {
			if err := jl.Append(rows); err != nil {
				return err
			}
			m.obs.Counter("serve.collect.checkpoints").Inc()
			if m.testBatchHook != nil {
				m.testBatchHook(jl.Rows())
			}
			return nil
		},
		Progress: func(done, total int) {
			m.setProgress(id, Progress{Phase: "collect", Done: done, Total: total})
		},
		RunLocal: func(ctx context.Context, indices []int) ([]core.RowTime, error) {
			return t.ExecuteRows(jobs, indices)
		},
	})
	if err != nil {
		return nil, core.Overhead{}, err
	}

	// Canonicalize the merged journal: index-sorted, duplicates (a
	// zombie's chunk that also re-ran after lease expiry) dropped.
	dropped, err := jl.Compact()
	if err != nil {
		return nil, core.Overhead{}, fmt.Errorf("serve: compacting journal: %w", err)
	}
	m.obs.Counter("serve.journal.compactions").Inc()
	m.obs.Counter("serve.journal.compact.dropped").Add(int64(dropped))

	// Build the set exactly as the local collector does: every row in
	// index order, times from the journal.
	return t.AssembleSet(jobs, jl.Known)
}
