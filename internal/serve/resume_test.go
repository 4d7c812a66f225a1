package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/sparksim"
	"repro/internal/workloads"
)

// testTuner builds the collect tuner the resume tests drive — small
// enough to run many interrupted sweeps, wired like the daemon's.
func testTuner(t *testing.T, ntrain int, seed int64, parallelism int) (*core.Tuner, *workloads.Workload, []float64) {
	t.Helper()
	w, err := workloads.ByAbbr("TS")
	if err != nil {
		t.Fatal(err)
	}
	sim := sparksim.New(cluster.Standard(), seed+7)
	tuner := &core.Tuner{
		Space: conf.StandardSpace(),
		Exec:  core.NewSimExecutor(sim, &w.Program),
		Opt:   core.Options{NTrain: ntrain, Seed: seed, Parallelism: parallelism},
	}
	lo, hi := trainingRange(w)
	return tuner, w, tuner.TrainingSizesMB(lo, hi)
}

// collectCSV is the collect oracle: every row of the tuner's sweep run
// one at a time through Exec.Execute, in index order, with no runner in
// between. A row's time depends only on its job, so every collecting
// path — local pool, fleet, resumed journal — must reproduce this CSV.
func collectCSV(t *testing.T, tuner *core.Tuner, sizes []float64) []byte {
	t.Helper()
	set := dataset.NewSet(tuner.Space)
	for _, j := range tuner.CollectJobs(sizes) {
		set.Add(j.Cfg, j.DsizeMB, tuner.Exec.Execute(j.Cfg, j.DsizeMB))
	}
	var buf bytes.Buffer
	if err := set.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// simRunnerCSV collects the sweep through the fleet workers' production
// SimRunner at the given parallelism, fed shuffled ascending chunks the
// way a coordinator hands them out, and assembles the CSV.
func simRunnerCSV(t *testing.T, tuner *core.Tuner, abbr string, sizes []float64, parallelism int) []byte {
	t.Helper()
	spec := fleet.SweepSpec{Workload: abbr, Seed: tuner.Opt.Seed, NTrain: tuner.Opt.NTrain, SizesMB: sizes}
	run, err := fleet.SimRunner(spec, parallelism)
	if err != nil {
		t.Fatal(err)
	}
	// Chunk indices come from the coordinator: a descending or
	// out-of-sweep chunk must be refused, not run.
	for _, bad := range [][]int{{3, 2}, {-1, 0}, {spec.NTrain - 1, spec.NTrain}} {
		if _, err := run(context.Background(), bad); err == nil {
			t.Fatalf("SimRunner accepted malformed chunk %v", bad)
		}
	}
	// A worker shutting down must not start a chunk.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := run(cancelled, []int{0, 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SimRunner on a cancelled ctx: err = %v, want context.Canceled", err)
	}
	rng := rand.New(rand.NewSource(int64(parallelism)))
	var chunks [][]int
	for lo := 0; lo < spec.NTrain; {
		hi := min(lo+1+rng.Intn(17), spec.NTrain)
		chunk := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			chunk = append(chunk, i)
		}
		chunks = append(chunks, chunk)
		lo = hi
	}
	rng.Shuffle(len(chunks), func(a, b int) { chunks[a], chunks[b] = chunks[b], chunks[a] })
	times := make(map[int]float64, spec.NTrain)
	for _, chunk := range chunks {
		rows, err := run(context.Background(), chunk)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			times[r.Index] = r.TimeSec
		}
	}
	set, _, err := tuner.AssembleSet(tuner.CollectJobs(sizes), func(i int) (float64, bool) {
		sec, ok := times[i]
		return sec, ok
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := set.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runJournaledCollect drives one journal-backed sweep, cancelling the
// context once the journal holds at least killAfter rows (0 = run to
// completion). Returns the finished set's CSV when the sweep completed.
func runJournaledCollect(t *testing.T, tuner *core.Tuner, sizes []float64, path, meta string, killAfter int) ([]byte, error) {
	t.Helper()
	jl, err := OpenJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	set, _, err := tuner.CollectResumable(ctx, sizes, core.CollectHooks{
		Known: jl.Known,
		OnBatch: func(rows []core.RowTime) {
			if err := jl.Append(rows); err != nil {
				t.Error(err)
			}
			if killAfter > 0 && jl.Rows() >= killAfter {
				cancel() // the "SIGKILL": no further batches run
			}
		},
		BatchRows: 8,
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := set.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), nil
}

// TestKillAndResumeByteIdentical is the durable collect's acceptance
// test: a collect killed mid-sweep at several row offsets and resumed
// against the same journal must finish with a CSV byte-identical to the
// serial oracle — at GOMAXPROCS 1 and 4 — without re-running completed
// rows. The fleet workers' SimRunner must match the same oracle.
func TestKillAndResumeByteIdentical(t *testing.T) {
	const ntrain = 120
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)

			tuner, w, sizes := testTuner(t, ntrain, 1, 0)
			ref := collectCSV(t, tuner, sizes)
			meta := MetaHash(w.Abbr, 1, ntrain, sizes)

			// The fleet workers' runner reproduces the oracle at any
			// parallelism, whatever order its chunks arrive in.
			for _, parallelism := range []int{1, 3} {
				if got := simRunnerCSV(t, tuner, w.Abbr, sizes, parallelism); !bytes.Equal(got, ref) {
					t.Fatalf("SimRunner parallelism=%d: CSV differs from the serial oracle", parallelism)
				}
			}
			for _, killAfter := range []int{1, 16, 57, 113} {
				path := filepath.Join(t.TempDir(), "sweep.journal")
				if _, err := runJournaledCollect(t, tuner, sizes, path, meta, killAfter); err == nil {
					t.Fatalf("killAfter=%d: interrupted sweep reported success", killAfter)
				}

				// "Restart": reopen the journal; completed rows must not run
				// again.
				jl, err := OpenJournal(path, meta)
				if err != nil {
					t.Fatal(err)
				}
				journaled := jl.Rows()
				jl.Close()
				if journaled < killAfter {
					t.Fatalf("killAfter=%d: only %d rows journaled", killAfter, journaled)
				}
				var reruns atomic.Int64
				jl2, err := OpenJournal(path, meta)
				if err != nil {
					t.Fatal(err)
				}
				set, _, err := tuner.CollectResumable(context.Background(), sizes, core.CollectHooks{
					Known: func(i int) (float64, bool) {
						sec, ok := jl2.Known(i)
						return sec, ok
					},
					OnBatch: func(rows []core.RowTime) {
						for _, r := range rows {
							if _, ok := jl2.Known(r.Index); ok {
								reruns.Add(1)
							}
						}
						if err := jl2.Append(rows); err != nil {
							t.Error(err)
						}
					},
					BatchRows: 8,
				})
				jl2.Close()
				if err != nil {
					t.Fatalf("killAfter=%d: resume failed: %v", killAfter, err)
				}
				if n := reruns.Load(); n != 0 {
					t.Fatalf("killAfter=%d: %d completed rows were re-executed", killAfter, n)
				}
				var buf bytes.Buffer
				if err := set.WriteCSV(&buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), ref) {
					t.Fatalf("killAfter=%d: resumed CSV differs from uninterrupted run", killAfter)
				}
			}
		})
	}
}

// TestKillResumeWithTornTail chains both failure modes: the daemon dies
// mid-batch leaving a torn journal line, restarts, and still finishes
// with the exact training set.
func TestKillResumeWithTornTail(t *testing.T) {
	const ntrain = 80
	tuner, w, sizes := testTuner(t, ntrain, 3, 2)
	ref := collectCSV(t, tuner, sizes)
	meta := MetaHash(w.Abbr, 3, ntrain, sizes)

	path := filepath.Join(t.TempDir(), "sweep.journal")
	if _, err := runJournaledCollect(t, tuner, sizes, path, meta, 24); err == nil {
		t.Fatal("interrupted sweep reported success")
	}
	// The SIGKILL tore the last line mid-write.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("r,999,1.2")
	f.Close()

	csv, err := runJournaledCollect(t, tuner, sizes, path, meta, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv, ref) {
		t.Fatal("torn-tail resume CSV differs from uninterrupted run")
	}
}

// TestManagerRestartResumesCollect is the daemon-level restart story: a
// Manager closed mid-collect leaves the job running on disk; a new
// Manager over the same data directory adopts it, resumes from the
// journal, and the final CSV matches the serial oracle.
// The test batch hook holds the collect workers once the journal has 40
// rows, so the shutdown always lands on a genuinely partial sweep.
func TestManagerRestartResumesCollect(t *testing.T) {
	const ntrain = 600
	dataDir := t.TempDir()
	tuner, _, sizes := testTuner(t, ntrain, 1, 0)
	ref := collectCSV(t, tuner, sizes)

	m1, err := NewManager(dataDir, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	reached := make(chan struct{})
	var once sync.Once
	m1.testBatchHook = func(rows int) {
		if rows >= 40 {
			once.Do(func() { close(reached) })
			// Hold this collect worker until the daemon shuts down —
			// the in-flight sweep can never finish.
			<-m1.rootCtx.Done()
		}
	}
	id, _, err := m1.Submit(JobSpec{Type: JobCollect, Workload: "TS", NTrain: ntrain, Seed: 1, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("collect never reached 40 journaled rows")
	}
	m1.Close()

	j1, ok := mustLoadJobFile(t, dataDir, id)
	if !ok || j1.State != StateRunning {
		t.Fatalf("job after shutdown: %+v (want state %q on disk so the next daemon adopts it)", j1, StateRunning)
	}

	journalPath := filepath.Join(dataDir, "journals", fmt.Sprintf("job-%d.journal", id))
	jl, err := OpenJournal(journalPath, MetaHash("TS", 1, ntrain, sizes))
	if err != nil {
		t.Fatal(err)
	}
	progress := jl.Rows()
	jl.Close()
	if progress == 0 || progress >= ntrain {
		t.Fatalf("journal has %d rows at restart; want a genuine partial sweep", progress)
	}

	m2, err := NewManager(dataDir, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	waitFor(t, 30*time.Second, func() bool {
		j, ok := m2.Get(id)
		return ok && j.State == StateDone
	})
	j, _ := m2.Get(id)
	var res struct {
		Rows int    `json:"rows"`
		CSV  string `json:"csv"`
	}
	if err := json.Unmarshal(j.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Rows != ntrain {
		t.Fatalf("resumed collect produced %d rows, want %d", res.Rows, ntrain)
	}
	got, err := os.ReadFile(res.CSV)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("CSV from the restarted daemon differs from the serial oracle")
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not met before timeout")
}

func mustLoadJobFile(t *testing.T, dataDir string, id int64) (Job, bool) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dataDir, "jobs", fmt.Sprintf("%d.json", id)))
	if err != nil {
		return Job{}, false
	}
	var j Job
	if err := json.Unmarshal(b, &j); err != nil {
		t.Fatal(err)
	}
	return j, true
}
