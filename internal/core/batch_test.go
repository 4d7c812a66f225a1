package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/conf"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/sparksim"
	"repro/internal/workloads"
)

// serialSet is the collect oracle: every row of the tuner's sweep run
// one at a time through Exec.Execute, in index order, with no runner in
// between. A row's time depends only on its job, so every collecting
// path must reproduce this set — and its cluster time — exactly.
func serialSet(tuner *Tuner, sizes []float64) (*dataset.Set, float64) {
	set := dataset.NewSet(tuner.Space)
	var clusterSec float64
	for _, j := range tuner.CollectJobs(sizes) {
		sec := tuner.Exec.Execute(j.Cfg, j.DsizeMB)
		set.Add(j.Cfg, j.DsizeMB, sec)
		clusterSec += sec
	}
	return set, clusterSec / 3600
}

// csvOf serializes a training set.
func csvOf(t *testing.T, set *dataset.Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := set.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// shuffledChunks partitions the row indices 0..n-1 into ascending chunks
// of random sizes and returns the chunks in shuffled order — how a fleet
// coordinator hands a sweep out.
func shuffledChunks(n int, rng *rand.Rand) [][]int {
	var chunks [][]int
	for lo := 0; lo < n; {
		hi := min(lo+1+rng.Intn(17), n)
		chunk := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			chunk = append(chunk, i)
		}
		chunks = append(chunks, chunk)
		lo = hi
	}
	rng.Shuffle(len(chunks), func(a, b int) { chunks[a], chunks[b] = chunks[b], chunks[a] })
	return chunks
}

// executeRowsSet collects the sweep through ExecuteRows over a shuffled
// chunk partition, handing each chunk's rows to onBatch, and assembles
// the set from the gathered times.
func executeRowsSet(t *testing.T, tuner *Tuner, sizes []float64, onBatch func([]RowTime)) (*dataset.Set, Overhead, error) {
	t.Helper()
	jobs := tuner.CollectJobs(sizes)
	times := make(map[int]float64, len(jobs))
	for _, chunk := range shuffledChunks(len(jobs), rand.New(rand.NewSource(5))) {
		rows, err := tuner.ExecuteRows(jobs, chunk)
		if err != nil {
			return nil, Overhead{}, err
		}
		for k, r := range rows {
			if r.Index != chunk[k] || !reflect.DeepEqual(r.Job, jobs[r.Index]) {
				t.Fatalf("ExecuteRows row %d = index %d, want %d with its job", k, r.Index, chunk[k])
			}
			times[r.Index] = r.TimeSec
		}
		if onBatch != nil {
			onBatch(rows)
		}
	}
	return tuner.AssembleSet(jobs, func(i int) (float64, bool) { sec, ok := times[i]; return sec, ok })
}

// TestCollectBatchByteIdenticalCSV pins the acceptance contract of the
// batched collecting path: the CSV of a collect — through Collect with a
// per-job and a batched executor, and through ExecuteRows over shuffled
// chunks — must be byte-identical to the serial oracle's, at GOMAXPROCS
// 1 and 4 alike, and the batch path must actually be exercised (counted
// under "core.collect.batches"). ExecuteRows must also spread one chunk
// across its Opt.Parallelism workers.
func TestCollectBatchByteIdenticalCSV(t *testing.T) {
	w, err := workloads.ByAbbr("TS")
	if err != nil {
		t.Fatal(err)
	}
	sim := sparksim.New(cluster.Standard(), 8)
	newTuner := func(exec Executor, reg *obs.Registry) *Tuner {
		return &Tuner{Space: conf.StandardSpace(), Exec: exec, Opt: Options{NTrain: 200, Seed: 1}, Obs: reg}
	}
	serial := ExecutorFunc(func(cfg conf.Config, dsizeMB float64) float64 {
		return sim.Run(&w.Program, dsizeMB, cfg).TotalSec
	})
	sizes := newTuner(serial, nil).TrainingSizesMB(10*1024, 50*1024)
	refSet, _ := serialSet(newTuner(serial, nil), sizes)
	ref := csvOf(t, refSet)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		reg := obs.NewRegistry()
		batched := newTuner(NewSimExecutor(sim, &w.Program), reg)
		cases := []struct {
			name string
			run  func() (*dataset.Set, Overhead, error)
		}{
			{"Collect/per-job", func() (*dataset.Set, Overhead, error) { return newTuner(serial, nil).Collect(sizes) }},
			{"Collect/batched", func() (*dataset.Set, Overhead, error) { return batched.Collect(sizes) }},
			{"ExecuteRows/shuffled-chunks", func() (*dataset.Set, Overhead, error) {
				return executeRowsSet(t, newTuner(NewSimExecutor(sim, &w.Program), nil), sizes, nil)
			}},
		}
		for _, c := range cases {
			set, _, err := c.run()
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d %s: %v", procs, c.name, err)
			}
			if !bytes.Equal(csvOf(t, set), ref) {
				t.Fatalf("GOMAXPROCS=%d %s: CSV differs from the serial oracle", procs, c.name)
			}
		}
		runtime.GOMAXPROCS(prev)
		if reg.Counter("core.collect.batches").Value() == 0 {
			t.Errorf("GOMAXPROCS=%d: SimExecutor collect never took the batch path", procs)
		}
	}

	// ExecuteRows splits one fleet-sized chunk into Opt.Parallelism
	// batches that run at the same time: 64 rows at parallelism 3 are
	// three ExecuteBatch calls, all in flight at once.
	gate := &gatedExecutor{want: 3, open: make(chan struct{})}
	tuner := &Tuner{Space: conf.StandardSpace(), Exec: gate, Opt: Options{NTrain: 64, Seed: 1, Parallelism: 3}}
	jobs := tuner.CollectJobs(sizes)
	chunk := make([]int, len(jobs))
	for i := range chunk {
		chunk[i] = i
	}
	if _, err := tuner.ExecuteRows(jobs, chunk); err != nil {
		t.Fatal(err)
	}
	if gate.started != 3 || gate.timedOut != 0 {
		t.Fatalf("ExecuteRows of 64 rows at parallelism 3: %d ExecuteBatch calls, %d not concurrent; want 3, 0",
			gate.started, gate.timedOut)
	}
}

// TestSimExecutorBatchMatchesExecute pins the BatchExecutor contract on the
// simulator binding: ExecuteBatch must return, per job in job order, the
// exact time Execute returns for that job.
func TestSimExecutorBatchMatchesExecute(t *testing.T) {
	w, err := workloads.ByAbbr("TS")
	if err != nil {
		t.Fatal(err)
	}
	sim := sparksim.New(cluster.Standard(), 8)
	exec := NewSimExecutor(sim, &w.Program)
	space := conf.StandardSpace()
	rng := rand.New(rand.NewSource(3))
	jobs := make([]Job, 50)
	for i := range jobs {
		jobs[i] = Job{Cfg: space.Random(rng), DsizeMB: 1024 * (1 + 49*rng.Float64())}
	}
	times := exec.ExecuteBatch(jobs)
	if len(times) != len(jobs) {
		t.Fatalf("ExecuteBatch returned %d times for %d jobs", len(times), len(jobs))
	}
	for i, j := range jobs {
		if got := exec.Execute(j.Cfg, j.DsizeMB); got != times[i] {
			t.Fatalf("job %d: Execute=%v ExecuteBatch=%v", i, got, times[i])
		}
	}
}
