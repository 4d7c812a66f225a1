package search

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/conf"
	"repro/internal/obs"
)

// TestRandomDeterministicAcrossGOMAXPROCS pins the parallel-evaluation
// contract: Random's result must be bit-identical whether its worker pool
// has one goroutine or many, and evaluation accounting must be exact.
func TestRandomDeterministicAcrossGOMAXPROCS(t *testing.T) {
	space := conf.StandardSpace()
	obj := sphere(space)

	prev := runtime.GOMAXPROCS(1)
	one := Random{}.Search(space, obj, Options{Budget: 300, Seed: 11})
	runtime.GOMAXPROCS(prev)
	many := Random{}.Search(space, obj, Options{Budget: 300, Seed: 11})

	if one.BestFitness != many.BestFitness {
		t.Fatalf("best fitness differs: %v vs %v", one.BestFitness, many.BestFitness)
	}
	if !reflect.DeepEqual(one.Best, many.Best) {
		t.Fatal("best vector differs across GOMAXPROCS")
	}
	if one.Evaluations != 300 || many.Evaluations != 300 {
		t.Fatalf("evaluations %d / %d, want 300", one.Evaluations, many.Evaluations)
	}
}

// TestRandomCountsEvalsUnderParallelism checks the obs counter reports
// every evaluation of a search fanned out over several workers.
func TestRandomCountsEvalsUnderParallelism(t *testing.T) {
	space := conf.StandardSpace()
	reg := obs.NewRegistry()
	Random{}.Search(space, sphere(space), Options{Budget: 250, Seed: 3, Workers: 4, Obs: reg})
	if got := reg.Counter("search.random.evaluations").Value(); got != 250 {
		t.Fatalf("counted %d evaluations, want 250", got)
	}
}

// TestRandomZeroBudget checks the degenerate call stays well-formed.
func TestRandomZeroBudget(t *testing.T) {
	space := conf.StandardSpace()
	res := Random{}.Search(space, sphere(space), Options{Budget: 0, Seed: 1})
	if res.Evaluations != 0 || res.Best != nil {
		t.Fatalf("zero budget returned %d evals, best %v", res.Evaluations, res.Best)
	}
}

// TestRandomHonorsWorkers pins Options.Workers as a concurrency bound:
// an objective that tracks in-flight calls must never see more than
// Workers of them at once, even with more processors available, and
// the result must stay bit-identical at every worker count.
func TestRandomHonorsWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	space := conf.StandardSpace()
	s, err := Default().Lookup("random")
	if err != nil {
		t.Fatal(err)
	}
	var ref Result
	for _, workers := range []int{1, 2, 4} {
		var inFlight, peak atomic.Int64
		obj := func(x []float64) float64 {
			n := inFlight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(50 * time.Microsecond)
			inFlight.Add(-1)
			return sphere(space)(x)
		}
		res := s.Search(space, obj, Options{Budget: 200, Seed: 4, Workers: workers})
		if got := peak.Load(); got > int64(workers) {
			t.Errorf("Workers=%d: %d objective calls ran at once", workers, got)
		}
		if workers == 1 {
			ref = res
		} else if !reflect.DeepEqual(res, ref) {
			t.Errorf("Workers=%d: result differs from Workers=1", workers)
		}
	}
}
