package search

import (
	"math"
	"testing"

	"repro/internal/conf"
)

// sphere has its optimum at each parameter's midpoint.
func sphere(space *conf.Space) Objective {
	return func(x []float64) float64 {
		s := 0.0
		for i, v := range x {
			p := space.Param(i)
			span := p.Span()
			if span == 0 {
				continue
			}
			d := (v - (p.Min+p.Max)/2) / span
			s += d * d
		}
		return s
	}
}

func TestRandomRespectsBudget(t *testing.T) {
	space := conf.StandardSpace()
	res := Random{}.Search(space, sphere(space), Options{Budget: 100, Seed: 1})
	if res.Evaluations != 100 {
		t.Fatalf("Evaluations = %d, want 100", res.Evaluations)
	}
	if res.Best == nil || math.IsInf(res.BestFitness, 1) {
		t.Fatal("no best found")
	}
}

func TestRecursiveRandomBeatsPlainRandom(t *testing.T) {
	space := conf.StandardSpace()
	obj := sphere(space)
	budget := 600
	rr := RecursiveRandom{}.Search(space, obj, Options{Budget: budget, Seed: 1})
	plain := Random{}.Search(space, obj, Options{Budget: budget, Seed: 1})
	if rr.Evaluations > budget {
		t.Fatalf("RRS overspent: %d > %d", rr.Evaluations, budget)
	}
	// On a smooth unimodal surface the local refinement must win.
	if rr.BestFitness >= plain.BestFitness {
		t.Fatalf("RRS %.5f not better than random %.5f on a smooth objective",
			rr.BestFitness, plain.BestFitness)
	}
}

func TestPatternConvergesOnSmoothObjective(t *testing.T) {
	space := conf.StandardSpace()
	obj := sphere(space)
	res := Pattern{}.Search(space, obj, Options{Budget: 3000, Seed: 1})
	plain := Random{}.Search(space, obj, Options{Budget: 3000, Seed: 1})
	if res.BestFitness >= plain.BestFitness {
		t.Fatalf("pattern search %.5f not better than random %.5f",
			res.BestFitness, plain.BestFitness)
	}
}

func TestAnnealImprovesOverStart(t *testing.T) {
	space := conf.StandardSpace()
	obj := sphere(space)
	res := Anneal{}.Search(space, obj, Options{Budget: 2000, Seed: 1})
	plain := Random{}.Search(space, obj, Options{Budget: 2000, Seed: 1})
	if res.BestFitness >= plain.BestFitness {
		t.Fatalf("annealing %.5f not better than random %.5f on a smooth objective",
			res.BestFitness, plain.BestFitness)
	}
	if res.Evaluations > 2000 {
		t.Fatalf("annealing overspent: %d", res.Evaluations)
	}
}

func TestAllSearchersReturnLegalVectors(t *testing.T) {
	space := conf.StandardSpace()
	obj := sphere(space)
	for name, res := range map[string]Result{
		"random":  Random{}.Search(space, obj, Options{Budget: 50, Seed: 2}),
		"rrs":     RecursiveRandom{}.Search(space, obj, Options{Budget: 50, Seed: 2}),
		"pattern": Pattern{}.Search(space, obj, Options{Budget: 50, Seed: 2}),
		"anneal":  Anneal{}.Search(space, obj, Options{Budget: 50, Seed: 2}),
	} {
		if len(res.Best) != space.Len() {
			t.Errorf("%s: best has %d genes", name, len(res.Best))
			continue
		}
		for i, v := range res.Best {
			p := space.Param(i)
			if v < p.Min || v > p.Max {
				t.Errorf("%s: gene %d = %v outside range", name, i, v)
			}
		}
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	space := conf.StandardSpace()
	obj := sphere(space)
	opt := Options{Budget: 40, Seed: 7}
	for _, s := range []Searcher{Random{}, RecursiveRandom{}, Pattern{}, Anneal{}} {
		if s.Search(space, obj, opt).BestFitness != s.Search(space, obj, opt).BestFitness {
			t.Errorf("%s differs across identical seeds", s.Name())
		}
	}
}
