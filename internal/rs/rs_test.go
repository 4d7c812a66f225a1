package rs

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
)

func synthDS(n int, seed int64) *model.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := model.NewDataset(nil)
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64() * 4, rng.Float64() * 4, rng.Float64() * 4}
		t := 10 + 4*x[0] + x[1]*x[1] + 2*x[0]*x[2]
		ds.Add(x, t*(1+0.01*rng.NormFloat64()))
	}
	return ds
}

func TestSurfaceFitsQuadratic(t *testing.T) {
	m, err := Train(synthDS(800, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := model.Evaluate(m, synthDS(200, 2))
	// The target is exactly second order, so RS should nail it.
	if e.Mean > 0.05 {
		t.Fatalf("RS mean error %.1f%% on an exactly-quadratic target", e.Mean*100)
	}
}

func TestInteractionsMatter(t *testing.T) {
	train := synthDS(800, 3)
	test := synthDS(200, 4)
	full, _ := Train(train, Options{})
	pure, _ := Train(train, Options{NoInteractions: true})
	eFull := model.Evaluate(full, test).Mean
	ePure := model.Evaluate(pure, test).Mean
	// The target has a strong x0·x2 term that only the full surface sees.
	if eFull >= ePure {
		t.Fatalf("full surface (%.3f) not better than pure quadratic (%.3f)", eFull, ePure)
	}
}

func TestNumTerms(t *testing.T) {
	m, err := Train(synthDS(100, 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// d=3: 1 + 3 + 3 + 3 = 10 terms.
	if m.NumTerms() != 10 {
		t.Errorf("NumTerms = %d, want 10", m.NumTerms())
	}
}

func TestRejectsBadInput(t *testing.T) {
	if _, err := Train(model.NewDataset(nil), Options{}); err == nil {
		t.Error("empty dataset should fail")
	}
}

func TestPredictionsFinitePositive(t *testing.T) {
	m, err := Train(synthDS(300, 6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 100; k++ {
		x := []float64{rng.Float64() * 5, rng.Float64() * 5, rng.Float64() * 5}
		p := m.Predict(x)
		if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("prediction %v at %v", p, x)
		}
	}
}

func TestCholSolve(t *testing.T) {
	A := [][]float64{{4, 2}, {2, 3}}
	b := []float64{10, 8}
	x, ok := cholSolve(A, b)
	if !ok {
		t.Fatal("cholSolve failed on SPD system")
	}
	if math.Abs(4*x[0]+2*x[1]-10) > 1e-9 || math.Abs(2*x[0]+3*x[1]-8) > 1e-9 {
		t.Fatalf("wrong solution %v", x)
	}
	if _, ok := cholSolve([][]float64{{0, 0}, {0, 0}}, []float64{1, 1}); ok {
		t.Error("singular system should fail")
	}
}

// TestTrainerInterface checks the package through the model.Backend
// contract: a zero TrainOpts trains exactly the model a direct Train
// call with the backend's Options builds.
func TestTrainerInterface(t *testing.T) {
	var tr model.Backend = Backend{Opt: Options{}}
	if tr.Name() != "rs" {
		t.Errorf("Name = %q", tr.Name())
	}
	ds := synthDS(100, 8)
	m, err := tr.Train(ds, model.TrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Train(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range ds.Features {
		if got, want := m.Predict(x), direct.Predict(x); got != want || got <= 0 {
			t.Fatalf("row %d: backend predicts %v, direct Train %v", i, got, want)
		}
	}
}
