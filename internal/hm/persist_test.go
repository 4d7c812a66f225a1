package hm

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := synthDS(600, 40)
	m, err := Train(ds, Options{Trees: 200, LearningRate: 0.1, TreeComplexity: 5,
		MaxOrder: 2, TargetAccuracy: 0.999, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Order != m.Order || back.ValErr != m.ValErr {
		t.Errorf("metadata changed: order %d->%d valerr %v->%v", m.Order, back.Order, m.ValErr, back.ValErr)
	}
	rng := rand.New(rand.NewSource(41))
	for k := 0; k < 200; k++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		a, b := m.Predict(x), back.Predict(x)
		if a != b {
			t.Fatalf("prediction changed after reload: %v != %v at %v", a, b, x)
		}
	}
}

// TestLegacySnapshotLoadsBitIdentically pins backward compatibility
// with snapshots written before the sibling-subtraction grower became
// the only one. testdata/legacy_exact_v2.gob is a version-2 stream of a
// model whose trees were grown by the exact per-node histogram scan
// (synthDS(500, 43); 120-tree budget, lr 0.1, tc 5, seed 7). The JSON
// beside it records, at the time the snapshot was written, the model's
// predictions over 200 probes and its predictions after a 20-tree
// Resume. The reloaded model must reproduce both bit-for-bit.
func TestLegacySnapshotLoadsBitIdentically(t *testing.T) {
	raw, err := os.ReadFile("testdata/legacy_exact_v2.gob")
	if err != nil {
		t.Fatal(err)
	}
	js, err := os.ReadFile("testdata/legacy_exact_v2_probes.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Probes  [][]float64 `json:"probes"`
		Pred    []float64   `json:"pred"`
		Resumed []float64   `json:"resumed"`
	}
	if err := json.Unmarshal(js, &rec); err != nil {
		t.Fatal(err)
	}
	m, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range rec.Probes {
		if got := m.Predict(x); got != rec.Pred[i] {
			t.Fatalf("probe %d: legacy snapshot predicts %v after load, recorded %v", i, got, rec.Pred[i])
		}
	}
	before := m.NumTrees()
	if err := Resume(m, synthDS(500, 43), Options{Trees: 140, LearningRate: 0.1, TreeComplexity: 5, Seed: 7}, 20); err != nil {
		t.Fatal(err)
	}
	if m.NumTrees() <= before {
		t.Fatalf("resume grew no trees: %d -> %d", before, m.NumTrees())
	}
	for i, x := range rec.Probes {
		if got := m.Predict(x); got != rec.Resumed[i] {
			t.Fatalf("probe %d: resumed legacy model predicts %v, recorded %v", i, got, rec.Resumed[i])
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a gob stream")); err == nil {
		t.Error("garbage should fail to load")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream should fail to load")
	}
}
