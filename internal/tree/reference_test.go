package tree

import (
	"math"
	"math/rand"
)

// growReference is the exact oracle Grow is checked against (DESIGN.md
// §13): the same best-first growth to opt's split budget, by the
// plainest route. Every node accumulates its own histogram straight
// from its rows, one feature at a time, and scores candidate splits
// with true divisions. With FeatureFrac < 1, every searched node draws
// its feature subset with rng.Perm, consuming rng in the order Grow
// does.
func growReference(b *Builder, y []float64, idx []int, opt Options, rng *rand.Rand) *Tree {
	t := &Tree{}
	if len(idx) == 0 {
		t.addLeaf(0)
		return t
	}
	type leaf struct {
		node         int32
		idx          []int
		gain         float64
		feature, bin int
	}
	search := func(l *leaf) {
		l.gain, l.feature, l.bin = referenceSplit(b, y, l.idx, opt, rng)
	}
	root := &leaf{node: t.addLeaf(meanAt(y, idx)), idx: idx}
	search(root)
	leaves := []*leaf{root}
	for splits := 0; splits < opt.maxSplits(); splits++ {
		best := -1
		for i, l := range leaves {
			if l.gain > 0 && (best < 0 || l.gain > leaves[best].gain) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		l := leaves[best]
		col, ub := b.binned[l.feature], uint8(l.bin)
		var li, ri []int
		for _, i := range l.idx {
			if col[i] <= ub {
				li = append(li, i)
			} else {
				ri = append(ri, i)
			}
		}
		left := &leaf{node: t.addLeaf(meanAt(y, li)), idx: li}
		right := &leaf{node: t.addLeaf(meanAt(y, ri)), idx: ri}
		t.setSplit(l.node, l.feature, b.edges[l.feature][l.bin], ub, left.node, right.node)
		search(left)
		search(right)
		leaves[best] = left
		leaves = append(leaves, right)
	}
	return t
}

// referenceSplit returns the SSE-reducing split of idx: its gain
// (variance reduction × n, 0 if none), feature, and the bin whose edge
// is the threshold. Ties keep the first maximum in feature order.
func referenceSplit(b *Builder, y []float64, idx []int, opt Options, rng *rand.Rand) (gain float64, feature, bin int) {
	nTot, minLeaf := len(idx), opt.minLeaf()
	if nTot < 2*minLeaf {
		return 0, -1, -1
	}
	sumTot := 0.0
	for _, i := range idx {
		sumTot += y[i]
	}
	feats := b.allFeatures
	if opt.FeatureFrac > 0 && opt.FeatureFrac < 1 && rng != nil {
		mtry := max(1, int(opt.FeatureFrac*float64(b.d)+0.5))
		feats = rng.Perm(b.d)[:mtry]
	}
	baseScore := sumTot * sumTot / float64(nTot)
	feature, bin = -1, -1
	for _, f := range feats {
		var cnt [maxBins]int
		var sum [maxBins]float64
		col := b.binned[f]
		for _, i := range idx {
			cnt[col[i]]++
			sum[col[i]] += y[i]
		}
		nL, sL := 0, 0.0
		for k := range b.edges[f] { // split at edge k: bins <= k go left
			nL += cnt[k]
			sL += sum[k]
			nR := nTot - nL
			if nL < minLeaf || nR < minLeaf {
				continue
			}
			sR := sumTot - sL
			score := sL*sL/float64(nL) + sR*sR/float64(nR)
			if g := score - baseScore; g > gain {
				gain, feature, bin = g, f, k
			}
		}
	}
	if feature < 0 || math.IsNaN(gain) || gain <= 1e-12 {
		return 0, -1, -1
	}
	return gain, feature, bin
}
