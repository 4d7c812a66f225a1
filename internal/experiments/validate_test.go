package experiments

import "testing"

// TestMedian3AllOrderings checks the median over every ordering of three
// distinct values.
func TestMedian3AllOrderings(t *testing.T) {
	for _, v := range [][3]float64{
		{1, 2, 3}, {1, 3, 2}, {2, 1, 3}, {2, 3, 1}, {3, 1, 2}, {3, 2, 1},
	} {
		if got := median3(v); got != 2 {
			t.Errorf("median3(%v) = %v, want 2", v, got)
		}
	}
}
