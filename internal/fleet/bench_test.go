package fleet

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkSimRunnerChunk times the production SimRunner on one
// default-sized leased chunk (64 rows) at one and two goroutines — the
// worker's per-chunk cost, which the -parallelism flag should divide.
//
//	go test -run '^$' -bench SimRunnerChunk ./internal/fleet
func BenchmarkSimRunnerChunk(b *testing.B) {
	const chunkRows = 64
	for _, abbr := range []string{"TS", "KM"} {
		for _, parallelism := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/parallelism=%d", abbr, parallelism), func(b *testing.B) {
				spec := SweepSpec{Workload: abbr, Seed: 1, NTrain: chunkRows * 4, SizesMB: []float64{10 * 1024, 30 * 1024, 50 * 1024}}
				run, err := SimRunner(spec, parallelism)
				if err != nil {
					b.Fatal(err)
				}
				chunks := make([][]int, spec.NTrain/chunkRows)
				for c := range chunks {
					for i := c * chunkRows; i < (c+1)*chunkRows; i++ {
						chunks[c] = append(chunks[c], i)
					}
				}
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					if _, err := run(context.Background(), chunks[n%len(chunks)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
