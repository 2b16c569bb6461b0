package workload

import (
	"testing"

	"mcpaging/internal/core"
)

var benchSet core.RequestSet

// BenchmarkGenerate times Generate, the generation half of the server's
// TraceInput.Resolve, on the benchmark's workload shapes. job-miss
// alternates the job shape with one of another Zipf exponent, so every
// call misses the sampler's table of the shape before and builds its
// own.
func BenchmarkGenerate(b *testing.B) {
	b.Run("job-miss", func(b *testing.B) {
		specs := [2]Spec{benchShapes[0].spec, benchShapes[0].spec}
		specs[1].ZipfS = 1.3
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rs, err := Generate(specs[i%2])
			if err != nil {
				b.Fatal(err)
			}
			benchSet = rs
		}
	})
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs, err := Generate(sh.spec)
				if err != nil {
					b.Fatal(err)
				}
				benchSet = rs
			}
		})
	}
}
