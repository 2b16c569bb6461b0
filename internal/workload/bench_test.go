package workload

import (
	"testing"

	"mcpaging/internal/core"
)

var benchSet core.RequestSet

// BenchmarkGenerate times Generate, the generation half of the server's
// TraceInput.Resolve, on the benchmark's workload shapes.
func BenchmarkGenerate(b *testing.B) {
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
