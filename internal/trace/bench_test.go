package trace_test

import (
	"bytes"
	"io"
	"testing"

	"mcpaging/internal/core"
	"mcpaging/internal/trace"
	"mcpaging/internal/workload"
)

// BenchmarkTraceDecode decodes a binary trace of the repository
// benchmark's job-trace shape: 8 cores × 12 500 phased requests with
// 10% shared pages. The stream arm runs the Decoder's streaming loop
// into one reused buffer, so it times the varint decode alone; the all
// arm is ReadBinary, which also allocates the request set.
func BenchmarkTraceDecode(b *testing.B) {
	rs, err := workload.Generate(workload.Spec{Kind: workload.Phased, Cores: 8, Length: 12500,
		Pages: 256, SharedFrac: 0.1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var bin bytes.Buffer
	if err := trace.WriteBinary(&bin, rs); err != nil {
		b.Fatal(err)
	}
	data := bin.Bytes()
	n := float64(rs.TotalLen())
	b.Run("stream", func(b *testing.B) {
		buf := make([]core.PageID, 4096)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, err := trace.NewDecoder(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			for {
				if _, err := d.NextCore(); err == io.EOF {
					break
				} else if err != nil {
					b.Fatal(err)
				}
				for {
					if _, err := d.Read(buf); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		b.ReportMetric(n*float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})
	b.Run("all", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := trace.ReadBinary(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(n*float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})
}
