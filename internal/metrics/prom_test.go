package metrics

import (
	"bytes"
	"math"
	"testing"
)

// TestExposition pins the writer's text: headers, plain and labelled
// samples, decimal integers, %g floats and %q label values.
func TestExposition(t *testing.T) {
	var e Exposition
	e.Counter("a_total", "Things.", 1234567)
	e.Gauge("b", "A ratio.", 2e6)
	e.Family("c", "Per worker.", "gauge")
	e.Float("c", "worker", `w"1`, 0.25)
	e.Int("c", "worker", "w2", -3)
	e.Float("d_sum", "", "", math.Inf(1))
	var b bytes.Buffer
	n, err := e.WriteTo(&b)
	if err != nil || n != int64(b.Len()) {
		t.Fatalf("WriteTo = %d, %v for %d bytes", n, err, b.Len())
	}
	want := `# HELP a_total Things.
# TYPE a_total counter
a_total 1234567
# HELP b A ratio.
# TYPE b gauge
b 2e+06
# HELP c Per worker.
# TYPE c gauge
c{worker="w\"1"} 0.25
c{worker="w2"} -3
d_sum +Inf
`
	if got := b.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}
