package metrics

import (
	"io"
	"strconv"
)

// Exposition accumulates a Prometheus text-format (version 0.0.4) page:
// each family's HELP and TYPE lines, then its samples. The caller fixes
// the order, so equal values give equal bytes. Integers print in
// decimal, floats as %g does, label values quoted as %q does.
type Exposition struct{ b []byte }

// Family opens a metric family with its HELP and TYPE lines.
func (e *Exposition) Family(name, help, typ string) {
	e.b = append(e.b, "# HELP "+name+" "+help+"\n# TYPE "+name+" "+typ+"\n"...)
}

// Int appends a sample of name with an integer value. A non-empty label
// gives the sample the one label label="value".
func (e *Exposition) Int(name, label, value string, v int64) {
	e.b = append(strconv.AppendInt(e.sample(name, label, value), v, 10), '\n')
}

// Float is Int for a float value.
func (e *Exposition) Float(name, label, value string, v float64) {
	e.b = append(strconv.AppendFloat(e.sample(name, label, value), v, 'g', -1, 64), '\n')
}

// sample appends a sample line up to its value.
func (e *Exposition) sample(name, label, value string) []byte {
	b := append(e.b, name...)
	if label != "" {
		b = append(strconv.AppendQuote(append(append(b, '{'), label+"="...), value), '}')
	}
	return append(b, ' ')
}

// Counter appends a counter family holding one unlabelled sample.
func (e *Exposition) Counter(name, help string, v int64) {
	e.Family(name, help, "counter")
	e.Int(name, "", "", v)
}

// Gauge appends a gauge family holding one unlabelled sample.
func (e *Exposition) Gauge(name, help string, v float64) {
	e.Family(name, help, "gauge")
	e.Float(name, "", "", v)
}

// WriteTo writes the page to w in one write.
func (e *Exposition) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(e.b)
	return int64(n), err
}
