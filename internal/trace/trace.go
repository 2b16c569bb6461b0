// Package trace serialises multicore request sets to a simple text
// format so workloads can be generated once (cmd/mcgen) and replayed
// across tools (cmd/mcsim, cmd/mcopt).
//
// Format (whitespace-separated tokens):
//
//	mcpaging-trace v1
//	cores <p>
//	core <index> <length>
//	<length page IDs ...>
//	... one block per core ...
//
// Lines are a presentation detail; the reader is token-based, so traces
// can be wrapped at any width.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"mcpaging/internal/core"
)

const (
	magic   = "mcpaging-trace"
	version = "v1"
)

// Write serialises a request set.
func Write(w io.Writer, r core.RequestSet) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s %s\n", magic, version)
	fmt.Fprintf(bw, "cores %d\n", r.NumCores())
	for j, seq := range r {
		fmt.Fprintf(bw, "core %d %d\n", j, len(seq))
		for i, pg := range seq {
			if i > 0 {
				if i%16 == 0 {
					bw.WriteByte('\n')
				} else {
					bw.WriteByte(' ')
				}
			}
			bw.WriteString(strconv.FormatInt(int64(pg), 10))
		}
		if len(seq) > 0 {
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// Read parses a request set written by Write.
func Read(r io.Reader) (core.RequestSet, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	sc.Split(bufio.ScanWords)
	next := func() (string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", err
			}
			return "", io.ErrUnexpectedEOF
		}
		return sc.Text(), nil
	}
	nextInt := func() (int, error) {
		tok, err := next()
		if err != nil {
			return 0, err
		}
		v, err := strconv.Atoi(tok)
		if err != nil {
			return 0, fmt.Errorf("trace: bad integer %q", tok)
		}
		return v, nil
	}

	if tok, err := next(); err != nil || tok != magic {
		return nil, fmt.Errorf("trace: bad magic %q (err=%v)", tok, err)
	}
	if tok, err := next(); err != nil || tok != version {
		return nil, fmt.Errorf("trace: unsupported version %q (err=%v)", tok, err)
	}
	if tok, err := next(); err != nil || tok != "cores" {
		return nil, fmt.Errorf("trace: expected 'cores', got %q (err=%v)", tok, err)
	}
	p, err := nextInt()
	if err != nil {
		return nil, err
	}
	if p < 1 || p > 1<<20 {
		return nil, fmt.Errorf("trace: implausible core count %d", p)
	}
	// The set and each sequence grow as tokens arrive, as in ReadAll, so
	// a header's counts cost memory only once the stream backs them.
	rs := make(core.RequestSet, 0, min(p, readAllCores))
	for j := 0; j < p; j++ {
		if tok, err := next(); err != nil || tok != "core" {
			return nil, fmt.Errorf("trace: expected 'core', got %q (err=%v)", tok, err)
		}
		idx, err := nextInt()
		if err != nil {
			return nil, err
		}
		if idx != j {
			return nil, fmt.Errorf("trace: core blocks out of order: got %d, want %d", idx, j)
		}
		n, err := nextInt()
		if err != nil {
			return nil, err
		}
		if n < 0 || n > 1<<28 {
			return nil, fmt.Errorf("trace: implausible sequence length %d", n)
		}
		seq := make(core.Sequence, 0, min(n, readAllPages))
		for i := 0; i < n; i++ {
			v, err := nextInt()
			if err != nil {
				return nil, err
			}
			if v < 0 {
				return nil, fmt.Errorf("trace: negative page %d", v)
			}
			if v > 1<<31-1 {
				return nil, fmt.Errorf("trace: page %d out of range", v)
			}
			seq = append(seq, core.PageID(v))
		}
		rs = append(rs, seq)
	}
	return rs, nil
}
