package server

import (
	"context"
	"sync"

	"mcpaging/internal/core"
	"mcpaging/internal/workload"
)

// A traceStep turns a job's or sweep's trace input into its request
// set: the step of JobRequest.Resolve and SweepRequest.Resolve that
// generates or decodes.
type traceStep func(TraceInput) (traceSet, error)

// plainTrace is the trace step of the exported Resolve methods:
// TraceInput.Resolve, with nothing reused.
func plainTrace(maxRequests int) traceStep {
	return func(t TraceInput) (traceSet, error) {
		rs, err := t.Resolve(maxRequests)
		return traceSet{rs: rs}, err
	}
}

// traceSet is a resolved request set. reused is the entry it was
// served from, nil when the step resolved it.
type traceSet struct {
	rs     core.RequestSet
	reused *traceEntry
}

// key returns JobKey(rs, spec, p, seed). A reused set is keyed from
// its entry's stored encoding, one hash pass over bytes.
func (t traceSet) key(spec string, p core.Params, seed int64) string {
	if t.reused == nil {
		return JobKey(t.rs, spec, p, seed)
	}
	return t.reused.keyer().Key(spec, p, seed)
}

// keyer returns a Keyer over the set: the entry's for a reused set.
func (t traceSet) keyer() Keyer {
	if t.reused == nil {
		return NewKeyer(t.rs)
	}
	return t.reused.keyer()
}

// traceReuse is the server's one-entry reuse of the last workload spec
// it resolved. The cells of a fleet sweep reach a worker as separate
// jobs over one spec, sent back to back and up to four at once, so
// holding the last spec's request set lets every cell after the first
// skip generation. Like a worker's runner, it pins one request set:
// traffic that never repeats a spec would gain nothing from more
// entries.
type traceReuse struct {
	mu   sync.Mutex
	last *traceEntry
}

// traceEntry is one workload spec's resolve. done is closed when the
// resolve ends; rs is then the request set, or nil if the resolve
// failed.
type traceEntry struct {
	spec workload.Spec
	done chan struct{}
	rs   core.RequestSet

	encOnce sync.Once
	enc     Keyer
}

// keyer returns the Keyer over e's set, encoding the set on the first
// call: an entry that is never reused never pays for the encoding.
func (e *traceEntry) keyer() Keyer {
	e.encOnce.Do(func() { e.enc = NewKeyer(e.rs) })
	return e.enc
}

// traceStep returns the trace step of a request whose context is ctx:
// TraceInput.Resolve under the server's budget, serving a workload
// spec equal to the last one resolved from the entry.
func (s *Server) traceStep(ctx context.Context) traceStep {
	return func(t TraceInput) (traceSet, error) { return s.resolveTrace(ctx, t) }
}

// resolveTrace resolves t as TraceInput.Resolve does, with the same
// checks first and the same errors. Inline and binary inputs are
// resolved afresh. A workload spec equal to the entry's is served from
// it, after waiting for its resolve if that is still running; any
// other spec replaces the entry. A failed resolve leaves no entry, and
// a request waiting on it resolves again itself.
func (s *Server) resolveTrace(ctx context.Context, t TraceInput) (traceSet, error) {
	if err := t.check(s.cfg.MaxRequests); err != nil {
		return traceSet{}, err
	}
	if t.Workload == nil {
		s.metrics.traceResolves.Add(1)
		rs, err := t.materialise(s.cfg.MaxRequests)
		return traceSet{rs: rs}, err
	}
	m := &s.traces
	for {
		m.mu.Lock()
		e := m.last
		if e == nil || e.spec != *t.Workload {
			e = &traceEntry{spec: *t.Workload, done: make(chan struct{})}
			m.last = e
			m.mu.Unlock()
			return s.fillTrace(e, t)
		}
		m.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			return traceSet{}, ctx.Err()
		}
		if e.rs != nil {
			s.metrics.traceReuses.Add(1)
			return traceSet{rs: e.rs, reused: e}, nil
		}
	}
}

// fillTrace resolves the entry e for t, then ends e's resolve, dropping
// e if it failed (a panic included) so nothing is served from it.
func (s *Server) fillTrace(e *traceEntry, t TraceInput) (traceSet, error) {
	defer func() {
		if e.rs == nil {
			s.traces.mu.Lock()
			if s.traces.last == e {
				s.traces.last = nil
			}
			s.traces.mu.Unlock()
		}
		close(e.done)
	}()
	s.metrics.traceResolves.Add(1)
	rs, err := t.materialise(s.cfg.MaxRequests)
	if err != nil {
		return traceSet{}, err
	}
	e.rs = rs
	return traceSet{rs: rs}, nil
}
