package strategyspec_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"path/filepath"
	"testing"

	"mcpaging/internal/adversary"
	"mcpaging/internal/capacity"
	"mcpaging/internal/core"
	"mcpaging/internal/sim"
	"mcpaging/internal/strategyspec"
	"mcpaging/internal/workload"
)

// goldenCase is one instance every strategy of the golden runs on.
type goldenCase struct {
	name  string
	rs    core.RequestSet
	k     int
	tau   int
	sched string // capacity spec; empty = fixed K
}

// strategyRow is one pinned run: the SHA-256 of its full event stream
// plus per-core faults and makespan, or the build or run error.
type strategyRow struct {
	Spec     string  `json:"spec"`
	Case     string  `json:"case"`
	Events   string  `json:"events,omitempty"`
	Faults   []int64 `json:"faults,omitempty"`
	Makespan int64   `json:"makespan,omitempty"`
	Err      string  `json:"err,omitempty"`
}

func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	gen := func(s workload.Spec) core.RequestSet {
		rs, err := workload.Generate(s)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	lemma4, err := adversary.Lemma4(4, 16, 400)
	if err != nil {
		t.Fatal(err)
	}
	// Renumbered onto 0..19 the engine takes its direct path; the
	// generated workloads' strided IDs are renamed.
	lemma4, _ = core.Renumber(lemma4)
	return []goldenCase{
		{name: "zipf-shared", k: 32, tau: 4,
			rs: gen(workload.Spec{Cores: 4, Length: 3000, Pages: 96, Kind: workload.Zipf, SharedFrac: 0.1, Seed: 7})},
		{name: "phased-step", k: 32, tau: 4, sched: "step(to=50%,at=2000)",
			rs: gen(workload.Spec{Cores: 4, Length: 3000, Pages: 96, Kind: workload.Phased, Seed: 8})},
		{name: "uniform-periodic", k: 32, tau: 3, sched: "periodic(lo=12,period=700,duty=0.5)",
			rs: gen(workload.Spec{Cores: 4, Length: 3000, Pages: 48, Kind: workload.Uniform, SharedFrac: 0.2, Seed: 9})},
		{name: "loop", k: 32, tau: 4,
			rs: gen(workload.Spec{Cores: 4, Length: 3000, Pages: 10, Kind: workload.Loop, Seed: 10})},
		{name: "lemma4", k: 16, tau: 8, rs: lemma4},
	}
}

// eventDigest folds every event field that a victim choice can move
// into a running SHA-256.
type eventDigest struct {
	h   hash.Hash
	buf []byte
}

func (d *eventDigest) observe(e sim.Event) {
	var flags byte
	for i, f := range []bool{e.Fault, e.Join, e.Tick, e.Donor, e.Capacity} {
		if f {
			flags |= 1 << i
		}
	}
	b := d.buf[:0]
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Time))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Core))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Index))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Page))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Victim))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.K))
	b = append(b, flags)
	d.buf = b
	d.h.Write(b)
}

// TestStrategiesGolden pins every strategy strategyspec.List builds,
// victim for victim: each runs on five instances — shared-page Zipf at
// fixed K, phased under a capacity step, shared-page uniform under a
// periodic capacity, loops, and the Lemma 4 construction on dense IDs
// — and the golden holds the digest of the full event
// stream. Any change to any policy's victims, to a controller's quota
// or donor choice, or to the engine's event order shows here.
// Regenerate with:
//
//	go test ./internal/strategyspec -run StrategiesGolden -update
func TestStrategiesGolden(t *testing.T) {
	cases := goldenCases(t)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, c := range strategyspec.List() {
		for _, gc := range cases {
			row := strategyRow{Spec: c.Spec, Case: gc.name}
			if err := runGoldenCase(&row, gc); err != nil {
				row.Err = err.Error()
			}
			if err := enc.Encode(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkGolden(t, filepath.Join("testdata", "strategies_golden.jsonl"), buf.Bytes())
}

func runGoldenCase(row *strategyRow, gc goldenCase) error {
	params := core.Params{K: gc.k, Tau: gc.tau}
	if gc.sched != "" {
		sched, err := capacity.ParseSchedule(gc.sched, gc.k)
		if err != nil {
			return err
		}
		params.Capacity = sched
	}
	st, err := strategyspec.Build(row.Spec, gc.rs, gc.k, 1)
	if err != nil {
		return err
	}
	d := &eventDigest{h: sha256.New()}
	res, err := sim.Run(core.Instance{R: gc.rs, P: params}, st, d.observe)
	if err != nil {
		return err
	}
	row.Events = hex.EncodeToString(d.h.Sum(nil))
	row.Faults, row.Makespan = res.Faults, res.Makespan
	return nil
}
