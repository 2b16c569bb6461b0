package server

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"mcpaging/internal/capacity"
	"mcpaging/internal/core"
	"mcpaging/internal/trace"
)

func TestJobKeyCanonicalAcrossInputModes(t *testing.T) {
	rs := core.RequestSet{{1, 2, 3, 1}, {9, 8, 9}}
	p := core.Params{K: 4, Tau: 2}

	// The same instance through the inline and binary paths must reach
	// the same key: the key hashes content, not transport.
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, rs); err != nil {
		t.Fatal(err)
	}
	in := TraceInput{BinaryB64: base64.StdEncoding.EncodeToString(buf.Bytes())}
	decoded, err := in.Resolve(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	k1 := JobKey(rs, "S(LRU)", p, 1)
	k2 := JobKey(decoded, "S(LRU)", p, 1)
	if k1 != k2 {
		t.Fatalf("binary round-trip changed the key: %s vs %s", k1, k2)
	}

	// Spec whitespace is canonicalized away, matching Build's trim.
	if JobKey(rs, "  S(LRU)  ", p, 1) != k1 {
		t.Fatal("spec whitespace changed the key")
	}

	// Every parameter is load-bearing.
	distinct := map[string]string{
		"base":     k1,
		"spec":     JobKey(rs, "S(FIFO)", p, 1),
		"k":        JobKey(rs, "S(LRU)", core.Params{K: 5, Tau: 2}, 1),
		"tau":      JobKey(rs, "S(LRU)", core.Params{K: 4, Tau: 3}, 1),
		"seed":     JobKey(rs, "S(LRU)", p, 2),
		"capacity": jobKeyWithCapacity(t, rs, p),
		"requests": JobKey(core.RequestSet{{1, 2, 3, 1}, {9, 8, 8}}, "S(LRU)", p, 1),
		// Same flattened content, different core structure.
		"shape": JobKey(core.RequestSet{{1, 2, 3, 1, 9}, {8, 9}}, "S(LRU)", p, 1),
	}
	seen := map[string]string{}
	for name, k := range distinct {
		if prev, ok := seen[k]; ok {
			t.Fatalf("key collision between %s and %s", prev, name)
		}
		seen[k] = name
	}
}

// jobKeyWithCapacity keys the base job with a capacity schedule
// attached; the schedule spec must be load-bearing like K and τ.
func jobKeyWithCapacity(t *testing.T, rs core.RequestSet, p core.Params) string {
	t.Helper()
	sched, err := capacity.ParseSchedule("step(to=50%,at=2)", p.K)
	if err != nil {
		t.Fatal(err)
	}
	p.Capacity = sched
	return JobKey(rs, "S(LRU)", p, 1)
}

// TestJobKeyHashesResolvedSchedule pins that the key covers the
// resolved K(t) (Schedule.Canonical), not the spec string: equivalent
// spellings share a cache entry, and a trace schedule's key follows
// the file contents — editing the file re-keys the job instead of
// silently serving stale cached results.
func TestJobKeyHashesResolvedSchedule(t *testing.T) {
	rs := core.RequestSet{{1, 2, 3, 1}, {9, 8, 9}}
	key := func(spec string) string {
		t.Helper()
		sched, err := capacity.ParseSchedule(spec, 16)
		if err != nil {
			t.Fatal(err)
		}
		return JobKey(rs, "S(LRU)", core.Params{K: 16, Tau: 2, Capacity: sched}, 1)
	}
	if key("step(to=8,at=2)") != key("step(to=50%,at=2)") {
		t.Fatal("equivalent schedule specs produced different keys")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "sched.txt")
	if err := os.WriteFile(path, []byte("0 100%\n5 8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	k1 := key("trace(path=" + path + ")")
	if err := os.WriteFile(path, []byte("0 100%\n5 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if k2 := key("trace(path=" + path + ")"); k1 == k2 {
		t.Fatal("editing the trace file left the job key unchanged")
	}
}

func TestResultCacheEvictsLRUAtBudget(t *testing.T) {
	c := newResultCache(2)
	r := func(n int64) Result { return Result{TotalFaults: n} }
	c.put("a", r(1))
	c.put("b", r(2))
	if _, ok := c.get("a"); !ok { // refresh a: b is now least recent
		t.Fatal("a missing")
	}
	c.put("c", r(3)) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived past the budget")
	}
	if v, ok := c.get("a"); !ok || v.TotalFaults != 1 {
		t.Fatal("a lost or corrupted")
	}
	if v, ok := c.get("c"); !ok || v.TotalFaults != 3 {
		t.Fatal("c lost or corrupted")
	}
	hits, misses, entries := c.stats()
	if entries != 2 {
		t.Fatalf("entries = %d, want 2", entries)
	}
	if hits != 3 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 3/1", hits, misses)
	}
	// Handle recycling: many churn cycles never grow past the budget.
	for i := 0; i < 100; i++ {
		c.put(string(rune('d'+i)), r(int64(i)))
	}
	if _, _, entries := c.stats(); entries != 2 {
		t.Fatalf("entries after churn = %d, want 2", entries)
	}
	if c.next > 3 {
		t.Fatalf("handles not recycled: next = %d", c.next)
	}
}

func TestResultCacheDuplicatePutKeepsFirst(t *testing.T) {
	c := newResultCache(4)
	c.put("k", Result{TotalFaults: 1})
	c.put("k", Result{TotalFaults: 99})
	if v, _ := c.get("k"); v.TotalFaults != 1 {
		t.Fatalf("duplicate put replaced the entry: %d", v.TotalFaults)
	}
	if _, _, entries := c.stats(); entries != 1 {
		t.Fatal("duplicate put grew the cache")
	}
}

// TestJobKeyGoldenV3 pins the v3 key bytes: the keys below were
// computed by encoders that wrote one varint per call (binary.PutVarint
// per page), before pages were encoded in batches. Equal keys keep
// cached results and fleet ring placement where they were. The large
// set crosses the encoder's buffer many times with 1- to 4-byte
// varints; the wide set reaches page 2^31−1, so its varints run from 1
// to 5 bytes. Keyer must agree with JobKey on every case.
func TestJobKeyGoldenV3(t *testing.T) {
	small := core.RequestSet{{1, 2, 3, 1}, {7, 8, 7}}
	large := make(core.RequestSet, 3)
	for c := range large {
		for i := 0; i < 5000; i++ {
			large[c] = append(large[c], core.PageID((i*7919+c*104729)%3000017))
		}
	}
	wide := make(core.RequestSet, 2)
	for c := range wide {
		for i := 0; i < 3000; i++ {
			wide[c] = append(wide[c], core.PageID((1<<31-1-i*(c+1))>>(i%32)))
		}
	}
	sched, err := capacity.ParsePortableSchedule("step(to=50%,at=4)", 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		rs   core.RequestSet
		spec string
		p    core.Params
		seed int64
		want string
	}{
		{small, "S(LRU)", core.Params{K: 3, Tau: 2}, 0, "34ee09bcb35758c22b65ae84cf8ab5dc583fbd991bed247f886f6b7361d554e1"},
		{small, "sP[even](LRU)", core.Params{K: 4, Tau: 1, Capacity: sched}, 7, "0ee29e7264f770c9399afb506efb2b639bf0446239b85175ca2cf8e1e525093a"},
		{large, "dP[fair](LRU)", core.Params{K: 64, Tau: 3}, -5, "e16d930bfd6db5ad30735651ea80b16308712dab3321408cd6ec2a72f41a7bbc"},
		{wide, "S(FITF)", core.Params{K: 16, Tau: 8}, 1 << 40, "dfa096bdb9ae2a5e3f8badf358114f5102073d611ad5fa9005367bf434b96ca6"},
	}
	for _, c := range cases {
		if got := JobKey(c.rs, c.spec, c.p, c.seed); got != c.want {
			t.Errorf("JobKey(%s) = %s, want %s", c.spec, got, c.want)
		}
		if got := NewKeyer(c.rs).Key(c.spec, c.p, c.seed); got != c.want {
			t.Errorf("Keyer.Key(%s) = %s, want %s", c.spec, got, c.want)
		}
	}
}

// FuzzJobKeyEncoding holds keyEncoder.requests, which writes most page
// varints with one store each, to a reference built from
// binary.AppendUvarint and binary.AppendVarint, byte for byte. pad bytes
// written first move the batches' start across the encoder's buffer.
// raw is read as little-endian int32 pages, dealt to cores in turn; the
// seeds hold every varint length and negative pages. NewKeyer must hold
// the same bytes, and requestsLen, which sizes its buffer, must give
// their length.
func FuzzJobKeyEncoding(f *testing.F) {
	var edges []byte
	for _, pg := range []int32{0, 63, 64, 8191, 8192, 1 << 20, 1<<31 - 1, -1, -64, -65, -8192, -8193, -1 << 20, -1 << 31} {
		edges = binary.LittleEndian.AppendUint32(edges, uint32(pg))
	}
	f.Add(uint8(0), uint16(0), edges)
	f.Add(uint8(2), uint16(511), edges)
	f.Add(uint8(3), uint16(7), bytes.Repeat(edges, 40))
	f.Add(uint8(5), uint16(0), []byte{})
	f.Fuzz(func(t *testing.T, cores uint8, pad uint16, raw []byte) {
		rs := make(core.RequestSet, int(cores)%8+1)
		for i := 0; i+4 <= min(len(raw), 1<<13); i += 4 {
			c := i / 4 % len(rs)
			rs[c] = append(rs[c], core.PageID(int32(binary.LittleEndian.Uint32(raw[i:]))))
		}
		prefix := make([]byte, int(pad)%1024)
		want := binary.AppendUvarint(append([]byte(nil), prefix...), uint64(len(rs)))
		for _, seq := range rs {
			want = binary.AppendUvarint(want, uint64(len(seq)))
			for _, pg := range seq {
				want = binary.AppendVarint(want, int64(pg))
			}
		}
		var got bytes.Buffer
		e := keyEncoder{w: &got}
		e.raw(prefix)
		e.requests(rs)
		e.flush()
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("pad %d, %v: encoded\n%x\nwant\n%x", len(prefix), rs, got.Bytes(), want)
		}
		if n := requestsLen(rs); n != len(want)-len(prefix) {
			t.Fatalf("%v: requestsLen %d, encoding %d bytes", rs, n, len(want)-len(prefix))
		}
		if k := NewKeyer(rs); !bytes.Equal(k.enc, want[len(prefix):]) {
			t.Fatalf("%v: NewKeyer holds\n%x\nwant\n%x", rs, k.enc, want[len(prefix):])
		}
	})
}
