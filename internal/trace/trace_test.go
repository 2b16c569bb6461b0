package trace

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"mcpaging/internal/core"
)

func TestRoundTrip(t *testing.T) {
	rs := core.RequestSet{
		{1, 2, 3, 1, 2, 3},
		{},
		{100000, 0, 42},
	}
	var buf bytes.Buffer
	if err := Write(&buf, rs); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rs) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, rs)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := make(core.RequestSet, 1+rng.Intn(5))
		for j := range rs {
			s := make(core.Sequence, rng.Intn(100))
			for i := range s {
				s[i] = core.PageID(rng.Intn(1 << 20))
			}
			rs[j] = s
		}
		var buf bytes.Buffer
		if err := Write(&buf, rs); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, rs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"bogus v1 cores 1",
		"mcpaging-trace v2 cores 1",
		"mcpaging-trace v1 cores x",
		"mcpaging-trace v1 cores 1 core 1 1 5",          // out-of-order core index
		"mcpaging-trace v1 cores 1 core 0 3 1 2",        // truncated payload
		"mcpaging-trace v1 cores 1 core 0 2 1 -5",       // negative page
		"mcpaging-trace v1 cores 2 core 0 1 7",          // missing second core
		"mcpaging-trace v1 cores -3",                    // bad core count
		"mcpaging-trace v1 cores 1 core 0 -1",           // bad length
		"mcpaging-trace v1 cores 1 kore 0 1 7",          // bad keyword
		"mcpaging-trace v1 cores 1 core 0 1 4294967301", // page 2^32+5, which int32 wraps to 5
		"mcpaging-trace v1 cores 1 core 0 1 2147483648", // page 2^31
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d (%q) should fail", i, c)
		}
	}
}

func TestWrappedTokensAccepted(t *testing.T) {
	in := "mcpaging-trace\nv1\ncores\n1\ncore\n0\n4\n1\n2\n3\n4\n"
	rs, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := core.RequestSet{{1, 2, 3, 4}}
	if !reflect.DeepEqual(rs, want) {
		t.Fatalf("got %v, want %v", rs, want)
	}
}

// TestReadBoundsLyingHeader feeds Read text headers that declare far
// more than their tokens hold: one core of 2^28 pages with one page
// behind it, and 2^20 cores with one empty core behind them. Each must
// fail, on the missing tokens, after allocating well under 1 MiB.
func TestReadBoundsLyingHeader(t *testing.T) {
	for _, in := range []string{
		"mcpaging-trace v1 cores 1 core 0 268435456 5",
		"mcpaging-trace v1 cores 1048576 core 0 0",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(strings.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), io.ErrUnexpectedEOF.Error()) {
			t.Fatalf("%q: err = %v, want an unexpected EOF", in, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Fatalf("%q: allocated %d bytes, want < 1 MiB", in, n)
		}
	}
}
