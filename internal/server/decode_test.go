package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mcpaging/internal/trace"
	"mcpaging/internal/workload"
)

// decodeB64 is a binary trace in base64: job-trace's phased shape
// with 10% shared pages, shrunk to 2 × 40 requests so that the fuzzer
// mutates bodies that carry it quickly.
func decodeB64(t testing.TB) string {
	t.Helper()
	rs, err := workload.Generate(workload.Spec{Kind: workload.Phased, Cores: 2, Length: 40, Pages: 16, SharedFrac: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if err := trace.WriteBinary(&raw, rs); err != nil {
		t.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(raw.Bytes())
}

// decodeCases are bodies whose decoding the fast path must not change,
// each with whether splitB64 takes it.
func decodeCases(t testing.TB) []struct {
	name string
	body string
	fast bool
} {
	b64 := decodeB64(t)
	sweep, err := json.Marshal(SweepRequest{Trace: TraceInput{BinaryB64: b64}, Ks: []int{8, 16}, Taus: []int{0, 2},
		Capacities: []string{"", "step(to=50%,at=20)"}, Strategies: []string{"S(LRU)", "eP[fair](LRU)"}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	workload, err := json.Marshal(benchWorkloadJob(1, "S(LRU)", 0))
	if err != nil {
		t.Fatal(err)
	}
	head := b64Head + b64 + `"}`
	return []struct {
		name string
		body string
		fast bool
	}{
		// The repository benchmark's job-trace layout: the trace head,
		// then the job's fields spliced after it.
		{"job-trace", string(appendTraceJob(nil, []byte(head+","), 0)), true},
		{"binary sweep", string(sweep), true},
		{"workload job", string(workload), false},
		{"empty payload", b64Head + `"},"strategy":"S(LRU)","k":8}`, true},
		// A JSON escape in the payload: unquoting changes it.
		{"escape in payload", b64Head + `QUJD\u0041"},"strategy":"S(LRU)","k":8}`, false},
		// A raw newline: base64 would skip it, JSON rejects it.
		{"newline in payload", b64Head + "QUJD\nQUJD\"},\"strategy\":\"S(LRU)\",\"k\":8}", false},
		{"non-ASCII in payload", b64Head + "QUJD\xc3\xa9\"},\"strategy\":\"S(LRU)\",\"k\":8}", false},
		{"non-ASCII in rest", head + ",\"strategy\":\"S(LRU)\xc3\xa9\",\"k\":8}", false},
		// encoding/json matches keys by Unicode case folding: a long s
		// (U+017F) folds to s, so this key sets strategy.
		{"folded key", head + ",\"\xc5\xbftrategy\":\"S(LRU)\",\"k\":8}", false},
		{"escaped key", b64Head + `QUJD","binary\u005fb64":"REVG"},"k":8}`, false},
		{"later empty BINARY_B64", head + `,"strategy":"S(LRU)","trace":{"BINARY_B64":""}}`, false},
		{"later BINARY_B64", head + `,"strategy":"S(LRU)","trace":{"BINARY_B64":"REVG"}}`, false},
		// encoding/json merges a second trace object into the first.
		{"second trace", head + `,"trace":{"inline":[[1,2],[3]]},"strategy":"S(LRU)","k":2}`, true},
		{"trailing data", head + `,"k":1} {"k":2} garbage`, true},
		{"cut after payload", b64Head + `QUJD"`, true},
		{"cut in payload", b64Head + `QUJD`, false},
		{"wrong type after payload", head + `,"k":"eight","tau":1.5}`, true},
		{"syntax error after payload", head + `,"k":8,}`, true},
		{"empty", "", false},
	}
}

// checkDecode decodes body through DecodeRequest into got and through
// json.NewDecoder into want, and requires the same error text and, on
// success, equal values.
func checkDecode(t *testing.T, body []byte, got, want Body) {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	gotErr := DecodeRequest(httptest.NewRecorder(), r, int64(len(body)), got)
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%T from %q: err %v, encoding/json %v", got, body, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%T from %q: decoded %+v, encoding/json %+v", got, body, got, want)
	}
}

// FuzzDecodeRequest holds DecodeRequest to encoding/json: every body,
// decoded as a JobRequest and as a SweepRequest, gives the error text
// json.NewDecoder gives and, on success, an equal request.
func FuzzDecodeRequest(f *testing.F) {
	for _, tc := range decodeCases(f) {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body, new(JobRequest), new(JobRequest))
		checkDecode(t, body, new(SweepRequest), new(SweepRequest))
	})
}

// TestDecodeFastPath pins which bodies splitB64 lifts the payload out
// of: binary-trace bodies as encoding/json writes them, even with
// trailing data, a second trace object or an error after the payload,
// and none that an escape, a control or non-ASCII byte, or a later
// binary_b64 key in any spelling could decode differently.
// FuzzDecodeRequest's seeds check that both paths decode alike.
func TestDecodeFastPath(t *testing.T) {
	for _, tc := range decodeCases(t) {
		payload, rest, ok := splitB64([]byte(tc.body))
		if ok != tc.fast {
			t.Errorf("%s: fast path %v, want %v", tc.name, ok, tc.fast)
			continue
		}
		if ok && b64Head+string(payload)+string(rest) != tc.body {
			t.Errorf("%s: split into %q and %q", tc.name, payload, rest)
		}
	}
}

// TestPrintable holds the word-at-a-time printable to a byte loop:
// every byte value at every position of two words and a tail, and
// every pair of values in adjacent bytes within a word and across the
// word boundary, where borrows and carries could cross bytes.
func TestPrintable(t *testing.T) {
	ref := func(s []byte) bool {
		for _, c := range s {
			if c < ' ' || c > '~' || c == '\\' {
				return false
			}
		}
		return true
	}
	buf := bytes.Repeat([]byte("A"), 19)
	check := func() {
		if got := printable(buf); got != ref(buf) {
			t.Fatalf("printable(%q) = %v", buf, got)
		}
	}
	for pos := range buf {
		for v := 0; v < 256; v++ {
			buf[pos] = byte(v)
			check()
		}
		buf[pos] = 'A'
	}
	for _, pos := range []int{3, 7} {
		for v := 0; v < 256; v++ {
			for u := 0; u < 256; u++ {
				buf[pos], buf[pos+1] = byte(v), byte(u)
				check()
			}
		}
		buf[pos], buf[pos+1] = 'A', 'A'
	}
}

// TestDecodeRequestReadsWholeBody pins the read: a body over MaxBody is
// a 400 even when its first JSON value ends inside the limit, a body of
// exactly MaxBody decodes, a Content-Length that lies buys at most the
// read-ahead, and a body of unknown length grows its buffer.
func TestDecodeRequestReadsWholeBody(t *testing.T) {
	job := mustJSON(t, JobRequest{Trace: TraceInput{Inline: testTrace()}, Strategy: "S(LRU)", K: 4, Tau: 1})
	const maxBody = 1024
	s := New(Config{Workers: 1, MaxBody: maxBody})
	defer s.Drain()
	for _, tc := range []struct {
		size int
		code int
	}{{maxBody, http.StatusOK}, {maxBody + 1, http.StatusBadRequest}} {
		body := append(append([]byte(nil), job...), bytes.Repeat([]byte(" "), tc.size-len(job))...)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if rec.Code != tc.code || (tc.code == http.StatusBadRequest && !strings.Contains(rec.Body.String(), "request body too large")) {
			t.Fatalf("%d-byte body: status %d, body %q; want %d", tc.size, rec.Code, rec.Body, tc.code)
		}
	}

	decode := func(body []byte, contentLength int64) (JobRequest, error) {
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		r.ContentLength = contentLength
		var req JobRequest
		err := DecodeRequest(httptest.NewRecorder(), r, 64<<20, &req)
		return req, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decode(job, 1<<40)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	// The race detector's build allocates bytes.Buffer's growth twice,
	// so the bound leaves room for two read-aheads.
	if n := after.TotalAlloc - before.TotalAlloc; n >= 4*bodyReadAhead {
		t.Fatalf("a %d-byte body claiming 1 TiB allocated %d bytes, want < %d", len(job), n, 4*bodyReadAhead)
	}
	long := []byte(b64Head + decodeB64(t) + `"},"strategy":"S(LRU)","k":8}`)
	got, err := decode(long, -1)
	if err != nil || got.Trace.BinaryB64 != decodeB64(t) || got.Strategy != "S(LRU)" || got.K != 8 {
		t.Fatalf("%d-byte body of unknown length: %+v, %v", len(long), got, err)
	}
	var mbe *http.MaxBytesError
	r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(long))
	if err := DecodeRequest(httptest.NewRecorder(), r, int64(len(long)-1), new(JobRequest)); !errors.As(err, &mbe) {
		t.Fatalf("a body one byte over the limit: err %v, want *http.MaxBytesError", err)
	}
}
