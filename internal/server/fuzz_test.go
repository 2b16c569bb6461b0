package server

import (
	"bytes"
	"encoding/base64"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"mcpaging/internal/core"
	"mcpaging/internal/trace"
)

// FuzzJobRequest drives POST /v1/jobs through Server.Handler() with
// arbitrary bodies under a small per-job budget: every body must be
// answered with a 2xx or a 4xx, never a panic or a 5xx. The seeds are
// jobs in each trace mode and bodies that were once answered with a
// 500, that hung a worker or crashed the server, or that cost hours of
// generation: K below the core count or far above the budget, K(t)
// below the active cores, a strategy without elastic support under
// K(t), a fetch delay that overflows the clock, permutation-heavy and
// unusable workload specs, and a phase count at the int limit.
func FuzzJobRequest(f *testing.F) {
	var bin bytes.Buffer
	if err := trace.WriteBinary(&bin, core.RequestSet(testTrace())); err != nil {
		f.Fatal(err)
	}
	zipf4 := `{"workload":{"cores":4,"length":50,"pages":16,"kind":"zipf","seed":1}}`
	seeds := []string{
		`{"trace":{"inline":[[1,2,3,1,2,3,4,1,2],[10,11,10,12,11,10]]},"strategy":"S(LRU)","k":4,"tau":1}`,
		`{"trace":{"binary_b64":"` + base64.StdEncoding.EncodeToString(bin.Bytes()) + `"},"strategy":"dP(ARC)","k":3,"tau":2,"seed":3}`,
		`{"trace":{"workload":{"cores":2,"length":100,"pages":8,"kind":"phased","phases":4,"seed":2}},"strategy":"sP[opt](FITF)","k":6,"tau":0}`,
		`{"trace":` + zipf4 + `,"strategy":"eP[fair](LRU)","k":8,"tau":1,"capacity":"step(to=50%,at=10)"}`,
		`{"trace":` + zipf4 + `,"strategy":"eP[even](LRU)","k":8,"tau":1,"capacity":"step(to=25%,at=10)"}`,
		`{"trace":` + zipf4 + `,"strategy":"S(FWF)","k":8,"tau":1,"capacity":"step(to=50%,at=10)"}`,
		`{"trace":{"workload":{"cores":64,"length":1,"pages":65535,"kind":"zipf","seed":1}},"strategy":"S(LRU)","k":64}`,
		`{"trace":{"workload":{"cores":200,"length":0,"pages":65535,"kind":"zipf","seed":1}},"strategy":"S(LRU)","k":200}`,
		`{"trace":{"workload":{"cores":1,"length":200,"pages":65535,"kind":"phased","phases":200,"seed":1}},"strategy":"S(LRU)","k":4}`,
		`{"trace":{"workload":{"cores":1,"length":10,"pages":4,"kind":"phased","phases":9223372036854775807,"seed":1}},"strategy":"S(LRU)","k":2}`,
		`{"trace":{"workload":{"cores":2,"length":100,"pages":64,"kind":"zipf","zipf_v":1e15,"seed":1}},"strategy":"S(LRU)","k":8,"tau":1}`,
		`{"trace":{"inline":[[1,2],[3]]},"strategy":"dP[ucp](LRU)","k":1000000000,"tau":1}`,
		`{"trace":{"inline":[[1,2,3],[4,1]]},"strategy":"S(LRU)","k":2,"tau":9223372036854775807}`,
	}
	for _, spec := range []string{"S(LRU)", "dP(LRU)", "S(FITF)", "sP[even](LRU)", "dP[fair](LRU)", "dP[ucp](LRU)"} {
		for k := 1; k < 4; k++ {
			seeds = append(seeds, `{"trace":`+zipf4+`,"strategy":"`+spec+`","k":`+strconv.Itoa(k)+`,"tau":2}`)
		}
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	s := New(Config{Workers: 1, MaxRequests: 256})
	f.Cleanup(s.Drain)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if rec.Code < 200 || rec.Code >= 500 {
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body.Bytes())
		}
	})
}
