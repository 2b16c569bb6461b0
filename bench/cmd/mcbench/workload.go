package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"

	"mcpaging/internal/core"
	"mcpaging/internal/server"
	"mcpaging/internal/sim"
	"mcpaging/internal/trace"
	"mcpaging/internal/workload"
)

// workloadDef is one traffic mix. All loops are closed: the clients
// stand for experiment drivers (mcsweep, mcverify, scripts) that wait
// for each reply before sending the next request.
type workloadDef struct {
	name    string
	clients int
	sweep   bool
	fleet   bool
}

var workloads = []workloadDef{
	{name: "job-cold", clients: 2},
	{name: "job-hot", clients: 2},
	{name: "job-trace", clients: 2},
	{name: "sweep", clients: 1, sweep: true},
	{name: "fleet-sweep", clients: 1, sweep: true, fleet: true},
}

// tailQ is the latency_tail_ms percentile. A 20-second run leaves at
// least ten samples beyond it on every workload (about 115 sweeps on
// fleet-sweep, the fewest). Higher percentiles have the samples on the
// job workloads but not the steadiness: the vCPU stalls of a shared host
// land in the top few percent, and p99 spread by up to 0.23 of its median
// over ten seeds where p90 stayed under 0.1.
const tailQ = 0.90

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// Input shapes. job-cold and job-hot share one job shape; job-trace is
// the recorded, shared-page, elastic-capacity counterpart; the sweeps
// run a 2 K × 2 τ × 4 strategy grid over half-length zipf inputs.
var (
	jobSpec        = workload.Spec{Cores: 4, Length: 25000, Pages: 512, Kind: workload.Zipf}
	jobStrategies  = []string{"S(LRU)", "sP[even](LRU)", "dP(LRU)", "S(ARC)"}
	traceSpec      = workload.Spec{Cores: 8, Length: 12500, Pages: 256, Kind: workload.Phased, SharedFrac: 0.1}
	traceCapacity  = "step(to=50%,at=6000)"
	traceStrategy  = []string{"S(LRU)", "eP[even](LRU)", "eP[fair](LRU)", "S(ARC)"}
	sweepSpec      = workload.Spec{Cores: 4, Length: 12500, Pages: 512, Kind: workload.Zipf}
	sweepKs        = []int{64, 256}
	sweepTaus      = []int{0, 8}
	hotJobs        = 64 // job-hot cycles through this many pre-warmed jobs
	traceCount     = 64 // job-trace pre-encodes this many binary traces
	maxRequestsJob = 8 << 20
)

const (
	jobK, jobTau     = 256, 8
	traceK, traceTau = 512, 8
)

// Seed streams: each input family draws its seeds from its own
// sim.DeriveSeed stream, so the same -seed always yields the same bodies
// and warm-up traffic never shifts the measured op sequence.
const (
	streamJob = iota + 1
	streamHot
	streamTrace
	streamTraceSeed
	streamSweep
	streamWarm
)

// op is one request of a workload: the body sent and the request it
// encodes. rs is the resolved input when the generator already holds
// it (job-trace keeps the traces it encoded); otherwise nil.
type op struct {
	index int
	body  []byte
	job   *server.JobRequest
	sweep *server.SweepRequest
	rs    core.RequestSet
}

// cells is the number of simulation cells the op asks for.
func (o op) cells() int {
	if o.sweep != nil {
		return len(o.sweep.Ks) * len(o.sweep.Taus) * len(o.sweep.Strategies)
	}
	return 1
}

// inputs generates a workload's request bodies from the seed.
type inputs struct {
	def    workloadDef
	seed   int64
	traces []encodedTrace // job-trace only
}

type encodedTrace struct {
	rs  core.RequestSet
	b64 string
}

// newInputs prepares the workload's inputs; for job-trace that means
// generating and encoding every trace up front, as a client replaying
// recorded traces would hold them.
func newInputs(def workloadDef, seed int64) (*inputs, error) {
	in := &inputs{def: def, seed: seed}
	if def.name != "job-trace" {
		return in, nil
	}
	in.traces = make([]encodedTrace, traceCount)
	for t := range in.traces {
		spec := traceSpec
		spec.Seed = sim.DeriveSeed(seed, streamTrace, int64(t))
		rs, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		var raw bytes.Buffer
		if err := trace.WriteBinary(&raw, rs); err != nil {
			return nil, err
		}
		in.traces[t] = encodedTrace{rs: rs, b64: base64.StdEncoding.EncodeToString(raw.Bytes())}
	}
	return in, nil
}

// op returns the i-th measured request.
func (in *inputs) op(i int) op { return in.build(i, false) }

// warmOp returns the i-th warm-up request, drawn from its own seed
// stream.
func (in *inputs) warmOp(i int) op { return in.build(i, true) }

func (in *inputs) build(i int, warm bool) op {
	stream := func(s int64) int64 {
		if warm {
			return streamWarm
		}
		return s
	}
	switch in.def.name {
	case "job-cold", "job-hot":
		spec := jobSpec
		if in.def.name == "job-hot" && !warm {
			spec.Seed = sim.DeriveSeed(in.seed, streamHot, int64(i%hotJobs))
		} else {
			spec.Seed = sim.DeriveSeed(in.seed, stream(streamJob), int64(i))
		}
		req := server.JobRequest{Trace: server.TraceInput{Workload: &spec},
			Strategy: jobStrategies[i%len(jobStrategies)], K: jobK, Tau: jobTau, Seed: in.seed}
		return op{index: i, body: mustJSON(req), job: &req}
	case "job-trace":
		tr := in.traces[i%len(in.traces)]
		req := server.JobRequest{Trace: server.TraceInput{BinaryB64: tr.b64},
			Strategy: traceStrategy[i%len(traceStrategy)], K: traceK, Tau: traceTau,
			Capacity: traceCapacity, Seed: sim.DeriveSeed(in.seed, stream(streamTraceSeed), int64(i))}
		// Splice the per-job fields after the trace rather than
		// re-marshalling (and re-scanning) a ~400 KB base64 string per
		// request; base64 needs no JSON escaping.
		tail := mustJSON(struct {
			Strategy string `json:"strategy"`
			K        int    `json:"k"`
			Tau      int    `json:"tau"`
			Capacity string `json:"capacity"`
			Seed     int64  `json:"seed"`
		}{req.Strategy, req.K, req.Tau, req.Capacity, req.Seed})
		body := make([]byte, 0, len(tr.b64)+len(tail)+32)
		body = append(body, `{"trace":{"binary_b64":"`...)
		body = append(body, tr.b64...)
		body = append(body, `"},`...)
		body = append(body, tail[1:]...)
		return op{index: i, body: body, job: &req, rs: tr.rs}
	default: // sweep, fleet-sweep: the same bodies for the same seed
		spec := sweepSpec
		spec.Seed = sim.DeriveSeed(in.seed, stream(streamSweep), int64(i))
		req := server.SweepRequest{Trace: server.TraceInput{Workload: &spec},
			Ks: sweepKs, Taus: sweepTaus, Strategies: jobStrategies, Seed: in.seed}
		if warm {
			// Two cells, one per simulation thread, open the connections
			// and size the runners.
			req.Ks, req.Taus, req.Strategies = sweepKs[:1], sweepTaus[:1], jobStrategies[:2]
		}
		return op{index: i, body: mustJSON(req), sweep: &req}
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs are marshalled here
	}
	return b
}
