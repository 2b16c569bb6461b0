// Package fleet implements mcfleet, the sweep-orchestration layer over
// a fleet of mcservd workers. It is the serving-side reading of the
// multicore model: many independent caches (the workers' result
// caches) in front of one shared workload (the sweep grid), with the
// coordinator deciding placement.
//
// Pieces, front to back:
//
//   - Gateway (gateway.go): admission control — per-tenant token-bucket
//     quotas and load shedding — plus the coordinator's HTTP surface
//     and graceful drain.
//   - Dispatcher (dispatcher.go): fans sweep cells out across workers
//     with blocking-enqueue backpressure, retries and failover, and
//     re-merges streamed results into canonical grid order.
//   - Registry (registry.go): worker membership, /readyz health probes,
//     latency EWMAs and the weights derived from them.
//   - Client (client.go): per-worker HTTP client honoring 429/503
//     Retry-After with jittered exponential backoff.
//   - Ring (this file): consistent-hash routing keyed on the
//     content-addressed job hash, so the per-worker result caches
//     compose into one logical distributed cache with high affinity.
//
// What the coordinator shares with mcservd comes from internal/server,
// not from a copy: the request decoder, the JSON and error writers, the
// Retry-After hint, the /healthz and /readyz handlers, the daemon
// lifecycle, and server.Clock, the only source of time here.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
)

// ringSeed domain-separates ring point hashing from every other SHA-256
// use in the repo.
const ringSeed = "mcfleet/ring/v1\x00"

// Ring is an immutable consistent-hash ring over a set of member IDs.
// Each member owns Replicas virtual points; a key is owned by the
// member of the first point clockwise from the key's position.
// Membership changes are modelled by building a new Ring — the
// consistent-hashing contract (only keys touching the added/removed
// member move) is pinned by FuzzRingRebalance.
type Ring struct {
	replicas int
	members  []string
	points   []ringPoint
}

type ringPoint struct {
	hash   uint64
	member int // index into members
}

// NewRing builds a ring with the given virtual-point count per member
// (replicas < 1 is clamped to 1). Member IDs are deduplicated and
// sorted, so rings built from the same set are identical regardless of
// input order.
func NewRing(replicas int, members []string) *Ring {
	if replicas < 1 {
		replicas = 1
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{replicas: replicas, members: uniq}
	r.points = make([]ringPoint, 0, replicas*len(uniq))
	var buf [binary.MaxVarintLen64]byte
	for mi, m := range uniq {
		h := sha256.New()
		h.Write([]byte(ringSeed))
		h.Write([]byte(m))
		h.Write([]byte{0})
		base := h.Sum(nil)
		for rep := 0; rep < replicas; rep++ {
			h2 := sha256.New()
			h2.Write(base)
			h2.Write(buf[:binary.PutUvarint(buf[:], uint64(rep))])
			sum := h2.Sum(nil)
			r.points = append(r.points, ringPoint{
				hash:   binary.BigEndian.Uint64(sum[:8]),
				member: mi,
			})
		}
	}
	// Ties (astronomically unlikely) break by member index, keeping the
	// ring deterministic.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Members returns the sorted member IDs.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// KeyPoint maps a routing key onto the ring's hash space. Job keys are
// the hex SHA-256 the server computes (server.JobKey); their first 16
// hex digits already are a uniform 64-bit value, so they are used
// directly. Any other string is hashed first.
func KeyPoint(key string) uint64 {
	if len(key) >= 16 {
		if v, err := hex.DecodeString(key[:16]); err == nil {
			return binary.BigEndian.Uint64(v)
		}
	}
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Lookup returns the member owning key, or "" for an empty ring.
func (r *Ring) Lookup(key string) string {
	succ := r.Successors(key, 1)
	if len(succ) == 0 {
		return ""
	}
	return succ[0]
}

// Successors returns up to n distinct members in ring order starting
// at key's owner — the failover order: if the owner is down, the next
// ring member inherits exactly this key range, so retried cells stay
// as cache-affine as membership allows.
func (r *Ring) Successors(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	kp := KeyPoint(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kp })
	out := make([]string, 0, n)
	taken := make(map[int]bool, n)
	for i := 0; len(out) < n && i < len(r.points); i++ {
		pt := r.points[(start+i)%len(r.points)]
		if !taken[pt.member] {
			taken[pt.member] = true
			out = append(out, r.members[pt.member])
		}
	}
	return out
}
