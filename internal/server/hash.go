package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math/bits"
	"strings"

	"mcpaging/internal/core"
)

// JobKey computes the content-addressed cache key of one simulation
// job: a SHA-256 over a canonical encoding of (request set, strategy
// spec, K, τ, capacity schedule, seed). The request set is hashed by
// content, so the same instance reaches the same key whether it arrived
// inline, as a binary trace, or as a deterministic workload spec. The
// spec is trimmed the same way strategyspec.Build trims it; seed is
// always included because it changes the behaviour of randomized
// policies (for deterministic policies two seeds simply occupy two
// cache entries). The capacity schedule is hashed by its canonical
// resolved form (Schedule.Canonical — the breakpoint list or wave
// parameters, empty for fixed-capacity jobs), never by the spec
// string: two spellings of the same K(t) share an entry, and a
// schedule whose spec alone does not determine K(t) (trace reads a
// file) can never alias a key onto a different simulation. The domain
// label is v3 — v2 hashed the raw spec string; switching to the
// canonical encoding re-keyed every elastic job, and the bump makes
// the old and new key spaces disjoint rather than silently aliased.
//
// The key is exported because it is also the fleet's routing key:
// mcfleet consistent-hashes it onto the worker ring, so a job lands on
// the worker whose result cache is most likely to already hold it —
// the per-worker caches compose into one logical distributed cache.
func JobKey(rs core.RequestSet, spec string, p core.Params, seed int64) string {
	h := sha256.New()
	e := keyEncoder{w: h}
	e.params(spec, p, seed)
	e.requests(rs)
	e.flush()
	return hex.EncodeToString(h.Sum(nil))
}

// Keyer keys many jobs over one request set, such as the cells of a
// sweep, with the keys JobKey gives them. It encodes the request set
// once, so each Key hashes the job's parameters and that shared
// encoding instead of re-encoding the set varint by varint.
type Keyer struct{ enc []byte }

// NewKeyer encodes rs for Key, into a buffer grown once to the
// encoding's size.
func NewKeyer(rs core.RequestSet) Keyer {
	var b bytes.Buffer
	b.Grow(requestsLen(rs))
	e := keyEncoder{w: &b}
	e.requests(rs)
	e.flush()
	return Keyer{enc: b.Bytes()}
}

// Key returns JobKey(rs, spec, p, seed) for the request set the Keyer
// was built from.
func (k Keyer) Key(spec string, p core.Params, seed int64) string {
	h := sha256.New()
	e := keyEncoder{w: h}
	e.params(spec, p, seed)
	e.flush()
	h.Write(k.enc)
	return hex.EncodeToString(h.Sum(nil))
}

// keyEncoder writes JobKey's canonical encoding to w through a fixed
// buffer: one Write per buffer-full rather than one per varint, which
// for a request set of n pages is n interface calls into the hash.
type keyEncoder struct {
	w   io.Writer
	n   int
	buf [512]byte
}

// params encodes everything but the request set: the domain label, K,
// τ, the canonical capacity schedule, the seed and the trimmed spec.
func (e *keyEncoder) params(spec string, p core.Params, seed int64) {
	e.raw([]byte("mcservd/job/v3\x00"))
	e.varint(int64(p.K))
	e.varint(int64(p.Tau))
	var capEnc []byte
	if p.Capacity != nil {
		capEnc = p.Capacity.Canonical()
	}
	e.uvarint(uint64(len(capEnc)))
	e.raw(capEnc)
	e.varint(seed)
	spec = strings.TrimSpace(spec)
	e.uvarint(uint64(len(spec)))
	e.raw([]byte(spec))
}

// maxPageVarint is the longest varint of a page: a zigzagged int32
// takes at most 32 bits, 7 to a byte.
const maxPageVarint = 5

// requests encodes the request set: the core count, then each core's
// length and pages. Pages go in batches of as many as fit the buffer at
// maxPageVarint bytes each, each written as the zigzag varint
// binary.PutVarint gives its int64 value. A varint of 1 to 3 bytes (a
// page below 2^20, as a generated set's private pages are on its first
// 16 cores) takes one store: a 3-byte one
// stores 4 bytes, whose last the next varint overwrites or flush leaves
// out, and which stays inside the page's maxPageVarint bytes. Longer
// varints go a byte at a time.
func (e *keyEncoder) requests(rs core.RequestSet) {
	e.uvarint(uint64(len(rs)))
	for _, seq := range rs {
		e.uvarint(uint64(len(seq)))
		for len(seq) > 0 {
			if len(e.buf)-e.n < maxPageVarint {
				e.flush()
			}
			batch := seq[:min(len(seq), (len(e.buf)-e.n)/maxPageVarint)]
			seq = seq[len(batch):]
			b, n := e.buf[:], e.n
			for _, pg := range batch {
				v := uint32(pg)<<1 ^ uint32(pg>>31)
				switch {
				case v < 1<<7:
					b[n] = byte(v)
					n++
				case v < 1<<14:
					binary.LittleEndian.PutUint16(b[n:], uint16(v&0x7f|0x80|v<<1&0x7f00))
					n += 2
				case v < 1<<21:
					binary.LittleEndian.PutUint32(b[n:], v&0x7f|0x80|v<<1&0x7f00|0x8000|v<<2&0x7f0000)
					n += 3
				default:
					for v >= 0x80 {
						b[n] = byte(v) | 0x80
						v >>= 7
						n++
					}
					b[n] = byte(v)
					n++
				}
			}
			e.n = n
		}
	}
}

// requestsLen returns the length of requests' encoding of rs.
func requestsLen(rs core.RequestSet) int {
	n := uvarintLen(uint64(len(rs)))
	for _, seq := range rs {
		n += uvarintLen(uint64(len(seq)))
		for _, pg := range seq {
			n += uvarintLen(uint64(uint32(pg)<<1 ^ uint32(pg>>31)))
		}
	}
	return n
}

// uvarintLen returns the length of v's uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func (e *keyEncoder) uvarint(v uint64) {
	if len(e.buf)-e.n < binary.MaxVarintLen64 {
		e.flush()
	}
	e.n += binary.PutUvarint(e.buf[e.n:], v)
}

func (e *keyEncoder) varint(v int64) {
	if len(e.buf)-e.n < binary.MaxVarintLen64 {
		e.flush()
	}
	e.n += binary.PutVarint(e.buf[e.n:], v)
}

func (e *keyEncoder) raw(b []byte) {
	for len(b) > 0 {
		if e.n == len(e.buf) {
			e.flush()
		}
		c := copy(e.buf[e.n:], b)
		e.n += c
		b = b[c:]
	}
}

// flush hands the buffered bytes to w. Neither sink can fail: hash
// writes never return an error and bytes.Buffer panics rather than
// return one.
func (e *keyEncoder) flush() {
	_, _ = e.w.Write(e.buf[:e.n])
	e.n = 0
}
