package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"mcpaging/internal/core"
)

// Binary format: a compact varint encoding for large traces.
//
//	magic "MCPT" + version byte 1
//	uvarint p
//	per core: uvarint length, then delta-zigzag varint page IDs
//
// Delta encoding exploits the locality of generated workloads; loop and
// markov traces compress to ~1 byte per request.

var binaryMagic = []byte{'M', 'C', 'P', 'T', 1}

// WriteBinary serialises a request set in the binary format.
func WriteBinary(w io.Writer, r core.RequestSet) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(r.NumCores())); err != nil {
		return err
	}
	for _, seq := range r {
		if err := putUvarint(uint64(len(seq))); err != nil {
			return err
		}
		prev := int64(0)
		for _, pg := range seq {
			if err := putVarint(int64(pg) - prev); err != nil {
				return err
			}
			prev = int64(pg)
		}
	}
	return bw.Flush()
}

// ReadBinary parses the binary format, materializing the full request
// set. Callers that can process requests core by core should use
// Decoder instead, which never holds more than one caller-sized buffer
// of decoded pages.
func ReadBinary(r io.Reader) (core.RequestSet, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	return d.ReadAll()
}

// Decoder streams a binary trace without materializing it: the header
// is parsed on construction, then each core's sequence is consumed
// with NextCore followed by Read calls into a caller-owned buffer. The
// caller controls all allocation, so a billion-request trace can feed
// a consumer through a fixed-size buffer.
//
//	d, _ := trace.NewDecoder(f)
//	buf := make([]core.PageID, 64<<10)
//	for {
//		n, err := d.NextCore()      // io.EOF after the last core
//		...
//		for {
//			m, err := d.Read(buf)   // io.EOF at the end of the core
//			consume(buf[:m])
//			...
//		}
//	}
//
// Errors: io.EOF is returned bare, and only at the two ends the loop
// above waits for — by Read once the current core's declared requests
// are all read, and by NextCore once the header's core count is. A
// stream that stops short of either end (inside a varint, inside a
// core, or before a core the header declares) gives an error for which
// errors.Is(err, io.ErrUnexpectedEOF) holds, so a truncated core never
// reads as a complete one. Malformed input — a varint that overflows,
// a page outside [0, 2^31), an implausible count — gives a descriptive
// error. Read returns the pages decoded before an error with it. After
// an error other than io.EOF the decoder is spent: its position in the
// stream is unspecified.
type Decoder struct {
	br *bufio.Reader
	p  int // core count from the header

	decoded int   // cores whose NextCore has been issued
	left    int   // requests remaining in the current core
	prev    int64 // delta-decoding accumulator for the current core
}

// NewDecoder parses the binary header (magic and core count) and
// positions the stream at the first core. The decoder reads r through
// a bufio.Reader (r itself when it is one), which may read past the
// end of the trace.
func NewDecoder(r io.Reader) (*Decoder, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	head := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: short binary header: %w", truncated(err))
	}
	for i, b := range binaryMagic {
		if head[i] != b {
			return nil, fmt.Errorf("trace: bad binary magic")
		}
	}
	p, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, truncated(err)
	}
	if p < 1 || p > 1<<20 {
		return nil, fmt.Errorf("trace: implausible core count %d", p)
	}
	return &Decoder{br: br, p: int(p)}, nil
}

// NumCores returns the trace's core count, known from the header.
func (d *Decoder) NumCores() int { return d.p }

// NextCore advances to the next core's sequence and returns its
// length. It returns io.EOF after the last core. The previous core's
// sequence must be fully consumed first (Read returned io.EOF).
func (d *Decoder) NextCore() (int, error) {
	if d.left != 0 {
		return 0, fmt.Errorf("trace: NextCore with %d requests unread in core %d", d.left, d.decoded-1)
	}
	if d.decoded == d.p {
		return 0, io.EOF
	}
	n, err := binary.ReadUvarint(d.br)
	if err != nil {
		return 0, truncated(err)
	}
	if n > 1<<28 {
		return 0, fmt.Errorf("trace: implausible sequence length %d", n)
	}
	d.decoded++
	d.left = int(n)
	d.prev = 0
	return int(n), nil
}

// Read decodes up to len(buf) pages of the current core's sequence
// into buf and returns the count. At the end of the core it returns
// 0, io.EOF; call NextCore to proceed.
//
// The varints that lie wholly in the reader's buffered bytes are
// decoded in place. A varint that straddles the end of the buffered
// bytes, or one longer than any page delta needs, is left to
// binary.ReadUvarint, which refills the buffer and reports the
// format's errors.
func (d *Decoder) Read(buf []core.PageID) (n int, err error) {
	if d.left == 0 {
		return 0, io.EOF
	}
	buf = buf[:min(len(buf), d.left)]
	prev := d.prev
	b, _ := d.br.Peek(d.br.Buffered())
	off := 0 // bytes of b decoded, discarded from the reader on the way out
	for n < len(buf) {
		ux, w := shortUvarint(b[off:])
		if w == 0 {
			d.br.Discard(off)
			off = 0
			if ux, err = binary.ReadUvarint(d.br); err != nil {
				err = truncated(err)
				break
			}
			b, _ = d.br.Peek(d.br.Buffered())
		}
		off += w
		if prev += unzigzag(ux); uint64(prev) > 1<<31-1 {
			err = pageRangeError(prev)
			break
		}
		buf[n] = core.PageID(prev)
		n++
	}
	d.br.Discard(off)
	d.prev = prev
	d.left -= n
	return n, err
}

// shortUvarint decodes the unsigned varint at the start of b when b
// holds all of it in at most 9 bytes, which cannot overflow 64 bits. It
// returns w = 0 otherwise, leaving the varint to binary.ReadUvarint.
// Page deltas zigzag to below 2^32, so they take at most 5 bytes.
func shortUvarint(b []byte) (x uint64, w int) {
	for i, c := range b {
		if i == 9 {
			break
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// unzigzag decodes a zigzag-encoded delta, as binary.ReadVarint does.
func unzigzag(ux uint64) int64 {
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// pageRangeError is the error of a delta that leaves [0, 2^31).
func pageRangeError(pg int64) error {
	return fmt.Errorf("trace: page %d out of range", pg)
}

// truncated reports the io.EOF of a stream that ends before its trace
// does as io.ErrUnexpectedEOF, keeping bare io.EOF for the ends of
// cores and of the trace.
func truncated(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadAll drains the remaining cores into a request set — the
// materializing path ReadBinary is built on. The set and each sequence
// grow as the stream delivers cores and pages, so a header that
// declares more than the stream holds costs about what the stream's
// own pages do.
func (d *Decoder) ReadAll() (core.RequestSet, error) {
	rs := make(core.RequestSet, 0, min(d.p-d.decoded, readAllCores))
	for {
		n, err := d.NextCore()
		if err == io.EOF {
			return rs, nil
		}
		if err != nil {
			return nil, err
		}
		seq := make(core.Sequence, 0, min(n, readAllPages))
		for len(seq) < n {
			if len(seq) == cap(seq) {
				seq = slices.Grow(seq, min(n-len(seq), len(seq)))
			}
			m, err := d.Read(seq[len(seq):cap(seq)])
			seq = seq[:len(seq)+m]
			if err != nil {
				return nil, err
			}
		}
		rs = append(rs, seq)
	}
}

// ReadAll takes a header's word for at most readAllCores cores and
// readAllPages pages of a core (24 KiB and 256 KiB) before the stream
// delivers them; past that, each grows by doubling as they arrive.
const (
	readAllCores = 1 << 10
	readAllPages = 1 << 16
)

// ReadAuto detects the format (text or binary) from the leading bytes
// and parses accordingly.
func ReadAuto(r io.Reader) (core.RequestSet, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("trace: cannot peek header: %w", truncated(err))
	}
	if string(head) == "MCPT" {
		return ReadBinary(br)
	}
	return Read(br)
}
