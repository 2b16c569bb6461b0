package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"mcpaging/internal/core"
)

func randomSet(rng *rand.Rand) core.RequestSet {
	rs := make(core.RequestSet, 1+rng.Intn(4))
	for j := range rs {
		s := make(core.Sequence, rng.Intn(80))
		for i := range s {
			s[i] = core.PageID(rng.Intn(1 << 18))
		}
		rs[j] = s
	}
	return rs
}

func TestBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := randomSet(rng)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, rs); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, rs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryCompact(t *testing.T) {
	// A loop trace delta-encodes to ~1 byte per request; the text format
	// needs several.
	seq := make(core.Sequence, 10000)
	for i := range seq {
		seq[i] = core.PageID(i % 64)
	}
	rs := core.RequestSet{seq}
	var txt, bin bytes.Buffer
	if err := Write(&txt, rs); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, rs); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= txt.Len()/2 {
		t.Fatalf("binary %d bytes vs text %d: expected at least 2x compaction", bin.Len(), txt.Len())
	}
}

func TestReadAutoDetects(t *testing.T) {
	rs := core.RequestSet{{1, 2, 3}, {7}}
	var txt, bin bytes.Buffer
	if err := Write(&txt, rs); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, rs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAuto(&txt)
	if err != nil || !reflect.DeepEqual(got, rs) {
		t.Fatalf("auto text: %v %v", got, err)
	}
	got, err = ReadAuto(&bin)
	if err != nil || !reflect.DeepEqual(got, rs) {
		t.Fatalf("auto binary: %v %v", got, err)
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{},
		[]byte("MCP"),
		[]byte("MCPT\x02"),             // wrong version
		[]byte("MCPT\x01"),             // missing body
		[]byte("MCPT\x01\x00"),         // zero cores
		[]byte("MCPT\x01\x01\x05\x02"), // truncated payload
	}
	for i, c := range cases {
		if _, err := ReadBinary(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

// TestDecoderStreamsInChunks round-trips traces through the streaming
// decoder with a deliberately tiny buffer, so every core crosses many
// Read calls, and checks the reassembled set — including empty
// sequences, which exercise the zero-length NextCore path.
func TestDecoderStreamsInChunks(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := randomSet(rng)
		var bin bytes.Buffer
		if err := WriteBinary(&bin, rs); err != nil {
			return false
		}
		d, err := NewDecoder(&bin)
		if err != nil {
			return false
		}
		if d.NumCores() != len(rs) {
			return false
		}
		buf := make([]core.Sequence, 0, len(rs))
		chunk := make(core.Sequence, 7)
		for {
			n, err := d.NextCore()
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
			seq := make(core.Sequence, 0, n)
			for {
				m, err := d.Read(chunk)
				if err == io.EOF {
					break
				}
				if err != nil {
					return false
				}
				seq = append(seq, chunk[:m]...)
			}
			buf = append(buf, seq)
		}
		got := core.RequestSet(buf)
		if len(got) != len(rs) {
			return false
		}
		for c := range rs {
			if len(got[c]) != len(rs[c]) {
				return false
			}
			for i := range rs[c] {
				if got[c][i] != rs[c][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderMisuse pins the decoder's contract errors: NextCore with
// pages unread, NextCore past the last core, and reads on a finished
// core.
func TestDecoderMisuse(t *testing.T) {
	rs := core.RequestSet{{1, 2, 3}, {7}}
	var bin bytes.Buffer
	if err := WriteBinary(&bin, rs); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := d.NextCore(); n != 3 || err != nil {
		t.Fatalf("NextCore = %d, %v", n, err)
	}
	if _, err := d.NextCore(); err == nil {
		t.Fatal("NextCore with unread pages should fail")
	}
	buf := make(core.Sequence, 8)
	if m, err := d.Read(buf); m != 3 || err != nil {
		t.Fatalf("Read = %d, %v", m, err)
	}
	if _, err := d.Read(buf); err != io.EOF {
		t.Fatalf("Read at core end = %v, want io.EOF", err)
	}
	if n, err := d.NextCore(); n != 1 || err != nil {
		t.Fatalf("NextCore = %d, %v", n, err)
	}
	if m, err := d.Read(buf); m != 1 || err != nil {
		t.Fatalf("Read = %d, %v", m, err)
	}
	if _, err := d.NextCore(); err != io.EOF {
		t.Fatalf("NextCore past last core = %v, want io.EOF", err)
	}
}

// FuzzReadAuto ensures arbitrary input never panics the parsers.
func FuzzReadAuto(f *testing.F) {
	rs := core.RequestSet{{1, 2, 3}, {9, 9}}
	var txt, bin bytes.Buffer
	Write(&txt, rs)
	WriteBinary(&bin, rs)
	f.Add(txt.Bytes())
	f.Add(bin.Bytes())
	f.Add([]byte("mcpaging-trace v1 cores 1 core 0 1 7"))
	f.Add([]byte("MCPT\x01\x01\x01\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := ReadAuto(bytes.NewReader(data))
		if err == nil {
			// Whatever parsed must re-serialise cleanly.
			var buf bytes.Buffer
			if err := Write(&buf, rs); err != nil {
				t.Fatalf("re-serialise failed: %v", err)
			}
		}
	})
}

// TestTruncatedTraceIsUnexpectedEOF cuts valid traces at every byte and
// requires every cut to fail with io.ErrUnexpectedEOF, through the
// package doc's streaming loop and through ReadBinary: a stream that
// ends inside a core or before a declared core must not read as a
// complete trace. The traces mix empty cores and 1- to 5-byte deltas.
func TestTruncatedTraceIsUnexpectedEOF(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		rs := randomSet(rng)
		rs = append(rs, core.Sequence{}, core.Sequence{0, 1<<31 - 1, 0, 300, 200})
		var bin bytes.Buffer
		if err := WriteBinary(&bin, rs); err != nil {
			t.Fatal(err)
		}
		data := bin.Bytes()
		for cut := 0; cut < len(data); cut++ {
			if _, err := decodeStream(data[:cut], 0, 7); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("set %d cut at %d of %d bytes: streaming loop ended with %v, want io.ErrUnexpectedEOF", i, cut, len(data), err)
			}
			if _, err := ReadBinary(bytes.NewReader(data[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("set %d cut at %d of %d bytes: ReadBinary = %v, want io.ErrUnexpectedEOF", i, cut, len(data), err)
			}
		}
		got, err := decodeStream(data, 0, 7)
		if err != nil || !reflect.DeepEqual(got, rs) {
			t.Fatalf("set %d uncut: %v", i, err)
		}
	}
}

// TestReadAllBoundsLyingHeader feeds ReadBinary headers that declare
// far more than their bytes hold: one core of 2^28 requests with one
// page behind it (12 bytes declaring a 1 GiB sequence), and 2^20 cores
// with one empty core behind them. Each must fail with
// io.ErrUnexpectedEOF after allocating well under 1 MiB.
func TestReadAllBoundsLyingHeader(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"long core", []byte("MCPT\x01\x01\x80\x80\x80\x80\x01\x02")},
		{"many cores", append(binary.AppendUvarint([]byte("MCPT\x01"), 1<<20), 0)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBinary(bytes.NewReader(tc.data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: err = %v, want io.ErrUnexpectedEOF", tc.name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Fatalf("%s: reading %d bytes allocated %d bytes, want < 1 MiB", tc.name, len(tc.data), n)
		}
	}
}

// decodeStream runs the package doc's streaming loop over data: a
// Decoder over a bufio reader of bufSize bytes (the Decoder's own
// reader when bufSize is 0), read through a buffer of chunk pages. It
// returns the pages of every core NextCore began, and the error that
// ended the loop, nil after the last core.
func decodeStream(data []byte, bufSize, chunk int) (core.RequestSet, error) {
	var r io.Reader = bytes.NewReader(data)
	if bufSize > 0 {
		r = bufio.NewReaderSize(r, bufSize)
	}
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	buf := make(core.Sequence, chunk)
	var cores core.RequestSet
	for {
		if _, err := d.NextCore(); err != nil {
			if err == io.EOF {
				err = nil
			}
			return cores, err
		}
		seq := core.Sequence{}
		for {
			m, err := d.Read(buf)
			seq = append(seq, buf[:m]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				return append(cores, seq), err
			}
		}
		cores = append(cores, seq)
	}
}

// errVarintOverflow is encoding/binary's message for a varint longer
// than 64 bits.
const errVarintOverflow = "binary: varint overflows a 64-bit integer"

// refDecode is the reference the differential fuzz target holds
// Decoder to: the binary format and the Decoder's error contract,
// decoded one byte at a time with no buffering and no encoding/binary.
// It returns the pages of every core it began and the error that ended
// the trace, nil when the trace is complete.
func refDecode(data []byte) (core.RequestSet, error) {
	r := bytes.NewReader(data)
	uvarint := func() (uint64, error) {
		var x uint64
		for i := 0; i < 10; i++ {
			b, err := r.ReadByte()
			if err != nil {
				// The trace needs this byte: every varint read is one.
				return 0, io.ErrUnexpectedEOF
			}
			if b < 0x80 {
				if i == 9 && b > 1 {
					return 0, errors.New(errVarintOverflow)
				}
				return x | uint64(b)<<(7*i), nil
			}
			x |= uint64(b&0x7f) << (7 * i)
		}
		return 0, errors.New(errVarintOverflow)
	}
	head := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("trace: short binary header: %w", io.ErrUnexpectedEOF)
	}
	if !bytes.Equal(head, binaryMagic) {
		return nil, errors.New("trace: bad binary magic")
	}
	p, err := uvarint()
	if err != nil {
		return nil, err
	}
	if p < 1 || p > 1<<20 {
		return nil, fmt.Errorf("trace: implausible core count %d", p)
	}
	var cores core.RequestSet
	for c := uint64(0); c < p; c++ {
		n, err := uvarint()
		if err != nil {
			return cores, err
		}
		if n > 1<<28 {
			return cores, fmt.Errorf("trace: implausible sequence length %d", n)
		}
		seq := core.Sequence{}
		var pg int64
		for i := uint64(0); i < n; i++ {
			ux, err := uvarint()
			if err != nil {
				return append(cores, seq), err
			}
			delta := int64(ux >> 1)
			if ux&1 != 0 {
				delta = ^delta
			}
			if pg += delta; pg < 0 || pg > 1<<31-1 {
				return append(cores, seq), fmt.Errorf("trace: page %d out of range", pg)
			}
			seq = append(seq, core.PageID(pg))
		}
		cores = append(cores, seq)
	}
	return cores, nil
}

// sameError reports whether two errors read alike: both nil, or the
// same message with the same answer to errors.Is(err, ErrUnexpectedEOF).
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error() && errors.Is(a, io.ErrUnexpectedEOF) == errors.Is(b, io.ErrUnexpectedEOF)
}

// FuzzDecoderMatchesReference holds Decoder to refDecode on arbitrary
// input: the same pages and the same error through the streaming loop
// with the Decoder's own reader, and with a 16-byte bufio buffer, so
// that varints straddle refills, and through ReadBinary.
func FuzzDecoderMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 4; i++ {
		var bin bytes.Buffer
		WriteBinary(&bin, randomSet(rng))
		f.Add(bin.Bytes())
		f.Add(bin.Bytes()[:bin.Len()*2/3])
	}
	var bin bytes.Buffer
	WriteBinary(&bin, core.RequestSet{{0, 1<<31 - 1, 0, 1 << 20, 5}, {}, {7, 7, 7}})
	f.Add(bin.Bytes())
	for _, seed := range []string{
		"MCPT\x01\x01\x80\x80\x80\x80\x01\x02",                     // 2^28 requests declared, one page
		"MCPT\x01\x01\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02", // a delta that overflows
		"MCPT\x01\x01\x01\xfe\xff\xff\xff\x0f",                     // page 2^31-1
		"MCPT\x01\x01\x01\x80\x80\x80\x80\x10",                     // page 2^31
		"MCPT\x01\x01\x02\x01\x02",                                 // page -1
		"MCPT\x01\x02\x00",                                         // a declared core missing
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := refDecode(data)
		for _, cfg := range []struct{ bufSize, chunk int }{{0, 7}, {16, 3}, {16, 4096}} {
			got, err := decodeStream(data, cfg.bufSize, cfg.chunk)
			if !sameError(err, wantErr) {
				t.Fatalf("buffer %d, chunk %d: err = %v, reference %v", cfg.bufSize, cfg.chunk, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("buffer %d, chunk %d: pages differ from the reference", cfg.bufSize, cfg.chunk)
			}
		}
		rs, err := ReadBinary(bytes.NewReader(data))
		if !sameError(err, wantErr) {
			t.Fatalf("ReadBinary: err = %v, reference %v", err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(rs, want) {
			t.Fatal("ReadBinary: pages differ from the reference")
		}
	})
}
