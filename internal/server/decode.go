package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"unicode/utf8"
)

// Body is a request body DecodeRequest decodes: *JobRequest or
// *SweepRequest.
type Body interface {
	traceInput() *TraceInput
}

func (req *JobRequest) traceInput() *TraceInput   { return &req.Trace }
func (req *SweepRequest) traceInput() *TraceInput { return &req.Trace }

// bodyReadAhead caps the buffer a request's Content-Length sizes
// before the body's bytes arrive. Past it the buffer grows as bytes
// arrive, so a Content-Length that lies buys at most this much memory.
const bodyReadAhead = 1 << 20

// DecodeRequest reads r's body, at most maxBody bytes, and decodes its
// first JSON value into v. A longer body fails with the
// *http.MaxBytesError of http.MaxBytesReader. Otherwise the error, and
// on success v, are what json.NewDecoder over the body's bytes gives.
// mcservd's and mcfleet's job and sweep handlers decode through it.
func DecodeRequest(w http.ResponseWriter, r *http.Request, maxBody int64, v Body) error {
	body, err := readBody(http.MaxBytesReader(w, r.Body, maxBody), min(r.ContentLength, maxBody))
	if err != nil {
		return err
	}
	return decodeBody(body, v)
}

// readBody reads r to its end into a buffer sized from size, the
// declared length (negative when unknown), up to bodyReadAhead.
func readBody(r io.Reader, size int64) ([]byte, error) {
	var buf bytes.Buffer
	if size > 0 {
		// bytes.MinRead past the declared length holds the read that
		// reports EOF, so a body that keeps its word is never regrown.
		buf.Grow(int(min(size, bodyReadAhead)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// b64Head opens every binary-trace body encoding/json writes for a
// JobRequest or a SweepRequest: trace is the first field, and
// binary_b64 the only one of its fields set.
const b64Head = `{"trace":{"binary_b64":"`

// decodeBody decodes body's first JSON value into v, as
// json.NewDecoder over body does. A binary-trace body spends most of
// that decoder's time scanning and unquoting its base64 string, so
// when splitB64 finds the payload safe to lift out, the rest of the
// body is decoded around an empty string and the payload is set as it
// stands.
func decodeBody(body []byte, v Body) error {
	payload, rest, ok := splitB64(body)
	if !ok {
		return json.NewDecoder(bytes.NewReader(body)).Decode(v)
	}
	head := make([]byte, 0, len(b64Head)+len(rest))
	head = append(append(head, b64Head...), rest...)
	if err := json.NewDecoder(bytes.NewReader(head)).Decode(v); err != nil {
		return err
	}
	v.traceInput().BinaryB64 = string(payload)
	return nil
}

// splitB64 splits body = b64Head + payload + rest, where rest begins
// at the payload's closing quote, when lifting the payload out cannot
// change what encoding/json decodes:
//   - the payload is printable ASCII with no backslash, so it is a
//     complete JSON string that unquotes to itself;
//   - rest is ASCII with no backslash and does not contain
//     "binary_b64" in any letter case, so no later key, escaped or
//     case-folded, sets binary_b64 again.
//
// Scanner state, errors and every other field then depend only on
// rest: encoding/json's error text carries no offsets.
func splitB64(body []byte) (payload, rest []byte, ok bool) {
	if !bytes.HasPrefix(body, []byte(b64Head)) {
		return nil, nil, false
	}
	end := bytes.IndexByte(body[len(b64Head):], '"')
	if end < 0 {
		return nil, nil, false
	}
	end += len(b64Head)
	if !printable(body[len(b64Head):end]) {
		return nil, nil, false
	}
	rest = body[end:]
	for i, c := range rest {
		if c >= utf8.RuneSelf || c == '\\' {
			return nil, nil, false
		}
		if c|0x20 == 'b' && i+len("binary_b64") <= len(rest) &&
			bytes.EqualFold(rest[i:i+len("binary_b64")], []byte("binary_b64")) {
			return nil, nil, false
		}
	}
	return body[len(b64Head):end], rest, true
}

// printable reports whether s is printable ASCII with no backslash. It
// tests eight bytes a word: a payload is most of a binary-trace body.
func printable(s []byte) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; len(s) >= 8; s = s[8:] {
		x := binary.LittleEndian.Uint64(s)
		bs := x ^ '\\'*ones
		// A byte's high bit is set below ' ' in the first term, above
		// '~' in the second and at a backslash in the third; the
		// borrows and carries that cross bytes start at a set bit.
		if ((x-' '*ones)&^x|(x+ones|x)|(bs-ones)&^bs)&highs != 0 {
			return false
		}
	}
	for _, c := range s {
		if c < ' ' || c > '~' || c == '\\' {
			return false
		}
	}
	return true
}
