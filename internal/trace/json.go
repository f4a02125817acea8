package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

// wireRecord is the JSONL schema of a Record. Enum-valued fields travel
// as their string names so traces stay readable and diffable; the strict
// decoder rejects unknown fields and unknown enum names.
type wireRecord struct {
	T      int64  `json:"t"`
	Ev     string `json:"ev"`
	Node   uint64 `json:"node"`
	Peer   uint64 `json:"peer,omitempty"`
	Src    uint64 `json:"src,omitempty"`
	SN     uint16 `json:"sn,omitempty"`
	PT     string `json:"pt,omitempty"`
	RHL    uint8  `json:"rhl,omitempty"`
	Kind   string `json:"kind,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// AppendJSON appends the record's JSONL encoding (one line, including the
// trailing newline) to dst and returns the extended slice. The encoding is
// hand-rolled with strconv so a pooled caller allocates nothing beyond
// slice growth; the output is byte-identical to encoding/json marshaling
// of wireRecord with omitempty semantics.
func AppendJSON(dst []byte, r Record) []byte {
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendInt(dst, int64(r.At), 10)
	dst = append(dst, `,"ev":"`...)
	dst = append(dst, r.Event.String()...)
	dst = append(dst, `","node":`...)
	dst = strconv.AppendUint(dst, r.Node, 10)
	if r.Peer != 0 {
		dst = append(dst, `,"peer":`...)
		dst = strconv.AppendUint(dst, r.Peer, 10)
	}
	if r.Src != 0 {
		dst = append(dst, `,"src":`...)
		dst = strconv.AppendUint(dst, r.Src, 10)
	}
	if r.SN != 0 {
		dst = append(dst, `,"sn":`...)
		dst = strconv.AppendUint(dst, uint64(r.SN), 10)
	}
	if r.PType != PTNone {
		dst = append(dst, `,"pt":"`...)
		dst = append(dst, r.PType.String()...)
		dst = append(dst, '"')
	}
	if r.RHL != 0 {
		dst = append(dst, `,"rhl":`...)
		dst = strconv.AppendUint(dst, uint64(r.RHL), 10)
	}
	if r.Kind != KindNone {
		dst = append(dst, `,"kind":"`...)
		dst = append(dst, r.Kind.String()...)
		dst = append(dst, '"')
	}
	if r.Reason != ReasonNone {
		dst = append(dst, `,"reason":"`...)
		dst = append(dst, r.Reason.String()...)
		dst = append(dst, '"')
	}
	dst = append(dst, '}', '\n')
	return dst
}

// enum lookup tables built from the name arrays, so the decoder and
// encoder cannot drift apart.
var (
	eventByName  = invertNames(eventNames[:])
	kindByName   = invertNames(kindNames[:])
	reasonByName = invertNames(reasonNames[:])
	ptypeByName  = invertNames(ptypeNames[:])
)

func invertNames(names []string) map[string]uint8 {
	m := make(map[string]uint8, len(names))
	for i, n := range names {
		if n != "" {
			m[n] = uint8(i)
		}
	}
	return m
}

// DecodeRecord strictly parses one JSONL line back into a Record. Unknown
// JSON fields, unknown enum names and data after the record are errors; this is the schema
// validator used by `geotrace -validate` and the CI smoke job.
func DecodeRecord(line []byte) (Record, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var w wireRecord
	if err := dec.Decode(&w); err != nil {
		return Record{}, fmt.Errorf("trace: bad record %q: %w", line, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Record{}, fmt.Errorf("trace: bad record %q: data after the record", line)
	}
	var r Record
	r.At = time.Duration(w.T)
	r.Node, r.Peer, r.Src, r.SN, r.RHL = w.Node, w.Peer, w.Src, w.SN, w.RHL
	ev, ok := eventByName[w.Ev]
	if !ok {
		return Record{}, fmt.Errorf("trace: unknown event %q", w.Ev)
	}
	r.Event = Event(ev)
	if w.Kind != "" {
		k, ok := kindByName[w.Kind]
		if !ok {
			return Record{}, fmt.Errorf("trace: unknown kind %q", w.Kind)
		}
		r.Kind = Kind(k)
	}
	if w.Reason != "" {
		rs, ok := reasonByName[w.Reason]
		if !ok {
			return Record{}, fmt.Errorf("trace: unknown reason %q", w.Reason)
		}
		r.Reason = Reason(rs)
	}
	if w.PT != "" {
		pt, ok := ptypeByName[w.PT]
		if !ok {
			return Record{}, fmt.Errorf("trace: unknown packet type %q", w.PT)
		}
		r.PType = PType(pt)
	}
	return r, nil
}

// ReadJSONL strictly decodes a full JSONL stream (blank lines skipped).
func ReadJSONL(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	ln := 0
	for sc.Scan() {
		ln++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		rec, err := DecodeRecord(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// JSONLWriter streams records as JSON lines through a buffered writer,
// reusing one scratch buffer so steady-state emission allocates nothing
// beyond the bufio flushes. Errors latch: the first write error is
// reported by every later call and by Flush.
type JSONLWriter struct {
	w   *bufio.Writer
	buf []byte
	err error
}

// NewJSONLWriter wraps w in a buffered JSONL sink.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: bufio.NewWriterSize(w, 64*1024), buf: make([]byte, 0, 256)}
}

// Record encodes and buffers one record.
func (j *JSONLWriter) Record(r Record) {
	if j.err != nil {
		return
	}
	j.buf = AppendJSON(j.buf[:0], r)
	_, j.err = j.w.Write(j.buf)
}

// Flush drains the buffer and returns the first error seen.
func (j *JSONLWriter) Flush() error {
	if j.err != nil {
		return j.err
	}
	j.err = j.w.Flush()
	return j.err
}
