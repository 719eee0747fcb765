// Package cluster serves a relation partitioned across shards (see
// viewcube.PartitionTable) as one cube. The paper's §3 distributivity result
// is what makes this lossless: a view element of a union of sub-cubes is
// exactly the combination of the per-sub-cube elements, so a coordinator
// can scatter a query to shard servers, gather their partial aggregates and
// merge them with plain addition — the answer is bit-identical to
// evaluating the whole relation on one machine (merge order fixed by shard
// index).
//
// The package has four parts:
//
//   - a compact, versioned, length-prefixed binary wire codec for query
//     requests and partial-aggregate responses (this file);
//   - ShardEngine/Server: the shard side, executing requests against a
//     viewcube.Engine and serving them over TCP;
//   - TCPClient/Loopback: transports — real sockets, or an in-process
//     loopback that still round-trips every message through the codec;
//   - Coordinator: scatter-gather with per-shard deadlines, bounded
//     retries (each to another copy of the shard when it has one) and an
//     opt-in degraded mode that returns the partial answer plus the
//     unreachable shards.
package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"viewcube"
	"viewcube/internal/obs"
)

// Wire format. Every message is one frame:
//
//	magic "vc" (2) | version (1) | type (1) | payload length (4, BE) | payload
//
// Payloads are built from uvarints, length-prefixed UTF-8 strings and
// float64 bit patterns (8 bytes, BE), so encoding is deterministic: the
// same message always serialises to the same bytes. Decoding is strict —
// unknown versions, unknown frame types, truncated fields and trailing
// garbage are all errors — which keeps the fuzz target honest.
//
// There is one wire version. Coordinator and shards are always the same
// binary, so every frame encodes at Version and a frame at any other version
// is rejected. A request carries a flags byte after its kind (bit 0 = "record
// and return a trace"); a response carries a flags byte too (bit 0 = error,
// bit 1 = a serialized span subtree follows the aggregate, bit 2 = the
// shard's data version follows as a trailing uvarint, bit 3 = a group-by
// result follows the sum), so coordinators learn about shard-side writes
// without a probe round-trip.
//
// A group-by result travels in the columnar form it has everywhere else
// (viewcube.Result): a header — component width, then per kept dimension its
// name and its members in code order — and the value count followed by that
// many floats, width dense planes in row-major order. No group key is ever
// built, sorted or sent: a group's key is its position.
const (
	Version = 4

	// MaxFrame bounds a frame payload; a decoder never allocates more than
	// this from a length prefix, so a hostile peer cannot OOM the process.
	MaxFrame = 16 << 20

	frameRequest  = 1
	frameResponse = 2

	headerLen = 8

	// maxSpanDepth bounds the recursion when decoding a span subtree, so a
	// hostile frame cannot overflow the stack. Real traces nest by plan
	// depth (tens of levels at most).
	maxSpanDepth = 64

	reqFlagTrace   = 1 << 0
	respFlagErr    = 1 << 0
	respFlagSpans  = 1 << 1
	respFlagEpoch  = 1 << 2
	respFlagResult = 1 << 3
	respFlagsKnown = respFlagErr | respFlagSpans | respFlagEpoch | respFlagResult
)

var magic = [2]byte{'v', 'c'}

// Kind selects the distributive aggregate a request asks for.
type Kind uint8

const (
	// KindGroupBy asks for the per-group partial SUMs of the shard's
	// sub-cube, grouped by the kept dimensions.
	KindGroupBy Kind = 1
	// KindTotal asks for the shard's grand total.
	KindTotal Kind = 2
	// KindRangeSum asks for the shard's partial SUM over lexicographic
	// value ranges (first value ≥ Lo through last value ≤ Hi per
	// dimension, as in Engine.RangeSumWithin).
	KindRangeSum Kind = 3
)

func (k Kind) valid() bool { return k >= KindGroupBy && k <= KindRangeSum }

// String names the kind for metrics labels and error text.
func (k Kind) String() string {
	switch k {
	case KindGroupBy:
		return "groupby"
	case KindTotal:
		return "total"
	case KindRangeSum:
		return "range"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// DimRange is one dimension's value range in a KindRangeSum request.
// Ranges are a slice, not a map, so request encoding is deterministic.
type DimRange struct {
	Dim, Lo, Hi string
}

// Request is one query scattered to a shard.
type Request struct {
	// ID correlates a response with its request on a shared connection.
	ID   uint64
	Kind Kind
	// Keep lists the kept dimensions of a KindGroupBy request.
	Keep []string
	// Ranges restricts a KindRangeSum request.
	Ranges []DimRange
	// Trace asks the shard to execute under a trace and return its span
	// subtree on the response.
	Trace bool
}

// Response is a shard's partial aggregate (or its error) for one request.
type Response struct {
	ID   uint64
	Kind Kind
	// Err carries a shard-side execution error. When set, the aggregate
	// fields are zero.
	Err string
	// Sum is the partial aggregate of KindTotal and KindRangeSum.
	Sum float64
	// Result holds the per-group partial SUMs of KindGroupBy.
	Result *viewcube.Result
	// Spans is the shard-internal span subtree of a traced request, which
	// the coordinator grafts under its per-shard span. Error responses never
	// carry spans.
	Spans *obs.Span
	// Epoch is the shard's data version (Engine.DataVersion) at serving
	// time. Zero means "not reported" and error responses never carry one.
	// Coordinators sum shard epochs into their result cache's upstream
	// version, so a write on any shard invalidates coordinator-cached
	// answers at the next fan-out.
	Epoch uint64
}

// --- encoding ---

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendFrame(dst []byte, ftype byte, payload []byte) ([]byte, error) {
	if len(payload) > MaxFrame {
		return nil, fmt.Errorf("cluster: frame payload %d bytes exceeds MaxFrame %d", len(payload), MaxFrame)
	}
	dst = append(dst, magic[0], magic[1], Version, ftype)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...), nil
}

// appendSpan appends one span subtree in its canonical encoding: name,
// duration (µs, clamped non-negative), attrs sorted by key, then children.
func appendSpan(dst []byte, n *obs.Span) []byte {
	dst = appendString(dst, n.Name)
	dur := n.DurationUS
	if dur < 0 {
		dur = 0
	}
	dst = binary.AppendUvarint(dst, uint64(dur))
	keys := make([]string, 0, len(n.Attrs))
	for k := range n.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = appendString(dst, k)
		dst = binary.AppendVarint(dst, n.Attrs[k])
	}
	dst = binary.AppendUvarint(dst, uint64(len(n.Children)))
	for _, c := range n.Children {
		dst = appendSpan(dst, c)
	}
	return dst
}

// AppendRequest appends the request's frame encoding to dst.
func AppendRequest(dst []byte, r *Request) ([]byte, error) {
	if !r.Kind.valid() {
		return nil, fmt.Errorf("cluster: cannot encode request of invalid kind %d", r.Kind)
	}
	p := make([]byte, 0, 64)
	p = binary.AppendUvarint(p, r.ID)
	var flags byte
	if r.Trace {
		flags |= reqFlagTrace
	}
	p = append(p, byte(r.Kind), flags)
	p = binary.AppendUvarint(p, uint64(len(r.Keep)))
	for _, k := range r.Keep {
		p = appendString(p, k)
	}
	p = binary.AppendUvarint(p, uint64(len(r.Ranges)))
	for _, vr := range r.Ranges {
		p = appendString(p, vr.Dim)
		p = appendString(p, vr.Lo)
		p = appendString(p, vr.Hi)
	}
	return appendFrame(dst, frameRequest, p)
}

// appendResult appends a group-by result: header, value count, values.
func appendResult(p []byte, res *viewcube.Result) ([]byte, error) {
	vals, err := res.Dense()
	if err != nil {
		return nil, fmt.Errorf("cluster: cannot encode result: %w", err)
	}
	dims, members, width := res.Header()
	p = binary.AppendUvarint(p, uint64(width))
	p = binary.AppendUvarint(p, uint64(len(dims)))
	for i, dim := range dims {
		p = appendString(p, dim)
		p = binary.AppendUvarint(p, uint64(len(members[i])))
		for _, m := range members[i] {
			p = appendString(p, m)
		}
	}
	p = binary.AppendUvarint(p, uint64(len(vals)))
	p = slices.Grow(p, 8*len(vals))
	for _, v := range vals {
		p = appendFloat(p, v)
	}
	return p, nil
}

// AppendResponse appends the response's frame encoding to dst. Equal
// responses encode to equal bytes. An error response carries only its
// message: spans and epoch are dropped.
func AppendResponse(dst []byte, r *Response) ([]byte, error) {
	if !r.Kind.valid() {
		return nil, fmt.Errorf("cluster: cannot encode response of invalid kind %d", r.Kind)
	}
	p := make([]byte, 0, 64)
	p = binary.AppendUvarint(p, r.ID)
	p = append(p, byte(r.Kind))
	if r.Err != "" {
		p = append(p, respFlagErr)
		p = appendString(p, r.Err)
		return appendFrame(dst, frameResponse, p)
	}
	var flags byte
	if r.Spans != nil {
		flags |= respFlagSpans
	}
	if r.Epoch != 0 {
		flags |= respFlagEpoch
	}
	if r.Result != nil {
		flags |= respFlagResult
	}
	p = append(p, flags)
	p = appendFloat(p, r.Sum)
	if r.Result != nil {
		var err error
		if p, err = appendResult(p, r.Result); err != nil {
			return nil, err
		}
	}
	if r.Spans != nil {
		p = appendSpan(p, r.Spans)
	}
	if r.Epoch != 0 {
		p = binary.AppendUvarint(p, r.Epoch)
	}
	return appendFrame(dst, frameResponse, p)
}

// --- decoding ---

// decoder is a strict cursor over one frame payload.
type decoder struct {
	b   []byte
	pos int
}

func (d *decoder) remaining() int { return len(d.b) - d.pos }

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("cluster: truncated or overlong uvarint at offset %d", d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.b[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("cluster: truncated or overlong varint at offset %d", d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *decoder) byte() (byte, error) {
	if d.remaining() < 1 {
		return 0, fmt.Errorf("cluster: truncated payload at offset %d", d.pos)
	}
	b := d.b[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) string() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(d.remaining()) {
		return "", fmt.Errorf("cluster: string length %d exceeds remaining %d bytes", n, d.remaining())
	}
	s := string(d.b[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s, nil
}

func (d *decoder) float() (float64, error) {
	if d.remaining() < 8 {
		return 0, fmt.Errorf("cluster: truncated float at offset %d", d.pos)
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.b[d.pos:]))
	d.pos += 8
	return v, nil
}

// count reads a collection length and bounds it by the bytes that could
// possibly hold that many entries (each entry is at least min bytes), so a
// forged length cannot trigger a huge allocation.
func (d *decoder) count(min int) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(d.remaining()/min) {
		return 0, fmt.Errorf("cluster: collection length %d impossible in %d remaining bytes", n, d.remaining())
	}
	return int(n), nil
}

func (d *decoder) finish() error {
	if d.remaining() != 0 {
		return fmt.Errorf("cluster: %d trailing bytes after payload", d.remaining())
	}
	return nil
}

// checkHeader validates a frame header — magic, the one wire version, the
// expected frame type, the MaxFrame bound — and returns the payload length
// it announces.
func checkHeader(hdr []byte, wantType byte) (uint32, error) {
	if hdr[0] != magic[0] || hdr[1] != magic[1] {
		return 0, fmt.Errorf("cluster: bad magic %q", hdr[:2])
	}
	if hdr[2] != Version {
		return 0, fmt.Errorf("cluster: unsupported wire version %d (have %d)", hdr[2], Version)
	}
	if hdr[3] != wantType {
		return 0, fmt.Errorf("cluster: frame type %d, want %d", hdr[3], wantType)
	}
	n := binary.BigEndian.Uint32(hdr[4:8])
	if n > MaxFrame {
		return 0, fmt.Errorf("cluster: frame payload %d bytes exceeds MaxFrame %d", n, MaxFrame)
	}
	return n, nil
}

func decodeHeader(b []byte, wantType byte) (payload []byte, err error) {
	if len(b) < headerLen {
		return nil, fmt.Errorf("cluster: frame shorter than header (%d bytes)", len(b))
	}
	n, err := checkHeader(b, wantType)
	if err != nil {
		return nil, err
	}
	if uint64(n) != uint64(len(b)-headerLen) {
		return nil, fmt.Errorf("cluster: frame length %d, have %d payload bytes", n, len(b)-headerLen)
	}
	return b[headerLen:], nil
}

// span decodes one span subtree. total counts nodes across the
// whole tree (bounded by obs.MaxSpans) and depth bounds the recursion.
func (d *decoder) span(total *int, depth int) (*obs.Span, error) {
	if depth > maxSpanDepth {
		return nil, fmt.Errorf("cluster: span tree deeper than %d", maxSpanDepth)
	}
	*total++
	if *total > obs.MaxSpans {
		return nil, fmt.Errorf("cluster: span tree larger than %d spans", obs.MaxSpans)
	}
	n := &obs.Span{}
	var err error
	if n.Name, err = d.string(); err != nil {
		return nil, err
	}
	dur, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if dur > math.MaxInt64 {
		return nil, fmt.Errorf("cluster: span duration %d overflows", dur)
	}
	n.DurationUS = int64(dur)
	nattrs, err := d.count(2)
	if err != nil {
		return nil, err
	}
	if nattrs > 0 {
		n.Attrs = make(map[string]int64, nattrs)
	}
	for i := 0; i < nattrs; i++ {
		key, err := d.string()
		if err != nil {
			return nil, err
		}
		if _, dup := n.Attrs[key]; dup {
			return nil, fmt.Errorf("cluster: duplicate span attr %q", key)
		}
		v, err := d.varint()
		if err != nil {
			return nil, err
		}
		n.Attrs[key] = v
	}
	nchildren, err := d.count(4)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nchildren; i++ {
		c, err := d.span(total, depth+1)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, c)
	}
	return n, nil
}

// result decodes a group-by result. Every count is bounded by the bytes left
// before anything is allocated, and viewcube.NewResult rejects a value count
// that is not width × the product of the dictionary lengths.
func (d *decoder) result() (*viewcube.Result, error) {
	width, err := d.count(1)
	if err != nil {
		return nil, err
	}
	ndims, err := d.count(2)
	if err != nil {
		return nil, err
	}
	dims, members := make([]string, ndims), make([][]string, ndims)
	for i := range dims {
		if dims[i], err = d.string(); err != nil {
			return nil, err
		}
		n, err := d.count(1)
		if err != nil {
			return nil, err
		}
		members[i] = make([]string, n)
		for j := range members[i] {
			if members[i][j], err = d.string(); err != nil {
				return nil, err
			}
		}
	}
	nvals, err := d.count(8)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, nvals)
	for i := range vals {
		vals[i], _ = d.float() // count(8) checked the bytes are there
	}
	res, err := viewcube.NewResult(dims, members, width, vals)
	if err != nil {
		return nil, fmt.Errorf("cluster: malformed result: %w", err)
	}
	return res, nil
}

// DecodeRequest decodes one complete request frame.
func DecodeRequest(b []byte) (*Request, error) {
	p, err := decodeHeader(b, frameRequest)
	if err != nil {
		return nil, err
	}
	d := &decoder{b: p}
	r := &Request{}
	if r.ID, err = d.uvarint(); err != nil {
		return nil, err
	}
	k, err := d.byte()
	if err != nil {
		return nil, err
	}
	r.Kind = Kind(k)
	if !r.Kind.valid() {
		return nil, fmt.Errorf("cluster: invalid request kind %d", k)
	}
	flags, err := d.byte()
	if err != nil {
		return nil, err
	}
	if flags&^byte(reqFlagTrace) != 0 {
		return nil, fmt.Errorf("cluster: unknown request flags %#x", flags)
	}
	r.Trace = flags&reqFlagTrace != 0
	nkeep, err := d.count(1)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nkeep; i++ {
		s, err := d.string()
		if err != nil {
			return nil, err
		}
		r.Keep = append(r.Keep, s)
	}
	nranges, err := d.count(3)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nranges; i++ {
		var vr DimRange
		if vr.Dim, err = d.string(); err != nil {
			return nil, err
		}
		if vr.Lo, err = d.string(); err != nil {
			return nil, err
		}
		if vr.Hi, err = d.string(); err != nil {
			return nil, err
		}
		r.Ranges = append(r.Ranges, vr)
	}
	return r, d.finish()
}

// DecodeResponse decodes one complete response frame.
func DecodeResponse(b []byte) (*Response, error) {
	p, err := decodeHeader(b, frameResponse)
	if err != nil {
		return nil, err
	}
	d := &decoder{b: p}
	r := &Response{}
	if r.ID, err = d.uvarint(); err != nil {
		return nil, err
	}
	k, err := d.byte()
	if err != nil {
		return nil, err
	}
	r.Kind = Kind(k)
	if !r.Kind.valid() {
		return nil, fmt.Errorf("cluster: invalid response kind %d", k)
	}
	flags, err := d.byte()
	if err != nil {
		return nil, err
	}
	if flags&^byte(respFlagsKnown) != 0 {
		return nil, fmt.Errorf("cluster: unknown response flags %#x", flags)
	}
	if flags&respFlagErr != 0 {
		if flags&(respFlagSpans|respFlagEpoch) != 0 {
			return nil, fmt.Errorf("cluster: error response carrying spans or epoch")
		}
		if r.Err, err = d.string(); err != nil {
			return nil, err
		}
		if r.Err == "" {
			return nil, fmt.Errorf("cluster: error response with empty message")
		}
		return r, d.finish()
	}
	if r.Sum, err = d.float(); err != nil {
		return nil, err
	}
	if flags&respFlagResult != 0 {
		if r.Result, err = d.result(); err != nil {
			return nil, err
		}
	}
	if flags&respFlagSpans != 0 {
		total := 0
		if r.Spans, err = d.span(&total, 1); err != nil {
			return nil, err
		}
	}
	if flags&respFlagEpoch != 0 {
		if r.Epoch, err = d.uvarint(); err != nil {
			return nil, err
		}
		if r.Epoch == 0 {
			return nil, fmt.Errorf("cluster: epoch flag set with zero epoch")
		}
	}
	return r, d.finish()
}

// --- stream framing ---

// readFrame reads one whole frame (header + payload) from r.
func readFrame(r io.Reader, wantType byte) ([]byte, error) {
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n, err := checkHeader(hdr, wantType)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, headerLen+int(n))
	copy(frame, hdr)
	if _, err := io.ReadFull(r, frame[headerLen:]); err != nil {
		return nil, fmt.Errorf("cluster: reading %d-byte payload: %w", n, err)
	}
	return frame, nil
}

// WriteRequest writes one request frame to w.
func WriteRequest(w io.Writer, r *Request) error {
	b, err := AppendRequest(nil, r)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadRequest reads and decodes one request frame from r. io.EOF is
// returned bare when the stream ends cleanly between frames.
func ReadRequest(r io.Reader) (*Request, error) {
	frame, err := readFrame(r, frameRequest)
	if err != nil {
		return nil, err
	}
	return DecodeRequest(frame)
}

// ReadResponse reads and decodes one response frame from r.
func ReadResponse(r io.Reader) (*Response, error) {
	frame, err := readFrame(r, frameResponse)
	if err != nil {
		return nil, err
	}
	return DecodeResponse(frame)
}
