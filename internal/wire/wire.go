// Package wire implements the length-prefixed binary framing of the
// network serving edge: batched job submissions travel client→server as
// one frame per syscall's worth of work, and per-job completion records
// stream back server→client in coalesced result frames. The format is
// deliberately minimal — a 4-byte little-endian payload length, a
// version byte, a frame-type byte, then a varint-packed body — and the
// codec recycles its buffers through internal/alloc so encode and
// decode are allocation-free at steady state, matching the in-process
// fast path's zero-alloc submission contract.
//
// Frame layout:
//
//	+--------+---------+------+------------------+
//	| len u32| version | type | body (varints)   |
//	| LE     | 1 byte  | 1 B  | len-2 bytes      |
//	+--------+---------+------+------------------+
//
// FrameSubmit body: count, then per record
//
//	class · deadlineNS (relative, 0 = none) · tenantID ·
//	tenantMilliWeight (0 = default) · len(app) · app bytes · size
//
// FrameResults body: count, then per record
//
//	seq · status byte · [queueNS · runNS when status == StatusOK]
//
// Submission sequence numbers are implicit: both ends count records per
// connection in decode order, so the submit path never spends wire
// bytes on them; result records carry the sequence explicitly because
// completions arrive out of order.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/alloc"
)

// Version is the wire format version carried in every frame header.
const Version = 1

// FrameType identifies a frame's payload schema.
type FrameType uint8

// Frame types.
const (
	// FrameSubmit carries a batch of job submissions (client → server).
	FrameSubmit FrameType = 1
	// FrameResults carries a batch of job outcomes (server → client).
	FrameResults FrameType = 2
)

// Codec limits. Frames beyond MaxFrame or batches beyond MaxBatch are
// rejected as corrupt — they bound what a broken or hostile peer can
// make the decoder buffer.
const (
	// MaxFrame bounds a frame's payload length in bytes.
	MaxFrame = 1 << 20
	// MaxBatch bounds the records in one frame.
	MaxBatch = 1 << 16
	// MaxApp bounds the app-name length in a submit record.
	MaxApp = 255
	// MaxResultsPerFrame is the largest result-record count guaranteed
	// to encode into one frame regardless of field values: a StatusOK
	// record costs at most 31 bytes (three maximal 10-byte varints plus
	// the status byte), and 32768 such records plus the count varint
	// stay under MaxFrame. Writers coalescing unbounded completion
	// streams chunk at this bound so Results can never report ErrTooBig
	// for a well-formed batch.
	MaxResultsPerFrame = 32768
)

// Codec errors. Decoder errors other than io.EOF (clean close between
// frames) are terminal for the connection: framing state is lost.
var (
	// ErrCorrupt reports a structurally invalid frame: bad length,
	// truncated varint, record count inconsistent with the payload,
	// unknown status, or trailing garbage.
	ErrCorrupt = errors.New("wire: corrupt frame")
	// ErrVersion reports a frame with an unsupported version byte.
	ErrVersion = errors.New("wire: unsupported version")
	// ErrFrameType reports an unknown frame-type byte.
	ErrFrameType = errors.New("wire: unknown frame type")
	// ErrTooBig reports an encode call whose batch cannot fit the frame
	// and batch limits.
	ErrTooBig = errors.New("wire: batch exceeds frame limits")
)

// Status is a per-job outcome code: the typed admission errors of the
// submit path (ErrBacklogFull, ErrShed, deadline expiry, …) travel the
// wire as one byte each.
type Status uint8

// Per-job statuses.
const (
	// StatusOK: the job ran to quiescence; queueNS/runNS follow.
	StatusOK Status = iota
	// StatusBacklogFull maps ErrBacklogFull (reject-mode admission).
	StatusBacklogFull
	// StatusShed maps ErrShed (deadline-aware shedding under saturation).
	StatusShed
	// StatusExpired maps ErrDeadlineExceeded (deadline passed before
	// admission completed).
	StatusExpired
	// StatusCanceled maps a context cancellation during admission.
	StatusCanceled
	// StatusClosed maps ErrClosed (service shutting down).
	StatusClosed
	// StatusPanicked: the job was admitted but a task body panicked.
	StatusPanicked
	// StatusInvalid maps validation failures (class out of range,
	// negative tenant weight, oversized app name).
	StatusInvalid

	numStatus
)

// String names the status for reports and counters.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBacklogFull:
		return "backlog-full"
	case StatusShed:
		return "shed"
	case StatusExpired:
		return "expired"
	case StatusCanceled:
		return "canceled"
	case StatusClosed:
		return "closed"
	case StatusPanicked:
		return "panicked"
	case StatusInvalid:
		return "invalid"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// NumStatus is the number of defined status codes (for counter arrays).
const NumStatus = int(numStatus)

// SubmitRecord is one job submission as it crosses the wire: the
// SubmitOpts fields that survive serialization plus the workload
// selector (app/size) the server turns into a task body.
type SubmitRecord struct {
	// Class is the admission priority class (load.Class value).
	Class int
	// DeadlineNS is the admission deadline relative to arrival in
	// nanoseconds; 0 means no deadline. The server rebases it onto its
	// own clock at decode time, so client/server clock skew never
	// expires a job in flight.
	DeadlineNS int64
	// TenantID keys the weighted-fair admission accounting.
	TenantID int
	// TenantMilliWeight is the tenant's WFQ weight ×1000 (0 = default
	// weight 1.0); fixed-point keeps the codec float-free.
	TenantMilliWeight int
	// App selects a named workload body ("fib", "sort", …); empty means
	// the synthetic spin body. Decoded App aliases the decoder's frame
	// buffer and is valid only until the next Next call.
	App []byte
	// Size scales the synthetic body (spin units); ignored for named
	// apps.
	Size int
}

// ResultRecord is one job outcome as it crosses the wire.
type ResultRecord struct {
	// Seq is the connection-relative submission sequence number the
	// record answers.
	Seq uint64
	// Status is the job's outcome code.
	Status Status
	// QueueNS and RunNS are the job's admission-queue delay and
	// adoption-to-quiescence runtime; set only when Status == StatusOK.
	QueueNS int64
	RunNS   int64
}

// Encoder appends frames to an internal recycled buffer and writes the
// whole buffer with one Flush — the writer side's coalescing point: a
// burst of result batches costs one syscall. Encoders are not safe for
// concurrent use and are move-only (repolint:nocopy): a copy duplicates
// the recycled buffer and both owners would return it to the pool.
type Encoder struct {
	w    io.Writer
	pool *alloc.BufPool
	buf  []byte
}

// NewEncoder returns an encoder writing frames to w, drawing its
// coalescing buffer from pool (nil pool means plain make).
func NewEncoder(w io.Writer, pool *alloc.BufPool) *Encoder {
	e := &Encoder{w: w, pool: pool}
	if pool != nil {
		e.buf = pool.Get(0)
	}
	return e
}

// beginFrame appends the length placeholder and header, returning the
// offset of the length word.
func (e *Encoder) beginFrame(t FrameType) int {
	at := len(e.buf)
	e.buf = append(e.buf, 0, 0, 0, 0, Version, byte(t))
	return at
}

// endFrame patches the length word for the frame begun at `at`. A frame
// that overflowed MaxFrame is rolled back and reported.
func (e *Encoder) endFrame(at int) error {
	n := len(e.buf) - at - 4
	if n > MaxFrame {
		e.buf = e.buf[:at]
		return ErrTooBig
	}
	binary.LittleEndian.PutUint32(e.buf[at:], uint32(n))
	return nil
}

// SubmitBatch appends one FrameSubmit frame carrying recs to the
// encoder's buffer. Sequence numbers are implicit: the receiver assigns
// them in record order.
func (e *Encoder) SubmitBatch(recs []SubmitRecord) error {
	if len(recs) == 0 || len(recs) > MaxBatch {
		return ErrTooBig
	}
	at := e.beginFrame(FrameSubmit)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(recs)))
	for i := range recs {
		r := &recs[i]
		if len(r.App) > MaxApp || r.Class < 0 || r.DeadlineNS < 0 ||
			r.TenantID < 0 || r.TenantMilliWeight < 0 || r.Size < 0 {
			e.buf = e.buf[:at]
			return ErrTooBig
		}
		e.buf = binary.AppendUvarint(e.buf, uint64(r.Class))
		e.buf = binary.AppendUvarint(e.buf, uint64(r.DeadlineNS))
		e.buf = binary.AppendUvarint(e.buf, uint64(r.TenantID))
		e.buf = binary.AppendUvarint(e.buf, uint64(r.TenantMilliWeight))
		e.buf = binary.AppendUvarint(e.buf, uint64(len(r.App)))
		e.buf = append(e.buf, r.App...)
		e.buf = binary.AppendUvarint(e.buf, uint64(r.Size))
	}
	return e.endFrame(at)
}

// Results appends one FrameResults frame carrying recs to the encoder's
// buffer.
func (e *Encoder) Results(recs []ResultRecord) error {
	if len(recs) == 0 || len(recs) > MaxBatch {
		return ErrTooBig
	}
	at := e.beginFrame(FrameResults)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(recs)))
	for i := range recs {
		r := &recs[i]
		if r.Status >= numStatus || r.QueueNS < 0 || r.RunNS < 0 {
			e.buf = e.buf[:at]
			return ErrTooBig
		}
		e.buf = binary.AppendUvarint(e.buf, r.Seq)
		e.buf = append(e.buf, byte(r.Status))
		if r.Status == StatusOK {
			e.buf = binary.AppendUvarint(e.buf, uint64(r.QueueNS))
			e.buf = binary.AppendUvarint(e.buf, uint64(r.RunNS))
		}
	}
	return e.endFrame(at)
}

// Flush writes every buffered frame with one Write call and resets the
// buffer, reporting the bytes written.
func (e *Encoder) Flush() (int, error) {
	if len(e.buf) == 0 {
		return 0, nil
	}
	n, err := e.w.Write(e.buf)
	e.buf = e.buf[:0]
	return n, err
}

// Close recycles the encoder's buffer; the encoder must not be used
// afterwards.
func (e *Encoder) Close() {
	if e.pool != nil {
		e.pool.Put(e.buf)
	}
	e.buf = nil
}

// Decoder reads frames from an io.Reader through one recycled buffer and
// parses them into reused record slices. A read takes whatever the reader
// has — a frame that arrived in one segment costs one Read, and bytes past
// its end stay buffered for the next frame. Decoders are not safe for
// concurrent use and are move-only (repolint:nocopy) for the same reason
// as Encoder: copies double-free the recycled buffer.
type Decoder struct {
	r    io.Reader
	pool *alloc.BufPool
	// buf[at:] is what has been read and not yet consumed; payload, the
	// body of the frame Next last returned, aliases buf below at.
	buf     []byte
	at      int
	payload []byte
	submits []SubmitRecord
	results []ResultRecord
	last    int
}

// NewDecoder returns a decoder reading frames from r, drawing its read
// buffer from pool (nil pool means plain make).
func NewDecoder(r io.Reader, pool *alloc.BufPool) *Decoder {
	d := &Decoder{r: r, pool: pool}
	if pool != nil {
		d.buf = pool.Get(0)
	}
	return d
}

// minReadBuf is the read buffer's smallest size without a pool (a pool has
// its own floor): room for a few typical frames.
const minReadBuf = 4096

// fill reads until at least need unconsumed bytes are buffered, first
// making room for them: leftover bytes move to the front of the buffer,
// and a buffer smaller than need is swapped for one that fits.
func (d *Decoder) fill(need int) error {
	have := len(d.buf) - d.at
	if have >= need {
		return nil
	}
	if cap(d.buf) < need {
		old := d.buf
		if d.pool != nil {
			d.buf = d.pool.Get(need)
		} else {
			d.buf = make([]byte, 0, max(need, minReadBuf))
		}
		d.buf = append(d.buf, old[d.at:]...)
		if d.pool != nil {
			d.pool.Put(old)
		}
	} else if d.at > 0 {
		d.buf = d.buf[:copy(d.buf, d.buf[d.at:])]
	}
	d.at = 0
	n, err := io.ReadAtLeast(d.r, d.buf[have:cap(d.buf)], need-have)
	d.buf = d.buf[:have+n]
	if err == io.EOF && have > 0 {
		err = io.ErrUnexpectedEOF // the peer closed inside a frame
	}
	return err
}

// Next reads and parses one frame, reporting its type. The records are
// readable through Submits or Results until the next call — they alias
// the decoder's internal buffers. A clean peer close between frames is
// io.EOF; a close mid-frame is io.ErrUnexpectedEOF; structural damage
// is ErrCorrupt/ErrVersion/ErrFrameType, all terminal.
func (d *Decoder) Next() (FrameType, error) {
	// Length word + header first: every valid frame has ≥ 2 payload
	// bytes, so the 6-byte prefix never overshoots.
	if err := d.fill(6); err != nil {
		return 0, err // io.EOF only when no prefix byte arrived: clean close
	}
	hdr := d.buf[d.at:]
	n := int(binary.LittleEndian.Uint32(hdr[:4]))
	if n < 2 || n > MaxFrame {
		return 0, fmt.Errorf("%w: payload length %d", ErrCorrupt, n)
	}
	if hdr[4] != Version {
		return 0, fmt.Errorf("%w: %d", ErrVersion, hdr[4])
	}
	t := FrameType(hdr[5])
	d.last = 4 + n
	if err := d.fill(d.last); err != nil {
		return 0, err
	}
	d.payload = d.buf[d.at+6 : d.at+d.last]
	d.at += d.last
	switch t {
	case FrameSubmit:
		return t, d.parseSubmits()
	case FrameResults:
		return t, d.parseResults()
	}
	return 0, fmt.Errorf("%w: %d", ErrFrameType, byte(t))
}

// Submits returns the records of the last FrameSubmit frame. Valid
// until the next Next call; App fields alias the frame buffer.
func (d *Decoder) Submits() []SubmitRecord { return d.submits }

// Results returns the records of the last FrameResults frame. Valid
// until the next Next call.
func (d *Decoder) Results() []ResultRecord { return d.results }

// FrameBytes returns the total wire size (length word included) of the
// frame the last successful Next returned — the per-connection byte
// counters' feed.
func (d *Decoder) FrameBytes() int { return d.last }

// Close recycles the decoder's buffer; the decoder must not be used
// afterwards.
func (d *Decoder) Close() {
	if d.pool != nil {
		d.pool.Put(d.buf)
	}
	d.buf, d.payload = nil, nil
}

// uvarint decodes one varint from b, returning the value and the rest.
func uvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, ErrCorrupt
	}
	return v, b[n:], nil
}

// uvarintInt is uvarint bounded to non-negative int range.
func uvarintInt(b []byte) (int, []byte, error) {
	v, rest, err := uvarint(b)
	if err != nil || v > math.MaxInt32 {
		return 0, nil, ErrCorrupt
	}
	return int(v), rest, nil
}

func (d *Decoder) parseSubmits() error {
	b := d.payload
	count, b, err := uvarint(b)
	// A submit record is ≥ 6 bytes, so any count exceeding the payload
	// is structurally impossible — reject before growing the slice.
	if err != nil || count == 0 || count > MaxBatch || count > uint64(len(b)) {
		return ErrCorrupt
	}
	d.submits = d.submits[:0]
	for i := uint64(0); i < count; i++ {
		var r SubmitRecord
		if r.Class, b, err = uvarintInt(b); err != nil {
			return ErrCorrupt
		}
		var dl uint64
		if dl, b, err = uvarint(b); err != nil || dl > math.MaxInt64 {
			return ErrCorrupt
		}
		r.DeadlineNS = int64(dl)
		if r.TenantID, b, err = uvarintInt(b); err != nil {
			return ErrCorrupt
		}
		if r.TenantMilliWeight, b, err = uvarintInt(b); err != nil {
			return ErrCorrupt
		}
		var alen int
		if alen, b, err = uvarintInt(b); err != nil || alen > MaxApp || alen > len(b) {
			return ErrCorrupt
		}
		if alen > 0 {
			r.App = b[:alen]
			b = b[alen:]
		}
		if r.Size, b, err = uvarintInt(b); err != nil {
			return ErrCorrupt
		}
		d.submits = append(d.submits, r)
	}
	if len(b) != 0 {
		return ErrCorrupt // trailing garbage
	}
	return nil
}

func (d *Decoder) parseResults() error {
	b := d.payload
	count, b, err := uvarint(b)
	if err != nil || count == 0 || count > MaxBatch || count > uint64(len(b)) {
		return ErrCorrupt
	}
	d.results = d.results[:0]
	for i := uint64(0); i < count; i++ {
		var r ResultRecord
		if r.Seq, b, err = uvarint(b); err != nil {
			return ErrCorrupt
		}
		if len(b) == 0 || b[0] >= byte(numStatus) {
			return ErrCorrupt
		}
		r.Status = Status(b[0])
		b = b[1:]
		if r.Status == StatusOK {
			var q, run uint64
			if q, b, err = uvarint(b); err != nil || q > math.MaxInt64 {
				return ErrCorrupt
			}
			if run, b, err = uvarint(b); err != nil || run > math.MaxInt64 {
				return ErrCorrupt
			}
			r.QueueNS, r.RunNS = int64(q), int64(run)
		}
		d.results = append(d.results, r)
	}
	if len(b) != 0 {
		return ErrCorrupt
	}
	return nil
}
