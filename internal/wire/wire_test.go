package wire_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/alloc"
	"repro/internal/rng"
	"repro/internal/wire"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenSubmits/goldenResults pin one frame of each type byte-for-byte
// in testdata/frames.golden. The records exercise every field: named
// and synthetic apps, deadlines, tenants with and without explicit
// weights, and every interesting status shape.
var goldenSubmits = []wire.SubmitRecord{
	{Class: 0, Size: 0},
	{Class: 1, DeadlineNS: 5_000_000, TenantID: 7, TenantMilliWeight: 2500, App: []byte("fib"), Size: 0},
	{Class: 2, TenantID: 300, Size: 1 << 20},
}

var goldenResults = []wire.ResultRecord{
	{Seq: 0, Status: wire.StatusOK, QueueNS: 1500, RunNS: 250_000},
	{Seq: 1, Status: wire.StatusShed},
	{Seq: 300, Status: wire.StatusBacklogFull},
	{Seq: 301, Status: wire.StatusOK},
}

func encodeGolden(t *testing.T) []byte {
	t.Helper()
	var sink bytes.Buffer
	enc := wire.NewEncoder(&sink, nil)
	if err := enc.SubmitBatch(goldenSubmits); err != nil {
		t.Fatal(err)
	}
	if err := enc.Results(goldenResults); err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return sink.Bytes()
}

// TestGoldenFrames locks the byte-level format: any codec change that
// alters the encoding of the fixture records fails loudly instead of
// drifting silently. Regenerate deliberately with -update.
func TestGoldenFrames(t *testing.T) {
	got := encodeGolden(t)
	path := filepath.Join("testdata", "frames.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden frame drift (rerun with -update only for deliberate format changes)\ngot:\n%s\nwant:\n%s",
			hex.Dump(got), hex.Dump(want))
	}

	// The committed bytes must also decode back to the fixture records.
	dec := wire.NewDecoder(bytes.NewReader(want), nil)
	ft, err := dec.Next()
	if err != nil || ft != wire.FrameSubmit {
		t.Fatalf("golden frame 1: type %v err %v", ft, err)
	}
	checkSubmits(t, dec.Submits(), goldenSubmits)
	ft, err = dec.Next()
	if err != nil || ft != wire.FrameResults {
		t.Fatalf("golden frame 2: type %v err %v", ft, err)
	}
	checkResults(t, dec.Results(), goldenResults)
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("after golden frames: want io.EOF, got %v", err)
	}
}

func checkSubmits(t *testing.T, got, want []wire.SubmitRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("submit count: got %d want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Class != w.Class || g.DeadlineNS != w.DeadlineNS ||
			g.TenantID != w.TenantID || g.TenantMilliWeight != w.TenantMilliWeight ||
			g.Size != w.Size || !bytes.Equal(g.App, w.App) {
			t.Fatalf("submit[%d]: got %+v want %+v", i, g, w)
		}
	}
}

func checkResults(t *testing.T, got, want []wire.ResultRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result count: got %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result[%d]: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestRoundTripRandom drives randomized batches through encode→decode
// and demands identity, including App aliasing semantics.
func TestRoundTripRandom(t *testing.T) {
	r := rng.New(42)
	apps := []string{"", "fib", "sort", "nqueens", "strassen"}
	for iter := 0; iter < 200; iter++ {
		n := 1 + r.Intn(64)
		subs := make([]wire.SubmitRecord, n)
		ress := make([]wire.ResultRecord, n)
		for i := range subs {
			subs[i] = wire.SubmitRecord{
				Class:             r.Intn(3),
				DeadlineNS:        int64(r.Intn(1_000_000_000)),
				TenantID:          r.Intn(1000),
				TenantMilliWeight: r.Intn(10_000),
				Size:              r.Intn(1 << 24),
			}
			if app := apps[r.Intn(len(apps))]; app != "" {
				subs[i].App = []byte(app)
			}
			ress[i] = wire.ResultRecord{Seq: r.Uint64() >> 1, Status: wire.Status(r.Intn(wire.NumStatus))}
			if ress[i].Status == wire.StatusOK {
				ress[i].QueueNS = int64(r.Intn(1 << 30))
				ress[i].RunNS = int64(r.Intn(1 << 30))
			}
		}
		var sink bytes.Buffer
		enc := wire.NewEncoder(&sink, nil)
		if err := enc.SubmitBatch(subs); err != nil {
			t.Fatal(err)
		}
		if err := enc.Results(ress); err != nil {
			t.Fatal(err)
		}
		if _, err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		dec := wire.NewDecoder(bytes.NewReader(sink.Bytes()), nil)
		if ft, err := dec.Next(); err != nil || ft != wire.FrameSubmit {
			t.Fatalf("type %v err %v", ft, err)
		}
		checkSubmits(t, dec.Submits(), subs)
		if ft, err := dec.Next(); err != nil || ft != wire.FrameResults {
			t.Fatalf("type %v err %v", ft, err)
		}
		checkResults(t, dec.Results(), ress)
	}
}

// TestDecodeRejectsDamage pins the decoder's reaction to the classic
// damage shapes: truncation at every boundary, version and type drift,
// absurd lengths, and trailing garbage — all errors, never panics.
func TestDecodeRejectsDamage(t *testing.T) {
	valid := encodeGolden(t)

	// Every proper prefix must end in a clean EOF at a frame boundary
	// or an unexpected-EOF/corrupt error — never success past damage.
	firstFrame := 4 + int(binary.LittleEndian.Uint32(valid[:4])) // bytes of frame 1
	for cut := 0; cut < len(valid); cut++ {
		dec := wire.NewDecoder(bytes.NewReader(valid[:cut]), nil)
		var err error
		for err == nil {
			_, err = dec.Next()
		}
		boundary := cut == 0 || cut == firstFrame
		if boundary && err != io.EOF {
			t.Fatalf("cut %d: want io.EOF at boundary, got %v", cut, err)
		}
		if !boundary && err == io.EOF {
			t.Fatalf("cut %d: truncation decoded as clean close", cut)
		}
	}

	damage := func(mut func(b []byte)) error {
		b := append([]byte(nil), valid...)
		mut(b)
		dec := wire.NewDecoder(bytes.NewReader(b), nil)
		var err error
		for err == nil {
			_, err = dec.Next()
		}
		return err
	}
	if err := damage(func(b []byte) { b[4] = 99 }); err == nil || err == io.EOF {
		t.Fatalf("bad version: %v", err)
	}
	if err := damage(func(b []byte) { b[5] = 77 }); err == nil || err == io.EOF {
		t.Fatalf("bad frame type: %v", err)
	}
	if err := damage(func(b []byte) { b[3] = 0xff }); err == nil || err == io.EOF {
		t.Fatalf("absurd length: %v", err)
	}
	if err := damage(func(b []byte) { b[6] = 0xff }); err == nil || err == io.EOF {
		t.Fatalf("record count past payload: %v", err)
	}
}

// loopReader endlessly replays one byte sequence — a zero-alloc stand-in
// for a peer streaming identical frames.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

// TestCodecZeroAlloc is the steady-state allocation contract from the
// issue: once buffers have reached their high-water mark, encoding and
// decoding a batch performs zero heap allocations.
func TestCodecZeroAlloc(t *testing.T) {
	pool := alloc.NewBufPool()
	recs := make([]wire.SubmitRecord, 64)
	for i := range recs {
		recs[i] = wire.SubmitRecord{Class: i % 3, TenantID: i % 4, Size: i}
	}
	enc := wire.NewEncoder(io.Discard, pool)
	var frame bytes.Buffer
	fenc := wire.NewEncoder(&frame, nil)
	if err := fenc.SubmitBatch(recs); err != nil {
		t.Fatal(err)
	}
	if _, err := fenc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := wire.NewDecoder(&loopReader{data: frame.Bytes()}, pool)

	work := func() {
		if err := enc.SubmitBatch(recs); err != nil {
			t.Fatal(err)
		}
		if _, err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Next(); err != nil {
			t.Fatal(err)
		}
	}
	work() // reach the high-water mark
	if allocs := testing.AllocsPerRun(200, work); allocs > 0 {
		t.Fatalf("steady-state codec allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestMaxResultsPerFrameFits proves the chunking bound the serving
// edge's writer relies on: MaxResultsPerFrame worst-case StatusOK
// records (every varint field maximal) must encode into one frame, and
// the frame must round-trip.
func TestMaxResultsPerFrameFits(t *testing.T) {
	recs := make([]wire.ResultRecord, wire.MaxResultsPerFrame)
	const maxI64 = int64(^uint64(0) >> 1)
	for i := range recs {
		recs[i] = wire.ResultRecord{
			Seq:     ^uint64(0),
			Status:  wire.StatusOK,
			QueueNS: maxI64,
			RunNS:   maxI64,
		}
	}
	var sink bytes.Buffer
	enc := wire.NewEncoder(&sink, nil)
	if err := enc.Results(recs); err != nil {
		t.Fatalf("worst-case MaxResultsPerFrame batch must fit one frame: %v", err)
	}
	if _, err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := wire.NewDecoder(&sink, nil)
	ft, err := dec.Next()
	if err != nil || ft != wire.FrameResults {
		t.Fatalf("decode: type %v err %v", ft, err)
	}
	if got := len(dec.Results()); got != wire.MaxResultsPerFrame {
		t.Fatalf("round-tripped %d records, want %d", got, wire.MaxResultsPerFrame)
	}
}

// segReader hands out its byte stream in the given segments, one per Read
// — the socket as the decoder sees it — and counts the Reads it serves.
type segReader struct {
	segs  [][]byte
	reads int
}

func (s *segReader) Read(p []byte) (int, error) {
	if len(s.segs) == 0 {
		return 0, io.EOF
	}
	s.reads++
	n := copy(p, s.segs[0])
	if s.segs[0] = s.segs[0][n:]; len(s.segs[0]) == 0 {
		s.segs = s.segs[1:]
	}
	return n, nil
}

// TestDecoderReadsPerFrame: the decoder takes what a Read gives it and
// carries the rest over, so the Reads it issues follow the segments on the
// wire, not the frames in them — one Read for a frame that arrived whole
// (not one for the prefix and one for the body), none for a frame that
// arrived behind another, and a frame cut anywhere still decodes. Every
// row also runs through a pooled decoder whose buffer must grow, with the
// leftover bytes, to fit the large frame.
func TestDecoderReadsPerFrame(t *testing.T) {
	both := encodeGolden(t)
	first := 4 + int(binary.LittleEndian.Uint32(both[:4]))
	big := make([]wire.ResultRecord, 2000) // ~20 KB: past the buffer's first size
	for i := range big {
		big[i] = wire.ResultRecord{Seq: uint64(i), Status: wire.StatusOK, QueueNS: 1 << 40, RunNS: 1 << 41}
	}
	var sink bytes.Buffer
	enc := wire.NewEncoder(&sink, nil)
	if err := enc.Results(big); err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	bigFrame := append([]byte(nil), sink.Bytes()...)
	cut := func(b []byte, at ...int) [][]byte {
		var segs [][]byte
		prev := 0
		for _, a := range at {
			segs = append(segs, b[prev:a])
			prev = a
		}
		return append(segs, b[prev:])
	}
	for _, tc := range []struct {
		name   string
		segs   [][]byte
		frames int // how many of: the golden submit frame, the golden result frame, the big frame
		reads  int
	}{
		{"one frame per segment", cut(both, first), 2, 2},
		{"two frames in one segment", cut(both), 2, 1},
		{"one frame across three segments", cut(both[:first], 3, 9), 1, 3},
		{"cut inside the prefix of the second frame", cut(both, first+2), 2, 2},
		{"every byte its own segment", cut(both[:first], func() (at []int) {
			for i := 1; i < first; i++ {
				at = append(at, i)
			}
			return at
		}()...), 1, first},
		// The big frame's length is known only once its prefix is in: one
		// Read fills the small buffer, one more the buffer grown to fit.
		{"a large frame behind a small segment's leftover", cut(append(append([]byte(nil), both...), bigFrame...), len(both)+5), 3, 3},
	} {
		for _, pool := range []*alloc.BufPool{nil, alloc.NewBufPool()} {
			src := &segReader{segs: append([][]byte(nil), tc.segs...)}
			dec := wire.NewDecoder(src, pool)
			ft, err := dec.Next()
			if err != nil || ft != wire.FrameSubmit {
				t.Fatalf("%s: frame 1: type %v err %v", tc.name, ft, err)
			}
			checkSubmits(t, dec.Submits(), goldenSubmits)
			if dec.FrameBytes() != first {
				t.Fatalf("%s: frame 1 is %d bytes, FrameBytes says %d", tc.name, first, dec.FrameBytes())
			}
			if tc.frames >= 2 {
				ft, err = dec.Next()
				if err != nil || ft != wire.FrameResults {
					t.Fatalf("%s: frame 2: type %v err %v", tc.name, ft, err)
				}
				checkResults(t, dec.Results(), goldenResults)
			}
			if tc.frames >= 3 {
				ft, err = dec.Next()
				if err != nil || ft != wire.FrameResults {
					t.Fatalf("%s: big frame: type %v err %v", tc.name, ft, err)
				}
				checkResults(t, dec.Results(), big)
			}
			if _, err := dec.Next(); err != io.EOF {
				t.Fatalf("%s: after the last frame: want io.EOF, got %v", tc.name, err)
			}
			if src.reads != tc.reads {
				t.Fatalf("%s: %d Reads, want %d", tc.name, src.reads, tc.reads)
			}
			dec.Close()
		}
	}
}
