package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// Client-side spans. A request is one submit frame, identified by
// conn:firstSeq. Its tree is
//
//	request → wire.encode, jobserve.flush, jobserve.wait → core.queue, core.run (per job), wire.decode
//
// The spans are timed from the benchmark's own side of each call (Submit,
// Flush, Recv, and Read on the wrapped conn); core.queue and core.run are
// the durations the server reports in each result record, laid out to end
// when the record's frame arrived. All times are ns since the rep's epoch.

// reqSpan is the submit half of a request.
type reqSpan struct {
	firstSeq             uint64
	n                    int32
	t0, encEnd, flushEnd int64
}

// recvSpan is one Recv call: it blocked on the socket for blocked ns from
// t0, then decoded until t1.
type recvSpan struct {
	t0, blocked, t1 int64
}

// jobSpan is the result half of one job: which Recv carried it and the
// server-side durations. recv < 0 means no OK result arrived.
type jobSpan struct {
	recv           int32
	queueNS, runNS int64
}

// Span names, in budget-table order.
var spanNames = []string{"request", "wire.encode", "jobserve.flush", "jobserve.wait", "core.queue", "core.run", "wire.decode"}

const (
	spRequest = iota
	spEncode
	spFlush
	spWait
	spQueue
	spRun
	spDecode
	numSpans
)

type interval struct{ lo, hi int64 }

// unionLen returns the total length covered by ivs, which it sorts.
func unionLen(ivs []interval) int64 {
	slices.SortFunc(ivs, func(a, b interval) int { return cmp.Compare(a.lo, b.lo) })
	var total int64
	end := int64(-1 << 62)
	for _, iv := range ivs {
		if iv.hi <= iv.lo {
			continue
		}
		if iv.lo > end {
			total += iv.hi - iv.lo
			end = iv.hi
		} else if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// selfTimes splits one request's duration into self time by span name.
// A span's self time is its duration minus what its children cover; where
// the per-job spans of a batch overlap, each instant is charged once: to
// the client's own call if it is inside one, else to core.run if any job
// of the request was running, else core.queue if any was queued, else to
// jobserve.wait (after the flush) or the request itself. The parts
// therefore sum to the request's duration. It reports false for a request
// with an unanswered job. scratch is reused between calls.
func (c *clientConn) selfTimes(r *reqSpan, scratch []interval) (self [numSpans]int64, dur int64, s []interval, ok bool) {
	ivs := scratch[:0]
	ivs = append(ivs, interval{r.t0, r.flushEnd})
	end := r.flushEnd
	lastRecv := int32(-1)
	for seq := r.firstSeq; seq < r.firstSeq+uint64(r.n); seq++ {
		j := c.jobs[seq]
		if j.recv < 0 {
			return self, 0, ivs, false
		}
		if j.recv != lastRecv { // results of one request arrive in few, mostly consecutive, frames
			lastRecv = j.recv
			rv := c.recvs[j.recv]
			ivs = append(ivs, interval{rv.t0 + rv.blocked, rv.t1})
			self[spDecode] += rv.t1 - (rv.t0 + rv.blocked)
			end = max(end, rv.t1)
		}
	}
	self[spEncode] = r.encEnd - r.t0
	self[spFlush] = r.flushEnd - r.encEnd
	dur = end - r.t0
	clip := func(lo, hi int64) interval { return interval{max(lo, r.t0), min(hi, end)} }
	covered := unionLen(ivs)
	for seq := r.firstSeq; seq < r.firstSeq+uint64(r.n); seq++ {
		j := c.jobs[seq]
		arrived := c.recvs[j.recv].t0 + c.recvs[j.recv].blocked
		ivs = append(ivs, clip(arrived-j.runNS, arrived))
	}
	withRun := unionLen(ivs)
	for seq := r.firstSeq; seq < r.firstSeq+uint64(r.n); seq++ {
		j := c.jobs[seq]
		arrived := c.recvs[j.recv].t0 + c.recvs[j.recv].blocked
		ivs = append(ivs, clip(arrived-j.runNS-j.queueNS, arrived-j.runNS))
	}
	withQueue := unionLen(ivs)
	ivs = append(ivs, interval{r.flushEnd, end})
	withWait := unionLen(ivs)
	self[spRun] = withRun - covered
	self[spQueue] = withQueue - withRun
	self[spWait] = withWait - withQueue
	self[spRequest] = dur - withWait
	return self, dur, ivs, true
}

// budgetRow is one line of a workload's budget table.
type budgetRow struct {
	Span  string  `json:"span"`
	P50NS float64 `json:"p50_ns"` // median self time per request
	Share float64 `json:"share"`  // of the summed request durations
}

// budget is the traced rep's per-request picture.
type budget struct {
	Requests int         `json:"requests"`
	P50NS    float64     `json:"request_p50_ns"`
	Rows     []budgetRow `json:"rows"`
	// SumShare is the rows' shares added up: 1 when self times account for
	// the whole request span.
	SumShare float64 `json:"sum_share"`
	// per-request totals the per-layer metrics are read from, sorted.
	encode, flush, wait, decode []int64
}

// buildBudget folds every measured request of a traced drive into the
// budget table.
func buildBudget(res *clientResult) *budget {
	var (
		perSpan [numSpans][]int64
		sums    [numSpans]int64
		durs    []int64
		total   int64
		scratch []interval
	)
	b := &budget{}
	for _, c := range res.conns {
		for i := range c.reqs {
			r := &c.reqs[i]
			if r.firstSeq < c.measureFrom {
				continue
			}
			self, dur, s, ok := c.selfTimes(r, scratch)
			scratch = s
			if !ok {
				continue
			}
			for k := range self {
				perSpan[k] = append(perSpan[k], self[k])
				sums[k] += self[k]
			}
			durs = append(durs, dur)
			total += dur
			b.wait = append(b.wait, dur-(r.flushEnd-r.t0)-self[spDecode])
		}
	}
	b.Requests = len(durs)
	if b.Requests == 0 {
		return b
	}
	slices.Sort(durs)
	b.P50NS = quantile(durs, 0.50)
	for k := range perSpan {
		slices.Sort(perSpan[k])
		share := float64(sums[k]) / float64(total)
		b.Rows = append(b.Rows, budgetRow{Span: spanNames[k], P50NS: quantile(perSpan[k], 0.50), Share: share})
		b.SumShare += share
	}
	slices.Sort(b.wait)
	b.encode, b.flush, b.decode = perSpan[spEncode], perSpan[spFlush], perSpan[spDecode]
	return b
}

// collectJobTimes gathers the measured jobs' server-reported queue and
// run times by class, and the edge residual: what is left of a job's time
// in flight after queue, run, encode and flush — reader decode, admit,
// deliver, writer encode and flush, and loopback both ways.
func collectJobTimes(res *clientResult) {
	for _, c := range res.conns {
		for i := range c.reqs {
			r := &c.reqs[i]
			if r.firstSeq < c.measureFrom {
				continue
			}
			for seq := r.firstSeq; seq < r.firstSeq+uint64(r.n); seq++ {
				j := c.jobs[seq]
				if j.recv < 0 {
					continue
				}
				class := 0
				if c.classes != nil {
					class = int(c.classes[seq])
				}
				res.queue[class] = append(res.queue[class], j.queueNS)
				res.run[class] = append(res.run[class], j.runNS)
				inFlight := c.recvs[j.recv].t1 - r.t0
				res.residual = append(res.residual, inFlight-j.queueNS-j.runNS-(r.flushEnd-r.t0))
			}
		}
	}
	for class := range res.queue {
		slices.Sort(res.queue[class])
		slices.Sort(res.run[class])
	}
	slices.Sort(res.residual)
}

// maxTraceSpans caps the spans written to the JSONL file (whole requests
// only); the budget always covers every request.
const maxTraceSpans = 50_000

// spanLine is one JSONL record.
type spanLine struct {
	Trace   string `json:"trace"` // conn:firstSeq
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// writeTrace writes the span trees of the first measured requests, up to
// maxTraceSpans spans, to path, one JSON object per line.
func writeTrace(path string, res *clientResult) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	id := 0
	var encErr error // the first failed write; later ones are skipped
	emit := func(trace string, parent int, name string, lo, hi int64) int {
		id++
		if encErr == nil {
			encErr = enc.Encode(spanLine{Trace: trace, ID: id, Parent: parent, Name: name, StartNS: lo, EndNS: hi})
		}
		return id
	}
	for _, c := range res.conns {
		for i := range c.reqs {
			r := &c.reqs[i]
			if r.firstSeq < c.measureFrom {
				continue
			}
			if id >= maxTraceSpans || encErr != nil {
				break
			}
			trace := fmt.Sprintf("%d:%d", c.id, r.firstSeq)
			end := r.flushEnd
			for seq := r.firstSeq; seq < r.firstSeq+uint64(r.n); seq++ {
				if j := c.jobs[seq]; j.recv >= 0 {
					end = max(end, c.recvs[j.recv].t1)
				}
			}
			root := emit(trace, 0, "request", r.t0, end)
			emit(trace, root, "wire.encode", r.t0, r.encEnd)
			emit(trace, root, "jobserve.flush", r.encEnd, r.flushEnd)
			waitFrom, wait, lastRecv := r.flushEnd, 0, int32(-1)
			for seq := r.firstSeq; seq < r.firstSeq+uint64(r.n); seq++ {
				j := c.jobs[seq]
				if j.recv < 0 {
					continue
				}
				rv := c.recvs[j.recv]
				arrived := rv.t0 + rv.blocked
				if j.recv != lastRecv {
					lastRecv = j.recv
					wait = emit(trace, root, "jobserve.wait", min(waitFrom, arrived), arrived)
					emit(trace, root, "wire.decode", arrived, rv.t1)
					waitFrom = rv.t1
				}
				emit(trace, wait, "core.queue", arrived-j.runNS-j.queueNS, arrived-j.runNS)
				emit(trace, wait, "core.run", arrived-j.runNS, arrived)
			}
		}
	}
	if encErr != nil {
		return encErr
	}
	return w.Flush()
}
