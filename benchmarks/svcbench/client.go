package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/jobserve"
	"repro/internal/load"
	"repro/internal/wire"
)

// Per-seq answer states: the conservation check wants every sequence
// number answered exactly once, and counts only StatusOK as success.
const (
	unanswered uint8 = iota
	answeredOK
	answeredOther
	answeredTwice
)

// timedConn accumulates the time spent inside Read, so a Recv call splits
// into time blocked on the socket (jobserve.wait) and decode CPU
// (wire.decode). Only the receiving goroutine reads, so readNS is unshared.
type timedConn struct {
	net.Conn
	readNS int64
}

func (t *timedConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.Conn.Read(p)
	t.readNS += int64(time.Since(t0))
	return n, err
}

// driveOpts parameterises one drive of a workload against a server.
type driveOpts struct {
	seed      uint64
	seconds   float64 // measured seconds
	warmScale float64 // scales the warm-up (1 in real runs; self-tests shrink it)
	traced    bool
	// measureStart and measureEnd run on the coordinator when warm-up has
	// completed and when the last measured result has arrived: the places
	// to snapshot CPU and counters.
	measureStart, measureEnd func()
}

// clientResult is what one drive measured, over the measured window only
// unless a field says otherwise.
type clientResult struct {
	measuredS float64
	attempted int64
	good      int64 // StatusOK and answered exactly once
	statuses  [wire.NumStatus]int64
	twice     int64   // seqs answered more than once
	missing   int64   // seqs never answered
	bogus     int64   // results for seqs never sent
	zeroRun   int64   // OK results of a working job with RunNS == 0
	sentAll   int64   // records sent, warm-up included (server-side conservation)
	lat       []int64 // ns, sorted
	// tailP99 is the p99 of a typical second: the median, over windows of
	// whole seconds holding at least minLatencySamples, of each window's
	// p99, in ns. 0 with tailWindows == 0 when the drive was too short.
	tailP99     float64
	tailWindows int
	lag         []int64 // open loop: how late each job was submitted, ns, sorted
	// Traced drives only.
	queue, run [load.NumClasses][]int64 // the result records' QueueNS/RunNS, sorted
	residual   []int64                  // per job edge residual, sorted
	conns      []*clientConn            // raw spans, for the budget and the JSONL file
}

// clientConn is one connection's driver state.
type clientConn struct {
	id     int
	cl     *jobserve.Client
	tc     *timedConn // nil unless traced
	epoch  time.Time
	wl     *workload
	traced bool

	answered    []uint8
	measureFrom uint64  // first measured seq
	due         []int64 // open loop: due time per seq, ns since epoch
	classes     []uint8 // open loop: class per seq (closed loops are all batch class)
	lastArrival int64   // ns since epoch
	measureT0   int64   // start of the measured window, ns since epoch
	secondAt    []int   // secondAt[k] = len(res.lat) when measured second k began

	res clientResult // this conn's share; merged by drive

	// Raw spans (traced only). reqs and the request half of jobs belong to
	// the submitting goroutine, recvs and the result half to the receiver.
	reqs  []reqSpan
	recvs []recvSpan
	jobs  []jobSpan // by seq
}

func (c *clientConn) now() int64 { return int64(time.Since(c.epoch)) }

func dialConn(id int, addr string, wl *workload, bufs *alloc.BufPool, epoch time.Time, traced bool) (*clientConn, error) {
	c := &clientConn{id: id, epoch: epoch, wl: wl, traced: traced}
	if !traced {
		cl, err := jobserve.Dial(addr, bufs)
		if err != nil {
			return nil, err
		}
		c.cl = cl
		return c, nil
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // what jobserve.Dial does; a failure only costs latency
	}
	c.tc = &timedConn{Conn: nc}
	c.cl = jobserve.NewClient(c.tc, bufs)
	return c, nil
}

// record books one result that arrived at time at (ns since epoch) for a
// job whose latency clock started at from.
func (c *clientConn) record(r *wire.ResultRecord, at, from int64, recvIdx int) {
	if r.Seq >= uint64(len(c.answered)) {
		c.res.bogus++
		return
	}
	measured := r.Seq >= c.measureFrom
	switch {
	case c.answered[r.Seq] != unanswered:
		if c.answered[r.Seq] == answeredOK && measured {
			c.res.good--
		}
		c.answered[r.Seq] = answeredTwice
		c.res.twice++
		return
	case r.Status == wire.StatusOK:
		c.answered[r.Seq] = answeredOK
	default:
		c.answered[r.Seq] = answeredOther
	}
	if !measured {
		return
	}
	if int(r.Status) < len(c.res.statuses) {
		c.res.statuses[r.Status]++
	}
	if r.Status != wire.StatusOK {
		return
	}
	c.res.good++
	for k := (at - c.measureT0) / 1e9; int64(len(c.secondAt)) <= k; {
		c.secondAt = append(c.secondAt, len(c.res.lat))
	}
	c.res.lat = append(c.res.lat, at-from)
	if c.wl.hasWork && r.RunNS <= 0 {
		c.res.zeroRun++
	}
	if c.traced {
		c.jobs[r.Seq] = jobSpan{recv: int32(recvIdx), queueNS: r.QueueNS, runNS: r.RunNS}
	}
}

// recv reads one result frame and books its records. from is the latency
// origin for closed loops; open loops (from < 0) use each seq's due time.
func (c *clientConn) recv(from int64) (int, error) {
	var t0, blocked0 int64
	if c.traced {
		t0, blocked0 = c.now(), c.tc.readNS
	}
	recs, err := c.cl.Recv()
	if err != nil {
		return 0, err
	}
	at := c.now()
	c.lastArrival = at
	idx := len(c.recvs)
	if c.traced {
		c.recvs = append(c.recvs, recvSpan{t0: t0, blocked: c.tc.readNS - blocked0, t1: at})
	}
	for i := range recs {
		f := from
		if f < 0 && recs[i].Seq < uint64(len(c.due)) {
			f = c.due[recs[i].Seq]
		}
		c.record(&recs[i], at, f, idx)
	}
	return len(recs), nil
}

// roundTrip is one closed-loop request: submit one frame, wait for all of
// its results. Latency runs from the start of Flush.
func (c *clientConn) roundTrip(frame []wire.SubmitRecord) error {
	t0 := c.now()
	seq, err := c.cl.Submit(frame)
	if err != nil {
		return err
	}
	tf := c.now()
	if err := c.cl.Flush(); err != nil {
		return err
	}
	for range frame {
		c.answered = append(c.answered, unanswered)
	}
	if c.traced {
		c.reqs = append(c.reqs, reqSpan{firstSeq: seq, n: int32(len(frame)), t0: t0, encEnd: tf, flushEnd: c.now()})
		for range frame {
			c.jobs = append(c.jobs, jobSpan{recv: -1})
		}
	}
	for got := 0; got < len(frame); {
		n, err := c.recv(tf)
		if err != nil {
			return err
		}
		got += n
	}
	return nil
}

// startGate lines the connections up between warm-up and measurement.
type startGate struct {
	ready        sync.WaitGroup
	start        chan struct{}
	t0, deadline int64 // measured window, ns since epoch; written before start closes
}

func (c *clientConn) closedLoop(warmFrames int, g *startGate) error {
	frame := make([]wire.SubmitRecord, c.wl.batch)
	job := 0
	c.measureFrom = math.MaxUint64 // nothing is measured during warm-up
	warmStart := c.now()
	for f := 0; f < warmFrames; f++ {
		c.wl.fillFrame(frame, job)
		if err := c.roundTrip(frame); err != nil {
			g.ready.Done()
			return err
		}
		job += len(frame)
	}
	warmNS := c.now() - warmStart
	g.ready.Done()
	<-g.start
	c.measureFrom, c.measureT0 = c.cl.Seq(), g.t0
	// Reserve the per-job books at the warm-up's rate plus a quarter, so the
	// measured window does not spend its time growing slices and collecting
	// the old ones on the CPUs the server needs.
	expect := int(float64(job)/float64(max(warmNS, 1))*float64(g.deadline-c.now())*1.25) + 1024
	c.answered = slices.Grow(c.answered, expect)
	c.res.lat = slices.Grow(c.res.lat, expect)
	if c.traced {
		c.jobs = slices.Grow(c.jobs, expect)
		c.reqs = slices.Grow(c.reqs, expect/len(frame)+1)
		c.recvs = slices.Grow(c.recvs, expect/len(frame)+1)
	}
	for c.now() < g.deadline {
		c.wl.fillFrame(frame, job)
		if err := c.roundTrip(frame); err != nil {
			return err
		}
		job += len(frame)
	}
	return nil
}

// openLoop paces plan off the clock: the sender submits each job when it
// is due, coalescing only arrivals that are already due, and a receiver
// goroutine books the results. Latency runs from the due time.
func (c *clientConn) openLoop(plan connPlan, warmNS int64) error {
	n := len(plan.recs)
	c.answered = make([]uint8, n)
	c.due, c.measureT0 = plan.dueNS, warmNS
	c.res.lat = make([]int64, 0, n)
	for c.measureFrom < uint64(n) && plan.dueNS[c.measureFrom] < warmNS {
		c.measureFrom++
	}
	if c.traced {
		c.jobs = make([]jobSpan, n)
		c.classes = make([]uint8, n)
		for i := range plan.recs {
			c.jobs[i].recv = -1
			c.classes[i] = uint8(plan.recs[i].Class)
		}
	}
	c.res.lag = make([]int64, 0, n)

	recvErr := make(chan error, 1)
	go func() {
		for got := 0; got < n; {
			k, err := c.recv(-1)
			if err != nil {
				recvErr <- err
				return
			}
			got += k
		}
		recvErr <- nil
	}()
	for at := 0; at < n; {
		if d := plan.dueNS[at] - c.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		t0 := c.now()
		k := 1
		for at+k < n && k < maxOpenBatch && plan.dueNS[at+k] <= t0 {
			k++
		}
		seq, err := c.cl.Submit(plan.recs[at : at+k])
		if err != nil {
			return err
		}
		tf := c.now()
		if err := c.cl.Flush(); err != nil {
			return err
		}
		if c.traced {
			c.reqs = append(c.reqs, reqSpan{firstSeq: seq, n: int32(k), t0: t0, encEnd: tf, flushEnd: c.now()})
		}
		for i := at; i < at+k; i++ {
			if uint64(i) >= c.measureFrom {
				c.res.lag = append(c.res.lag, t0-plan.dueNS[i])
			}
		}
		at += k
	}
	return <-recvErr
}

// drive runs wl against the server at addr: dial, warm up, measure for
// o.seconds, drain, and check conservation on the client side. Cancelling
// ctx severs the connections, which ends every loop with an error.
func drive(ctx context.Context, wl *workload, addr string, o driveOpts) (*clientResult, error) {
	bufs := alloc.NewBufPool()
	epoch := time.Now()
	conns := make([]*clientConn, wl.conns)
	closeAll := func() {
		for _, c := range conns {
			if c != nil {
				c.cl.Close() // the error of closing a finished or severed conn changes nothing
			}
		}
	}
	defer closeAll()
	for i := range conns {
		c, err := dialConn(i, addr, wl, bufs, epoch, o.traced)
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		conns[i] = c
	}
	stopWatch := context.AfterFunc(ctx, closeAll)
	defer stopWatch()

	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	var t0 int64 // measurement start, ns since epoch
	if wl.open() {
		warmNS := int64(wl.warmS * o.warmScale * 1e9)
		plans := openSchedule(o.seed, wl.rate, float64(warmNS)/1e9+o.seconds, len(conns))
		for i, c := range conns {
			wg.Add(1)
			go func(i int, c *clientConn) {
				defer wg.Done()
				errs[i] = c.openLoop(plans[i], warmNS)
			}(i, c)
		}
		t0 = warmNS
		select {
		case <-time.After(time.Duration(warmNS) - time.Since(epoch)):
		case <-ctx.Done():
		}
		o.measureStart()
	} else {
		g := &startGate{start: make(chan struct{})}
		frames := int(float64(wl.warmJobs)*o.warmScale)/(wl.batch*len(conns)) + 1
		for i, c := range conns {
			wg.Add(1)
			g.ready.Add(1)
			go func(i int, c *clientConn) {
				defer wg.Done()
				errs[i] = c.closedLoop(frames, g)
			}(i, c)
		}
		g.ready.Wait()
		o.measureStart()
		t0 = int64(time.Since(epoch))
		g.t0, g.deadline = t0, t0+int64(o.seconds*1e9)
		close(g.start)
	}
	wg.Wait()
	o.measureEnd()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	res := &clientResult{}
	var last int64
	for _, c := range conns {
		for seq := c.measureFrom; seq < uint64(len(c.answered)); seq++ {
			if c.answered[seq] == unanswered {
				c.res.missing++
			}
		}
		res.attempted += int64(len(c.answered)) - int64(c.measureFrom)
		res.sentAll += int64(len(c.answered))
		res.good += c.res.good
		res.twice += c.res.twice
		res.missing += c.res.missing
		res.bogus += c.res.bogus
		res.zeroRun += c.res.zeroRun
		for s := range res.statuses {
			res.statuses[s] += c.res.statuses[s]
		}
		res.lat = append(res.lat, c.res.lat...)
		res.lag = append(res.lag, c.res.lag...)
		last = max(last, c.lastArrival)
	}
	// An open loop measures its schedule window; a backlog that outlives
	// the window stretches it, so a server that falls behind loses rate.
	res.measuredS = max(float64(last-t0)/1e9, 0)
	if wl.open() {
		res.measuredS = max(res.measuredS, o.seconds)
	}
	res.tailP99, res.tailWindows = typicalSecondP99(conns, int(res.measuredS))
	slices.Sort(res.lat)
	slices.Sort(res.lag)
	if o.traced {
		res.conns = conns
		collectJobTimes(res)
	}
	return res, nil
}

// typicalSecondP99 cuts the first seconds whole seconds of the measured
// window into windows of as few seconds as hold minLatencySamples on
// average, and returns the median of the windows' p99s and their number.
// One stolen or stalled second then moves one window, not the result; the
// p99 over the whole rep, which such a second decides, is reported beside it.
func typicalSecondP99(conns []*clientConn, seconds int) (float64, int) {
	total := 0
	for _, c := range conns {
		total += len(c.res.lat)
	}
	if seconds < 1 || total == 0 {
		return 0, 0
	}
	perWindow := (minLatencySamples*seconds + total - 1) / total // seconds per window, rounded up
	windows := seconds / perWindow
	var p99s, scratch []int64
	for w := 0; w < windows; w++ {
		scratch = scratch[:0]
		for _, c := range conns {
			lo, hi := c.latIndexAt(w*perWindow), c.latIndexAt((w+1)*perWindow)
			scratch = append(scratch, c.res.lat[lo:hi]...)
		}
		slices.Sort(scratch)
		p99s = append(p99s, int64(quantile(scratch, 0.99)))
	}
	slices.Sort(p99s)
	return quantile(p99s, 0.50), windows
}

// latIndexAt is the index in res.lat of the first sample of measured
// second k.
func (c *clientConn) latIndexAt(k int) int {
	if k < len(c.secondAt) {
		return c.secondAt[k]
	}
	return len(c.res.lat)
}
