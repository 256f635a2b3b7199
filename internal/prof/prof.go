// Package prof is the runtime's one metrics surface. Two kinds of state
// live here.
//
// Per-thread state is the software profiling of Section V of the paper: a
// timeline of runtime events (TASK, GOMP_TASK, TASKWAIT, BARRIER, STALL)
// and a set of statistical counters (task locality, static
// pushes, immediate executions, the dynamic load-balancing request/steal
// counters, and the service mode's adoption and idle-policy counters). The
// paper timestamps events with the rdtscp cycle counter; this package uses
// Go's monotonic clock (time.Since against a per-profile base), which has
// the same monotonicity contract at nanosecond resolution. Counters are
// thread-local and always on — they are single writer and cost one
// uncontended add. The event timeline allocates memory per event and is
// therefore opt-in, exactly like the paper's perf_record instrumentation.
//
// Shared state is everything a goroutine other than the owning worker
// writes — submitters, the migration balancer, a server's connection
// goroutines. It is built from three
// cells (cells.go: a padded gauge, a counter, a locked bounded Ring) and
// one admission ledger slot instantiated per priority class and per
// tenant (admit.go), and the task service moves it through five event
// calls: Queued, Migrated, Admitted, Refused, JobDone. Wire (wire.go) is
// the serving edge's set of the same cells. Snapshot/Dump/Load serialize a
// Profile (the paper's xomp_perflog_dump role).
package prof

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/load"
	"repro/internal/stats"
)

// Event identifies a timeline event class (paper §V).
type Event uint8

const (
	// EvTask is time spent executing a task body (TASK).
	EvTask Event = iota
	// EvTaskCreate is time spent creating/allocating tasks (GOMP_TASK).
	EvTaskCreate
	// EvTaskWait is time spent inside a taskwait scheduling point (TASKWAIT).
	EvTaskWait
	// EvBarrier is time spent inside the team barrier (BARRIER).
	EvBarrier
	// EvStall is time spent idle, polling empty queues (STALL).
	EvStall
	// NumEvents is the number of event classes.
	NumEvents
)

var eventNames = [NumEvents]string{"TASK", "GOMP_TASK", "TASKWAIT", "BARRIER", "STALL"}

// String returns the paper's name for the event class.
func (e Event) String() string {
	if int(e) < len(eventNames) {
		return eventNames[e]
	}
	return fmt.Sprintf("EVENT(%d)", int(e))
}

// Counter identifies a per-thread statistical counter (paper §V).
type Counter int

const (
	// CntTasksSelf counts tasks executed by the thread that created them.
	CntTasksSelf Counter = iota
	// CntTasksLocal counts tasks executed in the NUMA zone that created them.
	CntTasksLocal
	// CntTasksRemote counts tasks executed in a different NUMA zone.
	CntTasksRemote
	// CntStaticPush counts tasks placed by the static load balancer.
	CntStaticPush
	// CntImmExec counts tasks executed immediately because the target queue
	// was full.
	CntImmExec
	// CntReqSent counts steal requests sent by this thread as a thief.
	CntReqSent
	// CntReqHandled counts requests this thread handled as a victim.
	CntReqHandled
	// CntReqHasSteal counts handled requests that moved at least one task.
	CntReqHasSteal
	// CntReqSrcEmpty counts handled requests that failed because the
	// victim's queues were empty.
	CntReqSrcEmpty
	// CntReqTargetFull counts handled requests that stopped because the
	// thief's queue was full.
	CntReqTargetFull
	// CntTasksStolen counts tasks migrated to this thread's benefit as a
	// thief (stolen or redirected), attributed to the victim that moved them.
	CntTasksStolen
	// CntStolenLocal counts stolen tasks whose thief was NUMA-local to the
	// victim.
	CntStolenLocal
	// CntStolenRemote counts stolen tasks whose thief was NUMA-remote.
	CntStolenRemote
	// CntTasksCreated counts tasks created by this thread.
	CntTasksCreated
	// CntTasksExecuted counts tasks executed by this thread.
	CntTasksExecuted
	// CntJobsAdopted counts submitted jobs whose root task this thread
	// adopted from the admission queue (task-service mode).
	CntJobsAdopted
	// CntTasksCancelled counts job tasks whose bodies were skipped because
	// their job had already failed (task-service mode).
	CntTasksCancelled
	// CntIdlePolls counts empty scheduling-point visits of this thread's
	// serve loop (task-service mode): a spinning pool runs this up by
	// millions a second, a sleeping one by a few hundred.
	CntIdlePolls
	// CntIdleParks counts the times this thread blocked on the service
	// bell: its idle-spin budget spent, or nothing in flight.
	CntIdleParks
	// CntBellWakes counts blocked spells ended by a producer's
	// announcement (Bell.Ring or Bell.Wake) — the only way one ends.
	CntBellWakes
	// NumCounters is the number of counters.
	NumCounters
)

var counterNames = [NumCounters]string{
	"NTASKS_SELF", "NTASKS_LOCAL", "NTASKS_REMOTE",
	"NTASKS_STATIC_PUSH", "NTASKS_IMM_EXEC",
	"NREQ_SENT", "NREQ_HANDLED", "NREQ_HAS_STEAL",
	"NREQ_SRC_EMPTY", "NREQ_TARGET_FULL",
	"NTASKS_STOLEN", "NSTOLEN_LOCAL", "NSTOLEN_REMOTE",
	"NTASKS_CREATED", "NTASKS_EXECUTED",
	"NJOBS_ADOPTED", "NTASKS_CANCELLED",
	"NIDLE_POLLS", "NIDLE_PARKS", "NBELL_WAKES",
}

// String returns the paper's name for the counter.
func (c Counter) String() string {
	if c >= 0 && int(c) < len(counterNames) {
		return counterNames[c]
	}
	return fmt.Sprintf("COUNTER(%d)", int(c))
}

// Record is one closed timeline segment. Nested events split their
// enclosing event into multiple segments; all segments of one logical
// Begin/End pair share a Span id (unique per thread), so consumers can
// reassemble logical events from fragments.
type Record struct {
	Ev    Event `json:"ev"`
	Start int64 `json:"start"` // nanoseconds since profile base
	End   int64 `json:"end"`
	Span  int64 `json:"span"`
}

// Thread holds the profiling state owned by a single worker. All methods
// are single-writer: only the owning worker may call them.
type Thread struct {
	id       int
	timeline bool
	base     time.Time
	events   []Record
	counters [NumCounters]uint64
	// depth tracks nested open events so nested task execution (a task run
	// from inside taskwait) attributes time to the innermost event only.
	open    []openEvent
	spanSeq int64
	_       [64]byte // pad to keep adjacent Thread structs off one cache line
}

type openEvent struct {
	ev    Event
	start int64
	span  int64
}

// JobRecord is the per-job profiling record of the task-service mode: when
// the job was submitted, when a worker adopted its root task, when its task
// subtree quiesced, which worker adopted it, and whether any of its tasks
// panicked. All times are nanoseconds since the profile base. Migrated
// marks jobs that a second-level balancer moved here from another team's
// admission queue before adoption; their ID was issued by the origin team.
type JobRecord struct {
	ID     int64 `json:"id"`
	Worker int   `json:"worker"`
	Submit int64 `json:"submit"`
	Start  int64 `json:"start"`
	End    int64 `json:"end"`
	// Class is the job's admission priority class (a load.Class value).
	Class int `json:"class,omitempty"`
	// Tenant is the submitting tenant's id (0 for single-tenant callers).
	Tenant   int  `json:"tenant,omitempty"`
	Panicked bool `json:"panicked,omitempty"`
	Migrated bool `json:"migrated,omitempty"`
}

// QueueDelay returns how long the job waited between submission and
// adoption by a worker.
func (r JobRecord) QueueDelay() time.Duration { return time.Duration(r.Start - r.Submit) }

// RunTime returns how long the job's task subtree took from adoption to
// quiescence.
func (r JobRecord) RunTime() time.Duration { return time.Duration(r.End - r.Start) }

// MaxJobRecords bounds the per-job record log: a long-lived task service
// completes jobs indefinitely, so the log is a ring keeping the most recent
// records (JobsTotal still counts all of them) instead of growing without
// bound.
const MaxJobRecords = 4096

// Profile owns one Thread per worker plus the team's shared state, all of
// it built from the cells in cells.go so any goroutine may write it and
// any goroutine may read it live.
type Profile struct {
	// The padded cells come first so each starts a cache line of the
	// allocation (falseshare checks the layout).
	//
	// queueDepth is the NJOBS_QUEUED gauge: jobs submitted to this team's
	// admission queue but not yet adopted by a worker — the load signal a
	// sharded pool's dispatcher compares across teams on every submit,
	// which is why it has a line to itself. classes (and tenants, below)
	// split it by priority class and by tenant (see admit.go).
	queueDepth paddedGauge
	classes    [load.NumClasses]admitSlot

	// sigJobNS is the job-granular service-time signal deadline-aware
	// admission predicts with: jobNS smooths the completed jobs' run
	// times under the job log's lock and JobDone mirrors it here.
	sigJobNS paddedFloat
	jobNS    stats.EWMA

	base     time.Time
	timeline bool
	threads  []*Thread

	// tenants is a copy-on-write snapshot of the tenant slots: readers
	// load it lock-free, and tenant() replaces it under tenantMu only when
	// it inserts, at most MaxTenants times over the profile's life.
	tenantMu sync.Mutex
	tenants  atomic.Pointer[map[int]*tenantSlot] //repolint:ok falseshare — read-mostly, beside read-only and cold fields
	overflow *tenantSlot

	// The event logs: completed jobs in completion order and
	// non-admissions for the trace export.
	jobs        Ring[JobRecord]
	admitEvents Ring[AdmitEvent]

	// migratedIn/migratedOut are the NJOBS_MIGRATED counters: whole queued
	// jobs a second-level balancer moved into or out of this team.
	migratedIn  counter
	migratedOut counter
}

// New returns a Profile for workers threads. When timeline is false the
// event-recording methods become cheap no-ops and only counters are kept.
func New(workers int, timeline bool) *Profile {
	p := &Profile{
		base:        time.Now(),
		timeline:    timeline,
		jobNS:       stats.NewEWMA(load.DefaultAlpha),
		jobs:        NewRing[JobRecord](MaxJobRecords),
		admitEvents: NewRing[AdmitEvent](MaxAdmitEvents),
		overflow:    newTenantSlot(),
	}
	for c := range p.classes {
		p.classes[c].lat = NewRing[int64](MaxAdmitLatencies)
	}
	p.threads = make([]*Thread, workers)
	for i := range p.threads {
		p.threads[i] = &Thread{id: i, timeline: timeline, base: p.base}
	}
	p.tenants.Store(&map[int]*tenantSlot{})
	return p
}

// Thread returns the profiling state of worker w.
func (p *Profile) Thread(w int) *Thread { return p.threads[w] }

// Now returns the current time as nanoseconds since the profile base, the
// clock JobRecord timestamps are expressed in.
func (p *Profile) Now() int64 { return int64(time.Since(p.base)) }

// JobTimeNS returns the EWMA-smoothed mean job run time in nanoseconds (0
// before the first job completes). Safe for any goroutine.
func (p *Profile) JobTimeNS() float64 { return p.sigJobNS.load() }

// Jobs returns a copy of the retained per-job records in completion order
// (the most recent MaxJobRecords; see JobsTotal for the lifetime count).
func (p *Profile) Jobs() []JobRecord { return p.jobs.Snapshot() }

// JobsTotal returns how many job completions have been recorded over the
// profile's lifetime, including records the ring has since evicted.
func (p *Profile) JobsTotal() uint64 { return p.jobs.Total() }

// now returns nanoseconds since the profile base.
func (t *Thread) now() int64 { return int64(time.Since(t.base)) }

// Begin opens an event of class ev. Events nest: while a nested event is
// open, time accrues to the nested event, and the outer event resumes when
// the nested one ends. Begin/End pairs must be properly nested. With the
// timeline off, Begin and End inline to one flag test at the call site.
func (t *Thread) Begin(ev Event) {
	if t.timeline {
		t.begin(ev)
	}
}

func (t *Thread) begin(ev Event) {
	now := t.now()
	if n := len(t.open); n > 0 {
		// Close the current segment of the outer event.
		cur := &t.open[n-1]
		if now > cur.start {
			t.events = append(t.events, Record{Ev: cur.ev, Start: cur.start, End: now, Span: cur.span})
		}
		cur.start = now // outer resumes from here when inner ends
	}
	t.spanSeq++
	t.open = append(t.open, openEvent{ev: ev, start: now, span: t.spanSeq})
}

// End closes the innermost open event, which must be of class ev.
func (t *Thread) End(ev Event) {
	if t.timeline {
		t.end(ev)
	}
}

func (t *Thread) end(ev Event) {
	n := len(t.open)
	if n == 0 {
		panic("prof: End without Begin")
	}
	cur := t.open[n-1]
	if cur.ev != ev {
		panic(fmt.Sprintf("prof: End(%v) does not match open %v", ev, cur.ev))
	}
	now := t.now()
	if now > cur.start {
		t.events = append(t.events, Record{Ev: cur.ev, Start: cur.start, End: now, Span: cur.span})
	}
	t.open = t.open[:n-1]
	if n > 1 {
		t.open[n-2].start = now // outer event resumes
	}
}

// OpenDepth returns the number of currently open (nested) events. It is 0
// when the timeline is disabled.
func (t *Thread) OpenDepth() int { return len(t.open) }

// UnwindTo closes every event opened above depth, oldest last. The job
// runtime uses it to repair the timeline after recovering a task-body
// panic, which abandons the Begin/End pairs opened inside the body.
func (t *Thread) UnwindTo(depth int) {
	if !t.timeline || depth < 0 {
		return
	}
	for len(t.open) > depth {
		t.End(t.open[len(t.open)-1].ev)
	}
}

// Add increments counter c by n.
func (t *Thread) Add(c Counter, n uint64) { t.counters[c] += n }

// Inc increments counter c by one.
func (t *Thread) Inc(c Counter) { t.counters[c]++ }

// Sum returns the total of counter c across all threads.
func (p *Profile) Sum(c Counter) uint64 {
	var s uint64
	for _, t := range p.threads {
		s += t.counters[c]
	}
	return s
}

// Snapshot is the serializable form of a Profile, produced by Dump and
// consumed by Load (the paper's xomp_perflog_dump API).
type Snapshot struct {
	Workers  int                   `json:"workers"`
	Timeline bool                  `json:"timeline"`
	Counters [][NumCounters]uint64 `json:"counters"`
	Events   [][]Record            `json:"events,omitempty"`
	Jobs     []JobRecord           `json:"jobs,omitempty"`
	// Shard-level load metrics (two-level balancing): the NJOBS_QUEUED
	// gauge at snapshot time and the lifetime NJOBS_MIGRATED counters.
	QueueDepth      int64  `json:"queue_depth,omitempty"`
	JobsMigratedIn  uint64 `json:"njobs_migrated_in,omitempty"`
	JobsMigratedOut uint64 `json:"njobs_migrated_out,omitempty"`
	// SigJobNS is the job run-time signal at snapshot time (JobTimeNS).
	SigJobNS float64 `json:"sig_job_ns,omitempty"`
	// Admission-edge state at snapshot time: per-class queue-depth
	// gauges, the per-class × per-outcome counter matrix (outcome order:
	// admitted, rejected, shed, cancelled, expired), retained admission
	// latencies (ns) of admitted jobs, and the non-admission event ring.
	ClassQueued    [load.NumClasses]int64                    `json:"class_queued,omitempty"`
	AdmitCounts    [load.NumClasses][NumAdmitOutcomes]uint64 `json:"admit_counts,omitempty"`
	AdmitLatencies [load.NumClasses][]int64                  `json:"admit_latencies,omitempty"`
	AdmitEvents    []AdmitEvent                              `json:"admit_events,omitempty"`
	// Tenants is the per-tenant admission picture at snapshot time,
	// keyed by tenant id (absent when no submission named a tenant).
	Tenants map[int]TenantCounters `json:"tenants,omitempty"`
}

// Snapshot captures the current state. The per-thread counters and events
// are single-writer and read here without synchronization, so call
// Snapshot only on a quiesced team (between regions, or after Close on a
// task service); the job records alone can be read live via Jobs.
func (p *Profile) Snapshot() Snapshot {
	s := Snapshot{Workers: len(p.threads), Timeline: p.timeline}
	s.Counters = make([][NumCounters]uint64, len(p.threads))
	s.Events = make([][]Record, len(p.threads))
	for i, t := range p.threads {
		s.Counters[i] = t.counters
		s.Events[i] = t.events
	}
	s.Jobs = p.Jobs()
	s.QueueDepth = p.QueueDepth()
	s.JobsMigratedIn, s.JobsMigratedOut = p.JobsMigrated()
	s.SigJobNS = p.JobTimeNS()
	for c := range p.classes {
		s.ClassQueued[c], s.AdmitCounts[c], s.AdmitLatencies[c] = p.classes[c].read()
	}
	s.AdmitEvents = p.admitEvents.Snapshot()
	s.Tenants = p.Tenants()
	return s
}

// Dump writes the profile as JSON, mirroring the paper's
// xomp_perflog_dump file format role.
func (p *Profile) Dump(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(p.Snapshot()); err != nil {
		return fmt.Errorf("prof: dump: %w", err)
	}
	return bw.Flush()
}

// Load parses a profile dump produced by Dump.
func Load(r io.Reader) (Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(bufio.NewReader(r))
	if err := dec.Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("prof: load: %w", err)
	}
	if len(s.Counters) != s.Workers {
		return Snapshot{}, fmt.Errorf("prof: load: %d counter rows for %d workers", len(s.Counters), s.Workers)
	}
	// The renderers index Events per worker and a [NumEvents] array per
	// record; a counters-only dump carries no events array at all.
	if s.Events == nil {
		s.Events = make([][]Record, s.Workers)
	}
	if len(s.Events) != s.Workers {
		return Snapshot{}, fmt.Errorf("prof: load: %d event rows for %d workers", len(s.Events), s.Workers)
	}
	for w, row := range s.Events {
		for _, r := range row {
			if r.Ev >= NumEvents {
				return Snapshot{}, fmt.Errorf("prof: load: worker %d carries event class %d, want < %d", w, r.Ev, NumEvents)
			}
		}
	}
	return s, nil
}

// TimelineSummary renders the snapshot as an ASCII version of the paper's
// Fig. 3 "Timeline Summary": one row per thread, a stacked bar showing the
// share of time in each event class, scaled to width columns.
func (s Snapshot) TimelineSummary(w io.Writer, width int) error {
	if width < 10 {
		width = 10
	}
	glyph := [NumEvents]byte{'#', '+', 'w', 'B', '.'}
	var legend strings.Builder
	for ev := Event(0); ev < NumEvents; ev++ {
		fmt.Fprintf(&legend, "%c=%s ", glyph[ev], ev)
	}
	if _, err := fmt.Fprintf(w, "Timeline Summary (%s)\n", strings.TrimSpace(legend.String())); err != nil {
		return err
	}
	var max int64
	perThread := make([][NumEvents]int64, s.Workers)
	for i := 0; i < s.Workers; i++ {
		var tot [NumEvents]int64
		var sum int64
		for _, r := range s.Events[i] {
			tot[r.Ev] += r.End - r.Start
		}
		for _, v := range tot {
			sum += v
		}
		perThread[i] = tot
		if sum > max {
			max = sum
		}
	}
	if max == 0 {
		max = 1
	}
	for i := 0; i < s.Workers; i++ {
		var bar []byte
		for ev := Event(0); ev < NumEvents; ev++ {
			n := int(perThread[i][ev] * int64(width) / max)
			for j := 0; j < n; j++ {
				bar = append(bar, glyph[ev])
			}
		}
		if _, err := fmt.Fprintf(w, "T%03d |%-*s|\n", i, width, string(bar)); err != nil {
			return err
		}
	}
	return nil
}

// TaskCountSummary renders the snapshot as an ASCII version of Fig. 3's
// "Task Count Summary": per-thread created and executed task counts with
// min/max annotations.
func (s Snapshot) TaskCountSummary(w io.Writer, width int) error {
	if width < 10 {
		width = 10
	}
	var max uint64
	for i := 0; i < s.Workers; i++ {
		c := s.Counters[i][CntTasksCreated]
		e := s.Counters[i][CntTasksExecuted]
		if c > max {
			max = c
		}
		if e > max {
			max = e
		}
	}
	if max == 0 {
		max = 1
	}
	var total uint64
	for i := 0; i < s.Workers; i++ {
		total += s.Counters[i][CntTasksExecuted]
	}
	if _, err := fmt.Fprintf(w, "Task Count Summary (tasks executed=%d; +=created #=executed)\n", total); err != nil {
		return err
	}
	for i := 0; i < s.Workers; i++ {
		c := int(s.Counters[i][CntTasksCreated] * uint64(width) / max)
		e := int(s.Counters[i][CntTasksExecuted] * uint64(width) / max)
		if _, err := fmt.Fprintf(w, "T%03d |%-*s| |%-*s|\n",
			i, width, strings.Repeat("+", c), width, strings.Repeat("#", e)); err != nil {
			return err
		}
	}
	return nil
}

// AdmissionSummary renders the snapshot's admission-edge state as a
// per-class table: outcome counters, the current class queue gauge, and
// the p50/p99 of the retained admission latencies. Classes with no
// traffic are omitted; with no admission traffic at all nothing is
// written (region-mode dumps stay unchanged).
func (s Snapshot) AdmissionSummary(w io.Writer) error {
	var total [load.NumClasses]uint64
	var all uint64
	for c, row := range s.AdmitCounts {
		for _, n := range row {
			total[c] += n
		}
		all += total[c]
	}
	if all == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "Admission Summary (per class)\n%-12s %9s %9s %9s %9s %9s %8s %12s %12s\n",
		"class", "admitted", "rejected", "shed", "cancel", "expired", "queued", "p50-admit", "p99-admit"); err != nil {
		return err
	}
	for c, row := range s.AdmitCounts {
		if total[c] == 0 {
			continue
		}
		p50, p99 := latencyPercentiles(s.AdmitLatencies[c])
		if _, err := fmt.Fprintf(w, "%-12s %9d %9d %9d %9d %9d %8d %12s %12s\n",
			load.Class(c), row[AdmitAdmitted], row[AdmitRejected], row[AdmitShed],
			row[AdmitCancelled], row[AdmitExpired], s.ClassQueued[c], p50, p99); err != nil {
			return err
		}
	}
	return nil
}

// latencyPercentiles renders the p50/p99 of a nanosecond sample for the
// admission summary ("-" when empty), via the shared stats machinery so
// every surface interpolates percentiles the same way.
func latencyPercentiles(ns []int64) (p50, p99 string) {
	if len(ns) == 0 {
		return "-", "-"
	}
	var s stats.Sample
	for _, v := range ns {
		s.Add(float64(v))
	}
	at := func(p float64) string {
		return time.Duration(s.Percentile(p)).Round(time.Microsecond).String()
	}
	return at(50), at(99)
}

// ImbalanceRatio returns max/mean of per-thread executed-task counts — a
// scalar version of the imbalance Fig. 3 visualizes. It returns 0 when no
// tasks ran.
func (s Snapshot) ImbalanceRatio() float64 {
	if s.Workers == 0 {
		return 0
	}
	var total, max uint64
	for i := 0; i < s.Workers; i++ {
		e := s.Counters[i][CntTasksExecuted]
		total += e
		if e > max {
			max = e
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(s.Workers)
	return float64(max) / mean
}

// UtilizationRatio returns min/max of per-thread utilized time (TASK +
// GOMP_TASK), the utilization-imbalance scalar for the timeline summary.
// It returns 1 when the timeline is empty.
func (s Snapshot) UtilizationRatio() float64 {
	var utils []float64
	for i := 0; i < s.Workers; i++ {
		var u int64
		for _, r := range s.Events[i] {
			if r.Ev == EvTask || r.Ev == EvTaskCreate {
				u += r.End - r.Start
			}
		}
		utils = append(utils, float64(u))
	}
	if len(utils) == 0 {
		return 1
	}
	sort.Float64s(utils)
	if utils[len(utils)-1] == 0 {
		return 1
	}
	return utils[0] / utils[len(utils)-1]
}
