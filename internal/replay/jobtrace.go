// Package replay records and replays job traces. A JobTrace records the
// submit edge of the job service — per job: arrival offset, priority
// class, completion deadline, tenant, application, and size — so one
// production-shaped day of traffic can be replayed deterministically
// through any pool configuration (admission, dispatch, migration),
// and two configurations can be compared on the *same* traffic instead
// of two different random workloads. Traces come from a live Recorder
// (loadgen -record), from a profiled pool's snapshot, or from the
// scenario corpus; ReplayJobs drives one through an xomp pool. This is
// the workload-corpus methodology LB4OMP uses to evaluate scheduling
// techniques, applied to the job service.
package replay

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// jobTraceMagic identifies the JSONL header line of a serialized JobTrace
// (and lets cmd/whatif refuse any other file, a profile dump included).
const jobTraceMagic = "jobtrace/v1"

// JobEvent is one job's submission record: everything the admission edge
// saw, nothing it decided. Offsets and durations are nanoseconds so the
// serialized form is exact (no float formatting variance between runs —
// the corpus' determinism contract is byte identity).
type JobEvent struct {
	// At is the job's arrival offset in nanoseconds since trace start.
	At int64 `json:"at"`
	// Class is the submission's priority class (a load.Class value;
	// stored as int so the trace format does not depend on load).
	Class int `json:"class,omitempty"`
	// Deadline is the completion budget from arrival in nanoseconds,
	// 0 when the submission carried none.
	Deadline int64 `json:"deadline,omitempty"`
	// App names the job body: a BOTS application ("fib", "sort", ...) or
	// "" for a synthetic spin job of Size units.
	App string `json:"app,omitempty"`
	// Size is the job's work in simnuma spin units (synthetic bodies;
	// ignored when App names a BOTS application).
	Size int `json:"size,omitempty"`
	// Tenant identifies the submitting tenant.
	Tenant int `json:"tenant,omitempty"`
}

// JobTrace is a replayable job-arrival workload: the submit edge of one
// recorded (or generated) traffic interval.
type JobTrace struct {
	// Name labels the trace (scenario name, or the recording source).
	Name string
	// Seed is the generator seed for synthetic traces (0 for recordings);
	// kept in the header so a golden file documents how to regenerate it.
	Seed uint64
	// Weights maps tenant ids to fair-share weights for traces whose
	// workload model assigns them (nil: every tenant at weight 1). The
	// replayer stamps them onto submissions so weighted-fair policies
	// see the trace's intended tenancy; Options.TenantWeights overrides.
	Weights map[int]float64
	// Jobs are the arrival events in non-decreasing At order.
	Jobs []JobEvent
}

// jobTraceHeader is the first JSONL line of a serialized trace.
// encoding/json sorts the Weights map by key, so serialization stays
// byte-deterministic.
type jobTraceHeader struct {
	Magic   string          `json:"jobtrace"`
	Name    string          `json:"name,omitempty"`
	Seed    uint64          `json:"seed,omitempty"`
	Weights map[int]float64 `json:"weights,omitempty"`
	Jobs    int             `json:"jobs"`
}

// Span returns the trace's arrival span: the offset of the last arrival.
func (t *JobTrace) Span() time.Duration {
	if len(t.Jobs) == 0 {
		return 0
	}
	return time.Duration(t.Jobs[len(t.Jobs)-1].At)
}

// WriteTo serializes the trace as JSONL: one header line, then one
// JobEvent per line. The encoding is deterministic (fixed field order,
// integer-only values), so equal traces serialize to equal bytes — the
// property the golden-corpus tests pin.
func (t *JobTrace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	line := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		m, err := bw.Write(append(b, '\n'))
		n += int64(m)
		return err
	}
	if err := line(jobTraceHeader{Magic: jobTraceMagic, Name: t.Name, Seed: t.Seed, Weights: t.Weights, Jobs: len(t.Jobs)}); err != nil {
		return n, fmt.Errorf("replay: write job trace: %w", err)
	}
	for i := range t.Jobs {
		if err := line(t.Jobs[i]); err != nil {
			return n, fmt.Errorf("replay: write job trace: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return n, fmt.Errorf("replay: write job trace: %w", err)
	}
	return n, nil
}

// ReadJobTrace parses a JSONL job trace produced by WriteTo.
func ReadJobTrace(r io.Reader) (*JobTrace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("replay: read job trace: %w", err)
		}
		return nil, fmt.Errorf("replay: read job trace: empty input")
	}
	var h jobTraceHeader
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil || h.Magic != jobTraceMagic {
		return nil, fmt.Errorf("replay: input is not a %s trace (header %q)", jobTraceMagic, sc.Text())
	}
	t := &JobTrace{Name: h.Name, Seed: h.Seed, Weights: h.Weights, Jobs: make([]JobEvent, 0, h.Jobs)}
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("replay: job trace line %d: %w", len(t.Jobs)+2, err)
		}
		t.Jobs = append(t.Jobs, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("replay: read job trace: %w", err)
	}
	if len(t.Jobs) != h.Jobs {
		return nil, fmt.Errorf("replay: job trace header says %d jobs, found %d", h.Jobs, len(t.Jobs))
	}
	for i := 1; i < len(t.Jobs); i++ {
		if t.Jobs[i].At < t.Jobs[i-1].At {
			return nil, fmt.Errorf("replay: job trace arrivals out of order at line %d", i+2)
		}
	}
	return t, nil
}

// IsJobTrace reports whether data begins with a JobTrace JSONL header —
// the check cmd/whatif uses to refuse a profile dump or any other file
// with a clear message instead of a decode error.
func IsJobTrace(data []byte) bool {
	end := len(data)
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		end = i
	}
	var h jobTraceHeader
	return json.Unmarshal(data[:end], &h) == nil && h.Magic == jobTraceMagic
}

// Recorder captures a JobTrace live at the submit edge: the caller (a
// load generator, a service front end) calls Record once per submission
// attempt, before the SubmitCtx call, with what the admission edge is
// about to see. Arrival offsets are measured against the recorder's
// construction time. Safe for concurrent use by many submitters.
type Recorder struct {
	start time.Time
	mu    sync.Mutex
	jobs  []JobEvent
}

// NewRecorder returns a Recorder whose arrival clock starts now.
func NewRecorder() *Recorder { return &Recorder{start: time.Now()} }

// Record captures one submission: app/size describe the job body, class
// its priority, deadline the completion budget from now (0 = none), and
// tenant the submitting tenant id.
func (r *Recorder) Record(app string, size int, class int, deadline time.Duration, tenant int) {
	at := int64(time.Since(r.start))
	var dl int64
	if deadline > 0 {
		dl = int64(deadline)
	}
	r.mu.Lock()
	r.jobs = append(r.jobs, JobEvent{At: at, Class: class, Deadline: dl, App: app, Size: size, Tenant: tenant})
	r.mu.Unlock()
}

// Trace returns the recording as a JobTrace named name, arrivals sorted
// by offset (concurrent submitters append out of order). The recorder
// remains usable; the returned trace is a snapshot.
func (r *Recorder) Trace(name string) *JobTrace {
	r.mu.Lock()
	jobs := make([]JobEvent, len(r.jobs))
	copy(jobs, r.jobs)
	r.mu.Unlock()
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].At < jobs[j].At })
	return &JobTrace{Name: name, Jobs: jobs}
}
