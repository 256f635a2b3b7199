package main

import (
	"math"

	"repro/internal/load"
)

// metricDef names one published number. BENCHMARK.json lists exactly
// these; a self-test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening, as a share of the parent's median
}

// endToEnd is what a user of the service sees. Every workload reports all
// six; a later change is rejected when one worsens by more than its bound.
// The timing bounds are the widest the contract allows, a quarter: with the
// processes placed, the vCPUs kept awake and the two best reps reported
// (see host.go and fold), ten runs of the same code still spread 1 to 20%
// on this VM class, because the host's speed drifts over minutes (see
// benchmarks/README.md, "The host drifts"). ok_share is 1 − failed_share:
// refusals, duplicates, missing and watchdog-killed jobs all count against
// it, and its bound is the +0.001 absolute the failed share may grow by.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"lat_p99_us", "us", "lower", 0.25},
	{"ok_share", "share", "higher", 0.001},
	{"server_cpu_us_per_job", "us", "lower", 0.25},
}

// perLayer is the budget below the end-to-end numbers. The prefix is the
// module the number belongs to.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Client loop, per request, from the traced rep.
		{Name: "wire.encode_ns", Unit: "ns", Better: "lower"},
		{Name: "wire.decode_ns", Unit: "ns", Better: "lower"},
		{Name: "jobserve.flush_ns", Unit: "ns", Better: "lower"},
		{Name: "jobserve.wait_ns", Unit: "ns", Better: "lower"},
		{Name: "core.queue_ns.p50", Unit: "ns", Better: "lower"},
		{Name: "core.queue_ns.p99", Unit: "ns", Better: "lower"},
		{Name: "core.run_ns.p50", Unit: "ns", Better: "lower"},
		{Name: "core.run_ns.p99", Unit: "ns", Better: "lower"},
		{Name: "jobserve.edge_residual_ns", Unit: "ns", Better: "lower"},
		// The jobserved exit report.
		{Name: "jobserve.jobs_per_frame_in", Unit: "count", Better: "higher"},
		{Name: "jobserve.results_per_frame_out", Unit: "count", Better: "higher"},
		{Name: "jobserve.bytes_per_job_in", Unit: "B", Better: "lower"},
		{Name: "jobserve.bytes_per_job_out", Unit: "B", Better: "lower"},
		{Name: "jobserve.refused", Unit: "count", Better: "lower"},
		{Name: "xomp.migrated_share", Unit: "share", Better: "lower"},
		// The embedded pass: counters only.
		{Name: "core.tasks_per_job", Unit: "count", Better: "lower"},
		{Name: "core.steal_req_per_job", Unit: "count", Better: "lower"},
		{Name: "core.steal_hit_ratio", Unit: "share", Better: "higher"},
		{Name: "core.imm_exec_share", Unit: "share", Better: "lower"},
		{Name: "core.stolen_share", Unit: "share", Better: "lower"},
		{Name: "load.admit_ok", Unit: "count", Better: "higher"},
		{Name: "load.admit_refused", Unit: "count", Better: "lower"},
		{Name: "load.admit_lat_p50_us", Unit: "us", Better: "lower"},
		{Name: "alloc.task_hit_ratio", Unit: "share", Better: "higher"},
		{Name: "proc.allocs_per_job", Unit: "count", Better: "lower"},
		{Name: "proc.bytes_per_job", Unit: "B", Better: "lower"},
		{Name: "proc.gc_pause_us_per_s", Unit: "us/s", Better: "lower"},
		// Probes: public functions timed directly.
		{Name: "wire.codec_ns_per_rec", Unit: "ns", Better: "lower"},
		{Name: "wire.result_codec_ns_per_rec", Unit: "ns", Better: "lower"},
		{Name: "intake.ring_pair_ns", Unit: "ns", Better: "lower"},
		{Name: "intake.ring_batch64_ns_per_item", Unit: "ns", Better: "lower"},
		{Name: "intake.bell_wake_ns", Unit: "ns", Better: "lower"},
		{Name: "xqueue.push_pop_ns", Unit: "ns", Better: "lower"},
		{Name: "bqueue.enq_deq_ns", Unit: "ns", Better: "lower"},
		{Name: "alloc.frame_get_put_ns", Unit: "ns", Better: "lower"},
		{Name: "alloc.buf_get_put_ns", Unit: "ns", Better: "lower"},
		{Name: "xomp.submit_call_ns", Unit: "ns", Better: "lower"},
		{Name: "xomp.submit_to_done_ns", Unit: "ns", Better: "lower"},
		{Name: "xomp.batch64_admit_ns_per_job", Unit: "ns", Better: "lower"},
		{Name: "xomp.batch64_done_ns_per_job", Unit: "ns", Better: "lower"},
		{Name: "core.spawn_ns_per_task", Unit: "ns", Better: "lower"},
		{Name: "core.tasks_per_s", Unit: "1/s", Better: "higher"},
		{Name: "core.region_ns", Unit: "ns", Better: "lower"},
		// The harness itself.
		{Name: "loadgen.gen_lag_p50_us", Unit: "us", Better: "lower"},
		{Name: "loadgen.gen_lag_p99_us", Unit: "us", Better: "lower"},
		{Name: "loadgen.client_cpu_us_per_job", Unit: "us", Better: "lower"},
		{Name: "host.steal_share", Unit: "share", Better: "lower"},
		{Name: "host.spin_ns_per_kunit", Unit: "ns", Better: "lower"},
		{Name: "harness.trace_overhead_share", Unit: "share", Better: "lower"},
		{Name: "harness.build_s", Unit: "s", Better: "lower"},
	}
	// Queue and run time by admission class: only open-mix has more than
	// the batch class, and there the classes queue behind each other.
	for class := load.Class(0); class < load.NumClasses; class++ {
		defs = append(defs,
			metricDef{Name: "core.queue_ns.p99." + class.String(), Unit: "ns", Better: "lower"},
			metricDef{Name: "core.run_ns.p50." + class.String(), Unit: "ns", Better: "lower"})
	}
	return defs
}()

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks, 0 for no samples. Samples are kept exactly, not
// bucketed, so a percentile carries every digit that was measured.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}
