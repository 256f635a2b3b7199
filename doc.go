// Package repro is a from-scratch Go reproduction of "Optimizing
// Fine-Grained Parallelism Through Dynamic Load Balancing on Multi-Socket
// Many-Core Systems" (IPDPS 2025): the XQueue lock-less tasking substrate,
// the hybrid distributed tree barrier, and the NUMA-aware dynamic load
// balancing strategies NA-RP and NA-WS, together with the GOMP/LOMP
// baselines, the nine BOTS benchmarks, a BLAKE3-based Proof-of-Space
// application, and a harness that regenerates every table and figure of
// the paper's evaluation.
//
// Beyond one-region-at-a-time execution, the runtime doubles as a shared
// task service: xomp.ShardedPool keeps persistent worker teams running and
// accepts concurrent job submissions from many goroutines, with per-job
// quiescence detection, panic isolation, bounded-backlog admission, and
// per-job profiling. Its one-shard case (xomp.NewPool) is a single serving
// team; with more shards it runs one serving team per NUMA domain behind a
// two-level dynamic load balancer (power-of-two-choices job placement by
// shard queue depth, plus a balancer moving whole queued jobs stuck
// behind busy workers to shards with idle ones). cmd/loadgen drives both
// shapes with mixed BOTS traffic, and BenchmarkPoolThroughput /
// BenchmarkShardedPoolThroughput in bench_test.go measure jobs/sec by
// preset, submitter count, and shard count.
//
// All balancing levels decide from one load-signal record (internal/load):
// each serving team's queued and running jobs, capacity and smoothed
// job run time, read by one plan per level (victim, dispatch,
// migration) and by admission, the one level with a choice of
// policies (below). A team's DLB configuration is fixed when it is built:
// a preset, or xomp.GuidelineFor's Table IV settings for a measured task
// size (benchall -exp ext-autotune compares those with static and
// best-of-sweep settings).
//
// Admission itself is policy-driven: SubmitCtx submissions carry a
// priority class (per-class bounded queues, adopted interactive-first)
// and an optional deadline, and xomp.Config.Admit selects what a full
// backlog means — wait (BlockWhenFull), fail fast (RejectWhenFull,
// ErrBacklogFull), or deadline-aware load shedding under saturation
// (DeadlineShed, ErrShed). A waiting submitter unblocks on context
// cancellation or deadline expiry instead of hanging forever
// (BenchmarkAdmissionSaturation compares block vs shed).
//
// The public API lives in repro/xomp. ARCHITECTURE.md maps the paper's
// sections onto the packages and traces a job end to end; cmd/README.md
// documents the eight command-line tools. The root package exists to host
// the repository-level benchmark suite (bench_test.go), which has one
// testing.B entry per reproduced table and figure.
package repro
