package core

import (
	"fmt"
	"time"

	"repro/internal/load"
	"repro/internal/numa"
)

// Sched selects the task-queue substrate.
type Sched int

const (
	// SchedGOMP is GNU OpenMP's model: one globally shared task queue
	// protected by a single global task lock (§II-A). It is GNU's priority
	// queue with every task at the default priority, so FIFO.
	SchedGOMP Sched = iota
	// SchedLOMP is the LLVM OpenMP model: per-worker lock-free
	// work-stealing deques (Chase–Lev) with random pull-based stealing.
	SchedLOMP
	// SchedXQueue is the paper's lock-less MPMC XQueue matrix (§III-A).
	SchedXQueue
)

// String returns the scheduler's name.
func (s Sched) String() string {
	switch s {
	case SchedGOMP:
		return "gomp-lock"
	case SchedLOMP:
		return "lomp-deque"
	case SchedXQueue:
		return "xqueue"
	}
	return fmt.Sprintf("sched(%d)", int(s))
}

// Barrier selects the team-barrier implementation.
type Barrier int

const (
	// BarrierCentralLock is GOMP's centralized barrier: arrival counting
	// and the task count live behind the global lock.
	BarrierCentralLock Barrier = iota
	// BarrierCentralAtomic is the XGOMP barrier: a shared atomic task
	// counter (RMW per task) plus an atomic arrival count (§III-A).
	BarrierCentralAtomic
	// BarrierTree is the paper's hybrid distributed tree barrier:
	// lock-free gathering up a binary tree, lock-less release broadcast,
	// with distributed single-writer task counters for quiescence
	// detection (§III-B; DESIGN.md §6).
	BarrierTree
)

// String returns the barrier's name.
func (b Barrier) String() string {
	switch b {
	case BarrierCentralLock:
		return "central-lock"
	case BarrierCentralAtomic:
		return "central-atomic"
	case BarrierTree:
		return "tree"
	}
	return fmt.Sprintf("barrier(%d)", int(b))
}

// Alloc selects the task-descriptor allocation model.
type Alloc int

const (
	// AllocContended models glibc malloc under contention: one global
	// lock per allocate/free, as GOMP behaves (§VI-A).
	AllocContended Alloc = iota
	// AllocMultiLevel models LLVM OpenMP's fast allocator: thread-local
	// buffers, then chunks acquired from other threads, then the heap.
	AllocMultiLevel
)

// String returns the allocator's name.
func (a Alloc) String() string {
	switch a {
	case AllocContended:
		return "contended-malloc"
	case AllocMultiLevel:
		return "multi-level"
	}
	return fmt.Sprintf("alloc(%d)", int(a))
}

// DLBStrategy selects the dynamic load balancing strategy (§IV).
type DLBStrategy int

const (
	// DLBNone leaves XQueue's static round-robin balancer alone.
	DLBNone DLBStrategy = iota
	// DLBRedirectPush is NA-RP: a victim redirects its next Nsteal newly
	// created tasks into the thief's queue (§IV-C, Alg. 3).
	DLBRedirectPush
	// DLBWorkSteal is NA-WS: a victim migrates up to Nsteal queued tasks
	// from its own queues into the thief's queue (§IV-D, Alg. 4).
	DLBWorkSteal
)

// String returns the strategy's name.
func (d DLBStrategy) String() string {
	switch d {
	case DLBNone:
		return "static"
	case DLBRedirectPush:
		return "na-rp"
	case DLBWorkSteal:
		return "na-ws"
	}
	return fmt.Sprintf("dlb(%d)", int(d))
}

// DLBConfig holds the tunables from §IV-E.
type DLBConfig struct {
	// Strategy selects NA-RP, NA-WS, or static balancing.
	Strategy DLBStrategy
	// NVictim is the number of victims a thief sends requests to each
	// time its timeout expires.
	NVictim int
	// NSteal is the maximum number of tasks moved per handled request.
	NSteal int
	// TInterval is the number of idle scheduling-point visits between two
	// request rounds.
	TInterval int
	// PLocal is the probability that a thief picks a NUMA-local victim.
	PLocal float64
}

// DefaultDLB returns the mid-range settings used as sweep defaults.
func DefaultDLB(s DLBStrategy) DLBConfig {
	return DLBConfig{Strategy: s, NVictim: 8, NSteal: 16, TInterval: 100, PLocal: 1.0}
}

// GuidelineFor maps a mean task duration to the DLB settings the paper's
// Table IV recommends for its task-size class (load.GrainOf): fine-grained
// tasks → NA-WS with small steal sizes and fully local victims; coarse
// tasks → larger steals, with the coarsest class on NA-RP. PLocal only
// matters on multi-zone topologies; an unmeasured (zero) duration maps
// like the fine class, the conservative end.
func GuidelineFor(meanTask time.Duration, zones int) DLBConfig {
	var cfg DLBConfig
	switch load.GrainOf(float64(meanTask.Nanoseconds())) {
	case load.GrainSmall:
		cfg = DLBConfig{Strategy: DLBWorkSteal, NVictim: 2, NSteal: 8, TInterval: 100, PLocal: 1}
	case load.GrainMid:
		cfg = DLBConfig{Strategy: DLBWorkSteal, NVictim: 4, NSteal: 16, TInterval: 100, PLocal: 1}
	case load.GrainCoarse:
		cfg = DLBConfig{Strategy: DLBWorkSteal, NVictim: 8, NSteal: 32, TInterval: 100, PLocal: 0.5}
	case load.GrainXCoarse:
		cfg = DLBConfig{Strategy: DLBRedirectPush, NVictim: 8, NSteal: 32, TInterval: 100, PLocal: 1}
	default: // GrainUnknown, GrainFine
		cfg = DLBConfig{Strategy: DLBWorkSteal, NVictim: 1, NSteal: 1, TInterval: 100, PLocal: 1}
	}
	if zones <= 1 {
		cfg.PLocal = 1
	}
	return cfg
}

// Config assembles a runtime. The zero value is not valid; use Preset or
// fill the fields and let NewTeam validate.
type Config struct {
	// Workers is the team's size (paper: up to 192): every region and
	// every serving team runs all Workers workers.
	Workers int
	// Sched, Barrier, Alloc select the substrate composition.
	Sched   Sched
	Barrier Barrier
	Alloc   Alloc
	// DLB configures dynamic load balancing; requires SchedXQueue.
	DLB DLBConfig
	// Topology maps workers to NUMA zones. Zero value → detected topology.
	Topology numa.Topology
	// QueueSize is the per-SPSC-queue capacity for XQueue and the deque
	// capacity for LOMP; a power of two. 0 → 256.
	QueueSize int
	// Backlog is the admission-queue capacity of the task-service mode
	// (Serve/Submit), per priority class: how many submitted jobs of one
	// class may wait for adoption before Submit blocks (or the admission
	// policy rejects/sheds), the service's backpressure bound. Classes
	// are bounded independently so a full background queue cannot crowd
	// out interactive admissions. 0 → 4×Workers.
	Backlog int
	// Admit is the admission policy of the task-service mode: when a
	// submission arrives, it decides from the load signals whether the
	// submitter waits for queue space, is rejected on a full class queue
	// (ErrBacklogFull), or is shed because its deadline cannot be met
	// (ErrShed). nil → load.BlockWhenFull, the pure-backpressure
	// compatibility behavior.
	Admit load.AdmitPolicy
	// Profile enables the event timeline (counters are always on).
	Profile bool
	// Seed seeds the per-worker RNGs; 0 → 1 (deterministic by default).
	Seed int64
}

// Preset returns the configuration for one of the paper's named runtimes:
// "gomp", "lomp", "xlomp", "xgomp", "xgomptb", "xgomptb+narp",
// "xgomptb+naws". It panics on an unknown name.
func Preset(name string, workers int) Config {
	c := Config{Workers: workers}
	switch name {
	case "gomp":
		c.Sched, c.Barrier, c.Alloc = SchedGOMP, BarrierCentralLock, AllocContended
	case "lomp":
		c.Sched, c.Barrier, c.Alloc = SchedLOMP, BarrierCentralAtomic, AllocMultiLevel
	case "xlomp":
		c.Sched, c.Barrier, c.Alloc = SchedXQueue, BarrierCentralAtomic, AllocMultiLevel
	case "xgomp":
		c.Sched, c.Barrier, c.Alloc = SchedXQueue, BarrierCentralAtomic, AllocContended
	case "xgomptb":
		c.Sched, c.Barrier, c.Alloc = SchedXQueue, BarrierTree, AllocContended
	case "xgomptb+narp":
		c.Sched, c.Barrier, c.Alloc = SchedXQueue, BarrierTree, AllocContended
		c.DLB = DefaultDLB(DLBRedirectPush)
	case "xgomptb+naws":
		c.Sched, c.Barrier, c.Alloc = SchedXQueue, BarrierTree, AllocContended
		c.DLB = DefaultDLB(DLBWorkSteal)
	default:
		panic(fmt.Sprintf("core: unknown preset %q", name))
	}
	return c
}

// PresetNames lists the presets in the order the paper introduces them.
func PresetNames() []string {
	return []string{"gomp", "lomp", "xlomp", "xgomp", "xgomptb", "xgomptb+narp", "xgomptb+naws"}
}

// validate normalizes and checks a configuration.
func (c *Config) validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("core: Workers must be positive, got %d", c.Workers)
	}
	if c.Workers > maxWorkers {
		return fmt.Errorf("core: Workers %d exceeds the %d-worker limit of the 24-bit thief id", c.Workers, maxWorkers)
	}
	if c.QueueSize == 0 {
		c.QueueSize = 256
	}
	if c.QueueSize < 2 || c.QueueSize&(c.QueueSize-1) != 0 {
		return fmt.Errorf("core: QueueSize must be a power of two >= 2, got %d", c.QueueSize)
	}
	if c.Backlog < 0 {
		return fmt.Errorf("core: Backlog must be >= 0, got %d", c.Backlog)
	}
	if c.Backlog == 0 {
		c.Backlog = 4 * c.Workers
	}
	if c.Topology.Workers == 0 {
		c.Topology = numa.Detect(c.Workers)
	}
	if c.Topology.Workers != c.Workers {
		return fmt.Errorf("core: topology covers %d workers, team has %d", c.Topology.Workers, c.Workers)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c.DLB.validate(c.Sched)
}

// validate checks a DLB configuration against the bounds of §IV-E for a
// team on the given substrate.
func (d *DLBConfig) validate(sched Sched) error {
	if d.Strategy == DLBNone {
		return nil
	}
	if sched != SchedXQueue {
		return fmt.Errorf("core: DLB strategy %v requires SchedXQueue, got %v", d.Strategy, sched)
	}
	if d.NVictim < 1 {
		return fmt.Errorf("core: DLB NVictim must be >= 1, got %d", d.NVictim)
	}
	if d.NSteal < 1 {
		return fmt.Errorf("core: DLB NSteal must be >= 1, got %d", d.NSteal)
	}
	if d.TInterval < 1 {
		return fmt.Errorf("core: DLB TInterval must be >= 1, got %d", d.TInterval)
	}
	if d.PLocal < 0 || d.PLocal > 1 {
		return fmt.Errorf("core: DLB PLocal must be in [0,1], got %v", d.PLocal)
	}
	return nil
}
