package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/simnuma"
)

// Host-noise guard. This VM class has gone from 2% to 61% steal for
// minutes at a time, which cuts throughput tenfold, so every rep is
// bracketed by a read of the aggregate steal jiffies and preceded by a
// fixed spin probe; a rep above maxStealShare is re-run or flagged noisy.
const maxStealShare = 0.10

// cpuJiffies returns the aggregate steal and total jiffies of /proc/stat.
func cpuJiffies() (steal, total uint64, err error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, fmt.Errorf("empty /proc/stat: %v", sc.Err())
	}
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already inside user and nice.
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", sc.Text())
	}
	for i, f := range fields[1:min(len(fields), 9)] {
		v := atou(f)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// stealShare is the share of all CPU time stolen between two readings.
func stealShare(steal0, total0, steal1, total1 uint64) float64 {
	if total1 <= total0 {
		return 0
	}
	return float64(steal1-steal0) / float64(total1-total0)
}

// spinProbeUnits is the fixed simnuma.Spin job each probe thread times.
const spinProbeUnits = 1_000_000

// spinNSPerKUnit times a fixed spin job on every CPU at once, five rounds,
// and returns the median round's mean ns per 1000 units. All CPUs spin
// together because that is how the workloads run: a lone thread on an
// otherwise idle VM reads the same speed whether or not its hyperthread
// siblings and neighbours are busy, and the workloads do not. Calibration
// (simnuma.UnitsPerMicrosecond) reads too noisily to stand in for this.
func spinNSPerKUnit() float64 {
	n := runtime.NumCPU()
	var rounds [5]float64
	for r := range rounds {
		ns := make([]float64, n)
		var wg sync.WaitGroup
		for i := range ns {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				t0 := time.Now()
				simnuma.Spin(spinProbeUnits)
				ns[i] = float64(time.Since(t0)) / (spinProbeUnits / 1000)
			}(i)
		}
		wg.Wait()
		for _, v := range ns {
			rounds[r] += v / float64(n)
		}
	}
	slices.Sort(rounds[:])
	return rounds[len(rounds)/2]
}

// CPU placement. The load generator and the server each get their own CPUs:
// the generator the first CPU this process may run on, the server the
// rest. Left to the kernel, the two processes' threads trade places on a
// 2-vCPU host every few seconds, and the no-op round trip reads 135 or
// 170us depending on who shares a CPU with whom; placed, it reads the
// same to 2% second after second. A server placed on k CPUs starts with
// GOMAXPROCS = k, so on two vCPUs it is the program on one processor.

// cpuMask is a sched_setaffinity mask of up to 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs returns the CPUs the calling thread may run on, ascending.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var cpus []int
	for i := range m {
		for b := 0; b < 64; b++ {
			if m[i]&(1<<b) != 0 {
				cpus = append(cpus, i*64+b)
			}
		}
	}
	return cpus, nil
}

// setAffinity confines thread tid (0 = the calling thread) to cpus.
func setAffinity(tid int, cpus []int) error {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d, %v): %w", tid, cpus, errno)
	}
	return nil
}

// confineProcess confines every thread of this process to cpus and sets
// GOMAXPROCS to match. Threads started later inherit the mask from the
// thread that starts them; the second pass catches one started by a thread
// the first pass had not reached yet.
func confineProcess(cpus []int) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// A thread may exit between the listing and the call.
			if err := setAffinity(tid, cpus); err != nil && !errors.Is(err, syscall.ESRCH) {
				return err
			}
		}
	}
	runtime.GOMAXPROCS(len(cpus))
	return nil
}

// Spinners. A vCPU with nothing to run halts, and a halted vCPU is woken by
// the host's scheduler, not the guest's: on a busy host that costs 20us at
// best and a millisecond at worst, once per blocking read of a closed loop.
// While a slow spell lasts, the no-op round trip's p50 reads 230 to 700us
// and its p99 1.2ms with halting vCPUs, against 175 and 300us with vCPUs
// that never halt. So while a rep runs, every CPU carries a spinner: this
// program started again in a mode that only loops, confined to that CPU,
// under SCHED_IDLE, which the kernel runs only when the CPU has nothing
// else to run and preempts the moment it does.

const spinnerEnv = "SVCBENCH_SPINNER"

func init() {
	if os.Getenv(spinnerEnv) != "" {
		// The parent sets SCHED_IDLE on this process's first thread, so the
		// loop must stay on it.
		runtime.LockOSThread()
		for {
		}
	}
}

// spinner is one idle-priority spinning process.
type spinner struct {
	cmd    *exec.Cmd
	exited chan struct{}
}

// startSpinners starts one spinner on each of cpus.
func startSpinners(cpus []int) ([]*spinner, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var all []*spinner
	for _, cpu := range cpus {
		s := &spinner{cmd: exec.Command(self), exited: make(chan struct{})}
		s.cmd.Env = append(os.Environ(), spinnerEnv+"=1")
		err := launch(s.cmd, []int{cpu}, func() {
			live.Lock()
			if live.spin == nil {
				live.spin = make(map[*spinner]struct{})
			}
			live.spin[s] = struct{}{}
			live.Unlock()
		}, func(error) {
			live.Lock()
			delete(live.spin, s)
			live.Unlock()
			close(s.exited)
		})
		if err != nil {
			stopSpinners(all)
			return nil, fmt.Errorf("start spinner: %w", err)
		}
		all = append(all, s)
		// struct sched_param{ int sched_priority } = 0; SCHED_IDLE is policy 5.
		var param int32
		_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(s.cmd.Process.Pid), 5, uintptr(unsafe.Pointer(&param)))
		if errno != 0 {
			// At normal priority a spinner would take half of the CPU.
			stopSpinners(all)
			return nil, fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", errno)
		}
	}
	return all, nil
}

// stopSpinners kills the spinners and waits until each has ended.
func stopSpinners(all []*spinner) {
	for _, s := range all {
		s.cmd.Process.Kill() // already-exited is the only failure, and is fine
		<-s.exited
	}
}

// selfCPUus is this process's user+system CPU time in microseconds.
func selfCPUus() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

// fingerprint identifies the host a result was taken on.
type fingerprint struct {
	CPU  string `json:"cpu"`
	NCPU int    `json:"nproc"`
	Go   string `json:"go"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{CPU: "unknown", NCPU: runtime.NumCPU(), Go: runtime.Version()}
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return fp
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			fp.CPU = strings.TrimSpace(v)
			break
		}
	}
	return fp
}
