package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one jobserved process. The server is a separate process on
// purpose: its idle workers spin, which starves an in-process generator's
// timers, and a child's CPU time can be read apart from the generator's.
type child struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer // the SIGQUIT goroutine dump lands here
	exited chan struct{}
	// Set before exited closes.
	waitErr error
	// stdout is complete once read closes: the pipe outlives the process
	// by whatever the reader has not yet consumed.
	read   chan struct{}
	mu     sync.Mutex
	stdout []string
}

// live is every process not yet reaped, servers and spinners, so that no
// exit path of the benchmark can leave one behind (Pdeathsig covers a crash).
var live struct {
	sync.Mutex
	m    map[*child]struct{}
	spin map[*spinner]struct{}
}

func killAll() {
	live.Lock()
	defer live.Unlock()
	// Kill fails only on a process that has already exited.
	for c := range live.m {
		c.cmd.Process.Kill()
	}
	for s := range live.spin {
		s.cmd.Process.Kill()
	}
}

// launch starts cmd confined to cpus (nil = wherever this process may run)
// and reaps it: started runs once the process exists, done receives the
// Wait error once it has ended, both before launch's goroutine moves on, so
// that a registration made in one is undone in the other in that order.
//
// Pdeathsig fires when the *thread* that forked exits, so the process is
// started from, and waited for on, a goroutine locked to its thread. The
// process also inherits that thread's CPU mask, which is how it is placed.
// The goroutine never unlocks, so the thread ends with it and carries the
// mask nowhere else.
func launch(cmd *exec.Cmd, cpus []int, started func(), done func(error)) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	startErr := make(chan error, 1)
	go func() {
		runtime.LockOSThread()
		var err error
		if cpus != nil {
			err = setAffinity(0, cpus)
		}
		if err == nil {
			err = cmd.Start()
		}
		if err == nil {
			started()
		}
		startErr <- err
		if err == nil {
			done(cmd.Wait())
		}
	}()
	return <-startErr
}

var servingRE = regexp.MustCompile(`^jobserved: serving on (\S+) `)

// startChild runs bin with args, confined to cpus (nil = wherever this
// process may run), and waits until it reports its listening address on
// stdout.
func startChild(bin string, args []string, cpus []int) (*child, error) {
	c := &child{exited: make(chan struct{}), read: make(chan struct{})}
	c.cmd = exec.Command(bin, args...)
	c.cmd.Stderr = &c.stderr
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	c.cmd.Stdout = pw

	err = launch(c.cmd, cpus, func() {
		live.Lock()
		if live.m == nil {
			live.m = make(map[*child]struct{})
		}
		live.m[c] = struct{}{}
		live.Unlock()
	}, func(waitErr error) {
		c.waitErr = waitErr
		live.Lock()
		delete(live.m, c)
		live.Unlock()
		close(c.exited)
	})
	pw.Close() // the child holds its own copy; ours would keep the reader from EOF
	if err != nil {
		pr.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}

	addr := make(chan string, 1)
	go func() {
		defer close(c.read)
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			c.stdout = append(c.stdout, line)
			c.mu.Unlock()
			if m := servingRE.FindStringSubmatch(line); m != nil {
				addr <- m[1]
			}
		}
	}()
	select {
	case c.addr = <-addr:
		return c, nil
	case <-c.exited:
		return nil, fmt.Errorf("jobserved exited before listening: %v: %s", c.waitErr, c.stderr.String())
	case <-time.After(10 * time.Second):
		c.kill()
		return nil, errors.New("jobserved did not report a listening address within 10s")
	}
}

func (c *child) kill() {
	c.cmd.Process.Kill() // already-exited is the only failure, and is fine
	<-c.exited
}

// exitReport is what jobserved prints on shutdown.
type exitReport struct {
	framesIn, framesOut, bytesIn, bytesOut uint64
	jobsIn, resultsOut, refused            uint64
	completed, migratedIn                  uint64
}

var (
	wireRE  = regexp.MustCompile(`^wire: .* frames (\d+) in / (\d+) out, bytes (\d+) in / (\d+) out, jobs (\d+) in, results (\d+) out \((\d+) refused\)`)
	shardRE = regexp.MustCompile(`^\s+shard \d+: .* (\d+) jobs completed, migrated in (\d+) / out \d+`)
)

// stop asks the child to shut down and parses its exit report. The child
// must exit 0 within 5s of SIGTERM; otherwise it is killed and stop
// reports the violation.
func (c *child) stop() (exitReport, error) {
	var rep exitReport
	c.cmd.Process.Signal(syscall.SIGTERM) // an exited child fails the checks below instead
	select {
	case <-c.exited:
	case <-time.After(5 * time.Second):
		c.kill()
		return rep, errors.New("jobserved did not exit within 5s of SIGTERM")
	}
	if c.waitErr != nil {
		return rep, fmt.Errorf("jobserved exit: %w: %s", c.waitErr, c.stderr.String())
	}
	<-c.read
	c.mu.Lock()
	defer c.mu.Unlock()
	seenWire := false
	for _, line := range c.stdout {
		if m := wireRE.FindStringSubmatch(line); m != nil {
			seenWire = true // the last wire line is the final one
			rep.framesIn, rep.framesOut = atou(m[1]), atou(m[2])
			rep.bytesIn, rep.bytesOut = atou(m[3]), atou(m[4])
			rep.jobsIn, rep.resultsOut, rep.refused = atou(m[5]), atou(m[6]), atou(m[7])
		} else if m := shardRE.FindStringSubmatch(line); m != nil {
			rep.completed += atou(m[1])
			rep.migratedIn += atou(m[2])
		}
	}
	if !seenWire {
		return rep, fmt.Errorf("jobserved exit report not found in: %q", c.stdout)
	}
	return rep, nil
}

// quitAndCapture makes a hung child dump its goroutines (SIGQUIT), gives
// it a second to die of it, kills it otherwise, and returns the dump.
func (c *child) quitAndCapture() string {
	c.cmd.Process.Signal(syscall.SIGQUIT) // an exited child has nothing to dump
	select {
	case <-c.exited:
	case <-time.After(time.Second):
		c.kill()
	}
	return c.stderr.String()
}

func atou(s string) uint64 {
	v, _ := strconv.ParseUint(s, 10, 64) // the regexps admit digits only
	return v
}

// cpuTicks returns pid's user+system CPU time in clock ticks, from
// /proc/<pid>/stat.
func cpuTicks(pid int) (uint64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// last ')'. utime and stime are fields 14 and 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	return atou(f[11]) + atou(f[12]), nil
}

// usPerTick is the length of a /proc clock tick: USER_HZ is 100 on Linux.
const usPerTick = 10000
