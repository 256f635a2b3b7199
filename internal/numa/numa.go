// Package numa models the Non-Uniform Memory Access topology that the
// runtime's victim selection and locality accounting are driven by.
//
// The paper evaluates on an 8-socket, 192-core Skylake machine with eight
// NUMA zones and binds one OpenMP thread per core with close affinity. A Go
// process cannot portably pin goroutines to cores, so the topology here is a
// logical map from worker id to zone id. On Linux the zone count can be
// detected from sysfs; everywhere else (and in tests) a synthetic topology
// with a configurable zone count is used. The dynamic load balancing
// strategies only ever consult the zone map, so their behaviour is identical
// to a hardware-backed topology.
package numa

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Locality classifies where a task executed relative to where it was created.
// The paper's profiler distinguishes these three classes (NTASKS_SELF,
// NTASKS_LOCAL, NTASKS_REMOTE) because they map to first-level cache, shared
// cache/local DRAM, and remote-socket DRAM respectively.
type Locality int

const (
	// Self means the task ran on the worker that created it.
	Self Locality = iota
	// Local means the task ran on a different worker in the creator's zone.
	Local
	// Remote means the task ran in a different NUMA zone.
	Remote
)

// String returns the lowercase name of the locality class.
func (l Locality) String() string {
	switch l {
	case Self:
		return "self"
	case Local:
		return "local"
	case Remote:
		return "remote"
	}
	return fmt.Sprintf("locality(%d)", int(l))
}

// Topology maps workers onto NUMA zones.
type Topology struct {
	// Workers is the number of workers covered by the map.
	Workers int
	// Zones is the number of NUMA zones.
	Zones int
	// zoneOf[w] is the zone of worker w.
	zoneOf []int
	// peers[z] lists the workers in zone z, in worker-id order.
	peers [][]int
}

// Synthetic builds a topology that distributes workers over zones in
// contiguous blocks, mirroring "close" thread affinity: workers
// [0, workers/zones) land in zone 0, the next block in zone 1, and so on.
// Remainder workers go to the trailing zones one each, keeping block sizes
// within one of each other. It panics if workers or zones is not positive.
func Synthetic(workers, zones int) Topology {
	if workers <= 0 {
		panic("numa: Synthetic requires workers > 0")
	}
	if zones <= 0 {
		panic("numa: Synthetic requires zones > 0")
	}
	if zones > workers {
		zones = workers
	}
	t := Topology{Workers: workers, Zones: zones}
	t.zoneOf = make([]int, workers)
	t.peers = make([][]int, zones)
	base := workers / zones
	extra := workers % zones
	w := 0
	for z := 0; z < zones; z++ {
		n := base
		if z >= zones-extra {
			n++
		}
		for i := 0; i < n; i++ {
			t.zoneOf[w] = z
			t.peers[z] = append(t.peers[z], w)
			w++
		}
	}
	return t
}

// Detect returns a topology for the given worker count using the NUMA node
// count reported by Linux sysfs when available, and a single-zone synthetic
// topology otherwise. Workers are distributed over detected zones in
// contiguous blocks (close affinity).
func Detect(workers int) Topology {
	zones := detectZoneCount()
	if zones < 1 {
		zones = 1
	}
	return Synthetic(workers, zones)
}

// detectZoneCount parses /sys/devices/system/node/possible, which holds a
// cpulist-format range such as "0-7". It returns 0 when undeterminable.
func detectZoneCount() int {
	data, err := os.ReadFile("/sys/devices/system/node/possible")
	if err != nil {
		return 0
	}
	return countCPUList(strings.TrimSpace(string(data)))
}

// countCPUList counts the ids in a Linux cpulist string ("0-3,8,10-11").
// It returns 0 on malformed input.
func countCPUList(s string) int {
	if s == "" {
		return 0
	}
	total := 0
	for _, part := range strings.Split(s, ",") {
		lo, hi, ok := parseRange(part)
		if !ok {
			return 0
		}
		total += hi - lo + 1
	}
	return total
}

func parseRange(part string) (lo, hi int, ok bool) {
	part = strings.TrimSpace(part)
	if i := strings.IndexByte(part, '-'); i >= 0 {
		a, err1 := strconv.Atoi(part[:i])
		b, err2 := strconv.Atoi(part[i+1:])
		if err1 != nil || err2 != nil || b < a || a < 0 {
			return 0, 0, false
		}
		return a, b, true
	}
	v, err := strconv.Atoi(part)
	if err != nil || v < 0 {
		return 0, 0, false
	}
	return v, v, true
}

// ZoneOf returns the zone of worker w.
func (t Topology) ZoneOf(w int) int { return t.zoneOf[w] }

// Peers returns the workers in zone z in ascending id order. The returned
// slice is shared; callers must not modify it.
func (t Topology) Peers(z int) []int { return t.peers[z] }

// SameZone reports whether workers a and b share a NUMA zone.
func (t Topology) SameZone(a, b int) bool { return t.zoneOf[a] == t.zoneOf[b] }

// SplitDomains partitions the topology into one single-zone topology per
// NUMA domain: shard z covers exactly the workers of zone z, renumbered
// 0..len(Peers(z))-1 in ascending global-id order, so local worker i of
// shard z is global worker Peers(z)[i]. It is the domain→team map of a
// two-level runtime that pins one worker team per socket (one
// xomp.ShardedPool shard per domain).
func (t Topology) SplitDomains() []Topology {
	out := make([]Topology, t.Zones)
	for z := range out {
		out[z] = Synthetic(len(t.peers[z]), 1)
	}
	return out
}

// Classify returns the locality class of a task created by worker creator
// and executed by worker executor.
func (t Topology) Classify(creator, executor int) Locality {
	switch {
	case creator == executor:
		return Self
	case t.zoneOf[creator] == t.zoneOf[executor]:
		return Local
	default:
		return Remote
	}
}

// String summarizes the topology, e.g. "numa: 8 workers over 2 zones".
func (t Topology) String() string {
	return fmt.Sprintf("numa: %d workers over %d zones", t.Workers, t.Zones)
}
