package numa

import (
	"testing"
	"testing/quick"
)

func TestSyntheticBlocks(t *testing.T) {
	top := Synthetic(8, 2)
	for w := 0; w < 4; w++ {
		if top.ZoneOf(w) != 0 {
			t.Errorf("worker %d in zone %d, want 0", w, top.ZoneOf(w))
		}
	}
	for w := 4; w < 8; w++ {
		if top.ZoneOf(w) != 1 {
			t.Errorf("worker %d in zone %d, want 1", w, top.ZoneOf(w))
		}
	}
	if got := top.Peers(0); len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Errorf("Peers(0) = %v", got)
	}
}

func TestSyntheticRemainder(t *testing.T) {
	top := Synthetic(7, 3) // blocks of sizes 2,2,3 (extras go to trailing zones)
	sizes := []int{len(top.Peers(0)), len(top.Peers(1)), len(top.Peers(2))}
	total := sizes[0] + sizes[1] + sizes[2]
	if total != 7 {
		t.Fatalf("zone sizes %v do not cover 7 workers", sizes)
	}
	for _, s := range sizes {
		if s < 2 || s > 3 {
			t.Errorf("unbalanced zone sizes %v", sizes)
		}
	}
}

func TestSyntheticMoreZonesThanWorkers(t *testing.T) {
	top := Synthetic(3, 8)
	if top.Zones != 3 {
		t.Fatalf("Zones = %d, want clamp to 3", top.Zones)
	}
	for w := 0; w < 3; w++ {
		if len(top.Peers(top.ZoneOf(w))) != 1 {
			t.Errorf("worker %d not alone in its zone", w)
		}
	}
}

func TestSyntheticPanics(t *testing.T) {
	for _, bad := range [][2]int{{0, 1}, {-1, 1}, {4, 0}, {4, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Synthetic(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			Synthetic(bad[0], bad[1])
		}()
	}
}

func TestClassify(t *testing.T) {
	top := Synthetic(8, 2)
	cases := []struct {
		creator, executor int
		want              Locality
	}{
		{0, 0, Self},
		{0, 3, Local},
		{0, 4, Remote},
		{5, 5, Self},
		{5, 7, Local},
		{7, 1, Remote},
	}
	for _, c := range cases {
		if got := top.Classify(c.creator, c.executor); got != c.want {
			t.Errorf("Classify(%d,%d) = %v, want %v", c.creator, c.executor, got, c.want)
		}
	}
}

func TestLocalityString(t *testing.T) {
	if Self.String() != "self" || Local.String() != "local" || Remote.String() != "remote" {
		t.Error("locality names wrong")
	}
	if Locality(9).String() == "" {
		t.Error("unknown locality must still render")
	}
}

func TestCountCPUList(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"0", 1},
		{"0-7", 8},
		{"0-3,8,10-11", 7},
		{"", 0},
		{"a-b", 0},
		{"5-2", 0},
		{"-1", 0},
		{" 0-1 , 4 ", 3},
	}
	for _, c := range cases {
		if got := countCPUList(c.in); got != c.want {
			t.Errorf("countCPUList(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestDetectAlwaysUsable(t *testing.T) {
	top := Detect(4)
	if top.Workers != 4 || top.Zones < 1 {
		t.Fatalf("Detect(4) = %+v", top)
	}
}

// Property: every worker appears in exactly one zone's peer list, and
// zoneOf agrees with the peer lists, for arbitrary shapes.
func TestSyntheticConsistencyProperty(t *testing.T) {
	f := func(w, z uint8) bool {
		workers := int(w%64) + 1
		zones := int(z%16) + 1
		top := Synthetic(workers, zones)
		seen := make(map[int]int)
		for zone := 0; zone < top.Zones; zone++ {
			for _, p := range top.Peers(zone) {
				seen[p]++
				if top.ZoneOf(p) != zone {
					return false
				}
			}
		}
		if len(seen) != workers {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: contiguous (close) affinity means zone ids are non-decreasing
// with worker id.
func TestSyntheticCloseAffinityProperty(t *testing.T) {
	f := func(w, z uint8) bool {
		workers := int(w%64) + 1
		zones := int(z%16) + 1
		top := Synthetic(workers, zones)
		for i := 1; i < workers; i++ {
			if top.ZoneOf(i) < top.ZoneOf(i-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// SplitDomains must cover every worker exactly once, with shard sizes equal
// to the zone sizes: local worker i of shard z is global worker
// Peers(z)[i], so the zones' peer lists, in ascending order, cover every
// global id once.
func TestSplitDomains(t *testing.T) {
	for _, tc := range []struct{ workers, zones int }{
		{8, 2}, {7, 3}, {4, 4}, {5, 1}, {9, 4},
	} {
		top := Synthetic(tc.workers, tc.zones)
		shards := top.SplitDomains()
		if len(shards) != top.Zones {
			t.Fatalf("%d/%d: %d shards, want %d", tc.workers, tc.zones, len(shards), top.Zones)
		}
		seen := make([]bool, tc.workers)
		for z, s := range shards {
			if s.Workers != len(top.Peers(z)) {
				t.Fatalf("%d/%d: shard %d has %d workers, want zone size %d",
					tc.workers, tc.zones, z, s.Workers, len(top.Peers(z)))
			}
			if s.Zones != 1 {
				t.Fatalf("%d/%d: shard %d spans %d zones, want 1", tc.workers, tc.zones, z, s.Zones)
			}
			peers := top.Peers(z)
			if len(peers) != s.Workers {
				t.Fatalf("%d/%d: shard %d renumbers %d peers into %d local ids",
					tc.workers, tc.zones, z, len(peers), s.Workers)
			}
			for local, g := range peers {
				if top.ZoneOf(g) != z || seen[g] || (local > 0 && g <= peers[local-1]) {
					t.Fatalf("%d/%d: local worker %d of shard %d is global %d (zone %d, seen %v), want an unseen zone-%d id above the previous",
						tc.workers, tc.zones, local, z, g, top.ZoneOf(g), seen[g], z)
				}
				seen[g] = true
			}
		}
		for g, ok := range seen {
			if !ok {
				t.Fatalf("%d/%d: no shard covers global worker %d", tc.workers, tc.zones, g)
			}
		}
	}
}
