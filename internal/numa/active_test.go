package numa

import (
	"reflect"
	"testing"
)

func TestActivePrefix(t *testing.T) {
	ids := []int{0, 2, 5, 7}
	cases := []struct {
		active int
		want   []int
	}{
		{0, nil},
		{1, []int{0}},
		{3, []int{0, 2}},
		{6, []int{0, 2, 5}},
		{8, []int{0, 2, 5, 7}},
		{100, []int{0, 2, 5, 7}},
	}
	for _, c := range cases {
		got := ActivePrefix(ids, c.active)
		if len(got) != len(c.want) {
			t.Fatalf("ActivePrefix(%v, %d) = %v, want %v", ids, c.active, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("ActivePrefix(%v, %d) = %v, want %v", ids, c.active, got, c.want)
			}
		}
	}
}

func TestActivePeers(t *testing.T) {
	top := Synthetic(8, 2) // zone 0: 0-3, zone 1: 4-7
	if got := top.ActivePeers(0, 3); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("ActivePeers(0, 3) = %v", got)
	}
	if got := top.ActivePeers(1, 3); len(got) != 0 {
		t.Fatalf("ActivePeers(1, 3) = %v, want empty (zone 1 fully parked)", got)
	}
	if got := top.ActivePeers(1, 6); !reflect.DeepEqual(got, []int{4, 5}) {
		t.Fatalf("ActivePeers(1, 6) = %v", got)
	}
}
