package numa

import "testing"

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
