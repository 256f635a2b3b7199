package lib

import "testing"

func TestHelper(t *testing.T) {
	if Helper() != 2 {
		t.Fatal("Helper")
	}
}
