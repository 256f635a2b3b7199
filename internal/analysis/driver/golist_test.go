package driver

import "testing"

// TestVetUnit pins the rule that makes the standalone driver analyze the
// file sets `go vet -vettool` does: each package once, with its in-package
// tests when it has any, plus its external test package.
func TestVetUnit(t *testing.T) {
	cases := []struct {
		name string
		p    listPkg
		want bool
	}{
		{"plain package without tests", listPkg{ImportPath: "m/a"}, true},
		{"plain package that has tests", listPkg{ImportPath: "m/a", TestGoFiles: []string{"a_test.go"}}, false},
		{"its test variant", listPkg{ImportPath: "m/a [m/a.test]", ForTest: "m/a", TestGoFiles: []string{"a_test.go"}}, true},
		{"external test package", listPkg{ImportPath: "m/a_test [m/a.test]", ForTest: "m/a"}, true},
		{"generated test main", listPkg{ImportPath: "m/a.test"}, false},
	}
	for _, c := range cases {
		if got := vetUnit(&c.p); got != c.want {
			t.Errorf("%s: vetUnit = %v, want %v", c.name, got, c.want)
		}
	}
}
