// Repolint checks the repository's hot-path invariants: cache-line
// padding (falseshare), move-only types (nocopy), pooled-value
// lifetimes (pooledescape), typed admission errors and exhaustive
// status mappings (admiterr), and atomic/plain access mixing
// (atomicmix).
//
// Standalone:
//
//	go run ./cmd/repolint ./...
//
// As a vet tool (one package per invocation, cached by cmd/go):
//
//	go build -o "$(go env GOPATH)/bin/repolint" ./cmd/repolint
//	go vet -vettool="$(go env GOPATH)/bin/repolint" ./...
//
// Findings can be suppressed, with a justification, by a
// //repolint:ok <analyzer> comment on the offending line or the line
// above it. Exit status is 1 when findings remain.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/driver"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// Unitchecker-protocol handshakes from `go vet -vettool`.
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "--V=full":
			if err := driver.PrintVersion(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			return 0
		case a == "-flags" || a == "--flags":
			driver.PrintFlags(os.Stdout)
			return 0
		}
	}
	if n := len(args); n > 0 && strings.HasSuffix(args[n-1], ".cfg") {
		return driver.VetTool(args[n-1], analysis.Analyzers())
	}

	// Standalone mode: every analyzer, over the package patterns.
	fs := flag.NewFlagSet("repolint", flag.ContinueOnError)
	fs.Usage = func() { usage(fs) }
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, suppressed, err := driver.LoadAndRun(patterns, analysis.Analyzers(), os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "repolint: %d finding(s), %d suppressed\n", findings, suppressed)
	if findings > 0 {
		return 1
	}
	return 0
}

func usage(fs *flag.FlagSet) {
	fmt.Fprintf(fs.Output(), "usage: repolint [packages]\n\nAnalyzers:\n")
	for _, a := range analysis.Analyzers() {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		fmt.Fprintf(fs.Output(), "  %-14s %s\n", a.Name, doc)
	}
}
