// Command posp generates a Proof-of-Space plot on a chosen runtime and
// reports throughput — the standalone version of the paper's §VII
// application (Fig. 8 sweeps it over batch sizes via cmd/benchall). It
// then checks the plot's integrity and proves and verifies four sample
// challenges.
//
// Usage:
//
//	posp -k 16 -batch 1024 -runtime xgomptb -workers 8
//	posp -k 14 -batch 1 -runtime gomp        # the fine-grained stress case
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/blake3"
	"repro/internal/core"
	"repro/internal/numa"
	"repro/internal/posp"
)

func main() {
	var (
		k       = flag.Int("k", 14, "plot size exponent: 2^k puzzles")
		batch   = flag.Int("batch", 256, "puzzles per task")
		preset  = flag.String("runtime", "xgomptb", "runtime preset: "+strings.Join(core.PresetNames(), "|"))
		workers = flag.Int("workers", 4, "team size")
	)
	flag.Parse()
	const (
		zones  = 2 // synthetic NUMA zones
		proofs = 4 // sample challenges to prove and verify
	)

	cfg := core.Preset(*preset, *workers)
	cfg.Topology = numa.Synthetic(*workers, zones)
	tm, err := core.NewTeam(cfg)
	if err != nil {
		fatal(err)
	}
	seed := blake3.Sum256([]byte("repro posp plot seed"))

	fmt.Printf("generating 2^%d puzzles, batch=%d, on %s with %d workers\n", *k, *batch, *preset, *workers)
	plot, err := posp.Generate(tm, *k, *batch, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("elapsed %v, %d hashes, %.2f MH/s, plot holds %d puzzles\n",
		plot.Elapsed.Round(time.Millisecond), plot.Hashes, plot.ThroughputMHS(), plot.Size())

	if err := plot.Check(); err != nil {
		fatal(err)
	}
	fmt.Println("plot integrity: ok")
	for i := 0; i < proofs; i++ {
		challenge := blake3.Sum256([]byte(fmt.Sprintf("challenge %d", i)))
		proof, ok := plot.Prove(challenge)
		if !ok {
			fmt.Printf("challenge %d: bucket empty\n", i)
			continue
		}
		if err := plot.VerifyProof(challenge, proof); err != nil {
			fatal(err)
		}
		fmt.Printf("challenge %x...: proof nonce %d hash %x... ok\n",
			challenge[:4], proof.Nonce, proof.Hash[:4])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "posp:", err)
	os.Exit(1)
}
