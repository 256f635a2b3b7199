// Package posp implements the Proof-of-Space blockchain workload of the
// paper's Section VII: plot generation that fills buckets with
// cryptographic puzzles, where each puzzle is a 28-byte BLAKE3 hash plus
// its 4-byte nonce, and tasks generate puzzles in configurable batches.
// The batch size controls task granularity — batch 1 produces one task per
// hash and stresses the runtime exactly as in Fig. 8.
//
// Production systems (Chia) use K = 32 (2³² puzzles per plot); plots here
// default to much smaller K with the same code path (substitution S5/S17
// in DESIGN.md).
package posp

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/blake3"
	"repro/internal/core"
)

// HashLen is the stored puzzle-hash length (28 bytes + 4-byte nonce = one
// 32-byte record, as in the paper).
const HashLen = 28

// Puzzle is one plot entry.
type Puzzle struct {
	Hash  [HashLen]byte
	Nonce uint32
}

// Plot is a bucketized table of puzzles.
type Plot struct {
	// K sets the nominal plot size: the plot holds 2^K puzzles.
	K int
	// Seed keys the puzzle hash function.
	Seed [32]byte
	// buckets[b] holds puzzles whose hash's first byte is b, sorted by
	// hash after Generate returns.
	buckets [256][]Puzzle
	// Hashes is the number of hashes computed while filling the plot.
	Hashes int64
	// Elapsed is the wall time of Generate's parallel region.
	Elapsed time.Duration
}

// bucketLocks guards bucket appends during generation; 256 independent
// locks keep contention negligible relative to hashing.
type bucketLocks [256]sync.Mutex

// puzzleHash computes the 28-byte puzzle hash for a nonce.
func puzzleHash(seed *[32]byte, nonce uint32) [HashLen]byte {
	var msg [36]byte
	copy(msg[:32], seed[:])
	binary.LittleEndian.PutUint32(msg[32:], nonce)
	full := blake3.Sum256(msg[:])
	var h [HashLen]byte
	copy(h[:], full[:HashLen])
	return h
}

// Generate fills a plot of 2^k puzzles on the given team, spawning one
// task per batchSize nonces (the paper's batch-size knob). It returns the
// filled plot with throughput accounting.
func Generate(tm *core.Team, k, batchSize int, seed [32]byte) (*Plot, error) {
	if k < 8 || k > 32 {
		return nil, fmt.Errorf("posp: k must be in [8,32], got %d", k)
	}
	if batchSize < 1 {
		return nil, fmt.Errorf("posp: batch size must be positive, got %d", batchSize)
	}
	p := &Plot{K: k, Seed: seed}
	total := uint64(1) << k
	capPerBucket := int(total / 256)
	var locks bucketLocks

	start := time.Now()
	tm.Run(func(w *core.Worker) {
		for base := uint64(0); base < total; base += uint64(batchSize) {
			base := base
			n := uint64(batchSize)
			if base+n > total {
				n = total - base
			}
			w.Spawn(func(*core.Worker) {
				// Generate the batch locally, then insert per bucket.
				var local [256][]Puzzle
				for i := uint64(0); i < n; i++ {
					nonce := uint32(base + i)
					h := puzzleHash(&seed, nonce)
					b := h[0]
					local[b] = append(local[b], Puzzle{Hash: h, Nonce: nonce})
				}
				for b := range local {
					if len(local[b]) == 0 {
						continue
					}
					locks[b].Lock()
					room := capPerBucket - len(p.buckets[b])
					if room > 0 {
						add := local[b]
						if len(add) > room {
							add = add[:room] // bucket full: surplus dropped
						}
						p.buckets[b] = append(p.buckets[b], add...)
					}
					locks[b].Unlock()
				}
			})
		}
	})
	p.Elapsed = time.Since(start)
	p.Hashes = int64(total)
	p.sortBuckets()
	return p, nil
}

// sortBuckets orders each bucket by hash so lookups can binary search, the
// "organized in order to be efficiently retrieved" step.
func (p *Plot) sortBuckets() {
	for b := range p.buckets {
		bucket := p.buckets[b]
		sort.Slice(bucket, func(i, j int) bool {
			return compareHash(&bucket[i].Hash, &bucket[j].Hash) < 0
		})
	}
}

func compareHash(a, b *[HashLen]byte) int {
	for i := 0; i < HashLen; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Size returns the number of puzzles stored.
func (p *Plot) Size() int {
	n := 0
	for b := range p.buckets {
		n += len(p.buckets[b])
	}
	return n
}

// ThroughputMHS returns the generation throughput in million hashes per
// second, the metric of Fig. 8.
func (p *Plot) ThroughputMHS() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.Hashes) / p.Elapsed.Seconds() / 1e6
}

// Prove returns the stored puzzle whose hash is closest at or above the
// challenge within the challenge's bucket (wrapping to the bucket's first
// entry), or ok == false if the bucket is empty. This models the
// space-proof retrieval: a farmer answers a challenge with a nearby stored
// hash.
func (p *Plot) Prove(challenge [32]byte) (Puzzle, bool) {
	var ch [HashLen]byte
	copy(ch[:], challenge[:HashLen])
	bucket := p.buckets[ch[0]]
	if len(bucket) == 0 {
		return Puzzle{}, false
	}
	i := sort.Search(len(bucket), func(i int) bool {
		return compareHash(&bucket[i].Hash, &ch) >= 0
	})
	if i == len(bucket) {
		i = 0 // wrap within the bucket
	}
	return bucket[i], true
}

// VerifyProof checks that a proof puzzle is genuine for the plot's seed
// and lands in the challenge's bucket.
func (p *Plot) VerifyProof(challenge [32]byte, proof Puzzle) error {
	want := puzzleHash(&p.Seed, proof.Nonce)
	if want != proof.Hash {
		return fmt.Errorf("posp: proof hash does not match nonce %d", proof.Nonce)
	}
	if proof.Hash[0] != challenge[0] {
		return fmt.Errorf("posp: proof bucket %d does not match challenge bucket %d",
			proof.Hash[0], challenge[0])
	}
	return nil
}

// Check validates plot integrity: bucket assignment, sortedness, hash
// correctness on a sample, and no duplicate nonces.
func (p *Plot) Check() error {
	seen := make(map[uint32]bool, p.Size())
	for b := range p.buckets {
		bucket := p.buckets[b]
		for i := range bucket {
			pz := &bucket[i]
			if int(pz.Hash[0]) != b {
				return fmt.Errorf("posp: puzzle in bucket %d has prefix %d", b, pz.Hash[0])
			}
			if i > 0 && compareHash(&bucket[i-1].Hash, &pz.Hash) > 0 {
				return fmt.Errorf("posp: bucket %d not sorted at %d", b, i)
			}
			if seen[pz.Nonce] {
				return fmt.Errorf("posp: duplicate nonce %d", pz.Nonce)
			}
			seen[pz.Nonce] = true
			if i%37 == 0 { // sampled recomputation
				if puzzleHash(&p.Seed, pz.Nonce) != pz.Hash {
					return fmt.Errorf("posp: corrupt puzzle, nonce %d", pz.Nonce)
				}
			}
		}
	}
	return nil
}
