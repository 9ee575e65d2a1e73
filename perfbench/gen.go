package main

import (
	"hash/fnv"
	"math/rand"
	"strconv"
)

// streamRand returns the random stream for one named purpose of a run
// seed. Separate streams keep the generators independent: adding a draw to
// one workload never shifts the inputs of another.
func streamRand(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// sfllSecrets draws n distinct protected patterns from the bits-wide input
// space (n is clamped to the space size).
func sfllSecrets(seed int64, n, bits int) []uint64 {
	space := 1 << bits
	n = min(n, space)
	perm := streamRand(seed, "sfll-secrets").Perm(space)
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(perm[i])
	}
	return out
}

// xorLockSeeds draws the n key-gate placement seeds of the xor-search locks.
func xorLockSeeds(seed int64, n int) []int64 {
	rng := streamRand(seed, "xor-locks")
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// flowSeed is the workload (trace generator) seed of paper-flow pass i:
// every pass characterises the kernels under a fresh workload.
func flowSeed(seed int64, pass int) int64 {
	return streamRand(seed, "flow-seed-"+strconv.Itoa(pass)).Int63n(1<<31) + 1
}

// slotKind is one step of a serve-mix client's closed loop.
type slotKind int

const (
	// slotCold submits an SFLL adder attack on a secret not yet requested.
	slotCold slotKind = iota
	// slotRepeat resubmits a request already reported done.
	slotRepeat
	// slotDuplicate submits a copy of the other client's in-flight request.
	slotDuplicate
	// slotDesign submits a codesign or bind job on a kernel.
	slotDesign
)

func (k slotKind) String() string {
	return [...]string{"cold", "repeat", "duplicate", "design"}[k]
}

// slotBlock is the fixed composition of every block of eight slots; the
// seed only shuffles the order inside a block, so every pass and every seed
// runs the same mix of job types. The shares are an assumption, not a
// measurement: no record of how bindlockd is used exists to take them
// from. With cold attacks the majority, the all-job latency percentiles
// follow the attack jobs, so each kind's own latency is reported too
// (poolKinds), where a change to design or cache-hit jobs shows.
var slotBlock = [8]slotKind{
	slotCold, slotCold, slotCold, slotCold, slotCold,
	slotRepeat,
	slotDuplicate,
	slotDesign,
}

// slot is one planned step: its kind and the seeded draw that picks its
// target (which done request to repeat).
type slot struct {
	Kind slotKind
	Pick uint32
}

// jobPlan returns client c's first n slots.
func jobPlan(seed int64, client, n int) []slot {
	rng := streamRand(seed, "serve-plan-"+string(rune('a'+client)))
	out := make([]slot, 0, n)
	for len(out) < n {
		block := slotBlock
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, k := range block {
			if len(out) == n {
				break
			}
			out = append(out, slot{Kind: k, Pick: rng.Uint32()})
		}
	}
	return out
}

// serveSecrets draws the cold-attack secrets of a serve-mix pass: a seeded
// permutation of the bits-wide space, shared by both clients so no secret
// is requested cold twice.
func serveSecrets(seed int64, bits int) []uint64 {
	perm := streamRand(seed, "serve-secrets").Perm(1 << bits)
	out := make([]uint64, len(perm))
	for i, v := range perm {
		out[i] = uint64(v)
	}
	return out
}

// designSpec is one prepared design the serve-mix design jobs run on.
type designSpec struct {
	Bench string
	Seed  int64
}

// serveDesigns draws n (kernel, workload seed) pairs for the design jobs.
func serveDesigns(seed int64, kernels []string, n int) []designSpec {
	rng := streamRand(seed, "serve-designs")
	out := make([]designSpec, n)
	for i := range out {
		out[i] = designSpec{Bench: kernels[rng.Intn(len(kernels))], Seed: rng.Int63n(1<<31) + 1}
	}
	return out
}
