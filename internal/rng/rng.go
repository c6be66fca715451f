// Package rng is the repository's random-decision subsystem: every
// scheduling choice, reads-from pick, and workload draw flows through a
// Rand. It exists because the per-execution cost of randomness is on the
// campaign hot path — a campaign re-seeds once per execution and short
// litmus executions make only a handful of draws, so seeding cost dominates.
//
// The source is a 128-bit PCG-DXSM generator seeded in O(1) by splitmix64
// expansion of the int64 seed. Each Uint64 is one PCG step: a 64×64→128
// multiply, two adds and the output permutation, with no buffer to refill
// or index. Intn uses Lemire's multiply-shift bounded reduction, which
// divides only on the (rare) rejection path, and Geometric draws a
// geometric variate with one Uint64 in almost every call. The stream is a
// pure function of the seed, pinned by golden-value tests so it cannot
// drift across Go versions or architectures.
//
// A Rand is a value type of 16 bytes: embed it directly (strategies and the
// engine do) so the PCG state lives inline and seeding allocates nothing.
// The zero value is unseeded; call Seed before drawing.
package rng

import "math/bits"

// Rand is a seedable random source. It is not safe for concurrent use; like
// the engine state it feeds, a Rand is confined to one worker.
type Rand struct {
	// PCG-DXSM state: a 128-bit linear congruential step whose output is
	// scrambled by a double-xorshift-multiply. hi/lo are the state words.
	hi, lo uint64
}

// splitmix64 is the seed-expansion step: a Weyl increment followed by a
// finalizer. It turns correlated int64 seeds (campaigns use base+i) into
// well-distributed state words.
func splitmix64(x uint64) uint64 {
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0x94d049bb133111eb
	x ^= x >> 27
	return x ^ x>>31
}

// Seed re-seeds the source for a new execution in O(1): two splitmix64
// expansions.
func (r *Rand) Seed(seed int64) {
	// Two Weyl steps of the splitmix increment (the second is 2γ mod 2^64)
	// expand the seed into independent state words.
	s := uint64(seed)
	r.hi = splitmix64(s + 0x9e3779b97f4a7c15)
	r.lo = splitmix64(s + 0x3c6ef372fe94f82a)
	// The LCG state must be odd-incremented anyway; force lo odd so the
	// all-zero expansion (impossible with splitmix, but cheap to rule out)
	// cannot produce a degenerate stream.
	r.lo |= 1
}

// Uint64 returns the next raw 64-bit draw: it advances the 128-bit LCG and
// returns one DXSM output. It stays within the compiler's inlining budget,
// so Intn and Geometric.Draw take a draw without a call.
func (r *Rand) Uint64() uint64 {
	// 128-bit multiply-add-increment: state = state*mul + inc. The
	// multiplier is the 64-bit "cheap multiplier" of the PCG-DXSM variant;
	// the increment is the classic Knuth MMIX pair.
	const (
		mul   = 0xda942042e4dd58b5
		incHi = 0x5851f42d4c957f2d
		incLo = 0x14057b7ef767814f
	)
	hi, lo := r.hi, r.lo
	carry, newLo := bits.Mul64(lo, mul)
	newLo, c := bits.Add64(newLo, incLo, 0)
	r.hi, _ = bits.Add64(carry+hi*mul, incHi, c)
	r.lo = newLo
	// DXSM output permutation over the pre-step state.
	hi ^= hi >> 32
	hi *= mul
	hi ^= hi >> 48
	return hi * (lo | 1)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand. It uses Lemire's multiply-shift reduction: the
// quotient of a 64×64→128 multiply is the bounded value, and the modulo
// (the only division) runs only when the low half lands in the rejection
// zone — with probability n/2^64, i.e. essentially never for scheduler-sized
// bounds.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int(hi)
}
