// Package rng is the repository's random-decision subsystem: every
// scheduling choice, reads-from pick, and workload draw flows through a
// Rand. It exists because the per-execution cost of randomness is on the
// campaign hot path — a campaign re-seeds once per execution and short
// litmus executions make only a handful of draws, so seeding cost dominates.
//
// The source is a 128-bit PCG-DXSM generator seeded in O(1) by splitmix64
// expansion of the int64 seed. Uint64 draws are served from a small fixed
// buffer refilled in a tight loop, so the per-decision fast path is a load
// and an increment; Intn uses Lemire's multiply-shift bounded reduction,
// which divides only on the (rare) rejection path. The stream is a pure
// function of the seed, pinned by golden-value tests so it cannot drift
// across Go versions.
//
// A Rand is a value type: embed it directly (strategies and the engine do)
// so the PCG state and draw buffer live inline and seeding allocates
// nothing. The zero value is unseeded; call Seed before drawing.
package rng

import "math/bits"

// bufLen is the decision buffer size: 32 raw 64-bit draws (256 bytes of
// inline state). Short litmus executions make ~20–40 combined decisions, so
// most executions refill at most once beyond the initial fill.
const bufLen = 32

// Rand is a seedable random source. It is not safe for concurrent use; like
// the engine state it feeds, a Rand is confined to one worker.
type Rand struct {
	// PCG-DXSM state: a 128-bit linear congruential step whose output is
	// scrambled by a double-xorshift-multiply. hi/lo are the state words.
	hi, lo uint64

	// buf holds raw Uint64 draws; i is the read cursor. Seed marks the
	// buffer empty (i = bufLen) rather than refilling, so re-seeding stays
	// O(1) even when no draw follows.
	buf [bufLen]uint64
	i   int
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
// expansions and a buffer invalidation.
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
	r.i = bufLen
}

// step advances the 128-bit LCG and returns one DXSM output.
func (r *Rand) step() uint64 {
	// 128-bit multiply-add-increment: state = state*mul + inc. The
	// multiplier is the 64-bit "cheap multiplier" of the PCG-DXSM variant;
	// the increment is the classic Knuth MMIX pair.
	const (
		mul   = 0xda942042e4dd58b5
		incHi = 0x5851f42d4c957f2d
		incLo = 0x14057b7ef767814f
	)
	oldHi, oldLo := r.hi, r.lo
	carryHi, newLo := bits.Mul64(oldLo, mul)
	newHi := carryHi + oldHi*mul
	newLo, c := bits.Add64(newLo, incLo, 0)
	newHi, _ = bits.Add64(newHi, incHi, c)
	r.hi, r.lo = newHi, newLo
	// DXSM output permutation over the pre-step state.
	out := oldHi
	out ^= out >> 32
	out *= mul
	out ^= out >> 48
	out *= oldLo | 1
	return out
}

// refill repopulates the draw buffer in one tight loop.
func (r *Rand) refill() {
	for j := range r.buf {
		r.buf[j] = r.step()
	}
	r.i = 0
}

// Uint64 returns the next raw 64-bit draw. On the fast path this is a
// buffer load and cursor increment.
func (r *Rand) Uint64() uint64 {
	if r.i == bufLen {
		r.refill()
	}
	v := r.buf[r.i]
	r.i++
	return v
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
