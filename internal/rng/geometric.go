package rng

import (
	"math/bits"
	"sync"
)

// maxGeomTable caps a Geometric threshold table at 1024 entries (8 KB).
const maxGeomTable = 1024

// Geometric draws quanta K ≥ 1 with P(K = k) = qᵏ⁻¹(1−q), q = (mean−1)/mean:
// the geometric law of mean `mean`, the number of Bernoulli(1/mean) trials up
// to and including the first success.
//
// It inverts the tail P(K > j) = qʲ against one uniform draw U through a
// read-only table t[j−1] = T_j = ⌊2⁶⁴·qʲ⌋, j = 1..L: K−1 = #{j : U < T_j},
// found by binary search since T_j falls with j. A draw below T_L (all of the
// table) means K > L; the law is memoryless, so the sampler adds L and draws
// again, and the result stays exactly geometric. With L = min(4·mean, 1024)
// a redraw has probability q^L (about e⁻⁴ for mean ≤ 256), so a quantum of
// mean 150 costs 1.02 draws on average.
//
// The table is built with integer arithmetic only, so every platform draws
// the same quanta from the same stream. A Geometric is a small value that
// shares its table read-only with every other Geometric of the same mean;
// mean ≤ 1 has no table and draws nothing (K = 1).
type Geometric struct{ t []uint64 }

var geomTables sync.Map // mean → []uint64

// NewGeometric returns the sampler for the given mean, building its table on
// first use.
func NewGeometric(mean int) Geometric {
	if mean <= 1 {
		return Geometric{}
	}
	if t, ok := geomTables.Load(mean); ok {
		return Geometric{t: t.([]uint64)}
	}
	t, _ := geomTables.LoadOrStore(mean, geomTable(uint64(mean)))
	return Geometric{t: t.([]uint64)}
}

// geomTable returns T_1..T_L for mean m ≥ 2. It carries x_j ≈ 2¹²⁸·qʲ as a
// 128-bit fixed-point number (hi is the integer part T_j, lo 64 fraction
// bits) and steps x_j = ⌊x_{j−1}·(m−1)/m⌋ by a 192-bit product and a
// two-word long division. Each step truncates less than one unit of lo, so
// T_j is ⌊2⁶⁴·qʲ⌋ unless that value sits within L·2⁻⁶⁴ above an integer;
// TestGeometricTableExact checks the table against exact rationals.
func geomTable(m uint64) []uint64 {
	n := uint64(maxGeomTable)
	if m < maxGeomTable/4 {
		n = 4 * m
	}
	t := make([]uint64, n)
	// x_1 = ⌊2¹²⁸·(m−1)/m⌋.
	hi, r := bits.Div64(m-1, 0, m)
	lo, _ := bits.Div64(r, 0, m)
	for j := range t {
		if j > 0 {
			// (hi·2⁶⁴ + lo)·(m−1) = p2·2¹²⁸ + p1·2⁶⁴ + p0, p2 < m−1.
			c, p0 := bits.Mul64(lo, m-1)
			p2, p1 := bits.Mul64(hi, m-1)
			p1, carry := bits.Add64(p1, c, 0)
			p2 += carry
			hi, r = bits.Div64(p2, p1, m)
			lo, _ = bits.Div64(r, p0, m)
		}
		t[j] = hi
	}
	return t
}

// Draw returns one quantum K ≥ 1, drawing from r.
func (g Geometric) Draw(r *Rand) int {
	t := g.t
	if len(t) == 0 {
		return 1
	}
	k := 1
	for {
		u := r.Uint64()
		// Count the entries above u: t falls with j, so they are a prefix.
		// Which half holds the boundary is a coin flip a branch predictor
		// cannot learn, so each step adds the half through the borrow of
		// u − t[mid] (1 when t[mid] > u) instead of branching.
		base, n := 0, len(t)
		for n > 1 {
			half := n >> 1
			_, above := bits.Sub64(u, t[base+half], 0)
			base += half & -int(above)
			n -= half
		}
		_, above := bits.Sub64(u, t[base], 0)
		base += int(above)
		k += base
		if base < len(t) {
			return k
		}
	}
}
