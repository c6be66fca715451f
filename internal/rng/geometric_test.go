package rng

import (
	"math"
	"math/big"
	"testing"
	"unsafe"
)

// TestGeometricTableExact checks the integer-only table against exact
// rational arithmetic: T_j = ⌊2⁶⁴·(m−1)ʲ/mʲ⌋ for every entry.
func TestGeometricTableExact(t *testing.T) {
	for _, m := range []int64{2, 3, 7, 150, 256, 5000, 1 << 40} {
		tab := geomTable(uint64(m))
		wantLen := int64(maxGeomTable)
		if 4*m < wantLen {
			wantLen = 4 * m
		}
		if int64(len(tab)) != wantLen {
			t.Fatalf("mean %d: table has %d entries, want %d", m, len(tab), wantLen)
		}
		num := new(big.Int).Lsh(big.NewInt(1), 64)
		den := big.NewInt(1)
		q := new(big.Int)
		for j, got := range tab {
			num.Mul(num, big.NewInt(m-1))
			den.Mul(den, big.NewInt(m))
			q.Quo(num, den)
			if !q.IsUint64() || q.Uint64() != got {
				t.Fatalf("mean %d: T_%d = %#x, want %s", m, j+1, got, q.Text(16))
			}
		}
	}
}

// TestGeometricMoments draws 400k quanta per mean: the sample mean must lie
// within 1% of the mean, and P(K = 1) within 3% of 1/mean or four binomial
// standard errors, whichever is wider (at mean 150 one standard error over
// 400k quanta is already 1.9%, at mean 5000 it is 11%).
func TestGeometricMoments(t *testing.T) {
	const n = 400_000
	for _, mean := range []int{1, 2, 3, 150, 5000} {
		g := NewGeometric(mean)
		r := new(Rand)
		r.Seed(7)
		sum, ones := 0.0, 0
		for i := 0; i < n; i++ {
			k := g.Draw(r)
			if k < 1 {
				t.Fatalf("mean %d: quantum %d < 1", mean, k)
			}
			sum += float64(k)
			if k == 1 {
				ones++
			}
		}
		if got := sum / n; math.Abs(got/float64(mean)-1) > 0.01 {
			t.Errorf("mean %d: sample mean %.2f, more than 1%% off", mean, got)
		}
		p := 1 / float64(mean)
		tol := math.Max(0.03*p, 4*math.Sqrt(p*(1-p)/n))
		if got := float64(ones) / n; math.Abs(got-p) > tol {
			t.Errorf("mean %d: P(K=1) = %.5f, want %.5f ± %.5f", mean, got, p, tol)
		}
	}
}

// TestGeometricTail checks P(K > k) ≈ qᵏ on both sides of the table's end
// (k = L, where the sampler starts redrawing), within five binomial standard
// errors. At mean 2 the table has 8 entries and q = 1/2, so a redraw that
// added one entry too few or too many would double or halve the tail.
func TestGeometricTail(t *testing.T) {
	const n = 1_000_000
	for _, tc := range []struct {
		mean int
		ks   []int
	}{
		{2, []int{1, 4, 7, 8, 9, 10, 12, 14}},
		{150, []int{1, 150, 450, 599, 600, 601, 750, 900}},
	} {
		g := NewGeometric(tc.mean)
		q := float64(tc.mean-1) / float64(tc.mean)
		r := new(Rand)
		r.Seed(11)
		over := make([]int, len(tc.ks))
		for i := 0; i < n; i++ {
			k := g.Draw(r)
			for j, kk := range tc.ks {
				if k > kk {
					over[j]++
				}
			}
		}
		for j, k := range tc.ks {
			p := math.Pow(q, float64(k))
			want := n * p
			if sd := math.Sqrt(n * p * (1 - p)); math.Abs(float64(over[j])-want) > 5*sd {
				t.Errorf("mean %d: %d quanta > %d, want %.0f ± %.0f (5σ)", tc.mean, over[j], k, want, 5*sd)
			}
		}
	}
}

// TestGeometricDrawsPerQuantum counts the raw draws behind each quantum by
// replaying a copy of the source up to the state Draw left: at mean 150 a
// quantum must cost at most 1.05 draws on average, and mean 1 none.
func TestGeometricDrawsPerQuantum(t *testing.T) {
	for _, tc := range []struct {
		mean int
		max  float64
	}{{1, 0}, {150, 1.05}} {
		g := NewGeometric(tc.mean)
		r := new(Rand)
		r.Seed(3)
		const n = 100_000
		draws := 0
		for i := 0; i < n; i++ {
			before := *r
			g.Draw(r)
			for before != *r {
				before.Uint64()
				draws++
			}
		}
		if got := float64(draws) / n; got > tc.max {
			t.Errorf("mean %d: %.4f draws per quantum, want ≤ %.2f", tc.mean, got, tc.max)
		}
	}
}

// goldenQuanta150 pins the first 16 quanta of seed 1 at mean 150: tsan11's
// schedule is a function of this stream, so a change here changes every
// tsan11 cell of the committed campaign artifact.
var goldenQuanta150 = []int{205, 62, 75, 2, 289, 27, 63, 96, 245, 529, 97, 117, 152, 22, 295, 145}

func TestGeometricGolden(t *testing.T) {
	g := NewGeometric(150)
	r := new(Rand)
	r.Seed(1)
	for i, w := range goldenQuanta150 {
		if got := g.Draw(r); got != w {
			t.Fatalf("quantum %d: got %d, want %d", i, got, w)
		}
	}
}

// TestRandSize pins the unbuffered source at its two PCG state words.
func TestRandSize(t *testing.T) {
	if got := unsafe.Sizeof(Rand{}); got != 16 {
		t.Fatalf("Rand is %d bytes, want 16", got)
	}
}

func BenchmarkGeometric150(b *testing.B) {
	g := NewGeometric(150)
	r := new(Rand)
	r.Seed(1)
	b.ReportAllocs()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += g.Draw(r)
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}
