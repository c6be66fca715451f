package rng

import "testing"

// goldenPCG pins the PCG stream bit for bit: the campaign determinism
// invariant (every execution is a pure function of its seed) extends to the
// raw draw stream, so these vectors must never change — across Go versions,
// architectures, or refactors. If a change to the generator is ever
// deliberate, it is an artifact-regenerating cut like the PCG introduction
// itself, not a test update.
var goldenPCG = map[int64][8]uint64{
	1:  {0x41428939e667d8cf, 0xaa2e1c9ee8408734, 0x9b2b14f62feea5e1, 0xfdb3478779a550b2, 0x252effa8b9ed56cb, 0xd5e206621d6e0467, 0xa8132cf4bef161b3, 0x873529b7ae067959},
	42: {0x4887316ccdc0f854, 0xe0ea6c71bab5b504, 0xc65ca514b0f85a20, 0xc1f465e27439ffc9, 0x82889a38b03b14b3, 0xa754fe022d6a980c, 0x4af6c63da97a3cbb, 0x55acef4c23c63801},
	-7: {0x84a0d45281f79c28, 0x140361e6ac504bc0, 0xd118eaeb72f27f2b, 0xe71136323b0b696b, 0x006f94507d541992, 0xd1d53118b799b6d9, 0xc84258bc1bb94eac, 0xb94bb3734d4666c7},
}

// goldenIntn10 pins the bounded-reduction stream (seed 1, Intn(10)).
var goldenIntn10 = []int{2, 6, 6, 9, 1, 8, 6, 5, 1, 0, 5, 4, 3, 8, 1, 3}

func TestGoldenStream(t *testing.T) {
	for seed, want := range goldenPCG {
		r := new(Rand)
		r.Seed(seed)
		for i, w := range want {
			if got := r.Uint64(); got != w {
				t.Fatalf("seed %d draw %d: got %#016x, want %#016x", seed, i, got, w)
			}
		}
	}
	r := new(Rand)
	r.Seed(1)
	for i, w := range goldenIntn10 {
		if got := r.Intn(10); got != w {
			t.Fatalf("Intn(10) draw %d: got %d, want %d", i, got, w)
		}
	}
}

// TestReseedReproduces pins the O(1)-reseed contract: re-seeding an
// already-used Rand must reproduce the stream of a fresh one exactly.
func TestReseedReproduces(t *testing.T) {
	used := new(Rand)
	used.Seed(99)
	for i := 0; i < 100; i++ {
		used.Uint64()
		used.Intn(7)
	}
	used.Seed(5)
	fresh := new(Rand)
	fresh.Seed(5)
	for i := 0; i < 200; i++ {
		if g, w := used.Uint64(), fresh.Uint64(); g != w {
			t.Fatalf("reseeded draw %d: got %#x, want %#x", i, g, w)
		}
		if g, w := used.Intn(13), fresh.Intn(13); g != w {
			t.Fatalf("reseeded Intn %d: got %d, want %d", i, g, w)
		}
	}
}

// TestIntnUniformity is the bounded-reduction smoke test: over many draws
// every bucket of Intn(n) lands near 1/n, for bounds that exercise both the
// power-of-two and odd-modulus paths of the Lemire reduction.
func TestIntnUniformity(t *testing.T) {
	const draws = 200000
	for _, n := range []int{2, 3, 7, 10, 16, 61} {
		r := new(Rand)
		r.Seed(12345)
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			counts[v]++
		}
		want := float64(draws) / float64(n)
		for v, c := range counts {
			if dev := float64(c)/want - 1; dev > 0.05 || dev < -0.05 {
				t.Errorf("Intn(%d): bucket %d has %d draws (%.1f%% off uniform)", n, v, c, 100*dev)
			}
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := new(Rand)
	r.Seed(1)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(1); v != 0 {
			t.Fatalf("Intn(1) = %d", v)
		}
	}
	// A huge bound exercises the rejection threshold path.
	big := 1 << 62
	for i := 0; i < 1000; i++ {
		if v := r.Intn(big); v < 0 || v >= big {
			t.Fatalf("Intn(1<<62) = %d out of range", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

// BenchmarkSeed measures the per-execution reseed cost: two splitmix64
// expansions and a buffer invalidation, no table fill.
func BenchmarkSeed(b *testing.B) {
	r := new(Rand)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Seed(int64(i))
	}
}

func BenchmarkUint64(b *testing.B) {
	r := new(Rand)
	r.Seed(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := new(Rand)
	r.Seed(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Intn(3)
	}
}
