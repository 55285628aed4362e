package corpus

import (
	"math/rand"
	"testing"
)

// exactDraws crosses the register's ring wrap and the region where the
// tap starts reading words the feed already rewrote.
const exactDraws = 2*rngLen + 50

// compareStreams draws n values through every rand.Rand method the
// corpus uses, cycling methods so each one sees every register phase,
// and fails on the first divergence from math/rand's own source.
func compareStreams(t *testing.T, seed int64, lazy *exactSource, n int) {
	t.Helper()
	ref := rand.New(rand.NewSource(seed))
	lazy.Seed(seed)
	got := rand.New(lazy)
	for i := 0; i < n; i++ {
		var want, have any
		switch i % 4 {
		case 0:
			want, have = ref.Int63(), got.Int63()
		case 1:
			want, have = ref.Uint64(), got.Uint64()
		case 2:
			want, have = ref.Float64(), got.Float64()
		case 3:
			// Small and huge bounds: Int63n rejection-samples near 2⁶³.
			bound := int64(i) + 1
			if i%8 == 3 {
				bound = 1<<62 + int64(i)
			}
			want, have = ref.Int63n(bound), got.Int63n(bound)
		}
		if want != have {
			t.Fatalf("seed %d draw %d: exact source gave %v, math/rand %v", seed, i, have, want)
		}
	}
}

// TestExactSourceMatchesMathRand compares the lazy source against
// rand.NewSource over the golden edge seeds and 2,000 seeds strided
// across the whole int64 range, reusing one source so reseeding after
// a long stream is covered too.
func TestExactSourceMatchesMathRand(t *testing.T) {
	var lazy exactSource
	for _, seed := range goldenSeeds {
		compareStreams(t, seed, &lazy, exactDraws)
	}
	const stride = 0x9e3779b97f4a7c15 // golden-ratio step, wrapping across all of int64
	for k := uint64(0); k < 2000; k++ {
		compareStreams(t, int64(k*stride), &lazy, exactDraws)
	}
}

// Reseeding and a script's worth of draws must not allocate: the
// source is pooled per Generate call, so it is never rebuilt.
func TestExactSourceAllocs(t *testing.T) {
	var lazy exactSource
	rng := rand.New(&lazy)
	seed := int64(0)
	var sink float64
	avg := testing.AllocsPerRun(100, func() {
		seed++
		rng.Seed(seed)
		for i := 0; i < 300; i++ {
			sink += rng.Float64()
		}
	})
	if avg != 0 {
		t.Fatalf("reseed plus 300 draws allocates %.1f objects, want 0", avg)
	}
	if sink == 0 {
		t.Fatal("no draws observed")
	}
}

// FuzzExactSource checks the lazy stream against math/rand for any
// seed and stream length.
func FuzzExactSource(f *testing.F) {
	f.Add(int64(0), uint16(exactDraws))
	f.Add(int64(-1), uint16(rngTap))
	f.Add(int64(1<<31-1), uint16(rngLen+1))
	f.Add(int64(-1<<63), uint16(3*rngLen))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		var lazy exactSource
		compareStreams(t, seed, &lazy, int(draws))
	})
}
