package corpus

import (
	"math/rand"
	"sync"
)

// exactSource is a rand.Source64 whose stream is bit-identical to
// rand.NewSource's for every seed, but whose Seed is O(1) instead of
// ~1,800 sequential multiplications filling a 607-word register.
//
// math/rand's additive lagged-Fibonacci source seeds word i of its
// register as x(21+3i)<<40 ^ x(22+3i)<<20 ^ x(23+3i) ^ cooked[i], where
// x(n) = 48271ⁿ·s mod (2³¹−1) is the Lehmer sequence from the reduced
// seed s. Each x(n) is a single multiply against a shared power table,
// so a word can be computed the first time it is read. A one-hour
// corpus script draws a few hundred numbers at most, touching well
// under the full register; reseeding just clears the ready bitmap.
//
// Scripts feed corpus goldens and jobs content addresses, so the stream
// must match math/rand exactly; the tests compare the two directly.
type exactSource struct {
	s         uint64 // reduced seed in [1, 2³¹−2]
	tap, feed int
	ready     [(rngLen + 63) / 64]uint64
	vec       [rngLen]int64
}

// The constants of math/rand's rngSource.
const (
	rngLen    = 607
	rngTap    = 273
	rngMask   = 1<<63 - 1
	lehmerMod = 1<<31 - 1
	lehmerA   = 48271
	// rngSeedSkip is how many Lehmer steps math/rand discards before
	// the first register word.
	rngSeedSkip = 20
	// zeroSeed is the reduced seed math/rand substitutes for zero.
	zeroSeed = 89482311
)

var (
	// lehmerPow[n] = 48271ⁿ mod (2³¹−1), for every n a seed word uses.
	lehmerPow [rngSeedSkip + 3*rngLen + 1]uint64
	// rngCooked is math/rand's per-word whitening table, recovered
	// once from a reference source (see deriveCooked).
	rngCooked [rngLen]int64
)

func init() {
	lehmerPow[0] = 1
	for n := 1; n < len(lehmerPow); n++ {
		lehmerPow[n] = lehmerPow[n-1] * lehmerA % lehmerMod
	}
	rngCooked = deriveCooked()
}

// deriveCooked recovers the whitening table from the first rngLen
// outputs of a math/rand source seeded with 1. Draw k (1-based)
// replaces register word f(k) = (334−k) mod 607 with itself plus word
// (607−k) mod 607, and returns the sum. For k > rngTap that second word
// was itself overwritten by draw k−273, so the original word at f(k) is
// out[k] − out[k−273]; that recovers words 0..60 and 334..606, and
// draws 1..273, whose partner words 334..606 are now known, give the
// remaining 61..333. XOR-ing out the Lehmer part leaves cooked.
func deriveCooked() [rngLen]int64 {
	ref := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]int64 // out[k] is draw k
	for k := 1; k <= rngLen; k++ {
		out[k] = int64(ref.Uint64())
	}
	var vec [rngLen]int64
	for k := rngTap + 1; k <= rngLen; k++ {
		vec[(rngLen-rngTap-k+rngLen)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		vec[rngLen-rngTap-k] = out[k] - vec[rngLen-k]
	}
	var src exactSource
	src.Seed(1)
	var cooked [rngLen]int64
	for i := range cooked {
		cooked[i] = vec[i] ^ src.lehmerWord(i)
	}
	return cooked
}

// Seed resets the source to math/rand's state for seed, lazily.
func (r *exactSource) Seed(seed int64) {
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	r.s = uint64(seed)
	r.tap, r.feed = 0, rngLen-rngTap
	r.ready = [len(r.ready)]uint64{}
}

// lehmerWord is register word i's seed part, before whitening.
func (r *exactSource) lehmerWord(i int) int64 {
	n := rngSeedSkip + 1 + 3*i
	x0 := int64(lehmerPow[n] * r.s % lehmerMod)
	x1 := int64(lehmerPow[n+1] * r.s % lehmerMod)
	x2 := int64(lehmerPow[n+2] * r.s % lehmerMod)
	return x0<<40 ^ x1<<20 ^ x2
}

// word returns register word i, computing its seeded value on first read.
func (r *exactSource) word(i int) int64 {
	w, b := i>>6, uint64(1)<<(i&63)
	if r.ready[w]&b == 0 {
		r.vec[i] = r.lehmerWord(i) ^ rngCooked[i]
		r.ready[w] |= b
	}
	return r.vec[i]
}

// Uint64 advances the lagged-Fibonacci register exactly as math/rand does.
func (r *exactSource) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.word(r.feed) + r.word(r.tap)
	r.vec[r.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative 63-bit integer, as math/rand does.
func (r *exactSource) Int63() int64 { return int64(r.Uint64() & rngMask) }

// seededRand pairs an exactSource with the rand.Rand that reads it, so
// a pooled pair costs no allocation per script.
type seededRand struct {
	src exactSource
	rng *rand.Rand
}

var randPool = sync.Pool{New: func() any {
	p := new(seededRand)
	p.rng = rand.New(&p.src)
	return p
}}

// getRand returns a pooled generator seeded with seed; return it to
// randPool once nothing reads it.
func getRand(seed int64) *seededRand {
	p := randPool.Get().(*seededRand)
	p.rng.Seed(seed)
	return p
}
