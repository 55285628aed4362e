package corpus

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"testing"
)

// goldenSeeds covers the seed edge cases of math/rand's seeding: zero
// and 2³¹−1 (both fold to the same internal seed), negatives, the
// first value past the 31-bit modulus, and the most negative int64.
var goldenSeeds = []int64{0, 1, -1, math.MaxInt32, math.MaxInt32 + 1, 20171, math.MinInt64}

// TestGenerateGolden pins the SHA-256 of every cell's marshalled
// one-hour script at each golden seed. Scripts feed corpus replay
// goldens and jobs content addresses, so any change to the random
// stream or the generator's draw order must show up here first.
// testdata/generate_golden.txt holds one "cell seed sha256" line each.
func TestGenerateGolden(t *testing.T) {
	f, err := os.Open("testdata/generate_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var cell, sum string
		var seed int64
		if _, err := fmt.Sscan(sc.Text(), &cell, &seed, &sum); err != nil {
			t.Fatalf("golden line %q: %v", sc.Text(), err)
		}
		want[fmt.Sprint(cell, " ", seed)] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n := len(Cells()) * len(goldenSeeds); len(want) != n {
		t.Fatalf("golden file has %d entries, want %d", len(want), n)
	}
	for _, cell := range Cells() {
		for _, seed := range goldenSeeds {
			s, err := Generate(cell, seed, Params{Horizon: MinHorizon})
			if err != nil {
				t.Fatalf("%s seed %d: %v", cell, seed, err)
			}
			b, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			key := fmt.Sprint(cell, " ", seed)
			if got := hex.EncodeToString(sum[:]); got != want[key] {
				t.Errorf("%s: script sha256 %s, golden %s", key, got, want[key])
			}
		}
	}
}

// Fleet workers generate scripts concurrently, sharing the pooled
// random sources and the read-only archetype models; every goroutine
// must see exactly the serial scripts.
func TestGenerateConcurrent(t *testing.T) {
	type script struct {
		cell Cell
		seed int64
		json []byte
	}
	var want []script
	for _, cell := range Cells() {
		for _, seed := range goldenSeeds {
			s, err := Generate(cell, seed, Params{Horizon: MinHorizon})
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, script{cell, seed, b})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range want {
				w := want[(i+g*len(want)/4)%len(want)]
				s, err := Generate(w.cell, w.seed, Params{Horizon: MinHorizon})
				if err != nil {
					t.Error(err)
					return
				}
				if got, err := json.Marshal(s); err != nil || !bytes.Equal(got, w.json) {
					t.Errorf("%s seed %d: concurrent script differs from serial (err %v)", w.cell, w.seed, err)
				}
			}
		}(g)
	}
	wg.Wait()
}
