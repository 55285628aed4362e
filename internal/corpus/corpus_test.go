package corpus

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// TestCellsCanonicalOrder pins the grid: archetype-major, benign first
// within each archetype. Replay results, golden files and the committed
// BENCH artifact all rely on this order.
func TestCellsCanonicalOrder(t *testing.T) {
	cells := Cells()
	if want := len(Archetypes()) * len(Variants()); len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	i := 0
	for _, a := range Archetypes() {
		for vi, v := range Variants() {
			c := cells[i]
			if c.Archetype != a || c.Variant != v {
				t.Fatalf("cell %d = %s, want %s/%s", i, c, a, v)
			}
			if (vi == 0) != c.Variant.Benign() {
				t.Fatalf("cell %d: variant order must put the benign variant first", i)
			}
			i++
		}
	}
}

// TestModelValidate checks every archetype model passes its own
// structural validation, and that Validate actually rejects the defects
// the sampler cannot survive.
func TestModelValidate(t *testing.T) {
	for _, a := range Archetypes() {
		m, err := ModelFor(a)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", a, err)
		}
	}
	if _, err := ModelFor(Archetype("astronaut")); err == nil {
		t.Fatal("unknown archetype accepted")
	}

	m, _ := ModelFor(ArchCommuter)
	m.Trans[0][0], m.Trans[0][1] = 1, 0
	for j := 2; j < len(m.Trans[0]); j++ {
		m.Trans[0][j] = 0
	}
	if err := m.Validate(); err == nil {
		t.Fatal("absorbing state accepted")
	}

	m, _ = ModelFor(ArchCommuter)
	m.Trans[1][2] += 0.5
	if err := m.Validate(); err == nil {
		t.Fatal("non-stochastic row accepted")
	}

	m, _ = ModelFor(ArchCommuter)
	m.States[1].TouchMax = ScriptScreenTimeout
	if err := m.Validate(); err == nil {
		t.Fatal("touch cadence reaching the screen timeout accepted: sessions would go dark mid-dwell")
	}
}

// TestStationaryDistribution checks the power-iterated jump-chain
// distribution is a genuine fixed point (sums to 1, invariant under one
// more step) with full support — no transient or absorbing states.
func TestStationaryDistribution(t *testing.T) {
	for _, a := range Archetypes() {
		m, err := ModelFor(a)
		if err != nil {
			t.Fatal(err)
		}
		pi := m.JumpStationary()
		var sum float64
		for i, p := range pi {
			sum += p
			if p <= 0 {
				t.Errorf("%s: state %s has stationary mass %v, want > 0", a, m.States[i].Name, p)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: stationary sums to %v", a, sum)
		}
		next := make([]float64, len(pi))
		for i := range pi {
			for j := range pi {
				next[j] += pi[i] * m.Trans[i][j]
			}
		}
		for j := range pi {
			if math.Abs(next[j]-pi[j]) > 1e-9 {
				t.Errorf("%s: stationary not invariant at state %s: %v vs %v",
					a, m.States[j].Name, next[j], pi[j])
			}
		}
	}
}

// occupancy returns the long-run fraction of virtual time m spends in
// each state: the jump-chain stationary distribution weighted by each
// state's mean dwell (the midpoint of its dwell range) and
// renormalized.
func occupancy(m *Model) []float64 {
	pi := m.JumpStationary()
	occ := make([]float64, len(pi))
	var total float64
	for i := range pi {
		occ[i] = pi[i] * (m.States[i].MinDwell + m.States[i].MaxDwell).Seconds() / 2
		total += occ[i]
	}
	for i := range occ {
		occ[i] /= total
	}
	return occ
}

// TestOccupancyMatchesArchetype checks the dwell-weighted occupancy
// tells each archetype's story: idle-mostly users mostly idle, gamers
// spend more time in the game than any other app, and every archetype
// idles more than half the time (real phones sleep most of the day —
// that is where the attacks hide).
func TestOccupancyMatchesArchetype(t *testing.T) {
	occ := map[Archetype][]float64{}
	for _, a := range Archetypes() {
		m, err := ModelFor(a)
		if err != nil {
			t.Fatal(err)
		}
		occ[a] = occupancy(m)
	}
	for a, o := range occ {
		if o[stIdle] < 0.5 {
			t.Errorf("%s: idle occupancy %.3f, want >= 0.5", a, o[stIdle])
		}
	}
	if o := occ[ArchIdleMostly][stIdle]; o < 0.9 {
		t.Errorf("idle-mostly: idle occupancy %.3f, want >= 0.9", o)
	}
	gamer := occ[ArchGamer]
	for s := stMessage; s < numStates; s++ {
		if s != stGame && gamer[stGame] <= gamer[s] {
			t.Errorf("gamer: game occupancy %.3f not above state %d (%.3f)", gamer[stGame], s, gamer[s])
		}
	}
	if occ[ArchGamer][stGame] <= occ[ArchCommuter][stGame] {
		t.Error("gamer should out-game the commuter")
	}
}

// TestGenerateDeterministic: same (cell, seed, params) must yield a
// byte-identical script; different seeds must not.
func TestGenerateDeterministic(t *testing.T) {
	for _, cell := range Cells() {
		a, err := Generate(cell, 42, Params{})
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		b, err := Generate(cell, 42, Params{})
		if err != nil {
			t.Fatal(err)
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if !bytes.Equal(ja, jb) {
			t.Fatalf("%s: same seed, different script", cell)
		}
		c, err := Generate(cell, 43, Params{})
		if err != nil {
			t.Fatal(err)
		}
		jc, _ := json.Marshal(c)
		if bytes.Equal(ja, jc) {
			t.Fatalf("%s: different seed, identical script", cell)
		}
	}
}

// TestScriptSeedChain checks the per-(cell, rep) seed derivation is
// stable and collision-free across a realistic grid.
func TestScriptSeedChain(t *testing.T) {
	if ScriptSeed(1, 2, 3) != ScriptSeed(1, 2, 3) {
		t.Fatal("seed chain unstable")
	}
	seen := map[int64]bool{}
	for cell := 0; cell < 16; cell++ {
		for rep := 0; rep < 64; rep++ {
			s := ScriptSeed(0x5eedc0de, cell, rep)
			if seen[s] {
				t.Fatalf("seed collision at cell %d rep %d", cell, rep)
			}
			seen[s] = true
		}
	}
}

// TestScriptShape checks structural invariants of generated scripts:
// sorted steps inside the horizon, a sane charge window, no user steps
// during the charge window, and attack variants adding only malware ops
// on top of the benign walk.
func TestScriptShape(t *testing.T) {
	for _, cell := range Cells() {
		for seed := int64(1); seed <= 3; seed++ {
			s, err := Generate(cell, seed, Params{})
			if err != nil {
				t.Fatalf("%s/%d: %v", cell, seed, err)
			}
			if s.ChargeStart <= 0 || s.ChargeEnd <= s.ChargeStart || s.ChargeEnd >= s.Horizon {
				t.Fatalf("%s/%d: charge window [%v, %v] outside horizon %v",
					cell, seed, s.ChargeStart, s.ChargeEnd, s.Horizon)
			}
			var last time.Duration
			for i, st := range s.Steps {
				if st.At < last {
					t.Fatalf("%s/%d: step %d at %v before %v", cell, seed, i, st.At, last)
				}
				last = st.At
				if st.At < 0 || st.At > s.Horizon {
					t.Fatalf("%s/%d: step %d at %v outside horizon", cell, seed, i, st.At)
				}
				userOp := st.Op == OpTouch || st.Op == OpLaunch || st.Op == OpHome
				// A home press at exactly ChargeStart (the user putting the
				// phone down) and a launch at exactly ChargeEnd (picking it
				// up) are the legal boundary cases.
				if userOp && st.At > s.ChargeStart && st.At < s.ChargeEnd {
					t.Fatalf("%s/%d: user step %d (%v) inside the charge window", cell, seed, i, st.Op)
				}
				if cell.Variant.Benign() && !userOp {
					t.Fatalf("%s/%d: benign script contains malware op %v", cell, seed, st.Op)
				}
			}
			if !cell.Variant.Benign() {
				attackOps := 0
				for _, st := range s.Steps {
					switch st.Op {
					case OpTouch, OpLaunch, OpHome:
					default:
						attackOps++
					}
				}
				if attackOps == 0 {
					t.Fatalf("%s/%d: attack variant generated no attack steps", cell, seed)
				}
			}
		}
	}
}

// TestWilson pins the interval math against independently computed
// reference values (z = 1.96, the exact 95% quantile).
func TestWilson(t *testing.T) {
	cases := []struct {
		k, n   int
		lo, hi float64
	}{
		{15, 30, 0.3315412564, 0.6684587436},
		{0, 30, 0, 0.1135133932},
		{40, 40, 0.9123783988, 1},
		{30, 30, 0.8864866068, 1},
		{1, 100, 0.0017674321, 0.0544861962},
		{0, 15689, 0, 0.0002447905},
	}
	for _, c := range cases {
		e := Wilson(c.k, c.n, Z95)
		if math.Abs(e.Lo-c.lo) > 1e-9 || math.Abs(e.Hi-c.hi) > 1e-9 {
			t.Errorf("Wilson(%d, %d) = [%.10f, %.10f], want [%.10f, %.10f]",
				c.k, c.n, e.Lo, e.Hi, c.lo, c.hi)
		}
		if want := float64(c.k) / float64(c.n); e.Rate != want {
			t.Errorf("Wilson(%d, %d).Rate = %v, want %v", c.k, c.n, e.Rate, want)
		}
	}
	if e := Wilson(0, 0, Z95); e.Lo != 0 || e.Hi != 1 {
		t.Errorf("Wilson(0, 0) = [%v, %v], want the vacuous [0, 1]", e.Lo, e.Hi)
	}
	// 30/30 is exactly why the replay default is 40 reps: a perfect
	// detector at N=30 cannot clear a 0.90 lower-bound gate.
	if Wilson(30, 30, Z95).Lo >= 0.90 {
		t.Error("30/30 lower bound unexpectedly clears 0.90")
	}
	if Wilson(40, 40, Z95).Lo < 0.90 {
		t.Error("40/40 lower bound should clear 0.90")
	}
}
