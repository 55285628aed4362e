package corpus

import (
	"math"
	"testing"

	"repro/internal/accounting"
	"repro/internal/check"
	"repro/internal/device"
	"repro/internal/scenario"
)

// replayScript builds a fresh fail-fast-checked world and applies the
// script: any conservation or lifecycle violation surfaces as an engine
// error mid-Apply, and FinishChecks sweeps the end-of-run invariants
// (nothing left running, aggregates consistent).
func replayScript(t *testing.T, s *Script) {
	t.Helper()
	w, err := scenario.NewWorldWith(device.Config{
		EAndroid: true,
		Policy:   accounting.BatteryStats,
		Seed:     s.Seed,
		Checks:   &check.Options{FailFast: true},
	}, scenario.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(w); err != nil {
		t.Fatalf("%s seed %d: %v", s.Cell, s.Seed, err)
	}
	if vs := w.Dev.FinishChecks(); len(vs) > 0 {
		t.Fatalf("%s seed %d: %d invariant violations, first: %v",
			s.Cell, s.Seed, len(vs), vs[0])
	}
}

// TestCorpusConservesInvariants is the property test behind the corpus:
// EVERY generated scenario — all 16 cells, several seeds each — must
// replay to completion on a fail-fast-checked device with zero
// violations. Energy conservation and lifecycle cleanliness are not
// sampled claims here; they hold for the whole committed grid.
func TestCorpusConservesInvariants(t *testing.T) {
	seeds := []int64{1, 0x5eedc0de, -7}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, cell := range Cells() {
		for _, seed := range seeds {
			s, err := Generate(cell, seed, Params{Horizon: MinHorizon})
			if err != nil {
				t.Fatal(err)
			}
			replayScript(t, s)
		}
	}
}

// TestCorpusFullHorizonSpot replays one benign and one attack cell at
// the full default horizon — the exact shape the committed BENCH
// artifact uses — so horizon-dependent drift (charge-window placement,
// overlay clamping) cannot hide behind the short-horizon grid above.
func TestCorpusFullHorizonSpot(t *testing.T) {
	if testing.Short() {
		t.Skip("full-horizon replay")
	}
	for _, cell := range []Cell{
		{Archetype: ArchCommuter, Variant: VarBenign},
		{Archetype: ArchIdleMostly, Variant: VarChargingAware},
	} {
		s, err := Generate(cell, 0x5eedc0de, Params{})
		if err != nil {
			t.Fatal(err)
		}
		replayScript(t, s)
	}
}

// TestEAndroidEnergyParity is the paper's §VI-B claim ("the decreased
// energy level is the same between Android and E-Android") as a
// metamorphic relation: E-Android only relabels joules, so every corpus
// scenario drains the battery bit-identically with it on and off.
func TestEAndroidEnergyParity(t *testing.T) {
	for _, cell := range Cells() {
		for _, seed := range []int64{1, 7, 20171} {
			s, err := Generate(cell, seed, Params{Horizon: MinHorizon})
			if err != nil {
				t.Fatal(err)
			}
			drained := func(eandroid bool) float64 {
				w, err := scenario.NewWorldWith(device.Config{
					EAndroid: eandroid,
					Policy:   accounting.BatteryStats,
					Seed:     seed,
				}, scenario.WorldOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Apply(w); err != nil {
					t.Fatalf("%s seed %d (E-Android %v): %v", cell, seed, eandroid, err)
				}
				return w.Dev.DrainedJ()
			}
			on, off := drained(true), drained(false)
			if on <= 0 || math.Float64bits(on) != math.Float64bits(off) {
				t.Errorf("%s seed %d: drained %v J with E-Android, %v J without", cell, seed, on, off)
			}
		}
	}
}
