package jobs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/corpus"
)

// FuzzSpec feeds two arbitrary request bodies through the admission
// path: decoding never panics, Normalize is idempotent, every admitted
// spec respects the limits it was admitted under, and two admitted
// specs share a content address exactly when their normalized forms
// are equal — the property the result cache's soundness rests on.
func FuzzSpec(f *testing.F) {
	for _, pair := range [][2]string{
		{`{"kind":"fleet","cell":"gamer/coordinated-collateral","seed":42,"devices":8,"horizon":"2h"}`,
			`{"kind":"fleet","cell":"gamer/coordinated-collateral","seed":42,"devices":8,"horizon":7200000000000}`},
		{`{"kind":"scenario","cell":"idle-mostly/benign","seed":7}`,
			`{"kind":"scenario","cell":"idle-mostly/benign","seed":7,"devices":99,"reps":3,"horizon":"4h"}`},
		{`{"kind":"corpus","cell":"commuter/intermittent-drain","reps":5}`,
			`{"kind":"corpus","cell":"commuter/intermittent-drain","seed":0}`},
		{`{"kind":"fleet","cell":"gamer/benign","devices":4096,"horizon":"1h"}`,
			`{"kind":"fleet","cell":"gamer/benign","devices":-1}`},
		{`{"kind":"nope"}`, `not json`},
	} {
		f.Add([]byte(pair[0]), []byte(pair[1]))
	}
	limits := []Limits{{}, {MaxDevices: 16, MaxSimHours: 24}}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		for _, lim := range limits {
			na, okA := admit(t, a, lim)
			nb, okB := admit(t, b, lim)
			if okA && okB && (na.Key() == nb.Key()) != (na == nb) {
				t.Fatalf("keys equal = %v but specs equal = %v: %+v vs %+v",
					na.Key() == nb.Key(), na == nb, na, nb)
			}
		}
	})
}

// admit decodes body the way POST /jobs does and normalizes it under
// lim, reporting whether the spec was admitted. An admitted spec must
// be a fixed point of Normalize and within lim.
func admit(t *testing.T, body []byte, lim Limits) (Spec, bool) {
	t.Helper()
	var s Spec
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&s); err != nil {
		return Spec{}, false
	}
	s, err := s.Normalize(lim)
	if err != nil {
		return Spec{}, false
	}
	checkAdmitted(t, s, lim)
	return s, true
}

// checkAdmitted asserts a spec Normalize admitted under lim is a fixed
// point of Normalize and within lim.
func checkAdmitted(t *testing.T, s Spec, lim Limits) {
	t.Helper()
	if again, err := s.Normalize(lim); err != nil || again != s {
		t.Fatalf("Normalize not idempotent: %+v -> %+v (%v)", s, again, err)
	}
	lim.fill()
	if _, _, err := cellByName(s.Cell); err != nil {
		t.Fatalf("admitted unknown cell: %+v", s)
	}
	n := s.totalDevices()
	if n < 1 || n > lim.MaxDevices {
		t.Fatalf("admitted %d devices outside [1, %d]: %+v", n, lim.MaxDevices, s)
	}
	if s.Kind == KindScenario && s.Devices != 1 {
		t.Fatalf("scenario spec kept %d devices: %+v", s.Devices, s)
	}
	if time.Duration(s.Horizon) < corpus.MinHorizon {
		t.Fatalf("admitted horizon %v below %v: %+v", time.Duration(s.Horizon), corpus.MinHorizon, s)
	}
	if hrs := float64(n) * time.Duration(s.Horizon).Hours(); hrs > lim.MaxSimHours {
		t.Fatalf("admitted %.1f sim-hours over %.1f: %+v", hrs, lim.MaxSimHours, s)
	}
}
