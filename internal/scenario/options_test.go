package scenario

import (
	"sync"
	"testing"

	"repro/internal/accounting"
	"repro/internal/check"
	"repro/internal/device"
	"repro/internal/telemetry"
)

// TestWorldOptionsConcurrent builds worlds from several goroutines,
// each with its own options, next to builders that pass none. Every
// world must get exactly its builder's recorder and hook — options are
// an argument, never shared state — and the test fails under -race if
// world construction ever grows a shared default again.
func TestWorldOptionsConcurrent(t *testing.T) {
	const iters = 10
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				cfg := device.Config{EAndroid: true, Policy: accounting.BatteryStats}
				var opts WorldOptions
				var hooked *device.Device
				if g%2 == 0 {
					opts = WorldOptions{
						Telemetry: telemetry.New(telemetry.Options{}),
						Checks:    &check.Options{},
						Hook:      func(d *device.Device) { hooked = d },
					}
				}
				w, err := NewWorldWith(cfg, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if w.Dev.Telemetry != opts.Telemetry || (hooked != nil) != (opts.Hook != nil) {
					t.Errorf("builder %d: world got recorder %p (want %p), hook ran %v (want %v)",
						g, w.Dev.Telemetry, opts.Telemetry, hooked != nil, opts.Hook != nil)
					return
				}
				if hooked != nil && hooked != w.Dev {
					t.Errorf("builder %d: hook saw another world's device", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestNewWorldWithExplicitOptions checks that explicit options reach
// the built device and that config-level settings win over them.
func TestNewWorldWithExplicitOptions(t *testing.T) {
	rec := telemetry.New(telemetry.Options{})
	hooked := false
	w, err := NewWorldWith(device.Config{EAndroid: true}, WorldOptions{
		Telemetry: rec,
		Checks:    &check.Options{},
		Hook:      func(*device.Device) { hooked = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !hooked {
		t.Fatal("construction hook did not run")
	}
	if w.Dev.Telemetry != rec {
		t.Fatal("explicit telemetry recorder not threaded into the device")
	}

	own := telemetry.New(telemetry.Options{})
	w2, err := NewWorldWith(device.Config{EAndroid: true, Telemetry: own},
		WorldOptions{Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	if w2.Dev.Telemetry != own {
		t.Fatal("config-level recorder should win over options")
	}
}
