package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/accounting"
	"repro/internal/app"
	"repro/internal/device"
	"repro/internal/powersig"
	"repro/internal/scenario"
)

// DetectionCase is one row of the extension study: a piece of malware
// and whether each defense catches it.
type DetectionCase struct {
	Name string
	// BatteryInterfaceRank is the malware's rank in the baseline view
	// (1 = top consumer); classic malware ranks high, collateral malware
	// sinks to the bottom.
	BatteryInterfaceRank int
	// PowerSignatureFlags is Kim et al.'s detector verdict.
	PowerSignatureFlags bool
	// EAndroidCollateralJ is the energy E-Android pins on the malware.
	EAndroidCollateralJ float64
}

// DetectionResult is the extension experiment comparing three defenses
// (battery interface, power signatures, E-Android) across classic and
// collateral malware.
type DetectionResult struct {
	Cases []DetectionCase
}

// Render prints the comparison table.
func (r *DetectionResult) Render() string {
	var b strings.Builder
	b.WriteString("=== Extension: defense comparison (battery interface / power signatures / E-Android) ===\n")
	fmt.Fprintf(&b, "%-28s %14s %12s %16s\n",
		"malware", "baseline rank", "powersig", "e-android (J)")
	for _, c := range r.Cases {
		flag := "missed"
		if c.PowerSignatureFlags {
			flag = "FLAGGED"
		}
		fmt.Fprintf(&b, "%-28s %14d %12s %16.2f\n",
			c.Name, c.BatteryInterfaceRank, flag, c.EAndroidCollateralJ)
	}
	return b.String()
}

// rankOf reports uid's 1-based rank in the baseline entries (0 if
// absent).
func rankOf(w *scenario.World, uid app.UID) int {
	for i, e := range w.Dev.Android.Entries() {
		if e.UID == uid {
			return i + 1
		}
	}
	return 0
}

// ExtDetection runs the comparison: the classic CPU bomb (caught by
// everything) versus collateral attack #3 (invisible to the baseline and
// to power signatures, exposed only by E-Android).
func ExtDetection(opts scenario.WorldOptions) (*DetectionResult, error) {
	res := &DetectionResult{}

	// Case 1: classic CPU bomb.
	{
		w, err := scenario.NewWorldWith(device.Config{EAndroid: true, Policy: accounting.BatteryStats}, opts)
		if err != nil {
			return nil, err
		}
		if _, err := w.InstallClassicBomber(); err != nil {
			return nil, err
		}
		det, err := powersig.NewDetector(w.Dev.Engine, w.Dev.Meter, w.Dev.Packages, 0)
		if err != nil {
			return nil, err
		}
		det.Start()
		if err := w.Dev.Run(30 * time.Second); err != nil {
			return nil, err
		}
		if err := det.Train(); err != nil {
			return nil, err
		}
		if err := w.ClassicCPUBomb(60 * time.Second); err != nil {
			return nil, err
		}
		w.Dev.Flush()
		bomber, err := w.Classic()
		if err != nil {
			return nil, err
		}
		res.Cases = append(res.Cases, DetectionCase{
			Name:                 "classic CPU bomb (own process)",
			BatteryInterfaceRank: rankOf(w, bomber.UID),
			PowerSignatureFlags:  contains(det.Anomalous(), bomber.UID),
			EAndroidCollateralJ:  w.Dev.EAndroid.CollateralJ(bomber.UID),
		})
	}

	// Case 2: collateral attack #3.
	{
		w, err := scenario.NewWorldWith(device.Config{EAndroid: true, Policy: accounting.BatteryStats}, opts)
		if err != nil {
			return nil, err
		}
		det, err := powersig.NewDetector(w.Dev.Engine, w.Dev.Meter, w.Dev.Packages, 0)
		if err != nil {
			return nil, err
		}
		det.Start()
		if err := w.Dev.Run(30 * time.Second); err != nil {
			return nil, err
		}
		if err := det.Train(); err != nil {
			return nil, err
		}
		if err := w.ForceScreenOn(); err != nil {
			return nil, err
		}
		if err := w.Attack3ServicePin(60 * time.Second); err != nil {
			return nil, err
		}
		w.Dev.Flush()
		res.Cases = append(res.Cases, DetectionCase{
			Name:                 "collateral attack #3 (bind)",
			BatteryInterfaceRank: rankOf(w, w.Malware.UID),
			PowerSignatureFlags:  contains(det.Anomalous(), w.Malware.UID),
			EAndroidCollateralJ:  w.Dev.EAndroid.CollateralJ(w.Malware.UID),
		})
	}
	return res, nil
}

func contains(uids []app.UID, uid app.UID) bool {
	for _, u := range uids {
		if u == uid {
			return true
		}
	}
	return false
}
