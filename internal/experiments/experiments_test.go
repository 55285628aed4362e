package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/antutu"
	"repro/internal/app"
	"repro/internal/scenario"
)

func TestAllRegistryResolves(t *testing.T) {
	specs := All()
	if len(specs) != 22 {
		t.Fatalf("experiments = %d, want 22 (15 paper variants + 7 extensions)", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if s.ID == "" || s.Title == "" || s.Run == nil {
			t.Fatalf("incomplete spec %+v", s)
		}
		if seen[s.ID] {
			t.Fatalf("duplicate id %s", s.ID)
		}
		seen[s.ID] = true
		if _, err := ByID(s.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestFig1CameraChargedNotMessage(t *testing.T) {
	r, err := Fig1(scenario.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.AndroidJ["Camera"] <= r.AndroidJ["Message"] {
		t.Fatalf("baseline: camera %v <= message %v",
			r.AndroidJ["Camera"], r.AndroidJ["Message"])
	}
	// The camera should dwarf the message by a large factor (the paper's
	// "quite small portion" observation).
	if r.AndroidJ["Camera"] < 5*r.AndroidJ["Message"] {
		t.Fatalf("camera %v not ≫ message %v", r.AndroidJ["Camera"], r.AndroidJ["Message"])
	}
	if !strings.Contains(r.Render(), "Figure 1") {
		t.Fatal("render header missing")
	}
}

func TestFig9aEAndroidFlipsRanking(t *testing.T) {
	r, err := Fig9a(scenario.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// E-Android charges the Message with the Camera's collateral: its
	// total must now exceed the Camera's own reading.
	if r.EAndroidTotalJ["Message"] <= r.AndroidJ["Camera"] {
		t.Fatalf("e-android message %v <= camera %v",
			r.EAndroidTotalJ["Message"], r.AndroidJ["Camera"])
	}
}

func TestFig9bChainChargesContacts(t *testing.T) {
	r, err := Fig9b(scenario.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Contacts started the whole chain; with collateral included it must
	// far exceed its baseline reading.
	if r.EAndroidTotalJ["Contacts"] <= r.AndroidJ["Contacts"] {
		t.Fatalf("contacts total %v <= original %v",
			r.EAndroidTotalJ["Contacts"], r.AndroidJ["Contacts"])
	}
	if r.EAndroidTotalJ["Contacts"] <= r.AndroidJ["Message"] {
		t.Fatal("chain root should out-rank intermediate baseline readings")
	}
}

func TestFig9cMalwareExposedOnlyDuringAttack(t *testing.T) {
	r, err := Fig9c(scenario.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: malware nearly invisible.
	if r.AndroidJ["FunGame"] >= r.AndroidJ["Victim"] {
		t.Fatal("baseline should hide the malware")
	}
	// E-Android: malware charged with the victim's pinned service.
	if r.EAndroidTotalJ["FunGame"] <= r.AndroidJ["FunGame"] {
		t.Fatal("e-android should expose the malware")
	}
	// But not with the full victim energy (30 s ran after the attack).
	victimTotal := r.AndroidJ["Victim"]
	collateral := r.EAndroidTotalJ["FunGame"] - r.AndroidJ["FunGame"]
	if collateral >= victimTotal {
		t.Fatalf("collateral %v should be < victim total %v (post-attack energy uncharged)",
			collateral, victimTotal)
	}
}

func TestFig9dInterruptExposed(t *testing.T) {
	r, err := Fig9d(scenario.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.EAndroidTotalJ["FunGame"] <= r.AndroidJ["FunGame"] {
		t.Fatal("interrupt attack should charge the malware collateral energy")
	}
}

func TestFig9eBrightnessAttackDrainsMore(t *testing.T) {
	r, err := Fig9e(scenario.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	screenNormal := r.Normal.AndroidJ["Screen"]
	screenAttack := r.Attack.AndroidJ["Screen"]
	if screenAttack <= screenNormal*1.5 {
		t.Fatalf("attack screen %v should far exceed normal %v", screenAttack, screenNormal)
	}
	// E-Android pins the extra screen energy on the malware.
	if r.Attack.EAndroidTotalJ["FunGame"] <= r.Normal.EAndroidTotalJ["FunGame"] {
		t.Fatal("malware should carry the escalated screen energy")
	}
	if !strings.Contains(r.Render(), "normal circumstances") {
		t.Fatal("render structure")
	}
}

func TestFig9fWakelockAttackKeepsScreenOn(t *testing.T) {
	r, err := Fig9f(scenario.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Normal: screen on 30 s then timeout. Attack: on the whole 60 s.
	normalScreen := r.Normal.AndroidJ["Screen"]
	attackScreen := r.Attack.AndroidJ["Screen"]
	if attackScreen <= normalScreen*1.5 {
		t.Fatalf("attack screen %v vs normal %v", attackScreen, normalScreen)
	}
	// Baseline never blames the malware; E-Android does.
	if r.Attack.AndroidJ["FunGame"] >= attackScreen/10 {
		t.Fatal("baseline should not blame the malware for screen drain")
	}
	if r.Attack.EAndroidTotalJ["FunGame"] < attackScreen/2 {
		t.Fatalf("e-android malware total %v should include screen energy %v",
			r.Attack.EAndroidTotalJ["FunGame"], attackScreen)
	}
}

func TestFig2RatesMatchPaper(t *testing.T) {
	r, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if r.Study.Total != 1124 {
		t.Fatalf("corpus = %d", r.Study.Total)
	}
	if math.Abs(r.Study.ExportedRate-0.72) > 0.001 ||
		math.Abs(r.Study.WakeLockRate-0.81) > 0.001 ||
		math.Abs(r.Study.WriteSettingsRate-0.21) > 0.001 {
		t.Fatalf("rates = %+v", r.Study)
	}
	out := r.Render()
	for _, want := range []string{"72.0%", "81.0%", "21.0%", "28 categories"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig3ShapeMatchesPaper(t *testing.T) {
	// Coarse step for test speed; the shape assertions are step-robust.
	r, err := Fig3WithStep(5*time.Minute, scenario.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hours := map[string]float64{}
	for _, c := range r.Curves {
		hours[c.Name] = c.HoursToDead()
		if len(c.Points) == 0 {
			t.Fatalf("curve %s empty", c.Name)
		}
		// Monotone: percent decreases, time increases.
		for i := 1; i < len(c.Points); i++ {
			if c.Points[i].Hours < c.Points[i-1].Hours ||
				c.Points[i].Percent >= c.Points[i-1].Percent {
				t.Fatalf("curve %s not monotone at %d", c.Name, i)
			}
		}
	}
	// The paper's ordering: full brightness drains fastest; lowest
	// brightness lasts longest; bind_service and interrupt_app fall in
	// between; brightness_10 just under brightness_low.
	if !(hours["brightness_full"] < hours["bind_service"] &&
		hours["bind_service"] < hours["interrupt_app"] &&
		hours["interrupt_app"] < hours["brightness_low"] &&
		hours["brightness_10"] < hours["brightness_low"]) {
		t.Fatalf("drain ordering wrong: %+v", hours)
	}
	// Everything lands in the paper's 5-15+ hour band.
	for name, h := range hours {
		if h < 4 || h > 20 {
			t.Fatalf("%s drains in %v h, outside the plausible band", name, h)
		}
	}
	if !strings.Contains(r.Render(), "battery dead after") {
		t.Fatal("render")
	}
}

func TestFig6MapsSingleVictimEntry(t *testing.T) {
	r, err := Fig6(scenario.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entries := r.Maps["FunGame"]
	victims := 0
	for _, e := range entries {
		if e.EnergyJ > 0 {
			victims++
		}
	}
	if victims == 0 {
		t.Fatal("multi-collateral attack should charge the malware")
	}
	if !strings.Contains(r.Render(), "Collateral energy maps") {
		t.Fatal("render")
	}
}

func TestFig7ChainEntries(t *testing.T) {
	r, err := Fig7(scenario.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entries := r.Maps["FunGame"]
	if len(entries) < 3 {
		t.Fatalf("hybrid chain should give the root ≥3 entries, got %+v", entries)
	}
	var hasScreen bool
	for _, e := range entries {
		if e.Driven == app.UIDScreen && e.EnergyJ > 0 {
			hasScreen = true
		}
	}
	if !hasScreen {
		t.Fatal("chain root should carry screen energy")
	}
}

func TestFig8BreakdownListsCollateral(t *testing.T) {
	r, err := Fig8(scenario.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var contactsRow, messageRow bool
	for _, row := range r.Rows {
		switch row.Label {
		case "Contacts":
			contactsRow = len(row.Collateral) > 0
		case "Message":
			messageRow = len(row.Collateral) > 0
		}
	}
	if !contactsRow || !messageRow {
		t.Fatalf("rows missing collateral inventories: contacts=%v message=%v",
			contactsRow, messageRow)
	}
	if !strings.Contains(r.Render(), "PowerTutor") {
		t.Fatal("render")
	}
}

func TestFig10SmallRun(t *testing.T) {
	r, err := Fig10WithReps(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Results) != 13*3 {
		t.Fatalf("results = %d", len(r.Results))
	}
	if !strings.Contains(r.Render(), "Figure 10") {
		t.Fatal("render")
	}
}

func TestFig11SmallRun(t *testing.T) {
	r, err := Fig11WithConfig(antutu.Config{
		IntOps: 50_000, FloatOps: 50_000, MemBytes: 1 << 14, UXOps: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Comparison.Android.Total <= 0 || r.Comparison.EAndroid.Total <= 0 {
		t.Fatalf("scores = %+v", r.Comparison)
	}
}

func TestExtDetectionStudy(t *testing.T) {
	r, err := ExtDetection(scenario.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cases) != 2 {
		t.Fatalf("cases = %d", len(r.Cases))
	}
	classic, collateral := r.Cases[0], r.Cases[1]
	// The classic bomber is obvious: top of the baseline view and
	// flagged by power signatures.
	if classic.BatteryInterfaceRank == 0 || classic.BatteryInterfaceRank > 2 {
		t.Fatalf("classic rank = %d", classic.BatteryInterfaceRank)
	}
	if !classic.PowerSignatureFlags {
		t.Fatal("classic bomb should be flagged by power signatures")
	}
	// The collateral attacker sinks in the baseline view, evades power
	// signatures, and is exposed only by E-Android.
	if collateral.BatteryInterfaceRank != 0 && collateral.BatteryInterfaceRank <= 2 {
		t.Fatalf("collateral malware ranks too high in baseline: %d", collateral.BatteryInterfaceRank)
	}
	if collateral.PowerSignatureFlags {
		t.Fatal("collateral malware should evade power signatures")
	}
	if collateral.EAndroidCollateralJ <= 0 {
		t.Fatal("E-Android should expose the collateral malware")
	}
	out := r.Render()
	for _, want := range []string{"classic CPU bomb", "collateral attack #3", "FLAGGED", "missed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestExtStealth(t *testing.T) {
	r, err := ExtStealth(scenario.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.MalwareForegroundTime != 0 {
		t.Fatalf("malware foreground time = %v, want 0", r.MalwareForegroundTime)
	}
	if r.MalwareCollateralJ <= 0 {
		t.Fatal("stealth attack should still be attributed")
	}
	if !strings.Contains(r.Render(), "stealth auto-launch") {
		t.Fatal("render")
	}
}

func TestFig9aPowerTutorSimilarShape(t *testing.T) {
	// The paper's omitted-variant claim: under PowerTutor the same
	// qualitative result holds — the baseline hides the chain, E-Android
	// exposes it.
	bs, err := Fig9a(scenario.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := Fig9aPowerTutor(scenario.WorldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Both policies: message total with collateral exceeds its baseline.
	for _, r := range []*ViewsResult{bs, pt} {
		if r.EAndroidTotalJ["Message"] <= r.AndroidJ["Message"] {
			t.Fatalf("%s: collateral missing", r.Name)
		}
	}
	// PowerTutor folds screen energy into the foreground apps, so its
	// message baseline is larger, but the camera still dominates it.
	if pt.AndroidJ["Message"] <= bs.AndroidJ["Message"] {
		t.Fatal("powertutor baseline should include screen share")
	}
	if pt.AndroidJ["Camera"] <= pt.AndroidJ["Message"] {
		t.Fatal("camera should still dominate under powertutor")
	}
}
