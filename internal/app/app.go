// Package app models installed applications: user IDs, processes,
// per-component workload profiles, and the package manager that assigns
// UIDs at install time.
//
// Android isolates every app in its own sandbox under a unique Linux user
// ID; all energy accounting in the paper is keyed by that UID, so the UID
// is the identity type threaded through every other package.
package app

import (
	"fmt"

	"repro/internal/manifest"
)

// UID identifies an installed app (its sandbox user ID). Negative values
// are reserved for pseudo-entries used by battery interfaces.
type UID int

// Pseudo-UIDs used by battery views and accounting buckets.
const (
	// UIDNone marks "no app" (e.g. nothing in the foreground).
	UIDNone UID = -1
	// UIDScreen is the pseudo entry Android's official battery interface
	// uses to report display energy separately from any app.
	UIDScreen UID = -2
	// UIDSystem aggregates kernel and framework overhead buckets.
	UIDSystem UID = -3
)

// FirstAppUID is the first UID handed to an installed package, mirroring
// Android's 10000+ app UID range.
const FirstAppUID UID = 10000

// Slot maps an app UID onto the small dense index the package manager
// assigned it (0 for the first install). UIDs are handed out
// sequentially from FirstAppUID, so installed apps occupy a compact
// integer range — the property the hot-path energy tables (hw.UsageTable
// and the meter's per-UID state) index by instead of hashing.
func Slot(uid UID) int { return int(uid - FirstAppUID) }

// FromSlot inverts Slot.
func FromSlot(slot int) UID { return FirstAppUID + UID(slot) }

// Workload describes the hardware demand of one component while it is
// active. Utilization values are fractions of one CPU core in [0, 1].
type Workload struct {
	// CPUActive is CPU utilization while the component is in the
	// foreground (resumed activity) or, for a service, running.
	CPUActive float64
	// CPUBackground is CPU utilization while an activity is paused or
	// stopped but its process is alive. Services use CPUActive whenever
	// they are running regardless of foreground state.
	CPUBackground float64
	// Camera reports whether the component keeps the camera sensor
	// powered while active (e.g. a video-recording activity).
	Camera bool
	// GPS reports whether the component holds a location fix while
	// active.
	GPS bool
	// WiFi reports whether the component keeps the radio in its
	// high-power transmit state while active.
	WiFi bool
	// Audio reports whether the component keeps the audio DSP powered
	// while active.
	Audio bool
}

// Clamp returns a copy with utilizations forced into [0, 1].
func (w Workload) Clamp() Workload {
	clamp := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	w.CPUActive = clamp(w.CPUActive)
	w.CPUBackground = clamp(w.CPUBackground)
	return w
}

// App is one installed application.
type App struct {
	UID      UID
	Manifest *manifest.Manifest

	// System marks built-in apps (launcher, system UI, resolver) that
	// E-Android excludes from the collateral attack list.
	System bool

	// HiddenFromRecents mirrors the stealth flag the paper's malware
	// sets to keep itself out of the recent-apps list.
	HiddenFromRecents bool

	workloads map[string]Workload // component name -> profile

	alive           bool
	deathRecipients []func()
}

// Package returns the app's package name.
func (a *App) Package() string { return a.Manifest.Package }

// Label returns the app's human-readable name.
func (a *App) Label() string {
	if a.Manifest.Label != "" {
		return a.Manifest.Label
	}
	return a.Manifest.Package
}

// SetWorkload attaches a hardware demand profile to a declared component.
// It returns an error if the component is not in the manifest.
func (a *App) SetWorkload(component string, w Workload) error {
	if a.Manifest.Component(component) == nil {
		return fmt.Errorf("app %s: no component %q", a.Package(), component)
	}
	if a.workloads == nil {
		a.workloads = make(map[string]Workload)
	}
	a.workloads[component] = w.Clamp()
	return nil
}

// Workload returns the profile for a component (zero value if unset).
func (a *App) Workload(component string) Workload {
	return a.workloads[component]
}

// Alive reports whether the app's process is running.
func (a *App) Alive() bool { return a.alive }

// LinkToDeath registers fn to run when the app's process dies, mirroring
// Binder's death-recipient mechanism. If the process is already dead, fn
// runs immediately.
func (a *App) LinkToDeath(fn func()) {
	if !a.alive {
		fn()
		return
	}
	a.deathRecipients = append(a.deathRecipients, fn)
}

// Kill terminates the app's process and fires all death recipients in
// registration order. Killing a dead process is a no-op.
func (a *App) Kill() {
	if !a.alive {
		return
	}
	a.alive = false
	recipients := a.deathRecipients
	a.deathRecipients = nil
	for _, fn := range recipients {
		fn()
	}
}

// Revive restarts the app's process (used when a dead app is launched
// again).
func (a *App) Revive() { a.alive = true }

// PackageManager installs apps and resolves package names and UIDs.
type PackageManager struct {
	byUID  map[UID]*App
	byPkg  map[string]*App
	nextID UID

	// list caches the installed apps in ascending UID order. Installs
	// append (UIDs are assigned monotonically, so append preserves the
	// order) and uninstalls splice, which makes EachApp an allocation-
	// free iteration for samplers.
	list []*App

	uninstallHooks []func(*App)
	// censusHooks run before every install and uninstall (see
	// AddCensusHook).
	censusHooks []func()
	// tombstones keeps display labels for uninstalled packages so
	// battery views can still name them in historical rows. It is made
	// on the first uninstall: most devices never uninstall anything.
	tombstones map[UID]string
}

// NewPackageManager returns an empty package manager.
func NewPackageManager() *PackageManager {
	return &PackageManager{
		byUID:  make(map[UID]*App),
		byPkg:  make(map[string]*App),
		nextID: FirstAppUID,
	}
}

// Install validates m, assigns the next free UID and returns the app with
// its process started.
func (pm *PackageManager) Install(m *manifest.Manifest) (*App, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if _, ok := pm.byPkg[m.Package]; ok {
		return nil, fmt.Errorf("app: package %s already installed", m.Package)
	}
	pm.censusChanging()
	a := &App{UID: pm.nextID, Manifest: m, alive: true}
	pm.nextID++
	pm.byUID[a.UID] = a
	pm.byPkg[m.Package] = a
	pm.list = append(pm.list, a)
	return a, nil
}

// InstallSystem installs a built-in app flagged as a system app.
func (pm *PackageManager) InstallSystem(m *manifest.Manifest) (*App, error) {
	a, err := pm.Install(m)
	if err != nil {
		return nil, err
	}
	a.System = true
	return a, nil
}

// MustInstall is Install that panics on error, for scenario tables.
func (pm *PackageManager) MustInstall(m *manifest.Manifest) *App {
	a, err := pm.Install(m)
	if err != nil {
		panic(err)
	}
	return a
}

// AddUninstallHook registers fn to run after a package is removed; the
// E-Android monitor uses this to close the removed app's attack
// lifecycles.
func (pm *PackageManager) AddUninstallHook(fn func(*App)) {
	pm.uninstallHooks = append(pm.uninstallHooks, fn)
}

// AddCensusHook registers fn to run just before every install and
// uninstall, while the old app census still stands; lazy samplers fold
// the instants they owe against it.
func (pm *PackageManager) AddCensusHook(fn func()) {
	pm.censusHooks = append(pm.censusHooks, fn)
}

func (pm *PackageManager) censusChanging() {
	for _, fn := range pm.censusHooks {
		fn()
	}
}

// Uninstall kills the app's process (firing death recipients, which
// releases wakelocks, drops binds and destroys activities) and removes
// the package. This is the battery interface's "delete the energy hog"
// action.
func (pm *PackageManager) Uninstall(pkg string) error {
	a := pm.byPkg[pkg]
	if a == nil {
		return fmt.Errorf("app: package %s not installed", pkg)
	}
	if a.System {
		return fmt.Errorf("app: cannot uninstall system app %s", pkg)
	}
	pm.censusChanging()
	a.Kill()
	delete(pm.byPkg, pkg)
	delete(pm.byUID, a.UID)
	for i, cached := range pm.list {
		if cached == a {
			pm.list = append(pm.list[:i], pm.list[i+1:]...)
			break
		}
	}
	if pm.tombstones == nil {
		pm.tombstones = make(map[UID]string)
	}
	pm.tombstones[a.UID] = a.Label()
	for _, fn := range pm.uninstallHooks {
		fn(a)
	}
	return nil
}

// ByUID returns the app with the given UID, or nil.
func (pm *PackageManager) ByUID(uid UID) *App { return pm.byUID[uid] }

// ByPackage returns the app with the given package name, or nil.
func (pm *PackageManager) ByPackage(pkg string) *App { return pm.byPkg[pkg] }

// Apps returns all installed apps sorted by UID. The slice is a fresh
// copy; hot paths that only iterate should use EachApp, which walks the
// cached order without allocating.
func (pm *PackageManager) Apps() []*App {
	out := make([]*App, len(pm.list))
	copy(out, pm.list)
	return out
}

// EachApp calls fn for every installed app in ascending UID order,
// without allocating. fn must not install or uninstall packages.
func (pm *PackageManager) EachApp(fn func(*App)) {
	for _, a := range pm.list {
		fn(a)
	}
}

// Label resolves a UID to a display label, understanding pseudo-UIDs.
func (pm *PackageManager) Label(uid UID) string {
	switch uid {
	case UIDScreen:
		return "Screen"
	case UIDSystem:
		return "System"
	case UIDNone:
		return "(none)"
	}
	if a := pm.byUID[uid]; a != nil {
		return a.Label()
	}
	if label, ok := pm.tombstones[uid]; ok {
		return label + " (uninstalled)"
	}
	return fmt.Sprintf("uid:%d", uid)
}
