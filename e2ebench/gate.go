package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"

	"repro/internal/jobs"
	"repro/internal/powersig"
)

// reference holds the committed digests the correctness gate compares
// against. Fleet digests are keyed by fleetRefKey (workload, batch size
// and seed); a job's artifact digest is keyed by the job's content
// address, which does not depend on the benchmark seed, so the jobs
// table covers every seed.
type reference struct {
	Fleet map[string]string `json:"fleet"`
	Jobs  map[string]string `json:"jobs"`
}

func fleetRefKey(workload string, devices int, seed int64, what string) string {
	return fmt.Sprintf("%s/devices=%d/seed=%d/%s", workload, devices, seed, what)
}

// jobRefLen is how many hex digits of a job key and of its digest the
// reference keeps (128 bits each).
const jobRefLen = 32

func loadReference(path string) (*reference, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reference digests: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("reference digests %s: %w", path, err)
	}
	return &ref, nil
}

func (ref *reference) save(path string) error {
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// artifactDigest hashes a job's artifact set: names in sorted order,
// each with its length and bytes.
func artifactDigest(files map[string][]byte) string {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s\x00%d\x00", n, len(files[n]))
		h.Write(files[n])
	}
	return hex.EncodeToString(h.Sum(nil))[:jobRefLen]
}

// verdictDigest hashes every device's powersig verdicts in device
// order, with full float precision.
func verdictDigest(verdicts [][]powersig.Verdict) string {
	var b []byte
	for i, vs := range verdicts {
		b = fmt.Appendf(b, "device %d\n", i)
		for _, v := range vs {
			b = fmt.Appendf(b, "%d %v %s %s\n", v.UID, v.Anomalous,
				strconv.FormatFloat(v.LiveMeanMW, 'g', -1, 64),
				strconv.FormatFloat(v.TrainedMeanMW, 'g', -1, 64))
		}
	}
	return digest(b)
}

// jobGate checks every fetched artifact set: against the reference
// digest of its key, and against the first bytes this run fetched for
// the same key, so a cached answer that differs from its cold run
// fails even for a key the reference lacks.
type jobGate struct {
	ref   map[string]string
	mu    sync.Mutex
	first map[string]string
}

func newJobGate(ref *reference) *jobGate {
	return &jobGate{ref: ref.Jobs, first: map[string]string{}}
}

// check returns a description of the first violation, or "".
func (g *jobGate) check(key string, cached bool, files map[string][]byte) string {
	if len(files) == 0 {
		return fmt.Sprintf("job %s: no artifacts", key[:12])
	}
	d := artifactDigest(files)
	g.mu.Lock()
	defer g.mu.Unlock()
	if want, ok := g.ref[key[:jobRefLen]]; ok && want != d {
		return fmt.Sprintf("job %s (cached=%v): artifact digest %s, reference %s", key[:12], cached, d, want)
	}
	if prev, ok := g.first[key]; ok && prev != d {
		return fmt.Sprintf("job %s (cached=%v): artifact digest %s differs from this run's earlier %s", key[:12], cached, d, prev)
	}
	g.first[key] = d
	return ""
}

// writeReference regenerates the reference digests at DefaultSeed: batch
// 0 of each fleet workload at the configured size, and the artifacts of
// every job spec in the universe, run through a jobs manager directly.
func writeReference(cfg config) error {
	cfg.seed = DefaultSeed
	ref := &reference{Fleet: map[string]string{}, Jobs: map[string]string{}}
	for _, w := range []fleetWorkload{populationWorkload, powersigWorkload} {
		b := newBatch(0, w.devices(cfg), cfg.seed, legMode{})
		o, err := runBatch(config{}, w, b, cfg.workers)
		if err != nil {
			return err
		}
		if s := o.fr.Summary; s.Failed > 0 || s.Violations > 0 {
			return fmt.Errorf("%s: %d failed devices, %d violations", w.name, s.Failed, s.Violations)
		}
		ref.Fleet[fleetRefKey(w.name, b.devices, cfg.seed, "summary")] = digest([]byte(o.fr.Summary.Render(b.seed)))
		ref.Fleet[fleetRefKey(w.name, b.devices, cfg.seed, "verdicts")] = verdictDigest(b.verdicts)
	}
	universe := jobUniverse(cfg.jobsUniverse)
	m := jobs.NewManager(jobs.Options{QueueDepth: len(universe)})
	defer m.Close()
	submitted := make([]*jobs.Job, len(universe))
	for i, s := range universe {
		j, err := m.Submit(s)
		if err != nil {
			return err
		}
		submitted[i] = j
	}
	for _, j := range submitted {
		<-j.Done()
		arts, ok := j.Artifacts()
		if !ok {
			return fmt.Errorf("job %s (%s %s) did not finish: %s", j.ID, j.Spec.Kind, j.Spec.Cell, j.Status().Error)
		}
		ref.Jobs[j.Key[:jobRefLen]] = artifactDigest(arts.Files)
	}
	return ref.save(cfg.refPath)
}
