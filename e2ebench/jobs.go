package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/jobs"
)

// jobHorizon is every universe spec's simulated span: the corpus
// minimum, so a cold job costs milliseconds, not seconds.
const jobHorizon = time.Hour

// zipfS is the Zipf exponent of the request draw over universe ranks.
// Over an epoch of 2048 requests it makes about four in five requests
// repeat an earlier spec; each run reports its measured hit share.
const zipfS = 1.1

// jobUniverse is the fixed set of job specs requests are drawn from:
// all three kinds over all 16 corpus cells, with small device and rep
// counts and per-round spec seeds. Spec u never depends on n, so a
// smaller universe is a prefix of a larger one.
func jobUniverse(n int) []jobs.Spec {
	cells := corpus.Cells()
	out := make([]jobs.Spec, n)
	for u := range out {
		round := u / (len(jobKinds) * len(cells))
		s := jobs.Spec{
			Kind:    jobKinds[u%len(jobKinds)],
			Cell:    cells[(u/len(jobKinds))%len(cells)].String(),
			Seed:    int64(round + 1),
			Horizon: jobs.Duration(jobHorizon),
		}
		switch s.Kind {
		case jobs.KindFleet:
			s.Devices = 2 + round%3
		case jobs.KindCorpus:
			s.Reps = 2 + round%2
		}
		out[u] = s
	}
	return out
}

// simDevices is how many devices a spec simulates when it runs cold.
func simDevices(s jobs.Spec) int {
	switch s.Kind {
	case jobs.KindFleet:
		return s.Devices
	case jobs.KindCorpus:
		return s.Reps
	}
	return 1
}

// requestStream is the seeded request sequence of one epoch. Ranks are
// Zipf-distributed; rank r maps to kind r mod 3 and to a seeded
// permutation of that kind's specs, so every seed puts the same mix of
// kinds on the hot ranks. It hands out requests in order to whichever
// client asks next, and runs dry after limit requests.
type requestStream struct {
	mu    sync.Mutex
	zipf  *rand.Zipf
	perm  [][]int // per kind: spec order within the kind
	n     int
	limit int
}

func newRequestStream(seed int64, universe, limit int) *requestStream {
	rng := rand.New(rand.NewSource(seed))
	perm := make([][]int, len(jobKinds))
	for k := range perm {
		perm[k] = rng.Perm((universe - k + len(jobKinds) - 1) / len(jobKinds))
	}
	return &requestStream{
		perm:  perm,
		zipf:  rand.NewZipf(rng, zipfS, 1, uint64(universe-1)),
		limit: limit,
	}
}

// next returns the request's sequence number and universe index, or
// ok=false once the epoch's requests are all handed out.
func (s *requestStream) next() (seq, u int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == s.limit {
		return 0, 0, false
	}
	s.n++
	r := int(s.zipf.Uint64())
	k := r % len(jobKinds)
	return s.n, len(jobKinds)*s.perm[k][r/len(jobKinds)] + k, true
}

// jobServer is an in-process jobs plane at its default options behind
// a loopback HTTP listener.
type jobServer struct {
	m    *jobs.Manager
	srv  *http.Server
	base string
	done chan error
}

func startJobServer() (*jobServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m := jobs.NewManager(jobs.Options{})
	mux := http.NewServeMux()
	jobs.Register(mux, m)
	s := &jobServer{m: m, srv: &http.Server{Handler: mux}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop closes the manager (ending every job's event stream) and then
// the server, and waits for Serve to return.
func (s *jobServer) stop() error {
	s.m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// jobRecord is one request as its client saw it. Times are measured
// from the moment the POST was sent.
type jobRecord struct {
	kind      string
	key       string
	cached    bool
	ok        bool
	duplicate bool
	total     time.Duration // POST sent → last artifact byte
	admit     time.Duration // POST round trip
	queueWait time.Duration // POST answered → "running" state frame
	run       time.Duration // "running" → terminal state frame
	hasRun    bool
	fetch     time.Duration // terminal frame → last artifact byte
	bytes     int
	devices   int     // devices simulated (cold requests)
	simHours  float64 // device-hours simulated (cold requests)
	events    float64 // engine events fired (cold fleet/scenario requests)
	problem   string  // a correctness-gate violation
	err       error   // a failed or refused request
}

// client is one closed-loop user: it sends its next request only when
// the previous one has been answered in full. Each client owns one
// connection pool, so the server sees at most one connection per
// client at a time.
type client struct {
	hc       *http.Client
	base     string
	rec      *recorder
	gate     *jobGate
	inflight *inflight
}

// inflight tracks keys whose cold run has not finished, to count
// duplicate cold runs of one key.
type inflight struct {
	mu   sync.Mutex
	keys map[string]int
}

func (f *inflight) start(key string) (duplicate bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	duplicate = f.keys[key] > 0
	f.keys[key]++
	return duplicate
}

func (f *inflight) end(key string) {
	f.mu.Lock()
	f.keys[key]--
	f.mu.Unlock()
}

func newClient(base string, rec *recorder, gate *jobGate, f *inflight) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, base: base, rec: rec, gate: gate, inflight: f}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do runs one request end to end: POST the spec, follow its event
// stream to a terminal state, list the artifacts and fetch each.
func (c *client) do(id string, spec jobs.Spec) jobRecord {
	rec := jobRecord{kind: spec.Kind}
	t0 := time.Now()
	// tree is the request's span tree, rooted at the whole request.
	var tree []span
	if c.rec != nil {
		tree = []span{{ID: id, Layer: "jobs", Name: "job", Start: c.rec.at(t0), Parent: -1}}
		defer func() {
			tree[0].End = c.rec.now()
			c.rec.addTree(tree)
		}()
	}
	child := func(layer, name string, from, to time.Time) {
		if c.rec != nil {
			tree = append(tree, span{ID: id, Layer: layer, Name: name, Start: c.rec.at(from), End: c.rec.at(to), Parent: 0})
		}
	}

	body, _ := json.Marshal(spec) // a Spec always marshals
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return rec
	}
	var st jobs.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	tAdmit := time.Now()
	child("http", "http.post", t0, tAdmit)
	rec.admit = tAdmit.Sub(t0)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		rec.err = fmt.Errorf("refused: 429")
		return rec
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		rec.err = fmt.Errorf("POST /jobs: HTTP %d", resp.StatusCode)
		return rec
	case err != nil:
		rec.err = fmt.Errorf("POST /jobs: %w", err)
		return rec
	}
	rec.key, rec.cached = st.Key, st.Cached
	if !rec.cached {
		rec.duplicate = c.inflight.start(rec.key)
		defer c.inflight.end(rec.key)
	}

	state, tRun, tDone, err := c.follow(st.ID)
	if err != nil {
		rec.err = err
		return rec
	}
	if state != jobs.StateDone {
		rec.err = fmt.Errorf("job %s ended %s", st.ID, state)
		return rec
	}
	if !tRun.IsZero() {
		rec.hasRun = true
		rec.queueWait = tRun.Sub(tAdmit)
		rec.run = tDone.Sub(tRun)
		child("jobs", "jobs.queued", tAdmit, tRun)
		child("jobs", "jobs.running", tRun, tDone)
	}

	files, err := c.fetchAll(st.ID)
	tEnd := time.Now()
	if err != nil {
		rec.err = err
		return rec
	}
	child("http", "http.fetch", tDone, tEnd)
	rec.total, rec.fetch = tEnd.Sub(t0), tEnd.Sub(tDone)
	for _, b := range files {
		rec.bytes += len(b)
	}
	if !rec.cached {
		rec.devices = simDevices(spec)
		rec.simHours = float64(rec.devices) * jobHorizon.Hours()
		rec.events = promCounter(files["metrics.prom"], "sim_events_fired")
	}
	rec.problem = c.gate.check(rec.key, rec.cached, files)
	rec.ok = true
	return rec
}

// follow reads the job's SSE stream until a terminal state frame,
// returning that state and when the "running" and terminal frames
// arrived (tRun is zero when the job was never seen running, as for a
// cache hit). A stream that ends first is resolved with GET /jobs/{id}.
func (c *client) follow(id string) (state string, tRun, tDone time.Time, err error) {
	resp, err := c.hc.Get(c.base + "/jobs/" + id + "/events")
	if err != nil {
		return "", tRun, tDone, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", tRun, tDone, fmt.Errorf("GET events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || event != "job" {
			continue
		}
		var f struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal([]byte(data), &f); err != nil {
			return "", tRun, tDone, fmt.Errorf("state frame: %w", err)
		}
		now := time.Now()
		switch f.State {
		case jobs.StateRunning:
			if tRun.IsZero() {
				tRun = now
			}
		case jobs.StateDone, jobs.StateFailed, jobs.StateCanceled:
			return f.State, tRun, now, nil
		}
	}
	// The job finished between the handler's first frame and its
	// subscription; the stream closed without a terminal frame.
	var st jobs.Status
	if err := c.getJSON("/jobs/"+id, &st); err != nil {
		return "", tRun, tDone, err
	}
	return st.State, tRun, time.Now(), nil
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// fetchAll lists the job's artifacts and downloads every one.
func (c *client) fetchAll(id string) (map[string][]byte, error) {
	var names []string
	if err := c.getJSON("/jobs/"+id+"/artifacts", &names); err != nil {
		return nil, err
	}
	files := make(map[string][]byte, len(names))
	for _, n := range names {
		resp, err := c.hc.Get(c.base + "/jobs/" + id + "/artifacts/" + n)
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET artifact %s: HTTP %d", n, resp.StatusCode)
		}
		files[n] = b
	}
	return files, nil
}

// promCounter reads one counter from a Prometheus text artifact by
// name suffix; 0 when absent.
func promCounter(text []byte, suffix string) float64 {
	for _, line := range strings.Split(string(text), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || !strings.HasSuffix(name, suffix) {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err == nil {
			return v
		}
	}
	return 0
}

// epoch is one pass of the seeded request sequence against a fresh
// server with an empty cache. Every complete epoch of a run carries the
// same requests, so per-epoch figures are like for like, and the hit
// share does not depend on how fast the host is.
type epoch struct {
	records  []jobRecord
	complete bool
	wall     time.Duration
	alloc    float64
	cache    jobs.CacheStats
	rejected float64
}

// runEpoch replays the first cfg.epochRequests requests of the seeded
// sequence with cfg.workers closed-loop clients. Clients stop early at
// deadline (zero = never), leaving the epoch incomplete.
func runEpoch(cfg config, gate *jobGate, rec *recorder, e int, deadline time.Time) (*epoch, error) {
	srv, err := startJobServer()
	if err != nil {
		return nil, err
	}
	universe := jobUniverse(cfg.jobsUniverse)
	stream := newRequestStream(cfg.seed, len(universe), cfg.epochRequests)
	f := &inflight{keys: map[string]int{}}
	per := make([][]jobRecord, cfg.workers)
	a0 := allocBytes()
	start := time.Now()
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient(srv.base, rec, gate, f)
			defer c.close()
			for deadline.IsZero() || time.Now().Before(deadline) {
				seq, u, ok := stream.next()
				if !ok {
					return
				}
				per[w] = append(per[w], c.do(fmt.Sprintf("e%d/r%d", e, seq), universe[u]))
			}
		}(w)
	}
	wg.Wait()
	ep := &epoch{wall: time.Since(start), alloc: allocBytes() - a0, cache: srv.m.CacheStats()}
	for _, c := range srv.m.Snapshot().Counters {
		if c.Name == "jobs.rejected" {
			ep.rejected = c.Value
		}
	}
	for _, p := range per {
		ep.records = append(ep.records, p...)
	}
	ep.complete = len(ep.records) == cfg.epochRequests
	return ep, srv.stop()
}

// jobsLeg is one measured stretch: epochs until the time is spent. The
// first epoch always runs to completion; a later one cut off by the
// deadline is gate-checked and counted but not timed.
type jobsLeg struct {
	epochs []*epoch // complete epochs
	all    []jobRecord
}

func runJobsLeg(cfg config, gate *jobGate, seconds float64, rec *recorder) (*jobsLeg, error) {
	l := &jobsLeg{}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for e := 0; e == 0 || time.Now().Before(deadline); e++ {
		var dl time.Time
		if e > 0 {
			dl = deadline
		}
		ep, err := runEpoch(cfg, gate, rec, e, dl)
		if err != nil {
			return nil, err
		}
		l.all = append(l.all, ep.records...)
		if ep.complete {
			l.epochs = append(l.epochs, ep)
		}
	}
	return l, nil
}

// timed returns the records of the complete epochs.
func (l *jobsLeg) timed() []jobRecord {
	var out []jobRecord
	for _, ep := range l.epochs {
		out = append(out, ep.records...)
	}
	return out
}

// perEpoch is the median over complete epochs of f.
func (l *jobsLeg) perEpoch(f func(*epoch) float64) float64 {
	xs := make([]float64, len(l.epochs))
	for i, ep := range l.epochs {
		xs[i] = f(ep)
	}
	return median(xs)
}

// sum adds f over the complete epochs.
func (l *jobsLeg) sum(f func(*epoch) float64) float64 {
	var t float64
	for _, ep := range l.epochs {
		t += f(ep)
	}
	return t
}

func okCount(recs []jobRecord) float64 {
	n := 0
	for _, rec := range recs {
		if rec.ok {
			n++
		}
	}
	return float64(n)
}

func coldDevices(recs []jobRecord) (devices int, simH float64) {
	for _, rec := range recs {
		if rec.ok && !rec.cached {
			devices += rec.devices
			simH += rec.simHours
		}
	}
	return devices, simH
}

// setupJobs times what a run pays before its first request: starting
// the manager and listener and warming every kind × cell code path with
// one cold job each. The warm-up specs (seed 0) lie outside the
// universe. Repeated setupReps times; setup_s is the median.
func setupJobs(cfg config, gate *jobGate) (float64, error) {
	var warm []jobs.Spec
	for _, s := range jobUniverse(len(jobKinds) * len(corpus.Cells())) {
		s.Seed = 0
		warm = append(warm, s)
	}
	times := make([]float64, cfg.setupReps)
	for r := range times {
		start := time.Now()
		srv, err := startJobServer()
		if err != nil {
			return 0, err
		}
		c := newClient(srv.base, nil, gate, &inflight{keys: map[string]int{}})
		for _, s := range warm {
			if rec := c.do("warm", s); rec.err != nil && err == nil {
				err = rec.err
			}
		}
		times[r] = time.Since(start).Seconds()
		c.close()
		if serr := srv.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
	}
	return median(times), nil
}

func runJobsZipf(cfg config, ref *reference) (*result, error) {
	r := &result{Metrics: map[string]metric{}, Traffic: map[string]any{}}
	gate := newJobGate(ref)
	setup, err := setupJobs(cfg, gate)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		l, err := runJobsLeg(cfg, gate, cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		setJobsEndToEnd(r, l, setup)
		countJobs(r, l)
		jobsTraffic(r, l)
		return r, nil
	}
	zeroPerLayer(r)
	base, err := runJobsLeg(cfg, gate, cfg.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(spanKeepRequests)
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	l, err := runJobsLeg(cfg, gate, cfg.seconds/2, rec)
	gcCycles, perr := prof.stop(r)
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	countJobs(r, base)
	countJobs(r, l)
	jobsTraffic(r, l)
	setJobsLayers(r, l, gcCycles)
	r.set("trace.overhead_pct", 100*(jobsPerS(base)/jobsPerS(l)-1))
	r.Workload = "jobs-zipf"
	return r, setTraceMetrics(r, cfg, rec)
}

// spanKeepRequests keeps one request in this many in the span file;
// every request counts toward the per-layer figures.
const spanKeepRequests = 4

// jobsPerS is the median over epochs of completed requests per second.
func jobsPerS(l *jobsLeg) float64 {
	return l.perEpoch(func(ep *epoch) float64 { return ratio(okCount(ep.records), ep.wall.Seconds()) })
}

func setJobsEndToEnd(r *result, l *jobsLeg, setup float64) {
	var hit, cold []float64
	recs := l.timed()
	for _, rec := range recs {
		if !rec.ok {
			continue
		}
		ms := float64(rec.total.Nanoseconds()) / 1e6
		if rec.cached {
			hit = append(hit, ms)
		} else {
			cold = append(cold, ms)
		}
	}
	devices, _ := coldDevices(recs)
	alloc := l.sum(func(ep *epoch) float64 { return ep.alloc })
	r.set("device_sim_hours_per_s", l.perEpoch(func(ep *epoch) float64 {
		_, simH := coldDevices(ep.records)
		return ratio(simH, ep.wall.Seconds())
	}))
	r.set("alloc_kb_per_device", ratio(alloc, float64(devices))/1024)
	r.set("jobs_per_s", jobsPerS(l))
	r.set("hit_job_p50_ms", median(hit))
	r.set("cold_job_p50_ms", median(cold))
	r.set("cold_job_p90_ms", quantile(cold, 0.9))
	r.set("alloc_kb_per_job", ratio(alloc, okCount(recs))/1024)
	r.set("setup_s", setup)
}

// countJobs adds a leg's requests to attempted/failed and records gate
// problems. A refused (429), failed or gate-violating request counts as
// failed.
func countJobs(r *result, l *jobsLeg) {
	for _, rec := range l.all {
		r.Attempted++
		switch {
		case rec.err != nil:
			r.Failed++
			r.fail("request failed: %v", rec.err)
		case rec.problem != "":
			r.Failed++
			r.fail("%s", rec.problem)
		}
	}
	if len(r.Problems) > 10 {
		r.Problems = append(r.Problems[:10], fmt.Sprintf("… and %d more", len(r.Problems)-10))
	}
}

func setJobsLayers(r *result, l *jobsLeg, gcCycles float64) {
	var admit, fetch, hit []float64
	wait := map[string][]float64{}
	run := map[string][]float64{}
	var bytesTotal float64
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	recs := l.timed()
	dup := 0
	for _, rec := range recs {
		if !rec.ok {
			continue
		}
		admit = append(admit, ms(rec.admit))
		fetch = append(fetch, ms(rec.fetch))
		bytesTotal += float64(rec.bytes)
		if rec.duplicate {
			dup++
		}
		if rec.cached {
			hit = append(hit, ms(rec.total))
		} else if rec.hasRun {
			wait[rec.kind] = append(wait[rec.kind], ms(rec.queueWait))
			run[rec.kind] = append(run[rec.kind], ms(rec.run))
		}
	}
	n := okCount(recs)
	epochs := float64(len(l.epochs))
	devices, _ := coldDevices(l.all)
	r.set("jobs.admit_ms", median(admit))
	r.set("jobs.fetch_ms", median(fetch))
	r.set("jobs.artifact_kb", ratio(bytesTotal, n)/1024)
	r.set("jobs.hit_p99_ms", quantile(hit, 0.99))
	r.set("jobs.hit_ratio", ratio(float64(len(hit)), n))
	for _, k := range jobKinds {
		r.set("jobs.queue_wait_p50_ms."+k, median(wait[k]))
		r.set("jobs.queue_wait_p90_ms."+k, quantile(wait[k], 0.9))
		r.set("jobs.run_p50_ms."+k, median(run[k]))
	}
	r.set("jobs.duplicate_runs", ratio(float64(dup), epochs))
	r.set("jobs.evictions", ratio(l.sum(func(ep *epoch) float64 { return float64(ep.cache.Evictions) }), epochs))
	r.set("jobs.rejected", ratio(l.sum(func(ep *epoch) float64 { return ep.rejected }), epochs))
	r.set("gc.cycles_per_kdevice", ratio(gcCycles, float64(devices)/1000))
}

// jobsTraffic records the measured input properties of one epoch (all
// complete epochs carry the same requests): hit share, distinct keys,
// duplicate in-flight runs, requests per kind, and engine events per
// device-sim-hour over the cold fleet and scenario runs.
func jobsTraffic(r *result, l *jobsLeg) {
	recs := l.epochs[0].records
	keys := map[string]bool{}
	kinds := map[string]int{}
	hits, dup := 0, 0
	var events, simH float64
	for _, rec := range recs {
		kinds[rec.kind]++
		if !rec.ok {
			continue
		}
		keys[rec.key] = true
		if rec.cached {
			hits++
		}
		if rec.duplicate {
			dup++
		}
		if rec.events > 0 {
			events += rec.events
			simH += rec.simHours
		}
	}
	r.Traffic["epochs"] = len(l.epochs)
	r.Traffic["requests_per_epoch"] = len(recs)
	r.Traffic["hit_share"] = ratio(float64(hits), okCount(recs))
	r.Traffic["distinct_keys"] = len(keys)
	r.Traffic["duplicate_inflight_runs"] = dup
	r.Traffic["requests_per_kind"] = kinds
	r.Traffic["events_per_dsh"] = ratio(events, simH)
	r.Traffic["cache_evictions"] = l.epochs[0].cache.Evictions
}
