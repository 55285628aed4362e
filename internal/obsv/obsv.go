// Package obsv is the simulation's live observability plane, layered
// over the telemetry recorder (PR 2), the fleet runner (PR 1) and the
// check subsystem (PR 3):
//
//   - Server: an HTTP surface (stdlib net/http only) exposing the
//     latest telemetry snapshot in Prometheus text exposition format,
//     health/readiness probes, net/http/pprof, watchdog findings and
//     trace summaries as JSON plus server-sent-events streams, and the
//     energy flame graph.
//   - FlameCollector / Flame: folds the meter's attribution stream
//     into Brendan Gregg collapsed stacks ("component;app;entity"
//     weighted by joules) and a self-contained HTML icicle report.
//   - Watchdog: a rolling-window drain-anomaly detector flagging
//     per-UID drain-rate spikes and collateral-vs-direct divergence —
//     the paper's esDiagnose signal — as structured telemetry events,
//     log lines and an SSE channel.
//   - LogHandler: a deterministic log/slog handler stamped with
//     virtual time.
//
// The split of responsibilities mirrors the rest of the repo: the
// simulation side stays single-goroutine and deterministic (collector,
// watchdog and log output are byte-identical run-to-run and across
// fleet worker counts), while the server holds only immutable published
// values and may be hit from any number of request goroutines.
package obsv
