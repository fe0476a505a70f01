//! Server-wide metric registry (lock-free counters and gauges).
//!
//! One [`ServerMetrics`] instance is shared by every connection handler,
//! the admission gate, the compile cache, and the session table. All
//! fields but two are relaxed atomics — the registry is on the request
//! hot path and never blocks. [`ServerMetrics::snapshot`] converts the
//! registry into the workspace's standard [`MetricsSnapshot`] form, so
//! server metrics flow through the same JSON export (`stats`,
//! `--emit-metrics`) as the compile-flow and virtual-GPU families.
//!
//! Reconciliation invariants (asserted by the integration tests and
//! documented in `docs/OBSERVABILITY.md`):
//!
//! * `jobs_submitted = jobs_completed + jobs_rejected` once no job is
//!   running or waiting (a job that panics still completes),
//! * `cache_lookups = cache_hits + cache_misses`,
//! * `sessions_opened = sessions_active + sessions_closed +
//!   sessions_evicted`.

use crate::lock;
use gem_telemetry::{Histogram, MetricFamily, MetricKind, MetricsSnapshot, Sample};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Shared atomic counters/gauges for one server instance.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections accepted over the server's lifetime.
    pub connections_total: AtomicU64,
    /// Currently open connections.
    pub connections_active: AtomicU64,
    /// Connections accepted and then dropped unserved because no handler
    /// thread could be spawned for them.
    pub connections_dropped: AtomicU64,
    /// Requests dispatched, all commands.
    pub requests_total: AtomicU64,
    /// Sessions opened.
    pub sessions_opened: AtomicU64,
    /// Sessions closed by the client.
    pub sessions_closed: AtomicU64,
    /// Sessions evicted by the idle reaper.
    pub sessions_evicted: AtomicU64,
    /// Currently live sessions.
    pub sessions_active: AtomicU64,
    /// Sessions opened with more than one lane (batch sessions).
    pub batch_sessions: AtomicU64,
    /// Total stimulus lanes across currently live sessions (a
    /// single-lane session contributes 1, a full batch session 64).
    pub lanes_active: AtomicU64,
    /// Heavy requests that arrived at the admission gate (admitted or
    /// not).
    pub jobs_submitted: AtomicU64,
    /// Admitted jobs that ended, by returning or by unwinding.
    pub jobs_completed: AtomicU64,
    /// Jobs rejected with backpressure (queue full or shutting down).
    pub jobs_rejected: AtomicU64,
    /// Rejections whose reason was a full queue (`retry_after_ms` was
    /// attached to the BUSY response).
    pub rejected_queue_full: AtomicU64,
    /// Rejections whose reason was server shutdown.
    pub rejected_shutting_down: AtomicU64,
    /// Callers currently waiting at the gate for a slot.
    pub queue_depth: AtomicU64,
    /// Cache lookups (each `get_or_compile` call counts once).
    pub cache_lookups: AtomicU64,
    /// Lookups served from cache (including waits on an in-flight
    /// compile of the same design).
    pub cache_hits: AtomicU64,
    /// Lookups that compiled (or failed to compile) the design.
    pub cache_misses: AtomicU64,
    /// Entries dropped by LRU eviction.
    pub cache_evictions: AtomicU64,
    /// Resident cache entries.
    pub cache_entries: AtomicU64,
    /// Designs actually compiled (excludes cache hits).
    pub compiles_total: AtomicU64,
    /// Compiles rejected by the static bitstream verifier (the failing
    /// artifact is negatively cached, never served).
    pub verify_failures: AtomicU64,
    /// Compiles rejected by the static analyzer (negatively cached like
    /// verify failures).
    pub analyze_failures: AtomicU64,
    /// Summed wait+execution latency of completed jobs, microseconds,
    /// each measured from its arrival at the gate.
    pub job_latency_micros: AtomicU64,
    /// Simulated cycles executed on behalf of all sessions.
    pub cycles_total: AtomicU64,
    /// Per-request wall-clock latency distribution, microseconds
    /// (measured around `dispatch` on the connection thread): a
    /// log-bucketed histogram behind a mutex held only for the O(1)
    /// observe/merge.
    pub request_latency_micros: Mutex<Histogram>,
    /// Requests whose handler panicked, by command; the client got a
    /// typed `internal` error. Only commands the dispatcher knows can
    /// panic, so a client cannot grow the label set.
    pub panics: Mutex<BTreeMap<String, u64>>,
}

/// Relaxed increment helper: all metrics are monotonic or
/// gauge-adjusted, never used for synchronization.
pub(crate) fn inc(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

/// Relaxed add helper.
pub(crate) fn add(c: &AtomicU64, v: u64) {
    c.fetch_add(v, Ordering::Relaxed);
}

/// Relaxed store helper (gauges only).
pub(crate) fn set(c: &AtomicU64, v: u64) {
    c.store(v, Ordering::Relaxed);
}

/// Relaxed subtract helper (gauges only).
pub(crate) fn dec(c: &AtomicU64) {
    c.fetch_sub(1, Ordering::Relaxed);
}

/// Relaxed multi-step subtract helper (gauges only).
pub(crate) fn sub(c: &AtomicU64, v: u64) {
    c.fetch_sub(v, Ordering::Relaxed);
}

impl ServerMetrics {
    fn get(c: &AtomicU64) -> f64 {
        c.load(Ordering::Relaxed) as f64
    }

    /// Records one request's wall-clock latency.
    pub fn observe_request_latency(&self, micros: f64) {
        lock(&self.request_latency_micros).observe(micros);
    }

    /// Counts one request of command `cmd` that ended in a panic.
    pub fn count_panic(&self, cmd: &str) {
        *lock(&self.panics).entry(cmd.to_string()).or_default() += 1;
    }

    /// The backoff hint sent with `busy`: the mean completed-job latency
    /// so far, clamped to [1, 1000] ms; 10 ms with no history.
    pub fn retry_after_ms(&self) -> u64 {
        let done = self.jobs_completed.load(Ordering::Relaxed);
        if done == 0 {
            return 10;
        }
        (self.job_latency_micros.load(Ordering::Relaxed) / done / 1000).clamp(1, 1000)
    }

    /// Exports every family under the `gem_server_` prefix.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        let mut c = |name: &str, help: &str, v: &AtomicU64| {
            s.push_scalar(name, help, MetricKind::Counter, Self::get(v));
        };
        c(
            "gem_server_connections_total",
            "Connections accepted",
            &self.connections_total,
        );
        c(
            "gem_server_connections_dropped_total",
            "Connections dropped because no handler thread could be spawned",
            &self.connections_dropped,
        );
        c(
            "gem_server_requests_total",
            "Requests dispatched",
            &self.requests_total,
        );
        c(
            "gem_server_sessions_opened_total",
            "Sessions opened",
            &self.sessions_opened,
        );
        c(
            "gem_server_sessions_closed_total",
            "Sessions closed by clients",
            &self.sessions_closed,
        );
        c(
            "gem_server_sessions_evicted_total",
            "Sessions evicted after idle timeout",
            &self.sessions_evicted,
        );
        c(
            "gem_server_batch_sessions_total",
            "Sessions opened with more than one lane",
            &self.batch_sessions,
        );
        c(
            "gem_server_jobs_submitted_total",
            "Heavy requests that arrived at the admission gate",
            &self.jobs_submitted,
        );
        c(
            "gem_server_jobs_completed_total",
            "Admitted jobs that ended (returned or unwound)",
            &self.jobs_completed,
        );
        c(
            "gem_server_jobs_rejected_total",
            "Jobs rejected with backpressure",
            &self.jobs_rejected,
        );
        c(
            "gem_server_cache_lookups_total",
            "Compile-cache lookups",
            &self.cache_lookups,
        );
        c(
            "gem_server_cache_hits_total",
            "Compile-cache hits",
            &self.cache_hits,
        );
        c(
            "gem_server_cache_misses_total",
            "Compile-cache misses",
            &self.cache_misses,
        );
        c(
            "gem_server_cache_evictions_total",
            "Compile-cache LRU evictions",
            &self.cache_evictions,
        );
        c(
            "gem_server_compiles_total",
            "Designs compiled (cache misses that ran the flow)",
            &self.compiles_total,
        );
        c(
            "gem_server_verify_failures_total",
            "Compiles rejected by the static bitstream verifier",
            &self.verify_failures,
        );
        c(
            "gem_server_analyze_failures_total",
            "Compiles rejected by the static analyzer",
            &self.analyze_failures,
        );
        c(
            "gem_server_job_latency_micros_total",
            "Summed wait+execution latency of completed jobs (us)",
            &self.job_latency_micros,
        );
        c(
            "gem_server_cycles_total",
            "Simulated cycles executed for all sessions",
            &self.cycles_total,
        );
        // Same rejections refined by reason, as one labeled family.
        s.push(MetricFamily {
            name: "gem_server_rejected_total".to_string(),
            help: "Backpressure rejections by reason (responses carrying retry_after_ms)"
                .to_string(),
            kind: MetricKind::Counter,
            samples: vec![
                Sample {
                    labels: vec![("reason".to_string(), "queue_full".to_string())],
                    value: Self::get(&self.rejected_queue_full),
                },
                Sample {
                    labels: vec![("reason".to_string(), "shutting_down".to_string())],
                    value: Self::get(&self.rejected_shutting_down),
                },
            ],
        });
        s.push(MetricFamily {
            name: "gem_server_panics_total".to_string(),
            help: "Requests whose handler panicked (answered with a typed internal error)"
                .to_string(),
            kind: MetricKind::Counter,
            samples: lock(&self.panics)
                .iter()
                .map(|(cmd, &n)| Sample {
                    labels: vec![("cmd".to_string(), cmd.clone())],
                    value: n as f64,
                })
                .collect(),
        });
        let mut g = |name: &str, help: &str, v: &AtomicU64| {
            s.push_scalar(name, help, MetricKind::Gauge, Self::get(v));
        };
        g(
            "gem_server_connections_active",
            "Currently open connections",
            &self.connections_active,
        );
        g(
            "gem_server_sessions_active",
            "Currently live sessions",
            &self.sessions_active,
        );
        g(
            "gem_server_lanes_active",
            "Total stimulus lanes across live sessions",
            &self.lanes_active,
        );
        g(
            "gem_server_queue_depth",
            "Callers waiting at the admission gate",
            &self.queue_depth,
        );
        g(
            "gem_server_cache_entries",
            "Resident compile-cache entries",
            &self.cache_entries,
        );
        s.push_histogram(
            "gem_server_request_latency_micros",
            "Per-request wall-clock latency (us) with p50/p95/p99 quantiles",
            &lock(&self.request_latency_micros),
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value of `family`'s one sample labeled `label = value`.
    fn labeled(s: &MetricsSnapshot, family: &str, label: (&str, &str)) -> f64 {
        let fam = s.family(family).expect("family exported");
        let mut hits = fam.samples.iter().filter(|smp| {
            smp.labels
                .iter()
                .any(|(k, v)| (k.as_str(), v.as_str()) == label)
        });
        let hit = hits.next().expect("sample exported");
        assert!(hits.next().is_none(), "one sample per label value");
        hit.value
    }

    #[test]
    fn snapshot_exports_all_families() {
        let m = ServerMetrics::default();
        inc(&m.requests_total);
        add(&m.cycles_total, 41);
        inc(&m.cycles_total);
        let s = m.snapshot();
        assert_eq!(s.family("gem_server_requests_total").unwrap().total(), 1.0);
        assert_eq!(s.family("gem_server_cycles_total").unwrap().total(), 42.0);
        assert!(s.family("gem_server_queue_depth").is_some());
        let active = s.family("gem_server_sessions_active").unwrap();
        assert_eq!(active.kind, MetricKind::Gauge);
    }

    #[test]
    fn rejection_reasons_export_as_one_labeled_family() {
        let m = ServerMetrics::default();
        inc(&m.rejected_queue_full);
        inc(&m.rejected_queue_full);
        inc(&m.rejected_shutting_down);
        let s = m.snapshot();
        let fam = s.family("gem_server_rejected_total").unwrap();
        assert_eq!(fam.total(), 3.0);
        let reason = |r| labeled(&s, "gem_server_rejected_total", ("reason", r));
        assert_eq!(reason("queue_full"), 2.0);
        assert_eq!(reason("shutting_down"), 1.0);
    }

    #[test]
    fn panics_export_per_command_and_the_family_exists_at_zero() {
        let m = ServerMetrics::default();
        let fam = |m: &ServerMetrics| m.snapshot().family("gem_server_panics_total").cloned();
        assert_eq!(fam(&m).expect("exported before any panic").total(), 0.0);
        m.count_panic("step");
        m.count_panic("step");
        m.count_panic("compile");
        assert_eq!(fam(&m).expect("exported").total(), 3.0);
        let s = m.snapshot();
        assert_eq!(labeled(&s, "gem_server_panics_total", ("cmd", "step")), 2.0);
        assert_eq!(
            labeled(&s, "gem_server_panics_total", ("cmd", "compile")),
            1.0
        );
    }

    #[test]
    fn request_latency_quantiles_appear_in_snapshot() {
        let m = ServerMetrics::default();
        for v in [100.0, 200.0, 400.0, 800.0, 10_000.0] {
            m.observe_request_latency(v);
        }
        let s = m.snapshot();
        let fam = s.family("gem_server_request_latency_micros").unwrap();
        for q in ["0.5", "0.95", "0.99"] {
            assert!(
                fam.samples
                    .iter()
                    .any(|smp| smp.labels.iter().any(|(k, v)| k == "quantile" && v == q)),
                "missing p{q}"
            );
        }
        let latency = "gem_server_request_latency_micros";
        assert_eq!(labeled(&s, latency, ("agg", "count")), 5.0);
        assert_eq!(labeled(&s, latency, ("le", "+Inf")), 5.0);
    }
}
