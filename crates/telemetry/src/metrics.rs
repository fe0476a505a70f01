//! Label-oriented runtime metrics: snapshots and their JSON export.
//!
//! A [`MetricsSnapshot`] is a point-in-time set of metric families, each a
//! list of labeled samples, exported by [`MetricsSnapshot::to_json`]. The
//! families follow Prometheus' data model (counter, gauge, histogram;
//! `le` buckets), so the export maps onto it one to one. The virtual GPU
//! converts its per-partition/per-layer counters into this form; the
//! server keeps its own families in the same shape.

use crate::json::Json;

/// Metric family semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing total.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Log-bucketed distribution (see [`Histogram`]). Samples use the
    /// reserved labels `le` (cumulative bucket), `agg=sum`/`agg=count`
    /// (aggregates), and `quantile` (precomputed percentiles).
    Histogram,
}

impl MetricKind {
    fn prometheus_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Number of finite power-of-two bucket bounds (`2^0 … 2^40`); one more
/// overflow bucket catches everything larger. With microsecond
/// observations the last finite bound is ≈12.7 days.
pub const HISTOGRAM_BUCKETS: usize = 41;

/// A log-bucketed histogram: bucket *i* counts observations in
/// `(2^(i-1), 2^i]` (bucket 0 is `[0, 1]`), plus an overflow bucket.
///
/// Power-of-two bounds make [`merge`](Histogram::merge) a plain
/// element-wise add — associative and commutative, so per-thread or
/// per-session histograms can be combined in any order — while keeping
/// relative quantile error bounded by the bucket ratio (2×).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS + 1],
    sum: f64,
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: [0; HISTOGRAM_BUCKETS + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// The upper bound of finite bucket `i` (`2^i`).
    pub fn bucket_bound(i: usize) -> f64 {
        (1u64 << i) as f64
    }

    fn bucket_index(v: f64) -> usize {
        for i in 0..HISTOGRAM_BUCKETS {
            if v <= Self::bucket_bound(i) {
                return i;
            }
        }
        HISTOGRAM_BUCKETS
    }

    /// Records one observation. Negative and non-finite values clamp
    /// into the first/overflow bucket respectively.
    pub fn observe(&mut self, v: f64) {
        let v = if v.is_nan() { 0.0 } else { v.max(0.0) };
        self.counts[Self::bucket_index(v)] += 1;
        self.sum += if v.is_finite() { v } else { 0.0 };
        self.count += 1;
    }

    /// Folds `other` into `self` (element-wise bucket add).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated value at quantile `q` (0..=1), linearly interpolated
    /// inside the containing bucket. Returns 0 for an empty histogram;
    /// observations in the overflow bucket report the last finite bound.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut cum = 0u64;
        for i in 0..HISTOGRAM_BUCKETS {
            let n = self.counts[i];
            if n == 0 {
                continue;
            }
            if (cum + n) as f64 >= target {
                let lower = if i == 0 {
                    0.0
                } else {
                    Self::bucket_bound(i - 1)
                };
                let upper = Self::bucket_bound(i);
                let frac = (target - cum as f64) / n as f64;
                return lower + frac * (upper - lower);
            }
            cum += n;
        }
        Self::bucket_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Cumulative `(upper_bound, count ≤ bound)` pairs over the finite
    /// buckets, skipping leading empty ones, always ending with the
    /// overall count (the `+Inf` bucket).
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for i in 0..HISTOGRAM_BUCKETS {
            cum += self.counts[i];
            if self.counts[i] > 0 {
                out.push((Self::bucket_bound(i), cum));
            }
        }
        out.push((f64::INFINITY, self.count));
        out
    }
}

/// One labeled sample within a family.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Label set, e.g. `[("stage", "0"), ("core", "3")]`.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// A named metric with its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricFamily {
    /// Metric name (`gem_` prefix by convention).
    pub name: String,
    /// Human-readable description.
    pub help: String,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Labeled samples.
    pub samples: Vec<Sample>,
}

impl MetricFamily {
    /// Sum of all sample values.
    pub fn total(&self) -> f64 {
        self.samples.iter().map(|s| s.value).sum()
    }
}

/// A point-in-time collection of metric families.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All families in the snapshot.
    pub families: Vec<MetricFamily>,
}

impl MetricsSnapshot {
    /// Adds a family.
    pub fn push(&mut self, family: MetricFamily) {
        self.families.push(family);
    }

    /// Looks up a family by name.
    pub fn family(&self, name: &str) -> Option<&MetricFamily> {
        self.families.iter().find(|f| f.name == name)
    }

    /// Convenience: adds a single-sample unlabeled family.
    pub fn push_scalar(&mut self, name: &str, help: &str, kind: MetricKind, value: f64) {
        self.families.push(MetricFamily {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            samples: vec![Sample {
                labels: Vec::new(),
                value,
            }],
        });
    }

    /// Adds a histogram family: cumulative `le` buckets, `sum`/`count`
    /// aggregates, and precomputed p50/p95/p99 quantile samples.
    pub fn push_histogram(&mut self, name: &str, help: &str, hist: &Histogram) {
        let mut samples = Vec::new();
        for (bound, cum) in hist.cumulative_buckets() {
            let le = if bound.is_infinite() {
                "+Inf".to_string()
            } else {
                format!("{bound}")
            };
            samples.push(Sample {
                labels: vec![("le".to_string(), le)],
                value: cum as f64,
            });
        }
        samples.push(Sample {
            labels: vec![("agg".to_string(), "sum".to_string())],
            value: hist.sum(),
        });
        samples.push(Sample {
            labels: vec![("agg".to_string(), "count".to_string())],
            value: hist.count() as f64,
        });
        for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
            samples.push(Sample {
                labels: vec![("quantile".to_string(), label.to_string())],
                value: hist.quantile(q),
            });
        }
        self.families.push(MetricFamily {
            name: name.to_string(),
            help: help.to_string(),
            kind: MetricKind::Histogram,
            samples,
        });
    }

    /// Serializes the snapshot as JSON.
    pub fn to_json(&self) -> Json {
        let families: Vec<Json> = self
            .families
            .iter()
            .map(|f| {
                let samples: Vec<Json> = f
                    .samples
                    .iter()
                    .map(|s| {
                        let mut labels = Json::object();
                        for (k, v) in &s.labels {
                            labels.set(k, v.as_str());
                        }
                        let mut o = Json::object();
                        o.set("labels", labels);
                        o.set("value", s.value);
                        o
                    })
                    .collect();
                let mut o = Json::object();
                o.set("name", f.name.as_str());
                o.set("help", f.help.as_str());
                o.set("kind", f.kind.prometheus_name());
                o.set("samples", Json::Array(samples));
                o
            })
            .collect();
        let mut o = Json::object();
        o.set("families", Json::Array(families));
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        s.push_scalar(
            "gem_cycles_total",
            "Simulated cycles",
            MetricKind::Counter,
            7.0,
        );
        s.push(MetricFamily {
            name: "gem_alu_ops_total".into(),
            help: "Fold ALU operations".into(),
            kind: MetricKind::Counter,
            samples: vec![
                Sample {
                    labels: vec![("stage".into(), "0".into()), ("core".into(), "0".into())],
                    value: 10.0,
                },
                Sample {
                    labels: vec![("stage".into(), "0".into()), ("core".into(), "1".into())],
                    value: 5.0,
                },
            ],
        });
        s
    }

    #[test]
    fn family_total_sums_samples() {
        let s = snapshot();
        assert_eq!(s.family("gem_alu_ops_total").unwrap().total(), 15.0);
    }

    #[test]
    fn json_round_trip_parses() {
        let j = snapshot().to_json();
        let parsed = crate::json::parse(&j.to_string()).expect("parses");
        let fams = parsed.get("families").unwrap().as_array().unwrap();
        assert_eq!(fams.len(), 2);
    }

    /// Deterministic xorshift64 for property-style loops (no rand crate).
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    #[test]
    fn histogram_bucket_boundaries_bracket_every_observation() {
        // Property: each observed value lands in the first bucket whose
        // bound is >= it, and the previous bound (if any) is < it.
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..2000 {
            let v = (xorshift(&mut state) % (1u64 << 44)) as f64;
            let mut h = Histogram::new();
            h.observe(v);
            let cum = h.cumulative_buckets();
            let (bound, count) = cum[0];
            assert_eq!(count, 1);
            assert!(bound >= v || cum.len() == 1, "v={v} bound={bound}");
            if bound.is_finite() && bound > 1.0 {
                assert!(bound / 2.0 < v, "v={v} fell past its bucket ({bound})");
            }
        }
        // Exact powers of two are inclusive upper bounds.
        for i in 0..8 {
            let mut h = Histogram::new();
            h.observe(Histogram::bucket_bound(i));
            assert_eq!(h.cumulative_buckets()[0].0, Histogram::bucket_bound(i));
        }
        // Degenerate inputs clamp instead of panicking.
        let mut h = Histogram::new();
        h.observe(-5.0);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 3);
        assert_eq!(h.cumulative_buckets().last().unwrap().1, 3);
    }

    #[test]
    fn histogram_cumulative_counts_are_monotone() {
        let mut state = 42u64;
        let mut h = Histogram::new();
        for _ in 0..500 {
            h.observe((xorshift(&mut state) % 1_000_000) as f64);
        }
        let cum = h.cumulative_buckets();
        for w in cum.windows(2) {
            assert!(w[0].1 <= w[1].1, "cumulative counts must not decrease");
            assert!(w[0].0 < w[1].0, "bounds must strictly increase");
        }
        assert_eq!(cum.last().unwrap().1, h.count());
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative() {
        let mk = |seed: u64, n: u64| {
            let mut state = seed;
            let mut h = Histogram::new();
            for _ in 0..n {
                h.observe((xorshift(&mut state) % (1u64 << 30)) as f64);
            }
            h
        };
        let (a, b, c) = (mk(1, 100), mk(2, 57), mk(3, 211));
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        // b ⊕ a == a ⊕ b
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(left.count(), 368);
    }

    #[test]
    fn histogram_quantiles_are_ordered_and_bounded() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v as f64);
        }
        let (p50, p95, p99) = (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99));
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // 2x relative error bound from the bucket ratio.
        assert!((250.0..=1024.0).contains(&p50), "p50={p50}");
        assert!((512.0..=2048.0).contains(&p99), "p99={p99}");
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    /// `push_histogram`'s family, through the JSON export and back:
    /// cumulative `le` buckets exactly as [`Histogram::cumulative_buckets`]
    /// gives them, then the `sum` and `count` aggregates and the three
    /// quantiles.
    #[test]
    fn histogram_family_round_trips_through_json() {
        let mut h = Histogram::new();
        for v in [1.0, 3.0, 3.0, 100.0, 5000.0] {
            h.observe(v);
        }
        let mut s = MetricsSnapshot::default();
        s.push_histogram("gem_req_latency_micros", "Request latency", &h);
        let parsed = crate::json::parse(&s.to_json().to_string()).expect("parses");
        let fam = &parsed.get("families").unwrap().as_array().unwrap()[0];
        assert_eq!(fam.get("kind").unwrap().as_str().unwrap(), "histogram");
        let samples: Vec<(String, String, f64)> = fam
            .get("samples")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|smp| {
                let Some(Json::Object(pairs)) = smp.get("labels") else {
                    panic!("labels are an object");
                };
                assert_eq!(pairs.len(), 1, "one reserved label per sample");
                let (k, v) = &pairs[0];
                let value = smp.get("value").unwrap().as_f64().unwrap();
                (k.clone(), v.as_str().unwrap().to_string(), value)
            })
            .collect();
        let mut want: Vec<(String, String, f64)> = h
            .cumulative_buckets()
            .iter()
            .map(|&(b, c)| {
                let le = if b.is_infinite() {
                    "+Inf".to_string()
                } else {
                    format!("{b}")
                };
                ("le".to_string(), le, c as f64)
            })
            .collect();
        assert_eq!(want[0], ("le".into(), "1".into(), 1.0));
        assert_eq!(want[1], ("le".into(), "4".into(), 3.0));
        assert_eq!(want.last().unwrap().2, 5.0);
        want.push(("agg".into(), "sum".into(), 5107.0));
        want.push(("agg".into(), "count".into(), 5.0));
        assert_eq!(samples[..want.len()], want[..]);
        let quantiles: Vec<&str> = samples[want.len()..]
            .iter()
            .map(|(k, v, _)| {
                assert_eq!(k, "quantile");
                v.as_str()
            })
            .collect();
        assert_eq!(quantiles, ["0.5", "0.95", "0.99"]);
    }
}
