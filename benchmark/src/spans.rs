//! The harness's own in-memory span recorder.
//!
//! Spans are recorded from outside the program, around calls into each
//! crate's public functions; nothing inside the simulator is switched on
//! (`gem_telemetry::span` stays disabled), so a traced run executes the
//! same code as an untraced one plus one `Vec::push` per span. Spans live
//! in memory until the run ends, then become a Chrome-trace file and a
//! per-layer self-time table (a span's duration minus the part of it its
//! child spans cover).

use gem_telemetry::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span. `layer` is the crate the timed call
/// belongs to; `parent` indexes the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub track: u32,
}

/// Records the spans of one thread of one workload run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    track: u32,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose timestamps count from `origin`. `track` names the
    /// thread in the exported trace. A disabled recorder still times
    /// (callers need the durations) but keeps nothing.
    pub fn new(origin: Instant, track: u32, enabled: bool) -> Self {
        Recorder {
            origin,
            track,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off from here on (a traced run leaves
    /// every other block untraced to measure the tracing overhead).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds. `f` gets the recorder back so it can open
    /// child spans.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let slot = self.enabled.then(|| {
            self.spans.push(Span {
                layer,
                name,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
                track: self.track,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(i) = slot {
            self.spans[i].end_ns = (end - self.origin).as_nanos() as u64;
            self.open.pop();
        }
        (out, (end - start).as_secs_f64())
    }

    /// Appends another thread's spans (parent links re-based).
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer in seconds: each span's duration minus the
    /// durations of its direct children, summed by the span's layer.
    pub fn self_seconds_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(kids);
            *by_layer.entry(s.layer).or_insert(0.0) += own as f64 / 1e9;
        }
        by_layer
    }

    /// The spans as a Chrome-trace (`chrome://tracing`, Perfetto)
    /// document of complete events, with the self-time table attached.
    pub fn chrome_trace(&self, workload: &str) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = Json::object();
                args.set("id", i);
                args.set("workload", workload);
                if let Some(p) = s.parent {
                    args.set("parent", p);
                }
                let mut e = Json::object();
                e.set("name", s.name);
                e.set("cat", s.layer);
                e.set("ph", "X");
                e.set("pid", 1u32);
                e.set("tid", s.track);
                e.set("ts", s.start_ns as f64 / 1e3);
                e.set("dur", (s.end_ns - s.start_ns) as f64 / 1e3);
                e.set("args", args);
                e
            })
            .collect();
        let mut self_s = Json::object();
        for (layer, secs) in self.self_seconds_by_layer() {
            self_s.set(layer, secs);
        }
        let mut doc = Json::object();
        doc.set("displayTimeUnit", "ms");
        doc.set("workload", workload);
        doc.set("layer_self_seconds", self_s);
        doc.set("traceEvents", Json::Array(events));
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested() -> Recorder {
        let mut r = Recorder::new(Instant::now(), 0, true);
        r.time("core", "cycle", |r| {
            r.time("vgpu", "step", |_| std::hint::black_box(1 + 1));
            r.time("core", "output", |_| ());
        });
        r
    }

    #[test]
    fn children_point_at_their_parent_and_nest_in_time() {
        let r = nested();
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut r = Recorder::new(Instant::now(), 0, true);
        r.spans = vec![
            Span {
                layer: "core",
                name: "cycle",
                start_ns: 0,
                end_ns: 1000,
                parent: None,
                track: 0,
            },
            Span {
                layer: "vgpu",
                name: "step",
                start_ns: 100,
                end_ns: 800,
                parent: Some(0),
                track: 0,
            },
            Span {
                layer: "place",
                name: "fold",
                start_ns: 200,
                end_ns: 500,
                parent: Some(1),
                track: 0,
            },
        ];
        let t = r.self_seconds_by_layer();
        assert!((t["core"] - 300e-9).abs() < 1e-15);
        assert!((t["vgpu"] - 400e-9).abs() < 1e-15);
        assert!((t["place"] - 300e-9).abs() < 1e-15);
        let total: f64 = t.values().sum();
        assert!((total - 1000e-9).abs() < 1e-15, "self times tile the root");
    }

    #[test]
    fn disabled_recorder_times_but_keeps_nothing() {
        let mut r = Recorder::new(Instant::now(), 0, false);
        let (v, secs) = r.time("core", "step", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parent_links_and_trace_lists_every_span() {
        let mut a = nested();
        let mut b = Recorder::new(Instant::now(), 1, true);
        b.time("server", "step", |r| r.time("telemetry", "frame", |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[4].parent, Some(3));
        let doc = a.chrome_trace("w");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 5);
        assert_eq!(events[4].get("tid").and_then(Json::as_u64), Some(1));
        assert!(doc
            .get("layer_self_seconds")
            .unwrap()
            .get("server")
            .is_some());
    }
}
