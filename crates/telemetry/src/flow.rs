//! Structured per-stage reports for multi-stage flows (the compiler).
//!
//! [`FlowRecorder`] is the write side: open one per flow run, call
//! [`stage`](FlowRecorder::stage) around each phase, attach size metrics,
//! and [`finish`](FlowRecorder::finish) into an immutable [`FlowReport`].
//! Every stage is also a span, so a traced run (`--trace-out`) shows the
//! same stages, with the same metrics as arguments, on its timeline.

use crate::json::Json;
use crate::span;
use std::time::Instant;

/// One completed stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecord {
    /// Stage name (stable; see `docs/OBSERVABILITY.md`).
    pub name: String,
    /// Wall time in nanoseconds.
    pub wall_ns: u64,
    /// Size/quality metrics, in recording order.
    pub metrics: Vec<(String, f64)>,
}

impl StageRecord {
    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

/// A finished flow: ordered stages plus total wall time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowReport {
    /// Flow name (e.g. `"compile"`).
    pub flow: String,
    /// Total wall time in nanoseconds (creation to finish).
    pub total_wall_ns: u64,
    /// Stages in execution order.
    pub stages: Vec<StageRecord>,
}

impl FlowReport {
    /// Looks up a stage by name.
    pub fn stage(&self, name: &str) -> Option<&StageRecord> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Serializes the report.
    pub fn to_json(&self) -> Json {
        let stages: Vec<Json> = self
            .stages
            .iter()
            .map(|s| {
                let mut o = Json::object();
                o.set("name", s.name.as_str());
                o.set("wall_ns", s.wall_ns);
                let mut metrics = Json::object();
                for (k, v) in &s.metrics {
                    metrics.set(k, *v);
                }
                o.set("metrics", metrics);
                o
            })
            .collect();
        let mut o = Json::object();
        o.set("flow", self.flow.as_str());
        o.set("total_wall_ns", self.total_wall_ns);
        o.set("stages", Json::Array(stages));
        o
    }
}

/// The write side of a [`FlowReport`].
///
/// When a [`mod@crate::span`] collector is installed, the recorder opens a
/// root span named after the flow; every [`stage`](FlowRecorder::stage)
/// opens a child span, so a compile run appears in trace exports as one
/// nested timeline (`compile` → `synth` → … → `verify`).
#[derive(Debug)]
pub struct FlowRecorder {
    flow: String,
    start: Instant,
    stages: Vec<StageRecord>,
    // Held for its Drop: ends the root span when the recorder finishes.
    _root_span: span::SpanGuard,
}

impl FlowRecorder {
    /// Starts recording a named flow.
    pub fn new(flow: impl Into<String>) -> Self {
        let flow = flow.into();
        let root = span::span(flow.clone(), "flow");
        FlowRecorder {
            flow,
            start: Instant::now(),
            stages: Vec::new(),
            _root_span: root,
        }
    }

    /// Opens a stage; it is recorded when the guard drops.
    pub fn stage(&mut self, name: &'static str) -> StageGuard<'_> {
        let stage_span = span::span(name, "flow");
        StageGuard {
            rec: self,
            name,
            start: Instant::now(),
            metrics: Vec::new(),
            span: stage_span,
        }
    }

    /// Closes the flow into its report.
    pub fn finish(self) -> FlowReport {
        FlowReport {
            flow: self.flow,
            total_wall_ns: self.start.elapsed().as_nanos() as u64,
            stages: self.stages,
        }
    }
}

/// Open stage handle; drop (or let fall out of scope) to record it.
#[derive(Debug)]
pub struct StageGuard<'a> {
    rec: &'a mut FlowRecorder,
    name: &'static str,
    start: Instant,
    metrics: Vec<(String, f64)>,
    span: span::SpanGuard,
}

impl StageGuard<'_> {
    /// Attaches a numeric metric to the stage.
    pub fn metric(&mut self, key: &str, value: f64) -> &mut Self {
        self.metrics.push((key.to_string(), value));
        self
    }
}

impl Drop for StageGuard<'_> {
    fn drop(&mut self) {
        let wall = self.start.elapsed();
        let metrics = std::mem::take(&mut self.metrics);
        for (k, v) in &metrics {
            self.span.arg(k, *v);
        }
        self.rec.stages.push(StageRecord {
            name: self.name.to_string(),
            wall_ns: wall.as_nanos() as u64,
            metrics,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_stages_in_order_with_metrics() {
        let mut rec = FlowRecorder::new("testflow");
        {
            let mut s = rec.stage("alpha");
            s.metric("n", 4.0);
        }
        {
            rec.stage("beta");
        }
        let report = rec.finish();
        let names: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["alpha", "beta"]);
        assert_eq!(report.stage("alpha").unwrap().metric("n"), Some(4.0));
        assert_eq!(report.stage("beta").unwrap().metrics.len(), 0);
    }

    #[test]
    fn stages_nest_under_flow_root_in_trace_export() {
        let _g = span::test_collector_lock();
        let c = span::TraceCollector::arc();
        span::install(std::sync::Arc::clone(&c));
        let mut rec = FlowRecorder::new("nested");
        rec.stage("one").metric("gates", 12.0);
        let _ = rec.finish();
        span::uninstall();
        let events = c.drain();
        let root_begin = events
            .iter()
            .find(|e| e.name == "nested" && e.ph == span::Phase::Begin)
            .expect("root begin");
        let stage_begin = events
            .iter()
            .find(|e| e.name == "one" && e.ph == span::Phase::Begin)
            .expect("stage begin");
        assert_eq!(stage_begin.parent_id, root_begin.span_id);
        let stage_end = events
            .iter()
            .find(|e| e.name == "one" && e.ph == span::Phase::End)
            .expect("stage end");
        assert!(stage_end
            .args
            .contains(&("gates".to_string(), span::ArgValue::F64(12.0))));
        let doc = span::events_to_chrome_trace(&events);
        span::validate_chrome_trace(&doc).expect("balanced nested trace");
    }

    #[test]
    fn report_serializes_to_json() {
        let mut rec = FlowRecorder::new("f");
        rec.stage("only").metric("x", 1.5);
        let j = rec.finish().to_json();
        assert_eq!(j.get("flow").unwrap().as_str(), Some("f"));
        let stages = j.get("stages").unwrap().as_array().unwrap();
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].get("name").unwrap().as_str(), Some("only"));
        assert_eq!(
            stages[0].get("metrics").unwrap().get("x").unwrap().as_f64(),
            Some(1.5)
        );
    }
}
