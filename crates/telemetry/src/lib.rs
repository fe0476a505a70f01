//! Telemetry for the GEM-RS workspace: structured tracing, compile-flow
//! reports, and runtime metrics.
//!
//! The build environment is sealed (no crates.io), so this crate provides
//! a self-contained facade in the spirit of `tracing` +
//! `tracing-subscriber` plus the serialization the workspace needs:
//!
//! * [`span`] — structured span timelines: begin/end/complete/instant
//!   events with thread ids, parent spans, and request correlation ids,
//!   collected per thread and exported as Chrome-trace/Perfetto JSON
//!   (`gem … --trace-out trace.json`).
//! * [`flow`] — [`FlowRecorder`] builds a [`FlowReport`]: one record per
//!   compiler stage with wall time and size metrics (the machine-readable
//!   form of Table I's per-design statistics).
//! * [`metrics`] — [`MetricsSnapshot`] is a label-oriented counter/gauge
//!   snapshot (per-partition, per-layer virtual-GPU counters) with JSON
//!   and Prometheus-text exporters.
//! * [`mod@json`] — the minimal JSON value, parser, and
//!   [`json!`](macro@crate::json) macro everything above serializes
//!   through.
//! * [`wire`] — length-prefixed JSON framing with typed errors (frame
//!   size limits, truncation detection) for socket transports such as
//!   `gem-server`.
//!
//! See `docs/OBSERVABILITY.md` for the span hierarchy and metric names.

pub mod flow;
pub mod json;
pub mod metrics;
pub mod span;
pub mod wire;

pub use flow::{FlowRecorder, FlowReport, StageGuard, StageRecord};
pub use json::{parse as parse_json, Json, JsonError};
pub use metrics::{Histogram, MetricFamily, MetricKind, MetricsSnapshot, Sample};
pub use span::{validate_chrome_trace, SpanGuard, TraceCollector, TraceEvent, TraceSummary};
pub use wire::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME};
