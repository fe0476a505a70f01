//! Structured span tracing: per-thread timeline buffers exported as
//! Chrome-trace/Perfetto JSON.
//!
//! Where [`mod@crate::trace`] answers *"what happened"* (leveled log events,
//! closed-span durations), this module answers *"when, on which thread,
//! and inside what"*: every begin/end/complete/instant event carries a
//! collector-relative timestamp, a stable thread id, the id of the
//! enclosing span, and numeric/string args. The resulting timeline loads
//! directly in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! Design constraints (see `docs/OBSERVABILITY.md` §6):
//!
//! * **Off by default, near-free when off.** Instrumentation sites call
//!   [`enabled`] — one relaxed atomic load — before building anything.
//!   No collector installed means no allocation, no lock, no clock read.
//! * **Per-thread buffers.** Each thread appends to its own buffer (an
//!   uncontended mutex shared with the collector registry), so tracing a
//!   parallel stage does not serialize the workers it is measuring.
//! * **Request correlation.** A thread-scoped request id
//!   ([`request_scope`]) is stamped onto every event recorded while the
//!   scope is active — the server sets it per wire request, and every
//!   compile/step span recorded on behalf of that request links back to
//!   it (args key `"rid"`).
//!
//! The write side is [`span`] (RAII begin/end pair), [`complete`]
//! (one `X` event for an already-measured region) and [`instant`]; the
//! read side is [`TraceCollector::drain`] /
//! [`TraceCollector::export_chrome_trace`]; [`validate_chrome_trace`]
//! is the checker CI runs over emitted files.

use crate::json::Json;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// Chrome-trace event phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Duration begin (`"B"`).
    Begin,
    /// Duration end (`"E"`).
    End,
    /// Complete event with an explicit duration (`"X"`).
    Complete,
    /// Instantaneous marker (`"i"`).
    Instant,
}

impl Phase {
    /// The single-character Chrome-trace phase code.
    pub fn code(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Complete => "X",
            Phase::Instant => "i",
        }
    }
}

/// One argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Numeric arg (counters, sizes, durations).
    F64(f64),
    /// String arg (names, keys).
    Str(String),
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::F64(v as f64)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (span or marker name).
    pub name: String,
    /// Category (`"compile"`, `"vgpu"`, `"server"`, …) — Perfetto's
    /// track-filtering key.
    pub cat: &'static str,
    /// Phase (begin/end/complete/instant).
    pub ph: Phase,
    /// Microseconds since the collector was installed.
    pub ts_micros: f64,
    /// Duration in microseconds (complete events only).
    pub dur_micros: f64,
    /// Stable id of the recording thread.
    pub tid: u64,
    /// Id of this span (begin/complete) — unique per collector install.
    pub span_id: u64,
    /// Id of the enclosing span on the same thread (0 = root).
    pub parent_id: u64,
    /// Request correlation id, when a [`request_scope`] was active.
    pub rid: Option<u64>,
    /// Key/value args.
    pub args: Vec<(String, ArgValue)>,
}

/// Collects events from every thread; install with [`install`].
#[derive(Debug)]
pub struct TraceCollector {
    epoch: Instant,
    buffers: Mutex<Vec<SharedBuffer>>,
    next_span: AtomicU64,
}

impl Default for TraceCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceCollector {
    /// A fresh collector; timestamps are relative to this call.
    pub fn new() -> TraceCollector {
        TraceCollector {
            epoch: Instant::now(),
            buffers: Mutex::new(Vec::new()),
            next_span: AtomicU64::new(1),
        }
    }

    /// A fresh collector behind an `Arc`, ready for [`install`].
    pub fn arc() -> Arc<TraceCollector> {
        Arc::new(TraceCollector::new())
    }

    fn now_micros(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64 / 1e3
    }

    fn alloc_span_id(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    fn register(&self, buf: SharedBuffer) {
        self.buffers.lock().expect("trace buffers").push(buf);
    }

    /// Takes every buffered event, merged across threads and sorted by
    /// timestamp. Buffers stay registered; a later drain returns only
    /// events recorded since.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let buffers = self.buffers.lock().expect("trace buffers");
        let mut all = Vec::new();
        for b in buffers.iter() {
            all.append(&mut b.lock().expect("trace buffer"));
        }
        all.sort_by(|a, b| a.ts_micros.total_cmp(&b.ts_micros));
        all
    }

    /// Drains and serializes everything as a Chrome-trace JSON document
    /// (`{"traceEvents": [...], "displayTimeUnit": "ms"}`).
    pub fn export_chrome_trace(&self) -> Json {
        events_to_chrome_trace(&self.drain())
    }
}

/// Serializes already-drained events as a Chrome-trace JSON document.
pub fn events_to_chrome_trace(events: &[TraceEvent]) -> Json {
    let rows: Vec<Json> = events
        .iter()
        .map(|e| {
            let mut o = Json::object();
            o.set("name", e.name.as_str());
            o.set("cat", e.cat);
            o.set("ph", e.ph.code());
            o.set("ts", e.ts_micros);
            if e.ph == Phase::Complete {
                o.set("dur", e.dur_micros);
            }
            if e.ph == Phase::Instant {
                // Thread-scoped instant (Perfetto requires the scope key).
                o.set("s", "t");
            }
            o.set("pid", 1u64);
            o.set("tid", e.tid);
            let mut args = Json::object();
            if e.span_id != 0 {
                args.set("span_id", e.span_id);
            }
            if e.parent_id != 0 {
                args.set("parent_id", e.parent_id);
            }
            if let Some(rid) = e.rid {
                args.set("rid", rid);
            }
            for (k, v) in &e.args {
                match v {
                    ArgValue::F64(f) => args.set(k, *f),
                    ArgValue::Str(s) => args.set(k, s.as_str()),
                }
            }
            o.set("args", args);
            o
        })
        .collect();
    let mut doc = Json::object();
    doc.set("traceEvents", Json::Array(rows));
    doc.set("displayTimeUnit", "ms");
    doc
}

// ---------------------------------------------------------------- global --

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: RwLock<Option<Arc<TraceCollector>>> = RwLock::new(None);

/// Installs the global collector (replacing any previous one). Events
/// recorded from any thread land in this collector from now on.
pub fn install(c: Arc<TraceCollector>) -> Option<Arc<TraceCollector>> {
    let prev = COLLECTOR.write().expect("trace collector").replace(c);
    ENABLED.store(true, Ordering::SeqCst);
    prev
}

/// Removes the global collector; tracing turns off.
pub fn uninstall() -> Option<Arc<TraceCollector>> {
    ENABLED.store(false, Ordering::SeqCst);
    COLLECTOR.write().expect("trace collector").take()
}

/// Whether a collector is installed. Instrumentation calls this before
/// doing any work — one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn current_collector() -> Option<Arc<TraceCollector>> {
    if !enabled() {
        return None;
    }
    COLLECTOR.read().expect("trace collector").clone()
}

fn stable_tid() -> u64 {
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: OnceLock<u64> = const { OnceLock::new() };
    }
    TID.with(|t| *t.get_or_init(|| NEXT_TID.fetch_add(1, Ordering::Relaxed)))
}

/// A thread's event buffer, shared with the collector it registered in.
type SharedBuffer = Arc<Mutex<Vec<TraceEvent>>>;

thread_local! {
    /// This thread's buffer per collector "generation". The pointer
    /// identifies the collector the buffer was registered with, so a
    /// re-install gets a fresh buffer.
    static BUFFER: RefCell<Option<(usize, SharedBuffer)>> = const { RefCell::new(None) };
    /// Stack of open span ids on this thread (parent attribution).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Active request correlation id (0 = none).
    static REQUEST_ID: Cell<u64> = const { Cell::new(0) };
}

fn with_buffer(collector: &Arc<TraceCollector>, f: impl FnOnce(&mut Vec<TraceEvent>)) {
    let key = Arc::as_ptr(collector) as usize;
    BUFFER.with(|slot| {
        let mut slot = slot.borrow_mut();
        let stale = match &*slot {
            Some((k, _)) => *k != key,
            None => true,
        };
        if stale {
            let buf = Arc::new(Mutex::new(Vec::new()));
            collector.register(Arc::clone(&buf));
            *slot = Some((key, buf));
        }
        let (_, buf) = slot.as_ref().expect("buffer just installed");
        f(&mut buf.lock().expect("trace buffer"));
    });
}

/// The request id active on this thread, if any.
fn current_request_id() -> Option<u64> {
    let rid = REQUEST_ID.with(Cell::get);
    (rid != 0).then_some(rid)
}

/// RAII guard restoring the previous request id on drop.
#[derive(Debug)]
pub struct RequestScope {
    prev: u64,
}

/// Marks this thread as working on request `rid` until the guard drops:
/// every event recorded in between carries `rid`. Scopes nest; the
/// innermost wins.
pub fn request_scope(rid: u64) -> RequestScope {
    let prev = REQUEST_ID.with(|c| c.replace(rid));
    RequestScope { prev }
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        REQUEST_ID.with(|c| c.set(self.prev));
    }
}

// ----------------------------------------------------------- write side --

/// An open span: records a begin event on creation and an end event on
/// drop. Obtain via [`span`]; a disabled tracer returns an inert guard.
#[derive(Debug)]
pub struct SpanGuard {
    live: Option<SpanLive>,
}

#[derive(Debug)]
struct SpanLive {
    collector: Arc<TraceCollector>,
    name: String,
    cat: &'static str,
    span_id: u64,
    args: Vec<(String, ArgValue)>,
}

impl SpanGuard {
    /// Attaches an arg, reported with the span's end event.
    pub fn arg(&mut self, key: &str, value: impl Into<ArgValue>) -> &mut Self {
        if let Some(live) = &mut self.live {
            live.args.push((key.to_string(), value.into()));
        }
        self
    }

    /// This span's id (0 when tracing is off).
    pub fn id(&self) -> u64 {
        self.live.as_ref().map_or(0, |l| l.span_id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Pop our own id (spans are strictly nested per thread).
            if s.last() == Some(&live.span_id) {
                s.pop();
            }
        });
        let ev = TraceEvent {
            name: live.name,
            cat: live.cat,
            ph: Phase::End,
            ts_micros: live.collector.now_micros(),
            dur_micros: 0.0,
            tid: stable_tid(),
            span_id: live.span_id,
            parent_id: 0,
            rid: current_request_id(),
            args: live.args,
        };
        with_buffer(&live.collector, |buf| buf.push(ev));
    }
}

/// Opens a span (begin now, end when the guard drops). Near-free when no
/// collector is installed.
pub fn span(name: impl Into<String>, cat: &'static str) -> SpanGuard {
    let Some(collector) = current_collector() else {
        return SpanGuard { live: None };
    };
    let name = name.into();
    let span_id = collector.alloc_span_id();
    let parent_id = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(span_id);
        parent
    });
    let ev = TraceEvent {
        name: name.clone(),
        cat,
        ph: Phase::Begin,
        ts_micros: collector.now_micros(),
        dur_micros: 0.0,
        tid: stable_tid(),
        span_id,
        parent_id,
        rid: current_request_id(),
        args: Vec::new(),
    };
    with_buffer(&collector, |buf| buf.push(ev));
    SpanGuard {
        live: Some(SpanLive {
            collector,
            name,
            cat,
            span_id,
            args: Vec::new(),
        }),
    }
}

/// Records a complete (`X`) event for a region measured by the caller:
/// `started` is when it began, `dur` how long it ran. Used where a
/// begin/end pair would be wrong (e.g. reporting a worker's execution
/// from the coordinating thread).
pub fn complete(
    name: impl Into<String>,
    cat: &'static str,
    started: Instant,
    dur: Duration,
    args: Vec<(String, ArgValue)>,
) {
    let Some(collector) = current_collector() else {
        return;
    };
    let span_id = collector.alloc_span_id();
    let parent_id = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    let end_micros = collector.now_micros();
    // Place the event at its measured start, clamped into the collector's
    // lifetime (a region begun before install shows from time zero).
    let since_start = started.elapsed().as_nanos() as f64 / 1e3;
    let ts = (end_micros - since_start).max(0.0);
    let ev = TraceEvent {
        name: name.into(),
        cat,
        ph: Phase::Complete,
        ts_micros: ts,
        dur_micros: dur.as_nanos() as f64 / 1e3,
        tid: stable_tid(),
        span_id,
        parent_id,
        rid: current_request_id(),
        args,
    };
    with_buffer(&collector, |buf| buf.push(ev));
}

/// Records an instantaneous marker.
pub fn instant(name: impl Into<String>, cat: &'static str, args: Vec<(String, ArgValue)>) {
    let Some(collector) = current_collector() else {
        return;
    };
    let parent_id = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    let ev = TraceEvent {
        name: name.into(),
        cat,
        ph: Phase::Instant,
        ts_micros: collector.now_micros(),
        dur_micros: 0.0,
        tid: stable_tid(),
        span_id: 0,
        parent_id,
        rid: current_request_id(),
        args,
    };
    with_buffer(&collector, |buf| buf.push(ev));
}

// ------------------------------------------------------------ validator --

/// Summary statistics of a validated trace document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Total events in the document.
    pub events: usize,
    /// Matched begin/end pairs.
    pub spans: usize,
    /// Complete (`X`) events.
    pub complete: usize,
    /// Instant markers.
    pub instants: usize,
    /// Distinct thread ids.
    pub threads: usize,
    /// Highest timestamp seen, microseconds.
    pub max_ts_micros: f64,
}

/// Validates a Chrome-trace JSON document: `traceEvents` must exist,
/// every event must carry `name`/`ph`/`ts`/`pid`/`tid`, timestamps must
/// be non-negative and non-decreasing **per thread**, `X` events need a
/// non-negative `dur`, and `B`/`E` pairs must balance per thread with
/// matching names (stack discipline). This is the check CI runs over
/// `gem run --trace-out` output.
///
/// # Errors
///
/// A human-readable description of the first violation found.
pub fn validate_chrome_trace(doc: &Json) -> Result<TraceSummary, String> {
    let events = doc
        .get("traceEvents")
        .ok_or("missing top-level \"traceEvents\"")?
        .as_array()
        .ok_or("\"traceEvents\" is not an array")?;
    let mut summary = TraceSummary {
        events: events.len(),
        ..TraceSummary::default()
    };
    // Per-tid open-span stack and last timestamp.
    let mut stacks: Vec<(u64, Vec<String>, f64)> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing \"name\""))?;
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} ({name}): missing \"ph\""))?;
        let ts = e
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i} ({name}): missing numeric \"ts\""))?;
        if ts < 0.0 {
            return Err(format!("event {i} ({name}): negative ts {ts}"));
        }
        e.get("pid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i} ({name}): missing \"pid\""))?;
        let tid = e
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i} ({name}): missing \"tid\""))?;
        let entry = match stacks.iter_mut().find(|(t, _, _)| *t == tid) {
            Some(s) => s,
            None => {
                summary.threads += 1;
                stacks.push((tid, Vec::new(), f64::NEG_INFINITY));
                stacks.last_mut().expect("just pushed")
            }
        };
        if ts < entry.2 {
            return Err(format!(
                "event {i} ({name}): ts {ts} goes backwards on tid {tid} (prev {})",
                entry.2
            ));
        }
        entry.2 = ts;
        match ph {
            "B" => entry.1.push(name.to_string()),
            "E" => {
                let open = entry.1.pop().ok_or_else(|| {
                    format!("event {i} ({name}): \"E\" with no open span on tid {tid}")
                })?;
                if open != name {
                    return Err(format!(
                        "event {i}: \"E\" for {name:?} but innermost open span on \
                         tid {tid} is {open:?}"
                    ));
                }
                summary.spans += 1;
            }
            "X" => {
                let dur = e
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i} ({name}): \"X\" without \"dur\""))?;
                if dur < 0.0 {
                    return Err(format!("event {i} ({name}): negative dur {dur}"));
                }
                summary.complete += 1;
                summary.max_ts_micros = summary.max_ts_micros.max(ts + dur);
            }
            "i" => summary.instants += 1,
            other => return Err(format!("event {i} ({name}): unknown phase {other:?}")),
        }
        summary.max_ts_micros = summary.max_ts_micros.max(ts);
    }
    for (tid, stack, _) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("tid {tid}: span {open:?} never closed"));
        }
    }
    Ok(summary)
}

/// Serializes tests (across this crate) that install the process-global
/// collector, so they don't race each other's timelines.
#[cfg(test)]
pub(crate) fn test_collector_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn global_lock() -> std::sync::MutexGuard<'static, ()> {
        test_collector_lock()
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let _g = global_lock();
        uninstall();
        assert!(!enabled());
        {
            let mut sp = span("nothing", "test");
            sp.arg("n", 1.0);
            assert_eq!(sp.id(), 0);
        }
        instant("marker", "test", Vec::new());
        // No collector: nothing panics, nothing is recorded anywhere.
    }

    #[test]
    fn spans_nest_and_record_parentage() {
        let _g = global_lock();
        let c = TraceCollector::arc();
        install(Arc::clone(&c));
        let outer_id;
        {
            let outer = span("outer", "test");
            outer_id = outer.id();
            {
                let mut inner = span("inner", "test");
                inner.arg("k", 2.0);
            }
            instant("mark", "test", vec![("v".into(), 7u64.into())]);
        }
        uninstall();
        let events = c.drain();
        assert_eq!(events.len(), 5, "B B E i E");
        let inner_begin = events
            .iter()
            .find(|e| e.name == "inner" && e.ph == Phase::Begin)
            .expect("inner begin");
        assert_eq!(inner_begin.parent_id, outer_id);
        let inner_end = events
            .iter()
            .find(|e| e.name == "inner" && e.ph == Phase::End)
            .expect("inner end");
        assert_eq!(inner_end.args, vec![("k".to_string(), ArgValue::F64(2.0))]);
        let mark = events.iter().find(|e| e.ph == Phase::Instant).expect("i");
        assert_eq!(mark.parent_id, outer_id);
        // Export validates cleanly.
        let doc = events_to_chrome_trace(&events);
        let summary = validate_chrome_trace(&doc).expect("valid trace");
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.instants, 1);
    }

    #[test]
    fn request_scope_stamps_events() {
        let _g = global_lock();
        let c = TraceCollector::arc();
        install(Arc::clone(&c));
        {
            let _rid = request_scope(42);
            assert_eq!(current_request_id(), Some(42));
            {
                let _inner = request_scope(43); // nests; innermost wins
                let _sp = span("inner", "test");
            }
            let _sp = span("outer", "test");
        }
        assert_eq!(current_request_id(), None);
        uninstall();
        let events = c.drain();
        assert!(events
            .iter()
            .filter(|e| e.name == "inner")
            .all(|e| e.rid == Some(43)));
        assert!(events
            .iter()
            .filter(|e| e.name == "outer")
            .all(|e| e.rid == Some(42)));
    }

    #[test]
    fn complete_events_cross_threads() {
        let _g = global_lock();
        let c = TraceCollector::arc();
        install(Arc::clone(&c));
        let handles: Vec<_> = (0..3)
            .map(|i| {
                std::thread::spawn(move || {
                    let t0 = Instant::now();
                    std::thread::sleep(Duration::from_millis(1));
                    complete(
                        format!("work-{i}"),
                        "test",
                        t0,
                        t0.elapsed(),
                        vec![("i".into(), (i as u64).into())],
                    );
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        uninstall();
        let events = c.drain();
        assert_eq!(events.len(), 3);
        let tids: std::collections::BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 3, "one tid per worker thread");
        let doc = events_to_chrome_trace(&events);
        let summary = validate_chrome_trace(&doc).expect("valid");
        assert_eq!(summary.complete, 3);
        assert_eq!(summary.threads, 3);
    }

    #[test]
    fn reinstall_starts_a_fresh_timeline() {
        let _g = global_lock();
        let c1 = TraceCollector::arc();
        install(Arc::clone(&c1));
        drop(span("first", "test"));
        let c2 = TraceCollector::arc();
        install(Arc::clone(&c2));
        drop(span("second", "test"));
        uninstall();
        assert_eq!(c1.drain().len(), 2, "first B/E only");
        let second = c2.drain();
        assert_eq!(second.len(), 2, "second B/E only");
        assert!(second.iter().all(|e| e.name == "second"));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        let no_events = crate::json::parse(r#"{"foo": 1}"#).unwrap();
        assert!(validate_chrome_trace(&no_events).is_err());

        let unbalanced = crate::json::parse(
            r#"{"traceEvents": [
                {"name":"a","ph":"B","ts":1,"pid":1,"tid":1,"args":{}}
            ]}"#,
        )
        .unwrap();
        let err = validate_chrome_trace(&unbalanced).unwrap_err();
        assert!(err.contains("never closed"), "{err}");

        let crossed = crate::json::parse(
            r#"{"traceEvents": [
                {"name":"a","ph":"B","ts":1,"pid":1,"tid":1},
                {"name":"b","ph":"B","ts":2,"pid":1,"tid":1},
                {"name":"a","ph":"E","ts":3,"pid":1,"tid":1},
                {"name":"b","ph":"E","ts":4,"pid":1,"tid":1}
            ]}"#,
        )
        .unwrap();
        let err = validate_chrome_trace(&crossed).unwrap_err();
        assert!(err.contains("innermost open span"), "{err}");

        let backwards = crate::json::parse(
            r#"{"traceEvents": [
                {"name":"a","ph":"i","ts":5,"pid":1,"tid":1},
                {"name":"b","ph":"i","ts":3,"pid":1,"tid":1}
            ]}"#,
        )
        .unwrap();
        let err = validate_chrome_trace(&backwards).unwrap_err();
        assert!(err.contains("backwards"), "{err}");

        // Interleaved threads are fine: monotonicity is per tid.
        let interleaved = crate::json::parse(
            r#"{"traceEvents": [
                {"name":"a","ph":"i","ts":5,"pid":1,"tid":1},
                {"name":"b","ph":"i","ts":3,"pid":1,"tid":2},
                {"name":"c","ph":"X","ts":4,"dur":2,"pid":1,"tid":2}
            ]}"#,
        )
        .unwrap();
        let summary = validate_chrome_trace(&interleaved).expect("valid");
        assert_eq!(summary.threads, 2);
        assert_eq!(summary.max_ts_micros, 6.0);
    }
}
