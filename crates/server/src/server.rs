//! The TCP server: accept loop, connection handlers, and the command
//! dispatcher.
//!
//! Threading model — these are all the threads a server has:
//!
//! * **one thread per connection** reads frames and serves them, cheap
//!   and heavy alike, on its own stack; heavy commands first pass the
//!   admission gate (`docs/SERVER.md` §4), which bounds how many run at
//!   once and turns a full line into a `busy` response with a
//!   `retry_after_ms` hint instead of a blocked handler. A request that
//!   panics is caught here and costs that request, nothing else;
//! * **one reaper thread** evicts sessions idle past the configured
//!   timeout, scanning every `REAP_INTERVAL`;
//! * the **accept loop** owns everything and joins all of it on
//!   `shutdown`, so `Server::run` returning means no thread of this
//!   server is left behind.

use crate::cache::CompileCache;
use crate::gate::{Gate, SubmitError};
use crate::lock;
use crate::metrics::{add, dec, inc, ServerMetrics};
use crate::protocol::{self, codes};
use crate::session::{SessionEntry, SessionTable};
use gem_core::{
    replay_lanes, CompileOptions, GemSimulator, OutputRecorder, ProfileOptions, VcdStimulus,
};
use gem_telemetry::span;
use gem_telemetry::{read_frame, write_frame, FrameError, Json, DEFAULT_MAX_FRAME};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Heavy requests (simulation jobs) running at once.
    pub workers: usize,
    /// Heavy requests waiting for one of those slots; the next is `busy`.
    pub queue: usize,
    /// Compiled designs kept in the LRU cache.
    pub cache: usize,
    /// Sessions idle longer than this are evicted.
    pub idle_timeout: Duration,
}

/// How often the reaper scans for idle sessions. `run` joins the reaper
/// at shutdown, so this also bounds how long that join can wait; it is
/// not derived from the idle timeout for that reason.
const REAP_INTERVAL: Duration = Duration::from_millis(100);

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue: 32,
            cache: 8,
            idle_timeout: Duration::from_secs(300),
        }
    }
}

struct ServerState {
    cfg: ServerConfig,
    metrics: Arc<ServerMetrics>,
    cache: CompileCache,
    sessions: SessionTable,
    gate: Gate,
    stop: AtomicBool,
    local_addr: SocketAddr,
    /// Clones of live connection streams, for unblocking reads at
    /// shutdown. Keyed by connection id; handlers remove themselves.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Connection handler threads not yet seen finished. The accept loop
    /// drops finished ones on every accept and joins the rest at
    /// shutdown, so the list tracks live connections, not history.
    handlers: Mutex<Vec<JoinHandle<()>>>,
    next_conn: AtomicU64,
    /// Request correlation ids, unique across all connections of this
    /// server. Every request gets one; it is echoed in the response
    /// (`"rid"`) and stamped onto every span the request causes.
    next_rid: AtomicU64,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.state.local_addr)
            .finish()
    }
}

impl Server {
    /// Binds the listener and builds the shared state (no thread starts
    /// before [`run`](Self::run)).
    ///
    /// # Errors
    ///
    /// I/O errors from binding `cfg.addr`.
    pub fn bind(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = Arc::new(ServerMetrics::default());
        let state = Arc::new(ServerState {
            metrics: Arc::clone(&metrics),
            cache: CompileCache::new(cfg.cache, Arc::clone(&metrics)),
            sessions: SessionTable::new(Arc::clone(&metrics)),
            gate: Gate::new(cfg.workers, cfg.queue, Arc::clone(&metrics)),
            stop: AtomicBool::new(false),
            local_addr,
            conns: Mutex::new(HashMap::new()),
            handlers: Mutex::new(Vec::new()),
            next_conn: AtomicU64::new(1),
            next_rid: AtomicU64::new(1),
            cfg,
        });
        Ok(Server { listener, state })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// The server's metric registry (shared; survives `run` returning).
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.state.metrics)
    }

    /// Serves until a client issues `shutdown`, then closes the gate
    /// (callers waiting at it are answered `busy`; admitted jobs finish)
    /// and joins every connection handler and the reaper.
    ///
    /// # Errors
    ///
    /// I/O errors from the accept loop or from spawning the reaper (not
    /// from individual connections).
    pub fn run(self) -> io::Result<()> {
        let state = self.state;
        let reaper = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("gem-reaper".into())
                .spawn(move || {
                    while !state.stop.load(Ordering::SeqCst) {
                        std::thread::sleep(REAP_INTERVAL);
                        state.sessions.evict_idle(state.cfg.idle_timeout);
                    }
                })?
        };
        for incoming in self.listener.incoming() {
            if state.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match incoming {
                Ok(s) => s,
                Err(_) if state.stop.load(Ordering::SeqCst) => break,
                Err(e) => return Err(e),
            };
            // One frame is one write (gem_telemetry::wire); with Nagle off
            // a frame longer than a segment does not stall on its tail
            // either. Failing to set the option costs latency, nothing else.
            let _ = stream.set_nodelay(true);
            let conn = Connection::register(&state, &stream);
            let spawned = std::thread::Builder::new()
                .name(format!("gem-conn-{}", conn.id))
                .spawn(move || handle_connection(&conn, stream));
            match spawned {
                Ok(handler) => {
                    let mut handlers = lock(&state.handlers);
                    handlers.retain(|h| !h.is_finished());
                    handlers.push(handler);
                }
                // The closure — stream and registration — is dropped:
                // the peer sees a closed socket, the server keeps serving.
                Err(e) => {
                    inc(&state.metrics.connections_dropped);
                    eprintln!("gem-server: connection dropped, no handler thread: {e}");
                }
            }
        }
        state.gate.close();
        // Unblock handlers still parked in read_frame, then join them.
        for (_, c) in lock(&state.conns).drain() {
            let _ = c.shutdown(std::net::Shutdown::Both);
        }
        let handlers = std::mem::take(&mut *lock(&state.handlers));
        for h in handlers {
            let _ = h.join();
        }
        let _ = reaper.join();
        Ok(())
    }
}

/// Wakes a `run` loop blocked in `accept` after `stop` was set.
fn wake_accept(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

/// One accepted connection's entry in the server's books (`conns`,
/// `connections_active`), released on drop — so on every way out of the
/// handler, and when the handler thread never started.
struct Connection {
    state: Arc<ServerState>,
    id: u64,
}

impl Connection {
    fn register(state: &Arc<ServerState>, stream: &TcpStream) -> Connection {
        let id = state.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            lock(&state.conns).insert(id, clone);
        }
        inc(&state.metrics.connections_total);
        inc(&state.metrics.connections_active);
        Connection {
            state: Arc::clone(state),
            id,
        }
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        lock(&self.state.conns).remove(&self.id);
        dec(&self.state.metrics.connections_active);
    }
}

fn handle_connection(conn: &Connection, mut stream: TcpStream) {
    let state = &*conn.state;
    loop {
        let req = match read_frame(&mut stream, DEFAULT_MAX_FRAME) {
            Ok(v) => v,
            Err(FrameError::Closed) => break,
            Err(e) => {
                // Framing is broken; report once (best effort) and drop.
                let resp =
                    protocol::err_response(0, codes::BAD_REQUEST, &format!("bad frame: {e}"));
                let _ = write_frame(&mut stream, &resp, DEFAULT_MAX_FRAME);
                break;
            }
        };
        inc(&state.metrics.requests_total);
        let id = req.get("id").and_then(Json::as_u64).unwrap_or(0);
        let cmd = req.get("cmd").and_then(Json::as_str).unwrap_or("?");
        // One correlation id per request: scoped here so every span this
        // request records carries it, and echoed on the wire so the
        // client can link frames to spans.
        let rid = state.next_rid.fetch_add(1, Ordering::Relaxed);
        let started = std::time::Instant::now();
        let (mut resp, shutdown) = {
            let _scope = span::request_scope(rid);
            let _req_span = span::enabled().then(|| {
                let mut sp = span::span(format!("request:{cmd}"), "server");
                sp.arg("id", id).arg("conn", conn.id);
                sp
            });
            // Sound to carry on after an unwind because nothing a request
            // mutates is left half-done where a later request can see it:
            // machine state sits behind its session's own mutex, which the
            // unwind poisons and `SessionEntry::sim` then refuses; the
            // gate slot and the cache's pending entry are released by
            // guards; everything else (tables, counters, the LRU) is
            // bookkeeping whose invariants hold between statements.
            catch_unwind(AssertUnwindSafe(|| dispatch(state, id, &req)))
                .unwrap_or_else(|panic| (answer_panic(state, id, rid, cmd, &*panic), false))
        };
        state
            .metrics
            .observe_request_latency(started.elapsed().as_nanos() as f64 / 1e3);
        resp.set("rid", rid);
        if write_frame(&mut stream, &resp, DEFAULT_MAX_FRAME).is_err() {
            break;
        }
        if shutdown {
            state.stop.store(true, Ordering::SeqCst);
            wake_accept(state.local_addr);
            break;
        }
        if state.stop.load(Ordering::SeqCst) {
            break;
        }
    }
}

/// What a request that panicked gets and leaves behind: a typed
/// `internal` error, `gem_server_panics_total{cmd}`, a `panic` instant
/// under the request's id, and a line in the log.
fn answer_panic(
    state: &ServerState,
    id: u64,
    rid: u64,
    cmd: &str,
    panic: &(dyn std::any::Any + Send),
) -> Json {
    let what = panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload");
    state.metrics.count_panic(cmd);
    span::instant(
        "panic",
        "server",
        vec![("cmd".into(), cmd.into()), ("message".into(), what.into())],
    );
    eprintln!("gem-server: request {rid} ({cmd}) panicked: {what}");
    protocol::err_response(id, codes::INTERNAL, &format!("request panicked: {what}"))
}

/// Routes one request. Returns the response and whether this request
/// asked the whole server to shut down.
fn dispatch(state: &ServerState, id: u64, req: &Json) -> (Json, bool) {
    let cmd = match req.get("cmd").and_then(Json::as_str) {
        Some(c) => c,
        None => {
            return (
                protocol::err_response(id, codes::BAD_REQUEST, "missing field \"cmd\""),
                false,
            )
        }
    };
    let result = match cmd {
        "ping" => cmd_ping(state, id, req),
        "compile" => cmd_compile(state, id, req),
        "open" => cmd_open(state, id, req),
        "poke" => cmd_poke(state, id, req),
        "peek" => cmd_peek(state, id, req),
        "step" => cmd_step(state, id, req),
        "replay" => cmd_replay(state, id, req),
        "profile" => cmd_profile(state, id, req),
        "lint" => cmd_lint(state, id, req),
        "save" => cmd_save(state, id, req),
        "restore" => cmd_restore(state, id, req),
        "close" => cmd_close(state, id, req),
        "stats" => cmd_stats(state, id),
        "shutdown" => return (protocol::ok_response(id), true),
        #[cfg(test)]
        "panic" => tests::cmd_panic(state, req),
        other => Err(bad(format!("unknown command {other:?}"))),
    };
    let resp = match result {
        Ok(r) => r,
        Err((code, message)) => {
            let mut r = protocol::err_response(id, code, &message);
            if code == codes::BUSY {
                r.set("retry_after_ms", state.metrics.retry_after_ms());
            }
            r
        }
    };
    (resp, false)
}

/// The `(code, message)` of an error envelope — built in [`dispatch`],
/// the one place that does.
type CmdError = (&'static str, String);
type CmdResult = Result<Json, CmdError>;

fn bad(msg: impl Into<String>) -> CmdError {
    (codes::BAD_REQUEST, msg.into())
}

/// Runs a heavy command's `job` through the admission gate, on this
/// thread, under a `job:<name>` span. A refusal becomes a `busy` error
/// and counts into the per-reason `gem_server_rejected_total` family, so
/// the connection thread never blocks on a full line — only behind the
/// callers it was allowed to join.
fn gated(state: &ServerState, name: &str, job: impl FnOnce() -> CmdResult) -> CmdResult {
    let admitted = state.gate.run(|| {
        let _job_span = span::enabled().then(|| span::span(format!("job:{name}"), "server"));
        job()
    });
    let m = &state.metrics;
    match admitted {
        Ok(result) => result,
        Err(SubmitError::Full { queued }) => {
            inc(&m.rejected_queue_full);
            Err((codes::BUSY, format!("job queue full ({queued} waiting)")))
        }
        Err(SubmitError::ShuttingDown) => {
            inc(&m.rejected_shutting_down);
            Err((codes::BUSY, "server shutting down".to_string()))
        }
    }
}

/// The mapping options a front end compiles with unless told otherwise:
/// 2048-bit cores, 8 parts, 1 stage. The wire's `opts` and the CLI's
/// `--width`/`--parts`/`--stages` override them.
pub fn mapping_defaults() -> CompileOptions {
    CompileOptions {
        core_width: 2048,
        target_parts: 8,
        stages: 1,
        ..Default::default()
    }
}

/// Parses and range-checks the optional `opts` object of requests that
/// compile, before the gate: a bad option is a cheap `bad_request`.
fn compile_opts(req: &Json) -> Result<CompileOptions, CmdError> {
    let mut opts = mapping_defaults();
    if let Some(o) = req.get("opts") {
        opts.core_width = protocol::opt_uint(o, "width", opts.core_width).map_err(bad)?;
        opts.target_parts = protocol::opt_uint(o, "parts", opts.target_parts).map_err(bad)?;
        opts.stages = protocol::opt_uint(o, "stages", opts.stages).map_err(bad)?;
    }
    opts.validate().map_err(|e| bad(e.to_string()))?;
    Ok(opts)
}

fn cmd_ping(state: &ServerState, id: u64, req: &Json) -> CmdResult {
    let delay_ms = protocol::opt_uint(req, "delay_ms", 0u64).map_err(bad)?;
    let mut resp = protocol::ok_response(id);
    resp.set("pong", true);
    if delay_ms == 0 {
        return Ok(resp);
    }
    // Delayed pings pass the gate: they occupy a slot exactly like
    // simulation work, which makes backpressure directly testable
    // without racing a real compile.
    gated(state, "ping", || {
        std::thread::sleep(Duration::from_millis(delay_ms));
        Ok(resp)
    })
}

fn cmd_compile(state: &ServerState, id: u64, req: &Json) -> CmdResult {
    let source = protocol::req_str(req, "source").map_err(bad)?;
    let opts = compile_opts(req)?;
    gated(state, "compile", || {
        let (key, result, cached) = state.cache.get_or_compile(source, &opts);
        let design = result.map_err(|e| (codes::COMPILE_FAILED, e))?;
        let mut r = protocol::ok_response(id);
        r.set("key", format!("{key:016x}"));
        r.set("cached", cached);
        r.set("report", design.package.report.to_json());
        Ok(r)
    })
}

fn cmd_open(state: &ServerState, id: u64, req: &Json) -> CmdResult {
    let source = protocol::req_str(req, "source").map_err(bad)?;
    let opts = compile_opts(req)?;
    // Optional lane count (`"lanes": N`): N > 1 opens a *batch* session
    // that steps N independent stimulus streams per cycle. Validated
    // here, before the gate, so a bad count is a cheap typed error.
    let lanes = protocol::opt_uint(req, "lanes", 1u64).map_err(bad)?;
    if lanes == 0 || lanes > GemSimulator::MAX_LANES as u64 {
        return Err((
            codes::BAD_LANES,
            format!(
                "lane count {lanes} out of range: must be between 1 and {}",
                GemSimulator::MAX_LANES
            ),
        ));
    }
    let lanes = lanes as u32;
    gated(state, "open", || {
        let (key, result, cached) = state.cache.get_or_compile(source, &opts);
        let design = result.map_err(|e| (codes::COMPILE_FAILED, e))?;
        let mut sim = design.simulator();
        sim.set_lanes(lanes)
            .map_err(|e| (codes::BAD_LANES, e.to_string()))?;
        let session = state.sessions.open(key, Arc::clone(&design), sim, lanes);
        let mut r = protocol::ok_response(id);
        r.set("session", session);
        r.set("lanes", lanes as u64);
        r.set("key", format!("{key:016x}"));
        r.set("cached", cached);
        r.set("report", design.package.report.to_json());
        Ok(r)
    })
}

/// Parses the optional `lane` field of `poke`/`peek` requests and
/// validates it against the session's lane count.
fn opt_lane(req: &Json, lanes: u32) -> Result<Option<u32>, CmdError> {
    match req.get("lane") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let lane = v
                .as_u64()
                .ok_or_else(|| bad("non-integer field \"lane\""))?;
            if lane >= lanes as u64 {
                return Err((
                    codes::BAD_LANES,
                    format!("lane {lane} out of range: session has {lanes} lane(s)"),
                ));
            }
            Ok(Some(lane as u32))
        }
    }
}

fn session_of(state: &ServerState, req: &Json) -> Result<Arc<SessionEntry>, CmdError> {
    let sid = protocol::req_u64(req, "session").map_err(bad)?;
    state
        .sessions
        .get(sid)
        .ok_or_else(|| (codes::NOT_FOUND, format!("no session {sid}")))
}

/// A poisoned session ([`SessionEntry::sim`]) as the wire error it is.
fn broken(message: String) -> CmdError {
    (codes::INTERNAL, message)
}

/// Decodes `value` to the width of input `port` and applies it to every
/// lane, or to one.
fn poke(sim: &mut GemSimulator, port: &str, value: &str, lane: Option<u32>) -> Result<(), String> {
    let input = sim.io().input(port);
    let width = input
        .ok_or_else(|| format!("no input port {port:?}"))?
        .bits
        .len() as u32;
    let bits = protocol::bits_from_hex(value, width)?;
    match lane {
        // No lane: the poke broadcasts to every lane (single-stimulus
        // clients keep their exact old semantics).
        None => sim.set_input(port, bits),
        Some(lane) => sim.set_input_lane(port, lane, bits),
    }
    Ok(())
}

fn cmd_poke(state: &ServerState, id: u64, req: &Json) -> CmdResult {
    let entry = session_of(state, req)?;
    let port = protocol::req_str(req, "port").map_err(bad)?;
    let value = protocol::req_str(req, "value").map_err(bad)?;
    let lane = opt_lane(req, entry.lanes)?;
    poke(&mut *entry.sim().map_err(broken)?, port, value, lane).map_err(bad)?;
    Ok(protocol::ok_response(id))
}

fn cmd_peek(state: &ServerState, id: u64, req: &Json) -> CmdResult {
    let entry = session_of(state, req)?;
    let port = protocol::req_str(req, "port").map_err(bad)?;
    let lane = opt_lane(req, entry.lanes)?;
    let sim = entry.sim().map_err(broken)?;
    if sim.io().output(port).is_none() {
        return Err(bad(format!("no output port {port:?}")));
    }
    let value = match lane {
        None => sim.output(port), // lane 0: the scalar view
        Some(lane) => sim.output_lane(port, lane),
    };
    let mut r = protocol::ok_response(id);
    r.set("value", protocol::bits_to_hex(&value));
    Ok(r)
}

fn cmd_step(state: &ServerState, id: u64, req: &Json) -> CmdResult {
    let entry = session_of(state, req)?;
    let cycles = protocol::opt_uint(req, "cycles", 1u64).map_err(bad)?;
    // Pokes applied before the first cycle: {"pokes": {"port": "hex"}}.
    let pokes: Vec<(&str, &str)> = match req.get("pokes") {
        None | Some(Json::Null) => Vec::new(),
        Some(Json::Object(fields)) => fields
            .iter()
            .map(|(k, v)| {
                v.as_str()
                    .map(|s| (k.as_str(), s))
                    .ok_or_else(|| bad(format!("poke {k:?} is not a hex string")))
            })
            .collect::<Result<_, _>>()?,
        Some(_) => return Err(bad("\"pokes\" must be an object")),
    };
    gated(state, "step", || {
        let mut sim = entry.sim().map_err(broken)?;
        for (port, value) in pokes {
            poke(&mut sim, port, value, None).map_err(bad)?;
        }
        for _ in 0..cycles {
            sim.step();
        }
        add(&state.metrics.cycles_total, cycles);
        let mut outputs = Json::object();
        for p in sim.io().outputs.iter() {
            outputs.set(&p.name, protocol::bits_to_hex(&sim.output(&p.name)));
        }
        let mut r = protocol::ok_response(id);
        r.set("cycle", sim.counters().cycles);
        r.set("outputs", outputs);
        // Batch sessions additionally get every lane's view:
        // `lane_outputs[k]` maps port → hex for lane k ("outputs" above
        // stays the lane-0 scalar view).
        if entry.lanes > 1 {
            let lane_outputs: Vec<Json> = (0..entry.lanes)
                .map(|lane| {
                    let mut o = Json::object();
                    for p in sim.io().outputs.iter() {
                        o.set(
                            &p.name,
                            protocol::bits_to_hex(&sim.output_lane(&p.name, lane)),
                        );
                    }
                    o
                })
                .collect();
            r.set("lane_outputs", Json::Array(lane_outputs));
        }
        Ok(r)
    })
}

/// `replay`: drives the session through the one lockstep driver,
/// [`replay_lanes`]. The `"vcd"` form replays its stimulus on every lane,
/// as a scalar poke drives every lane, and answers lane 0's outputs per
/// cycle and as a VCD document, so a client can `read-vcd` without a
/// second round trip. The `"vcds": [text, …]` form replays stimulus k on
/// lane k; streams may have different lengths (an exhausted one holds its
/// last values) and the response carries one output VCD per stimulus.
fn cmd_replay(state: &ServerState, id: u64, req: &Json) -> CmdResult {
    let entry = session_of(state, req)?;
    let batch = req.get("vcds").is_some();
    let texts: Vec<&str> = match req.get("vcds") {
        None => vec![protocol::req_str(req, "vcd").map_err(bad)?],
        Some(Json::Array(items)) => items
            .iter()
            .map(|v| {
                v.as_str()
                    .ok_or_else(|| bad("\"vcds\" entries must be VCD strings"))
            })
            .collect::<Result<_, _>>()?,
        Some(_) => return Err(bad("\"vcds\" must be an array of VCD strings")),
    };
    if batch && (texts.is_empty() || texts.len() > entry.lanes as usize) {
        return Err((
            codes::BAD_LANES,
            format!(
                "{} stimulus VCD(s) for a session with {} lane(s)",
                texts.len(),
                entry.lanes
            ),
        ));
    }
    gated(state, "replay", || {
        let mut sim = entry.sim().map_err(broken)?;
        let mut stims = Vec::with_capacity(texts.len());
        for (lane, text) in texts.iter().enumerate() {
            let stim = VcdStimulus::new(text, sim.io()).map_err(|e| {
                bad(if batch {
                    format!("stimulus VCD for lane {lane}: {e}")
                } else {
                    e.to_string()
                })
            })?;
            stims.push(stim);
        }
        let mut recorders: Vec<OutputRecorder> = (0..stims.len() as u32)
            .map(|lane| OutputRecorder::new(sim.io(), lane))
            .collect();
        // The `vcd` form drives every lane, as a scalar poke does.
        let lanes: Vec<&VcdStimulus> = if batch {
            stims.iter().collect()
        } else {
            vec![&stims[0]; sim.lanes() as usize]
        };
        let cycles = replay_lanes(&mut sim, &lanes, &mut recorders);
        add(&state.metrics.cycles_total, cycles as u64);
        let mut r = protocol::ok_response(id);
        r.set("cycles", cycles as u64);
        if batch {
            let vcds = recorders.iter().map(|rec| Json::Str(rec.to_vcd()));
            r.set("vcds", Json::Array(vcds.collect()));
        } else {
            let lane0 = &recorders[0];
            let rows = lane0.rows().iter().map(|row| {
                let mut obj = Json::object();
                for (name, v) in lane0.names().zip(row) {
                    obj.set(name, protocol::bits_to_hex(v));
                }
                obj
            });
            r.set("outputs", Json::Array(rows.collect()));
            r.set("vcd", lane0.to_vcd());
        }
        Ok(r)
    })
}

/// `profile`: compile (through the cache) and run a hotspot-attribution
/// pass on a clone of the entry's power-on machine — no second load, and
/// sessions are untouched, so profiling never perturbs live waveforms.
fn cmd_profile(state: &ServerState, id: u64, req: &Json) -> CmdResult {
    let source = protocol::req_str(req, "source").map_err(bad)?;
    let opts = compile_opts(req)?;
    let cycles = protocol::opt_uint(req, "cycles", ProfileOptions::default().cycles);
    let cycles = cycles.map_err(bad)?;
    let design_name = req.get("design").and_then(Json::as_str).unwrap_or("design");
    gated(state, "profile", || {
        let (key, result, cached) = state.cache.get_or_compile(source, &opts);
        let design = result.map_err(|e| (codes::COMPILE_FAILED, e))?;
        let popts = ProfileOptions {
            cycles,
            ..ProfileOptions::default()
        };
        let report = gem_core::profile(design.simulator(), design_name, &popts);
        let mut r = protocol::ok_response(id);
        r.set("key", format!("{key:016x}"));
        r.set("cached", cached);
        r.set("profile", report.to_json());
        r.set("table", report.render_table());
        Ok(r)
    })
}

/// `lint`: run the static analyzer over a design source and, when the
/// netlist is clean of errors, compile it (through the cache) to attach
/// the schedule happens-before certificate. Sessions are untouched.
fn cmd_lint(state: &ServerState, id: u64, req: &Json) -> CmdResult {
    let source = protocol::req_str(req, "source").map_err(bad)?;
    let opts = compile_opts(req)?;
    gated(state, "lint", || {
        let (module, lints) = gem_netlist::verilog::parse_with_lints(source)
            .map_err(|e| (codes::COMPILE_FAILED, e.to_string()))?;
        let report = gem_analyze::analyze_with_lints(&module, &lints);
        let mut r = protocol::ok_response(id);
        // Certification needs the compiled schedule; skip it when the
        // netlist already has error-severity findings.
        let mut compiled = None;
        if report.clean(gem_analyze::Severity::Error) {
            let (key, result, cached) = state.cache.get_or_compile(source, &opts);
            r.set("key", format!("{key:016x}"));
            r.set("cached", cached);
            compiled = Some(result.map(|design| design.package.schedule_cert.summary()));
        }
        protocol::set_lint_fields(&mut r, &report, compiled.as_ref());
        Ok(r)
    })
}

fn cmd_save(state: &ServerState, id: u64, req: &Json) -> CmdResult {
    let entry = session_of(state, req)?;
    // One lock at a time: `restore` takes these two in the other order.
    let snap = entry.sim().map_err(broken)?.snapshot();
    let mut r = protocol::ok_response(id);
    r.set("bytes", snap.approx_bytes() as u64);
    *lock(&entry.saved) = Some(snap);
    Ok(r)
}

fn cmd_restore(state: &ServerState, id: u64, req: &Json) -> CmdResult {
    let entry = session_of(state, req)?;
    let saved = lock(&entry.saved);
    let Some(snap) = saved.as_ref() else {
        return Err((
            codes::NOT_FOUND,
            "no saved checkpoint for this session".into(),
        ));
    };
    let mut sim = entry.sim().map_err(broken)?;
    sim.restore(snap)
        .map_err(|e| (codes::INTERNAL, e.to_string()))?;
    Ok(protocol::ok_response(id))
}

fn cmd_close(state: &ServerState, id: u64, req: &Json) -> CmdResult {
    let sid = protocol::req_u64(req, "session").map_err(bad)?;
    if state.sessions.close(sid) {
        Ok(protocol::ok_response(id))
    } else {
        Err((codes::NOT_FOUND, format!("no session {sid}")))
    }
}

fn cmd_stats(state: &ServerState, id: u64) -> CmdResult {
    let mut r = protocol::ok_response(id);
    r.set("metrics", state.metrics.snapshot().to_json());
    r.set("sessions", state.sessions.len() as u64);
    r.set("cache_entries", state.cache.len() as u64);
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::tests::{drilled_compile, COUNTER, LOAD_DRILL, VERIFY_DRILL};
    use crate::client::{ClientError, GemClient};
    use std::time::Instant;

    /// The `"panic"` command: compiled into this crate's unit tests and
    /// nothing else. Panics where `"at"` says — `"inline"` on the bare
    /// connection thread, `"job"` inside a gated job, `"session"` while
    /// holding the `sim` lock of session `"session"`.
    pub(super) fn cmd_panic(state: &ServerState, req: &Json) -> CmdResult {
        match protocol::req_str(req, "at").map_err(bad)? {
            "inline" => panic!("injected inline"),
            "job" => gated(state, "panic", || panic!("injected in a job")),
            "session" => {
                let entry = session_of(state, req)?;
                gated(state, "panic", || {
                    let _sim = entry.sim().map_err(broken)?;
                    panic!("injected under the session lock")
                })
            }
            other => Err(bad(format!("unknown panic site {other:?}"))),
        }
    }

    /// The geometry `cache.rs`' load drill is known to bite at.
    fn small_opts() -> Json {
        let mut o = Json::object();
        o.set("width", 256u64);
        o.set("parts", 4u64);
        o
    }

    fn refused(r: Result<Json, ClientError>, needle: &str) {
        match r {
            Err(ClientError::Server { code, message, .. }) => {
                assert_eq!(code, codes::COMPILE_FAILED);
                assert!(message.contains(needle), "{message}");
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    /// A running server whose shared state the test can look into.
    struct Running {
        state: Arc<ServerState>,
        thread: JoinHandle<io::Result<()>>,
    }

    impl Running {
        fn start() -> Self {
            Self::start_with(ServerConfig::default())
        }

        fn start_with(cfg: ServerConfig) -> Self {
            Self::run(Server::bind(cfg).expect("loopback binds"))
        }

        /// A server whose compiles go through [`drilled_compile`].
        fn start_drilled() -> Self {
            let mut server = Server::bind(ServerConfig::default()).expect("loopback binds");
            let state = Arc::get_mut(&mut server.state).expect("not shared before `run`");
            let metrics = Arc::clone(&state.metrics);
            state.cache = CompileCache::with_compiler(state.cfg.cache, metrics, drilled_compile);
            Self::run(server)
        }

        fn run(server: Server) -> Self {
            Running {
                state: Arc::clone(&server.state),
                thread: std::thread::spawn(move || server.run()),
            }
        }

        fn connect(&self) -> GemClient {
            GemClient::connect(self.state.local_addr).expect("loopback connects")
        }

        fn stop(self) {
            self.connect().shutdown().expect("shutdown is acknowledged");
            self.thread
                .join()
                .expect("server thread does not panic")
                .expect("accept loop ends cleanly");
        }
    }

    #[test]
    fn accepted_streams_have_nagle_off() {
        let srv = Running::start();
        let mut client = srv.connect();
        client.ping(0).expect("pong"); // the connection is accepted by now
        {
            let conns = lock(&srv.state.conns);
            assert_eq!(conns.len(), 1);
            // The clone shares the handler's socket, options included.
            for c in conns.values() {
                assert!(c.nodelay().expect("socket option reads"));
            }
        }
        drop(client);
        srv.stop();
    }

    #[test]
    fn finished_handlers_are_dropped_not_hoarded() {
        let srv = Running::start();
        let active = &srv.state.metrics.connections_active;
        let mut most = 0;
        for _ in 0..500 {
            srv.connect().ping(0).expect("pong");
            // The client is gone; its handler sees EOF and winds down.
            let deadline = Instant::now() + Duration::from_secs(10);
            while active.load(Ordering::Relaxed) != 0 {
                assert!(Instant::now() < deadline, "handler never finished");
                std::thread::yield_now();
            }
            most = most.max(lock(&srv.state.handlers).len());
        }
        // A handler that has counted itself out may not have returned yet
        // when the next accept looks, so allow stragglers — not history.
        assert!(most <= 8, "{most} handles held after one-shot connections");
        srv.stop();
    }

    #[test]
    fn sessions_of_one_design_share_one_program_and_nothing_else() {
        let srv = Running::start();
        let mut client = srv.connect();
        let mut open = || {
            let r = client.open(COUNTER, Json::object()).expect("opens");
            r.get("session").and_then(Json::as_u64).expect("session id")
        };
        let (a, b) = (open(), open());
        client.poke(a, "rst", "0").expect("pokes");
        client.step(a, 5, Vec::new()).expect("steps");
        let (ea, eb) = (
            srv.state.sessions.get(a).expect("live"),
            srv.state.sessions.get(b).expect("live"),
        );
        {
            let (sa, sb) = (ea.sim().expect("sound"), eb.sim().expect("sound"));
            assert!(sa.shares_program_with(&sb), "one load, two sessions");
            assert_eq!(sa.counters().cycles, 5);
            assert_eq!(sb.counters().cycles, 0, "b was never stepped");
        }
        assert!(Arc::ptr_eq(&ea.design, &eb.design));
        assert_eq!(srv.state.metrics.compiles_total.load(Ordering::Relaxed), 1);
        drop(client);
        srv.stop();
    }

    /// A 16-word RAM of 32-bit words behind one write port and one
    /// registered read port.
    const RAM32: &str = "module ram32(input clk, input we, input [3:0] wa, input [31:0] wd,
  input [3:0] ra, output reg [31:0] q);
  reg [31:0] mem [0:15];
  always @(posedge clk) begin
    if (we) mem[wa] <= wd;
    q <= mem[ra];
  end
endmodule
";

    /// The `bytes` of a `save` response.
    fn saved_bytes(client: &mut GemClient, session: u64) -> u64 {
        let r = client.request("save", vec![("session", Json::U64(session))]);
        let r = r.expect("saves");
        r.get("bytes").and_then(Json::as_u64).expect("bytes")
    }

    /// A session's snapshot costs the RAM pages its lanes have written:
    /// 64 fresh lanes save the global array alone, and one non-zero word
    /// written in lane 5 adds one 4 KiB page.
    #[test]
    fn save_reports_the_pages_the_lanes_hold() {
        let srv = Running::start();
        let mut client = srv.connect();
        let r = client.open_lanes(RAM32, Json::object(), 64).expect("opens");
        let session = r.get("session").and_then(Json::as_u64).expect("session id");
        let entry = srv.state.sessions.get(session).expect("live");
        let device = &entry.design.package.device;
        assert_eq!(device.rams.len(), 1, "the memory is one RAM block");
        let global = u64::from(device.global_bits) * u64::from(GemSimulator::MAX_LANES / 8);
        assert_eq!(saved_bytes(&mut client, session), global);
        client.poke_lane(session, 5, "we", "1").expect("pokes");
        client.poke_lane(session, 5, "wd", "2a").expect("pokes");
        client
            .step(session, 1, vec![("wa", "3"), ("ra", "3")])
            .expect("steps");
        client.step(session, 3, Vec::new()).expect("steps");
        assert_eq!(
            client.peek_lane(session, 5, "q").expect("peeks"),
            "0000002a"
        );
        assert_eq!(
            client.peek_lane(session, 4, "q").expect("peeks"),
            "00000000"
        );
        assert_eq!(saved_bytes(&mut client, session), global + 4096);
        drop(client);
        srv.stop();
    }

    /// `profile` of a design an `open` has cached runs on a clone of the
    /// entry's power-on machine: no compile, and the same attribution as
    /// a private load of the entry's package.
    #[test]
    fn profile_reuses_the_cached_machine() {
        let srv = Running::start();
        let mut client = srv.connect();
        let r = client.open(COUNTER, Json::object()).expect("opens");
        let session = r.get("session").and_then(Json::as_u64).expect("session id");
        let resp = client
            .profile(COUNTER, Json::object(), 24)
            .expect("profiles");
        assert_eq!(resp.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(srv.state.metrics.compiles_total.load(Ordering::Relaxed), 1);
        let design = Arc::clone(&srv.state.sessions.get(session).expect("live").design);
        let sim = design.package.clone().into_simulator().expect("loads");
        let opts = ProfileOptions {
            cycles: 24,
            ..ProfileOptions::default()
        };
        let private = gem_core::profile(sim, "design", &opts)
            .to_json()
            .to_string();
        let private = gem_telemetry::parse_json(&private).expect("parses");
        let served = resp.get("profile").expect("report");
        for field in ["modeled_hz", "partitions", "layers"] {
            assert_eq!(served.get(field), private.get(field), "{field}");
        }
        drop(client);
        srv.stop();
    }

    /// The verify gate end to end (was `server_e2e`'s
    /// `verify_gate_refuses_to_cache_failing_bitstream`, triggered over
    /// the wire): a compile whose bitstream fails static verification is
    /// refused naming the verifier, negatively cached — the second open
    /// fails without a second compile — and never becomes a session,
    /// while the same design without the fault compiles and runs.
    #[test]
    fn verify_gate_refuses_to_cache_failing_bitstream() {
        let srv = Running::start_drilled();
        let mut client = srv.connect();
        let faulty = format!("{COUNTER}{VERIFY_DRILL}\n");
        refused(client.open(&faulty, small_opts()), "verification failed");
        refused(client.open(&faulty, small_opts()), "verification failed");
        let r = client.open(COUNTER, small_opts()).expect("clean open");
        let session = r.get("session").and_then(Json::as_u64).expect("session id");
        client
            .step(session, 1, vec![("rst", "0")])
            .expect("clean session steps");
        client.close(session).expect("close");
        let m = &srv.state.metrics;
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!(count(&m.verify_failures), 1, "not re-verified on the retry");
        assert_eq!(
            count(&m.compiles_total),
            2,
            "faulty key once, clean key once"
        );
        assert_eq!(count(&m.cache_lookups), 3);
        assert_eq!(count(&m.cache_hits), 1);
        assert_eq!(count(&m.sessions_opened), 1);
        drop(client);
        srv.stop();
    }

    /// Was `server_e2e`'s `bitstream_that_fails_to_load_is_rejected_once`:
    /// a fault that reaches the machine unverified is refused by `load`,
    /// once, inside the cache's single-flight section; every later
    /// request for the key gets the negative entry, and no session opens.
    #[test]
    fn bitstream_that_fails_to_load_is_rejected_once() {
        let srv = Running::start_drilled();
        let mut client = srv.connect();
        let faulty = format!("{COUNTER}{LOAD_DRILL}\n");
        refused(client.open(&faulty, small_opts()), "does not load");
        refused(client.open(&faulty, small_opts()), "does not load");
        refused(client.compile(&faulty, small_opts()), "does not load");
        let m = &srv.state.metrics;
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!(count(&m.compiles_total), 1);
        assert_eq!(count(&m.cache_misses), 1);
        assert_eq!(count(&m.cache_hits), 2);
        assert_eq!(count(&m.sessions_opened), 0);
        drop(client);
        srv.stop();
    }

    /// `verify` and `verify_fault` are options nowhere any more, and an
    /// unknown key in `opts` is ignored: a client that still sends them
    /// gets the verified compile everyone gets, under the same cache key.
    #[test]
    fn the_wire_cannot_switch_the_verifier_off() {
        let srv = Running::start();
        let mut client = srv.connect();
        let mut drill = small_opts();
        drill.set("verify", false);
        drill.set("verify_fault", 5u64);
        let plain = client.compile(COUNTER, small_opts()).expect("compiles");
        let drilled = client.compile(COUNTER, drill).expect("fault ignored");
        assert_eq!(drilled.get("key"), plain.get("key"));
        assert_eq!(drilled.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(drilled.get("report"), plain.get("report"));
        assert_eq!(srv.state.cache.len(), 1, "one verified compile, cached");
        assert_eq!(srv.state.metrics.verify_failures.load(Ordering::Relaxed), 0);
        drop(client);
        srv.stop();
    }

    /// Three injected panics — on the bare connection thread, inside a
    /// gated job, under a session's lock — against one slot and one
    /// place in line: each costs its own request, and nothing else.
    #[test]
    fn a_panic_costs_one_request_not_the_server() {
        let srv = Running::start_with(ServerConfig {
            workers: 1,
            queue: 1,
            ..ServerConfig::default()
        });
        let open = |c: &mut GemClient| {
            let r = c.open(COUNTER, Json::object()).expect("opens");
            r.get("session").and_then(Json::as_u64).expect("session id")
        };
        // Everything a client does, start to finish, on connection `c`;
        // returns what the session computed.
        let serves = |c: &mut GemClient| {
            c.ping(0).expect("plain ping");
            c.ping(1).expect("gated ping: the one slot is free");
            c.compile(COUNTER, Json::object()).expect("good compile");
            let s = open(c);
            c.poke(s, "rst", "0").expect("poke");
            c.step(s, 3, Vec::new()).expect("step");
            let q = c.peek(s, "q").expect("peek");
            c.close(s).expect("close");
            q
        };
        let internal = |r: Result<Json, ClientError>, needle: &str| match r {
            Err(ClientError::Server { code, message, .. }) => {
                assert_eq!(code, codes::INTERNAL);
                assert!(message.contains(needle), "{message}");
            }
            other => panic!("expected a typed internal error, got {other:?}"),
        };
        let mut same = srv.connect();
        let victim = open(&mut same);
        same.save(victim)
            .expect("a checkpoint for `restore` to find");
        let healthy = serves(&mut same);
        for (at, says) in [
            ("inline", "injected inline"),
            ("job", "injected in a job"),
            ("session", "injected under the session lock"),
        ] {
            let fields = vec![("at", Json::from(at)), ("session", Json::U64(victim))];
            // The envelope carries the request's own id (the client
            // checks it) and a typed code; the connection stays open.
            internal(same.request("panic", fields), says);
            assert_eq!(serves(&mut same), healthy);
            assert_eq!(serves(&mut srv.connect()), healthy);
        }
        // The session whose lock the third panic held is poisoned, not
        // gone: every use of its machine is a typed error, and it closes.
        let sid = || vec![("session", Json::U64(victim))];
        let port = |p: &str| [sid(), vec![("port", Json::from(p))]].concat();
        let poke = [port("rst"), vec![("value", Json::from("0"))]].concat();
        for (cmd, fields) in [
            ("poke", poke),
            ("peek", port("q")),
            ("step", sid()),
            ("replay", [sid(), vec![("vcd", Json::from(""))]].concat()),
            ("save", sid()),
            ("restore", sid()),
        ] {
            internal(same.request(cmd, fields), "failed in an earlier request");
        }
        same.close(victim).expect("a poisoned session still closes");

        let m = &srv.state.metrics;
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!(lock(&m.panics).get("panic"), Some(&3));
        let snapshot = m.snapshot();
        let family = snapshot.family("gem_server_panics_total");
        assert_eq!(family.expect("exported").total(), 3.0);
        assert_eq!(
            count(&m.jobs_submitted),
            count(&m.jobs_completed) + count(&m.jobs_rejected),
            "the two jobs that unwound gave their slots back and counted"
        );
        assert_eq!(count(&m.jobs_rejected), 0);
        assert_eq!(count(&m.queue_depth), 0);
        assert_eq!(count(&m.sessions_active), 0);
        drop(same);
        let deadline = Instant::now() + Duration::from_secs(10);
        while count(&m.connections_active) != 0 {
            assert!(Instant::now() < deadline, "a connection was never released");
            std::thread::yield_now();
        }
        assert!(lock(&srv.state.conns).is_empty());
        srv.stop();
    }
}
