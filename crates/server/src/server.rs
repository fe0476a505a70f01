//! The TCP server: accept loop, connection handlers, and the command
//! dispatcher.
//!
//! Threading model, smallest to largest scope:
//!
//! * **one thread per connection** reads frames and answers cheap
//!   control commands (`poke`, `peek`, `close`, `stats`) inline;
//! * **heavy commands** (`compile`, `open`, `step`, `replay`, delayed
//!   `ping`) are offered to the shared [`WorkerPool`]; a full queue turns
//!   into a `busy` response with a `retry_after_ms` hint instead of a
//!   blocked handler;
//! * **one reaper thread** evicts sessions idle past the configured
//!   timeout;
//! * the **accept loop** owns everything and joins all of it on
//!   `shutdown`, so `Server::run` returning means no thread of this
//!   server is left behind.

use crate::cache::CompileCache;
use crate::metrics::{dec, inc, ServerMetrics};
use crate::pool::{SubmitError, WorkerPool};
use crate::protocol::{self, codes};
use crate::session::SessionTable;
use gem_core::{CompileOptions, GemSimulator, ProfileOptions, VcdStimulus};
use gem_netlist::vcd::VcdWriter;
use gem_telemetry::span;
use gem_telemetry::{read_frame, write_frame, FrameError, Json, DEFAULT_MAX_FRAME};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads executing simulation jobs.
    pub workers: usize,
    /// Bounded job-queue capacity (beyond-running jobs waiting).
    pub queue: usize,
    /// Compiled designs kept in the LRU cache.
    pub cache: usize,
    /// Sessions idle longer than this are evicted.
    pub idle_timeout: Duration,
    /// Largest accepted/emitted frame payload, bytes.
    pub max_frame: usize,
    /// How often the reaper scans for idle sessions.
    pub reap_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue: 32,
            cache: 8,
            idle_timeout: Duration::from_secs(300),
            max_frame: DEFAULT_MAX_FRAME,
            reap_interval: Duration::from_millis(100),
        }
    }
}

struct ServerState {
    cfg: ServerConfig,
    metrics: Arc<ServerMetrics>,
    cache: CompileCache,
    sessions: SessionTable,
    pool: WorkerPool,
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
    /// (`"rid"`) and stamped onto every span the request causes —
    /// including spans recorded by pool workers (see [`run_on_pool`]).
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
    /// Binds the listener and builds the shared state (pool threads start
    /// immediately; the accept loop starts in [`run`](Self::run)).
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
            pool: WorkerPool::new(cfg.workers, cfg.queue, Arc::clone(&metrics)),
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

    /// Serves until a client issues `shutdown`. Joins every connection
    /// handler, the reaper, and the worker pool before returning.
    ///
    /// # Errors
    ///
    /// I/O errors from the accept loop (not from individual connections).
    pub fn run(self) -> io::Result<()> {
        let state = self.state;
        let reaper = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("gem-reaper".into())
                .spawn(move || {
                    while !state.stop.load(Ordering::SeqCst) {
                        std::thread::sleep(state.cfg.reap_interval);
                        state.sessions.evict_idle(state.cfg.idle_timeout);
                    }
                })
                .expect("spawn reaper")
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
            let conn_id = state.next_conn.fetch_add(1, Ordering::Relaxed);
            if let Ok(clone) = stream.try_clone() {
                state.conns.lock().unwrap().insert(conn_id, clone);
            }
            inc(&state.metrics.connections_total);
            inc(&state.metrics.connections_active);
            let state2 = Arc::clone(&state);
            let handler = std::thread::Builder::new()
                .name(format!("gem-conn-{conn_id}"))
                .spawn(move || handle_connection(&state2, stream, conn_id))
                .expect("spawn connection handler");
            let mut handlers = state.handlers.lock().unwrap();
            handlers.retain(|h| !h.is_finished());
            handlers.push(handler);
        }
        // Unblock handlers still parked in read_frame, then join them.
        for (_, c) in state.conns.lock().unwrap().drain() {
            let _ = c.shutdown(std::net::Shutdown::Both);
        }
        let handlers = std::mem::take(&mut *state.handlers.lock().unwrap());
        for h in handlers {
            let _ = h.join();
        }
        let _ = reaper.join();
        // Dropping the state joins the worker pool (queue runs dry first).
        Ok(())
    }
}

/// Wakes a `run` loop blocked in `accept` after `stop` was set.
fn wake_accept(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

fn handle_connection(state: &Arc<ServerState>, mut stream: TcpStream, conn_id: u64) {
    loop {
        let req = match read_frame(&mut stream, state.cfg.max_frame) {
            Ok(v) => v,
            Err(FrameError::Closed) => break,
            Err(e) => {
                // Framing is broken; report once (best effort) and drop.
                let resp =
                    protocol::err_response(0, codes::BAD_REQUEST, &format!("bad frame: {e}"));
                let _ = write_frame(&mut stream, &resp, state.cfg.max_frame);
                break;
            }
        };
        inc(&state.metrics.requests_total);
        let id = req.get("id").and_then(Json::as_u64).unwrap_or(0);
        // One correlation id per request: scoped here so every span this
        // request records (inline or via a pool worker) carries it, and
        // echoed on the wire so the client can link frames to spans.
        let rid = state.next_rid.fetch_add(1, Ordering::Relaxed);
        let started = std::time::Instant::now();
        let (mut resp, shutdown) = {
            let _scope = span::request_scope(rid);
            let _req_span = if span::enabled() {
                let cmd = req.get("cmd").and_then(Json::as_str).unwrap_or("?");
                let mut sp = span::span(format!("request:{cmd}"), "server");
                sp.arg("id", id).arg("conn", conn_id);
                Some(sp)
            } else {
                None
            };
            dispatch(state, id, &req)
        };
        state
            .metrics
            .observe_request_latency(started.elapsed().as_nanos() as f64 / 1e3);
        resp.set("rid", rid);
        if write_frame(&mut stream, &resp, state.cfg.max_frame).is_err() {
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
    state.conns.lock().unwrap().remove(&conn_id);
    dec(&state.metrics.connections_active);
}

/// Routes one request. Returns the response and whether this request
/// asked the whole server to shut down.
fn dispatch(state: &Arc<ServerState>, id: u64, req: &Json) -> (Json, bool) {
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
        other => Err((
            codes::BAD_REQUEST.to_string(),
            format!("unknown command {other:?}"),
        )),
    };
    let resp = match result {
        Ok(r) => r,
        Err((code, message)) => {
            let mut r = protocol::err_response(id, &code, &message);
            if code == codes::BUSY {
                r.set("retry_after_ms", state.pool.retry_after_ms());
            }
            r
        }
    };
    (resp, false)
}

type CmdResult = Result<Json, (String, String)>;

fn bad(msg: impl Into<String>) -> (String, String) {
    (codes::BAD_REQUEST.to_string(), msg.into())
}

/// Offers `job` to the pool and waits for its response. A full queue
/// becomes a `busy` error, so the connection thread never blocks on
/// queue space — only on the job it successfully enqueued.
///
/// The connection thread's request id crosses into the worker: the job
/// wrapper re-installs the request scope and opens a `name` span on the
/// worker thread, so pooled compile/step work stays correlated with the
/// wire request that caused it. Rejections count into the per-reason
/// `gem_server_rejected_total` family.
fn run_on_pool(
    state: &Arc<ServerState>,
    name: &'static str,
    job: impl FnOnce() -> Json + Send + 'static,
) -> CmdResult {
    let (tx, rx) = mpsc::channel();
    let rid = span::current_request_id();
    let submitted = state.pool.try_submit(move || {
        let _scope = rid.map(span::request_scope);
        let _job_span = span::enabled().then(|| span::span(format!("job:{name}"), "server"));
        let _ = tx.send(job());
    });
    match submitted {
        Ok(()) => rx
            .recv()
            .map_err(|_| (codes::INTERNAL.to_string(), "worker dropped job".into())),
        Err(e @ SubmitError::Full { .. }) => {
            inc(&state.metrics.rejected_queue_full);
            Err((codes::BUSY.to_string(), e.to_string()))
        }
        Err(e @ SubmitError::ShuttingDown) => {
            inc(&state.metrics.rejected_shutting_down);
            Err((codes::BUSY.to_string(), e.to_string()))
        }
    }
}

/// Parses the optional `opts` object of `compile`/`open` requests.
fn compile_opts(req: &Json) -> Result<CompileOptions, (String, String)> {
    let mut opts = CompileOptions {
        core_width: 2048,
        target_parts: 8,
        stages: 1,
        ..Default::default()
    };
    if let Some(o) = req.get("opts") {
        opts.core_width =
            protocol::opt_u64(o, "width", opts.core_width as u64).map_err(bad)? as u32;
        opts.target_parts =
            protocol::opt_u64(o, "parts", opts.target_parts as u64).map_err(bad)? as usize;
        opts.stages = protocol::opt_u64(o, "stages", opts.stages as u64).map_err(bad)? as usize;
        opts.seed = protocol::opt_u64(o, "seed", opts.seed).map_err(bad)?;
        if let Some(v) = o.get("verify").and_then(Json::as_bool) {
            opts.verify = v;
        }
        // Fault injection for the verify gate (tests, drills): a nonzero
        // seed corrupts the bitstream before verification.
        opts.verify_fault = protocol::opt_u64(o, "verify_fault", opts.verify_fault).map_err(bad)?;
    }
    Ok(opts)
}

fn cmd_ping(state: &Arc<ServerState>, id: u64, req: &Json) -> CmdResult {
    let delay_ms = protocol::opt_u64(req, "delay_ms", 0).map_err(bad)?;
    let mut resp = protocol::ok_response(id);
    resp.set("pong", true);
    if delay_ms == 0 {
        return Ok(resp);
    }
    // Delayed pings run through the pool: they occupy a worker slot
    // exactly like simulation work, which makes backpressure directly
    // testable without racing a real compile.
    run_on_pool(state, "ping", move || {
        std::thread::sleep(Duration::from_millis(delay_ms));
        resp
    })
}

fn cmd_compile(state: &Arc<ServerState>, id: u64, req: &Json) -> CmdResult {
    let source = protocol::req_str(req, "source").map_err(bad)?.to_string();
    let opts = compile_opts(req)?;
    let state2 = Arc::clone(state);
    run_on_pool(state, "compile", move || {
        let (key, result, cached) = state2.cache.get_or_compile(&source, &opts);
        match result {
            Ok(design) => {
                let mut r = protocol::ok_response(id);
                r.set("key", format!("{key:016x}"));
                r.set("cached", cached);
                r.set("report", design.compiled.report.to_json());
                r
            }
            Err(e) => protocol::err_response(id, codes::COMPILE_FAILED, &e),
        }
    })
}

fn cmd_open(state: &Arc<ServerState>, id: u64, req: &Json) -> CmdResult {
    let source = protocol::req_str(req, "source").map_err(bad)?.to_string();
    let opts = compile_opts(req)?;
    // Optional lane count (`"lanes": N`): N > 1 opens a *batch* session
    // that steps N independent stimulus streams per cycle. Validated
    // here, before any pool work, so a bad count is a cheap typed error.
    let lanes = protocol::opt_u64(req, "lanes", 1).map_err(bad)?;
    if lanes == 0 || lanes > GemSimulator::MAX_LANES as u64 {
        return Err((
            codes::BAD_LANES.to_string(),
            format!(
                "lane count {lanes} out of range: must be between 1 and {}",
                GemSimulator::MAX_LANES
            ),
        ));
    }
    let lanes = lanes as u32;
    let state2 = Arc::clone(state);
    run_on_pool(state, "open", move || {
        let (key, result, cached) = state2.cache.get_or_compile(&source, &opts);
        let design = match result {
            Ok(d) => d,
            Err(e) => return protocol::err_response(id, codes::COMPILE_FAILED, &e),
        };
        let mut sim = design.simulator();
        if let Err(e) = sim.set_lanes(lanes) {
            return protocol::err_response(id, codes::BAD_LANES, &e.to_string());
        }
        let session = state2.sessions.open(key, Arc::clone(&design), sim, lanes);
        let mut r = protocol::ok_response(id);
        r.set("session", session);
        r.set("lanes", lanes as u64);
        r.set("key", format!("{key:016x}"));
        r.set("cached", cached);
        r.set("report", design.compiled.report.to_json());
        r
    })
}

/// Parses the optional `lane` field of `poke`/`peek` requests and
/// validates it against the session's lane count.
fn opt_lane(req: &Json, lanes: u32) -> Result<Option<u32>, (String, String)> {
    match req.get("lane") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let lane = v
                .as_u64()
                .ok_or_else(|| bad("non-integer field \"lane\""))?;
            if lane >= lanes as u64 {
                return Err((
                    codes::BAD_LANES.to_string(),
                    format!("lane {lane} out of range: session has {lanes} lane(s)"),
                ));
            }
            Ok(Some(lane as u32))
        }
    }
}

fn session_of(
    state: &Arc<ServerState>,
    req: &Json,
) -> Result<Arc<crate::session::SessionEntry>, (String, String)> {
    let sid = protocol::req_u64(req, "session").map_err(bad)?;
    state
        .sessions
        .get(sid)
        .ok_or_else(|| (codes::NOT_FOUND.to_string(), format!("no session {sid}")))
}

fn cmd_poke(state: &Arc<ServerState>, id: u64, req: &Json) -> CmdResult {
    let entry = session_of(state, req)?;
    let port = protocol::req_str(req, "port").map_err(bad)?;
    let value = protocol::req_str(req, "value").map_err(bad)?;
    let lane = opt_lane(req, entry.lanes)?;
    let mut sim = entry.sim.lock().unwrap();
    let width = sim
        .io()
        .input(port)
        .ok_or_else(|| bad(format!("no input port {port:?}")))?
        .bits
        .len() as u32;
    let bits = protocol::bits_from_hex(value, width).map_err(bad)?;
    match lane {
        // No lane: the poke broadcasts to every lane (single-stimulus
        // clients keep their exact old semantics).
        None => sim.set_input(port, bits),
        Some(lane) => sim.set_input_lane(port, lane, bits),
    }
    Ok(protocol::ok_response(id))
}

fn cmd_peek(state: &Arc<ServerState>, id: u64, req: &Json) -> CmdResult {
    let entry = session_of(state, req)?;
    let port = protocol::req_str(req, "port").map_err(bad)?.to_string();
    let lane = opt_lane(req, entry.lanes)?;
    let sim = entry.sim.lock().unwrap();
    if sim.io().output(&port).is_none() {
        return Err(bad(format!("no output port {port:?}")));
    }
    let value = match lane {
        None => sim.output(&port), // lane 0: the scalar view
        Some(lane) => sim.output_lane(&port, lane),
    };
    let mut r = protocol::ok_response(id);
    r.set("value", protocol::bits_to_hex(&value));
    Ok(r)
}

fn cmd_step(state: &Arc<ServerState>, id: u64, req: &Json) -> CmdResult {
    let entry = session_of(state, req)?;
    let cycles = protocol::opt_u64(req, "cycles", 1).map_err(bad)?;
    // Pokes applied before the first cycle: {"pokes": {"port": "hex"}}.
    let pokes: Vec<(String, String)> = match req.get("pokes") {
        None | Some(Json::Null) => Vec::new(),
        Some(Json::Object(fields)) => fields
            .iter()
            .map(|(k, v)| {
                v.as_str()
                    .map(|s| (k.clone(), s.to_string()))
                    .ok_or_else(|| bad(format!("poke {k:?} is not a hex string")))
            })
            .collect::<Result<_, _>>()?,
        Some(_) => return Err(bad("\"pokes\" must be an object")),
    };
    let state2 = Arc::clone(state);
    run_on_pool(state, "step", move || {
        let mut sim = entry.sim.lock().unwrap();
        for (port, value) in &pokes {
            let Some(p) = sim.io().input(port) else {
                return protocol::err_response(
                    id,
                    codes::BAD_REQUEST,
                    &format!("no input port {port:?}"),
                );
            };
            let width = p.bits.len() as u32;
            match protocol::bits_from_hex(value, width) {
                Ok(bits) => sim.set_input(port, bits),
                Err(e) => return protocol::err_response(id, codes::BAD_REQUEST, &e),
            }
        }
        for _ in 0..cycles {
            sim.step();
        }
        crate::metrics::add(&state2.metrics.cycles_total, cycles);
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
        r
    })
}

fn cmd_replay(state: &Arc<ServerState>, id: u64, req: &Json) -> CmdResult {
    let entry = session_of(state, req)?;
    // Batch form: `"vcds": [text, …]` replays one stimulus VCD per lane
    // in lockstep (see cmd_replay_batch). Mutually exclusive with the
    // single-stimulus `"vcd"` field.
    if req.get("vcds").is_some() {
        return cmd_replay_batch(state, id, req, entry);
    }
    let vcd_text = protocol::req_str(req, "vcd").map_err(bad)?.to_string();
    let state2 = Arc::clone(state);
    run_on_pool(state, "replay", move || {
        let mut sim = entry.sim.lock().unwrap();
        let stim = match VcdStimulus::new(&vcd_text, sim.io()) {
            Ok(s) => s,
            Err(e) => return protocol::err_response(id, codes::BAD_REQUEST, &e.to_string()),
        };
        let rows = stim.replay(&mut sim);
        crate::metrics::add(&state2.metrics.cycles_total, rows.len() as u64);
        // The response carries the outputs both structured (per-cycle hex
        // maps) and as a VCD document, so a client can `read-vcd` without
        // a second round trip.
        let mut w = VcdWriter::new("gem");
        let vars: Vec<_> = sim
            .io()
            .outputs
            .iter()
            .map(|p| w.add_var(&p.name, p.bits.len() as u32))
            .collect();
        w.begin();
        let mut cycles_json = Vec::with_capacity(rows.len());
        for (t, row) in rows.iter().enumerate() {
            w.timestamp(t as u64);
            let mut obj = Json::object();
            for (var, (name, v)) in vars.iter().zip(row) {
                w.change(*var, v);
                obj.set(name, protocol::bits_to_hex(v));
            }
            cycles_json.push(obj);
        }
        let mut r = protocol::ok_response(id);
        r.set("cycles", rows.len() as u64);
        r.set("outputs", Json::Array(cycles_json));
        r.set("vcd", w.finish());
        r
    })
}

/// Batch replay: one stimulus VCD per lane, advanced in lockstep (the
/// k-th timestamp of every stimulus lands on the same machine cycle).
/// Streams may have different lengths; a lane whose stimulus is
/// exhausted simply holds its last values, exactly like a waveform that
/// stops changing. The response carries one output VCD per stimulus
/// lane in the same order.
fn cmd_replay_batch(
    state: &Arc<ServerState>,
    id: u64,
    req: &Json,
    entry: Arc<crate::session::SessionEntry>,
) -> CmdResult {
    let texts: Vec<String> = match req.get("vcds") {
        Some(Json::Array(items)) => items
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| bad("\"vcds\" entries must be VCD strings"))
            })
            .collect::<Result<_, _>>()?,
        _ => return Err(bad("\"vcds\" must be an array of VCD strings")),
    };
    if texts.is_empty() || texts.len() > entry.lanes as usize {
        return Err((
            codes::BAD_LANES.to_string(),
            format!(
                "{} stimulus VCD(s) for a session with {} lane(s)",
                texts.len(),
                entry.lanes
            ),
        ));
    }
    let state2 = Arc::clone(state);
    run_on_pool(state, "replay", move || {
        let mut sim = entry.sim.lock().unwrap();
        let mut stims = Vec::with_capacity(texts.len());
        for (lane, text) in texts.iter().enumerate() {
            match VcdStimulus::new(text, sim.io()) {
                Ok(s) => stims.push(s),
                Err(e) => {
                    return protocol::err_response(
                        id,
                        codes::BAD_REQUEST,
                        &format!("stimulus VCD for lane {lane}: {e}"),
                    )
                }
            }
        }
        let total = stims.iter().map(VcdStimulus::cycles).max().unwrap_or(0);
        let mut writers: Vec<(VcdWriter, Vec<_>)> = (0..stims.len())
            .map(|_| {
                let mut w = VcdWriter::new("gem");
                let vars: Vec<_> = sim
                    .io()
                    .outputs
                    .iter()
                    .map(|p| w.add_var(&p.name, p.bits.len() as u32))
                    .collect();
                w.begin();
                (w, vars)
            })
            .collect();
        for t in 0..total {
            for (lane, stim) in stims.iter().enumerate() {
                for (_, name, v) in stim.changes_at(t) {
                    sim.set_input_lane(name, lane as u32, v.clone());
                }
            }
            sim.step();
            for (lane, (w, vars)) in writers.iter_mut().enumerate() {
                w.timestamp(t as u64);
                for (var, p) in vars.iter().zip(sim.io().outputs.iter()) {
                    w.change(*var, &sim.output_lane(&p.name, lane as u32));
                }
            }
        }
        crate::metrics::add(&state2.metrics.cycles_total, total as u64);
        let mut r = protocol::ok_response(id);
        r.set("cycles", total as u64);
        r.set(
            "vcds",
            Json::Array(
                writers
                    .into_iter()
                    .map(|(w, _)| Json::Str(w.finish()))
                    .collect(),
            ),
        );
        r
    })
}

/// `profile`: compile (through the cache) and run a hotspot-attribution
/// pass on a fresh simulator — sessions are untouched, so profiling a
/// design never perturbs live waveforms.
fn cmd_profile(state: &Arc<ServerState>, id: u64, req: &Json) -> CmdResult {
    let source = protocol::req_str(req, "source").map_err(bad)?.to_string();
    let opts = compile_opts(req)?;
    let cycles = protocol::opt_u64(req, "cycles", 256).map_err(bad)?;
    let design_name = req
        .get("design")
        .and_then(Json::as_str)
        .unwrap_or("design")
        .to_string();
    let state2 = Arc::clone(state);
    run_on_pool(state, "profile", move || {
        let (key, result, cached) = state2.cache.get_or_compile(&source, &opts);
        let design = match result {
            Ok(d) => d,
            Err(e) => return protocol::err_response(id, codes::COMPILE_FAILED, &e),
        };
        let popts = ProfileOptions {
            cycles,
            ..ProfileOptions::default()
        };
        match gem_core::profile(&design.compiled, &design_name, &popts) {
            Ok(report) => {
                let mut r = protocol::ok_response(id);
                r.set("key", format!("{key:016x}"));
                r.set("cached", cached);
                r.set("profile", report.to_json());
                r.set("table", report.render_table());
                r
            }
            Err(e) => protocol::err_response(id, codes::INTERNAL, &e.to_string()),
        }
    })
}

/// `lint`: run the static analyzer over a design source and, when the
/// netlist is clean of errors, compile it (through the cache) to attach
/// the schedule happens-before certificate. Sessions are untouched.
fn cmd_lint(state: &Arc<ServerState>, id: u64, req: &Json) -> CmdResult {
    let source = protocol::req_str(req, "source").map_err(bad)?.to_string();
    let opts = compile_opts(req)?;
    let state2 = Arc::clone(state);
    run_on_pool(state, "lint", move || {
        let (module, lints) = match gem_netlist::verilog::parse_with_lints(&source) {
            Ok(r) => r,
            Err(e) => return protocol::err_response(id, codes::COMPILE_FAILED, &e.to_string()),
        };
        let report = gem_analyze::analyze_with_lints(&module, &lints);
        let diagnostics: Vec<Json> = report
            .diagnostics
            .iter()
            .map(|d| {
                let mut o = Json::object();
                o.set("code", d.code);
                o.set("severity", d.severity.name());
                o.set("message", d.message.as_str());
                o.set("witness", d.witness.as_str());
                o
            })
            .collect();
        let mut r = protocol::ok_response(id);
        r.set("diagnostics", Json::Array(diagnostics));
        r.set("summary", report.summary());
        r.set("clean", report.clean(gem_analyze::Severity::Warning));
        // Certification needs the compiled schedule; skip it when the
        // netlist already has error-severity findings.
        let mut certified = false;
        if report.clean(gem_analyze::Severity::Error) {
            let (key, result, cached) = state2.cache.get_or_compile(&source, &opts);
            r.set("key", format!("{key:016x}"));
            r.set("cached", cached);
            match result {
                Ok(design) => {
                    certified = design.compiled.report.certified;
                    if let Some(cert) = &design.compiled.schedule_cert {
                        r.set("cert", cert.summary());
                    }
                }
                Err(e) => {
                    r.set("compile_error", e.as_str());
                }
            }
        }
        r.set("certified", certified);
        r
    })
}

fn cmd_save(state: &Arc<ServerState>, id: u64, req: &Json) -> CmdResult {
    let entry = session_of(state, req)?;
    let sim = entry.sim.lock().unwrap();
    let snap = sim.snapshot();
    let mut r = protocol::ok_response(id);
    r.set("bytes", snap.approx_bytes() as u64);
    *entry.saved.lock().unwrap() = Some(snap);
    Ok(r)
}

fn cmd_restore(state: &Arc<ServerState>, id: u64, req: &Json) -> CmdResult {
    let entry = session_of(state, req)?;
    let saved = entry.saved.lock().unwrap();
    let Some(snap) = saved.as_ref() else {
        return Err((
            codes::NOT_FOUND.to_string(),
            "no saved checkpoint for this session".into(),
        ));
    };
    let mut sim = entry.sim.lock().unwrap();
    sim.restore(snap)
        .map_err(|e| (codes::INTERNAL.to_string(), e.to_string()))?;
    Ok(protocol::ok_response(id))
}

fn cmd_close(state: &Arc<ServerState>, id: u64, req: &Json) -> CmdResult {
    let sid = protocol::req_u64(req, "session").map_err(bad)?;
    if state.sessions.close(sid) {
        Ok(protocol::ok_response(id))
    } else {
        Err((codes::NOT_FOUND.to_string(), format!("no session {sid}")))
    }
}

fn cmd_stats(state: &Arc<ServerState>, id: u64) -> CmdResult {
    let mut r = protocol::ok_response(id);
    r.set("metrics", state.metrics.snapshot().to_json());
    r.set("sessions", state.sessions.len() as u64);
    r.set("cache_entries", state.cache.len() as u64);
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::tests::COUNTER;
    use crate::client::GemClient;
    use std::time::Instant;

    /// A running server whose shared state the test can look into.
    struct Running {
        state: Arc<ServerState>,
        thread: JoinHandle<io::Result<()>>,
    }

    impl Running {
        fn start() -> Self {
            let server = Server::bind(ServerConfig::default()).expect("loopback binds");
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
            let conns = srv.state.conns.lock().unwrap();
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
            most = most.max(srv.state.handlers.lock().unwrap().len());
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
            let (sa, sb) = (ea.sim.lock().unwrap(), eb.sim.lock().unwrap());
            assert!(sa.shares_program_with(&sb), "one load, two sessions");
            assert_eq!(sa.counters().cycles, 5);
            assert_eq!(sb.counters().cycles, 0, "b was never stepped");
        }
        assert!(Arc::ptr_eq(&ea.design, &eb.design));
        assert_eq!(srv.state.metrics.compiles_total.load(Ordering::Relaxed), 1);
        drop(client);
        srv.stop();
    }
}
