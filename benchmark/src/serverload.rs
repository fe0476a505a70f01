//! `server_mac`: the simulation service under a closed loop of two
//! clients (one per host core), each waiting for every reply before it
//! sends the next request.
//!
//! The served design is tiny, so the engine does almost none of the work
//! and wire, queue and session handling nearly all of it. The reference
//! is the harness's own model of the four-lane MAC, not the simulator.

use crate::dut::{apply, bring_up, server_default_options, CycleInputs, Dut, Rtl, NVDLA_MAC};
use crate::layers;
use crate::report::{Digest, Outcome, RunConfig};
use crate::spans::Recorder;
use crate::spec::Metrics;
use crate::stats::{median, quantile, sorted};
use gem_netlist::Bits;
use gem_server::{GemClient, Server, ServerConfig};
use gem_telemetry::wire::{read_frame, write_frame};
use gem_telemetry::Json;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
/// Simulated cycles per `step` request.
const CYCLES_PER_STEP: u64 = 16;
/// A request refused `busy` is retried this often before it counts as
/// failed; the clock of the request keeps running across retries.
const BUSY_RETRIES: u32 = 50;

/// splitmix64: the harness's own generator, so the server receives only
/// the generated pokes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The `(act, wgt)` operands of one client's request stream.
struct Operands(Rng);

impl Operands {
    fn new(seed: u64, client: usize) -> Self {
        Operands(Rng(seed.wrapping_mul(0x1000).wrapping_add(client as u64)))
    }
    fn next(&mut self) -> (u32, u32) {
        let r = self.0.next();
        (r as u32, (r >> 32) as u32)
    }
}

/// The harness's model of `nvdla_mac`: four 8×8 products summed into a
/// 32-bit accumulator every cycle `start` is high.
#[derive(Default)]
struct MacModel {
    acc: u32,
}

impl MacModel {
    /// Advances `cycles` cycles on fixed operands; returns what the `acc`
    /// port shows during the last of them (the value before that cycle's
    /// clock edge — the simulator's output convention).
    fn step(&mut self, act: u32, wgt: u32, cycles: u64) -> u32 {
        let sum: u32 = (0..4)
            .map(|i| ((act >> (8 * i)) & 0xff) * ((wgt >> (8 * i)) & 0xff))
            .sum();
        let seen = self.acc.wrapping_add(sum.wrapping_mul(cycles as u32 - 1));
        self.acc = seen.wrapping_add(sum);
        seen
    }
}

/// A running server and the thread its accept loop lives on.
struct Served {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Served {
    fn start() -> Self {
        let server = Server::bind(ServerConfig::default()).expect("loopback binds");
        Served {
            addr: server.local_addr(),
            thread: std::thread::spawn(move || server.run()),
        }
    }

    /// Asks the server to stop and waits until every thread of it has.
    fn stop(self) {
        GemClient::connect(self.addr)
            .expect("server still accepts")
            .shutdown()
            .expect("shutdown is acknowledged");
        self.thread
            .join()
            .expect("server thread does not panic")
            .expect("accept loop ends cleanly");
    }
}

/// One client connection with its session and tallies.
struct Client {
    conn: GemClient,
    session: u64,
    attempted: u64,
    failed: u64,
    busy_retries: u64,
}

impl Client {
    /// Sends one request, retrying politely while the server says busy.
    /// Counts the operation; an error or a final refusal counts as failed
    /// and yields `None`.
    fn request<T>(
        &mut self,
        mut send: impl FnMut(&mut GemClient, u64) -> Result<T, gem_server::ClientError>,
    ) -> Option<T> {
        self.attempted += 1;
        for _ in 0..=BUSY_RETRIES {
            match send(&mut self.conn, self.session) {
                Ok(v) => return Some(v),
                Err(e) if e.is_busy() => {
                    self.busy_retries += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    eprintln!("server_mac: request failed: {e}");
                    break;
                }
            }
        }
        self.failed += 1;
        None
    }
}

/// Bind, both opens (the first compiles, the second hits the cache), and
/// each session through reset and its first cycle. Returns the time of
/// the cold and of the cached `open`.
fn set_up(rec: &mut Recorder) -> (Served, Vec<Client>, f64, f64) {
    let served = Served::start();
    let mut clients = Vec::new();
    let mut open_s = Vec::new();
    for _ in 0..CLIENTS {
        let mut conn = GemClient::connect(served.addr).expect("loopback connects");
        let (opened, s) = rec.time("server", "open", |_| {
            conn.open(NVDLA_MAC, Json::object())
                .expect("nvdla_mac opens")
        });
        open_s.push(s);
        let mut c = Client {
            conn,
            session: opened
                .get("session")
                .and_then(Json::as_u64)
                .expect("session id"),
            attempted: 1,
            failed: 0,
            busy_retries: 0,
        };
        c.request(|conn, s| conn.poke(s, "rst", "1"));
        c.request(|conn, s| conn.step(s, 1, Vec::new()));
        c.request(|conn, s| conn.poke(s, "rst", "0"));
        clients.push(c);
    }
    (served, clients, open_s[0], open_s[1])
}

/// What one client measured.
#[derive(Default)]
struct Loop {
    plain_step_s: Vec<f64>,
    traced_step_s: Vec<f64>,
    peek_s: Vec<f64>,
    ping_s: Vec<f64>,
    acked_cycles: u64,
    /// The first `digest_iters` values `peek acc` returned.
    seen: Vec<u32>,
    wall_s: f64,
}

fn drive(
    mut c: Client,
    index: usize,
    cfg: &RunConfig,
    origin: Instant,
    start_line: &Barrier,
) -> (Client, Loop, Recorder) {
    let mut rec = Recorder::new(origin, index as u32 + 1, cfg.trace);
    let mut ops = Operands::new(cfg.seed, index);
    let mut model = MacModel::default();
    let mut out = Loop::default();
    // A request costs tens of milliseconds where a cycle costs two, so a
    // block is an eighth of a simulator window and half as many are owed.
    let (block, min_blocks) = ((cfg.window / 8).max(2), (cfg.min_windows / 2).max(2));
    let digest_iters = min_blocks * block;
    start_line.wait();
    let t0 = Instant::now();
    let mut blocks = 0;
    while blocks < min_blocks || t0.elapsed().as_secs_f64() < cfg.seconds {
        let trace_this = cfg.trace && blocks % 2 == 1;
        rec.set_enabled(trace_this);
        for _ in 0..block {
            let (act, wgt) = ops.next();
            let (act_hex, wgt_hex) = (format!("{act:08x}"), format!("{wgt:08x}"));
            let step = |conn: &mut GemClient, s| {
                let pokes = vec![("start", "1"), ("act", &*act_hex), ("wgt", &*wgt_hex)];
                conn.step(s, CYCLES_PER_STEP, pokes)
            };
            let (reply, step_s) = rec.time("server", "step", |_| c.request(step));
            if trace_this {
                out.traced_step_s.push(step_s);
            } else {
                out.plain_step_s.push(step_s);
            }
            if reply.is_some() {
                out.acked_cycles += CYCLES_PER_STEP;
            }
            let (acc, peek_s) = rec.time("server", "peek", |_| {
                c.request(|conn, s| conn.peek(s, "acc"))
            });
            out.peek_s.push(peek_s);
            let want = model.step(act, wgt, CYCLES_PER_STEP) ^ u32::from(cfg.flip_golden);
            let got = acc.and_then(|hex| u32::from_str_radix(&hex, 16).ok());
            if let Some(got) = got {
                if got != want {
                    c.failed += 1;
                }
                if out.seen.len() < digest_iters {
                    out.seen.push(got);
                }
            }
        }
        blocks += 1;
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    rec.set_enabled(cfg.trace);
    if cfg.trace {
        for _ in 0..cfg.probe_cycles.min(32) {
            let (_, s) = rec.time("server", "ping", |_| c.request(|conn, _| conn.ping(0)));
            out.ping_s.push(s);
        }
    }
    c.request(|conn, s| conn.close(s));
    (c, out, rec)
}

/// Sum of a metric family's samples in a `stats` reply.
fn family(stats: &Json, name: &str) -> f64 {
    stats
        .get("metrics")
        .and_then(|m| m.get("families"))
        .and_then(Json::as_array)
        .into_iter()
        .flatten()
        .filter(|f| f.get("name").and_then(Json::as_str) == Some(name))
        .filter_map(|f| f.get("samples").and_then(Json::as_array))
        .flatten()
        .filter_map(|s| s.get("value").and_then(Json::as_f64))
        .sum()
}

/// A typical step request through the framing layer alone: serialise,
/// frame, unframe and parse, on an in-memory buffer.
fn frame_roundtrip(rec: &mut Recorder, reps: usize) -> f64 {
    let mut pokes = Json::object();
    pokes.set("start", "1");
    pokes.set("act", "01234567");
    pokes.set("wgt", "89abcdef");
    let mut req = Json::object();
    req.set("id", 7u64);
    req.set("cmd", "step");
    req.set("session", 1u64);
    req.set("cycles", CYCLES_PER_STEP);
    req.set("pokes", pokes);
    let mut buf = Vec::new();
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            rec.time("telemetry", "frame_roundtrip", |_| {
                buf.clear();
                write_frame(&mut buf, &req, 1 << 20).expect("frame fits");
                let back = read_frame(&mut buf.as_slice(), 1 << 20).expect("own frame parses");
                assert_eq!(back.get("cmd").and_then(Json::as_str), Some("step"));
            })
            .1
        })
        .collect();
    median(&secs)
}

/// The served design compiled in-process and driven with client 0's
/// operands: what the engine alone costs for one step request, plus the
/// same layer probes the simulator workloads run.
fn twin(cfg: &RunConfig, rec: &mut Recorder, m: &mut Metrics) -> Metrics {
    let dut = Dut {
        rtl: Rtl::Verilog(NVDLA_MAC),
        opts: server_default_options(),
    };
    let bits = |v: u32, w: u32| Bits::from_u64(u64::from(v), w);
    let request = |rst: u32, start: u32, act: u32, wgt: u32| {
        CycleInputs::Scalar(vec![
            ("rst".into(), bits(rst, 1)),
            ("start".into(), bits(start, 1)),
            ("act".into(), bits(act, 32)),
            ("wgt".into(), bits(wgt, 32)),
        ])
    };
    let (compiled, mut sim, up) = bring_up(&dut, 1, &request(1, 0, 0, 0), rec);
    m.set("core.compile_s", up.compile_s);
    m.set("core.package_ms", up.package_s * 1e3);

    let mut ops = Operands::new(cfg.seed, 0);
    let mut model = MacModel::default();
    let (mut engine_s, mut set_s, mut step_s, mut out_s) = (vec![], vec![], vec![], vec![]);
    for _ in 0..cfg.probe_cycles {
        let (act, wgt) = ops.next();
        let inputs = request(0, 1, act, wgt);
        let (acc, s) = rec.time("core", "step_request", |rec| {
            set_s.push(
                rec.time("core", "set_input", |_| apply(&mut sim, &inputs))
                    .1,
            );
            for _ in 0..CYCLES_PER_STEP {
                step_s.push(rec.time("core", "step", |_| sim.step()).1);
            }
            let (acc, s) = rec.time("core", "output", |_| sim.output("acc"));
            out_s.push(s);
            acc
        });
        engine_s.push(s);
        assert_eq!(
            acc.to_u64() as u32,
            model.step(act, wgt, CYCLES_PER_STEP),
            "the in-process twin and the MAC model disagree"
        );
    }
    m.set("server.engine_ms", median(&engine_s) * 1e3);
    m.set("core.set_input_us", median(&set_s) * 1e6);
    let step_s = sorted(step_s);
    m.set("core.step_p50_us", quantile(&step_s, 0.5) * 1e6);
    m.set("core.step_p90_us", quantile(&step_s, 0.9) * 1e6);
    m.set("core.step_p99_us", quantile(&step_s, 0.99) * 1e6);
    m.set("core.output_us", median(&out_s) * 1e6);

    let mut exact = Metrics::default();
    layers::exact_counts(&compiled, sim.counters(), &mut exact);
    m.merge(&exact);
    let mut ops = Operands::new(cfg.seed, 0);
    let next = || {
        let (act, wgt) = ops.next();
        request(0, 1, act, wgt)
    };
    layers::probe(&dut, &compiled, 1, cfg, next, rec, m);
    exact
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let origin = Instant::now();
    let mut rec = Recorder::new(origin, 0, cfg.trace);
    let mut m = Metrics::default();

    // --- set-up, several times; the last server is the one measured.
    let mut setup_s = Vec::new();
    let (served, clients, open_cold_s, open_cached_s) = loop {
        let ((served, clients, cold, cached), s) = rec.time("server", "set_up", set_up);
        setup_s.push(s);
        if setup_s.len() == cfg.setup_reps {
            break (served, clients, cold, cached);
        }
        drop(clients);
        served.stop();
    };
    m.set("setup_s", median(&setup_s));

    // --- the request phase.
    let start_line = Arc::new(Barrier::new(CLIENTS));
    let drivers: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let (cfg, start_line) = (cfg.clone(), Arc::clone(&start_line));
            std::thread::spawn(move || drive(c, i, &cfg, origin, &start_line))
        })
        .collect();
    let mut loops = Vec::new();
    let (mut attempted, mut failed, mut busy_retries) = (0, 0, 0);
    for d in drivers {
        let (c, l, r) = d.join().expect("client thread does not panic");
        attempted += c.attempted;
        failed += c.failed;
        busy_retries += c.busy_retries;
        loops.push(l);
        rec.absorb(r);
    }
    let wall_s = loops.iter().map(|l| l.wall_s).fold(0.0, f64::max);
    let acked: u64 = loops.iter().map(|l| l.acked_cycles).sum();
    let merged = |f: fn(&Loop) -> &Vec<f64>| {
        sorted(loops.iter().flat_map(|l| f(l).iter().copied()).collect())
    };
    let step_s = merged(|l| &l.plain_step_s);
    m.set("step_p01_ms", quantile(&step_s, 0.01) * 1e3);

    let stats = GemClient::connect(served.addr)
        .expect("server still accepts")
        .stats()
        .expect("stats are served");
    served.stop();
    m.set("peak_rss_mib", crate::report::peak_rss_mib());

    let mut exact = Metrics::default();
    if cfg.trace {
        m.set("server.open_cold_s", open_cold_s);
        m.set("server.open_cached_ms", open_cached_s * 1e3);
        let ping_s = merged(|l| &l.ping_s);
        m.set("server.ping_p50_ms", quantile(&ping_s, 0.5) * 1e3);
        m.set("server.ping_min_ms", ping_s[0] * 1e3);
        m.set(
            "server.job_mean_ms",
            family(&stats, "gem_server_job_latency_micros_total")
                / family(&stats, "gem_server_jobs_completed_total")
                / 1e3,
        );
        m.set(
            "server.compiles",
            family(&stats, "gem_server_compiles_total"),
        );
        m.set(
            "server.cache_hits",
            family(&stats, "gem_server_cache_hits_total"),
        );
        m.set("server.busy_retries", busy_retries as f64);
        m.set("server.served_cycles_per_s", acked as f64 / wall_s);
        m.set("server.step_p50_ms", quantile(&step_s, 0.5) * 1e3);
        m.set("server.step_p90_ms", quantile(&step_s, 0.9) * 1e3);
        m.set("server.step_p99_ms", quantile(&step_s, 0.99) * 1e3);
        m.set(
            "server.peek_p50_ms",
            quantile(&merged(|l| &l.peek_s), 0.5) * 1e3,
        );
        let traced_p50 = quantile(&merged(|l| &l.traced_step_s), 0.5);
        m.set(
            "trace.overhead_share",
            1.0 - quantile(&step_s, 0.5) / traced_p50,
        );
        m.set(
            "telemetry.frame_roundtrip_us",
            frame_roundtrip(&mut rec, cfg.probe_cycles * 4) * 1e6,
        );
        exact = twin(cfg, &mut rec, &mut m);
        let p50_ms = quantile(&step_s, 0.5) * 1e3;
        let engine_ms = m.get("server.engine_ms").expect("twin ran");
        m.set("server.overhead_share", (p50_ms - engine_ms) / p50_ms);
    }

    let mut digest = Digest::default();
    for v in loops.iter().flat_map(|l| &l.seen) {
        digest.fold(u64::from(*v));
    }
    let mut detail = Json::object();
    detail.set("lanes", 1u32);
    detail.set("clients", CLIENTS);
    detail.set("cycles", acked);
    detail.set("cycles_per_step", CYCLES_PER_STEP);
    detail.set("requests", attempted);
    detail.set("step_samples", step_s.len());
    detail.set("lane_cycles_per_s", acked as f64 / wall_s);
    detail.set("step_p50_ms", quantile(&step_s, 0.5) * 1e3);
    detail.set("step_p90_ms", quantile(&step_s, 0.9) * 1e3);
    detail.set("setup_reps", setup_s.len());
    detail.set("output_digest", digest.hex());
    detail.set(
        "digest_cycles",
        loops.iter().map(|l| l.seen.len()).sum::<usize>(),
    );
    Outcome {
        attempted,
        failed,
        metrics: m,
        exact,
        detail,
        recorder: rec,
    }
}
