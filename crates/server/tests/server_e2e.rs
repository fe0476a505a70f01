//! End-to-end wire-protocol tests: real TCP connections, concurrent
//! clients, golden-model cross-checks, backpressure, and metric
//! reconciliation.

use gem_core::{compile, CompileOptions, Compiled};
use gem_netlist::vcd::VcdWriter;
use gem_netlist::{verilog, Bits};
use gem_server::{ClientError, GemClient, Server, ServerConfig};
use gem_sim::EaigSim;
use gem_telemetry::Json;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Design A: gated accumulator (stateful, multi-port).
const DESIGN_A: &str = "
module accum(input clk, input en, input [7:0] delta, output reg [15:0] acc);
  always @(posedge clk) begin
    if (en) acc <= acc + {8'd0, delta};
  end
endmodule
";

/// Design B: combinational mix feeding a scrambling register.
const DESIGN_B: &str = "
module mixer(input clk, input [7:0] a, input [7:0] b,
             output [7:0] x, output reg [7:0] r);
  assign x = (a ^ b) + (a & b);
  always @(posedge clk) r <= x ^ (r << 1);
endmodule
";

/// The compile options the server derives from the wire `opts` below —
/// must stay in lockstep with [`wire_opts`] for the golden comparison.
fn small_opts() -> CompileOptions {
    CompileOptions {
        core_width: 256,
        target_parts: 4,
        stages: 1,
        ..Default::default()
    }
}

fn wire_opts() -> Json {
    let mut o = Json::object();
    o.set("width", 256u64);
    o.set("parts", 4u64);
    o.set("stages", 1u64);
    o
}

/// The wire ops no binary sends, spelled as `GemClient::request` calls
/// (`docs/SERVER.md` §2, `docs/BATCH.md` §3).
trait WireOps {
    fn open_lanes(&mut self, source: &str, opts: Json, lanes: u32) -> Result<Json, ClientError>;
    fn poke_lane(
        &mut self,
        session: u64,
        lane: u32,
        port: &str,
        hex: &str,
    ) -> Result<(), ClientError>;
    fn peek_lane(&mut self, session: u64, lane: u32, port: &str) -> Result<String, ClientError>;
    fn replay_batch(&mut self, session: u64, vcds: &[&str]) -> Result<Json, ClientError>;
    fn lint(&mut self, source: &str, opts: Json) -> Result<Json, ClientError>;
    fn save(&mut self, session: u64) -> Result<Json, ClientError>;
    fn restore(&mut self, session: u64) -> Result<Json, ClientError>;
}

impl WireOps for GemClient {
    fn open_lanes(&mut self, source: &str, opts: Json, lanes: u32) -> Result<Json, ClientError> {
        let lanes = Json::U64(lanes.into());
        let fields = vec![
            ("source", Json::from(source)),
            ("opts", opts),
            ("lanes", lanes),
        ];
        self.request("open", fields)
    }

    fn poke_lane(
        &mut self,
        session: u64,
        lane: u32,
        port: &str,
        hex: &str,
    ) -> Result<(), ClientError> {
        let fields = vec![
            ("session", Json::U64(session)),
            ("lane", Json::U64(lane.into())),
            ("port", Json::from(port)),
            ("value", Json::from(hex)),
        ];
        self.request("poke", fields).map(|_| ())
    }

    fn peek_lane(&mut self, session: u64, lane: u32, port: &str) -> Result<String, ClientError> {
        let fields = vec![
            ("session", Json::U64(session)),
            ("lane", Json::U64(lane.into())),
            ("port", Json::from(port)),
        ];
        let r = self.request("peek", fields)?;
        Ok(r.get("value")
            .and_then(Json::as_str)
            .expect("value")
            .to_string())
    }

    fn replay_batch(&mut self, session: u64, vcds: &[&str]) -> Result<Json, ClientError> {
        let vcds = Json::Array(vcds.iter().map(|&v| Json::from(v)).collect());
        self.request(
            "replay",
            vec![("session", Json::U64(session)), ("vcds", vcds)],
        )
    }

    fn lint(&mut self, source: &str, opts: Json) -> Result<Json, ClientError> {
        self.request("lint", vec![("source", Json::from(source)), ("opts", opts)])
    }

    fn save(&mut self, session: u64) -> Result<Json, ClientError> {
        self.request("save", vec![("session", Json::U64(session))])
    }

    fn restore(&mut self, session: u64) -> Result<Json, ClientError> {
        self.request("restore", vec![("session", Json::U64(session))])
    }
}

fn start_server(cfg: ServerConfig) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(cfg).expect("bind loopback");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn shutdown_and_join(addr: SocketAddr, server: std::thread::JoinHandle<std::io::Result<()>>) {
    let mut c = GemClient::connect(addr).expect("connect for shutdown");
    c.shutdown().expect("shutdown acknowledged");
    server
        .join()
        .expect("server thread")
        .expect("server run result");
}

/// Drives one named input port of the golden E-AIG interpreter.
fn golden_set(sim: &mut EaigSim<'_>, compiled: &Compiled, port: &str, value: u64) {
    let p = compiled
        .eaig_inputs
        .iter()
        .find(|p| p.name == port)
        .unwrap_or_else(|| panic!("no input {port:?}"));
    for i in 0..p.width {
        sim.set_input(p.lsb_index + i as usize, (value >> i) & 1 == 1);
    }
}

/// Reads one named output port from the golden interpreter.
fn golden_get(sim: &mut EaigSim<'_>, compiled: &Compiled, port: &str) -> u64 {
    let p = compiled
        .eaig_outputs
        .iter()
        .find(|p| p.name == port)
        .unwrap_or_else(|| panic!("no output {port:?}"));
    sim.eval();
    let mut v = 0u64;
    for i in 0..p.width {
        if sim.output(p.lsb_index + i as usize) {
            v |= 1 << i;
        }
    }
    v
}

fn out_u64(resp: &Json, port: &str) -> u64 {
    let hex = resp
        .get("outputs")
        .and_then(|o| o.get(port))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("step response missing output {port:?}"));
    u64::from_str_radix(hex, 16).expect("hex output")
}

/// Sums every sample of one metric family in a `stats` response.
fn metric(stats: &Json, family: &str) -> f64 {
    let families = stats
        .get("metrics")
        .and_then(|m| m.get("families"))
        .and_then(Json::as_array)
        .expect("stats carry metric families");
    families
        .iter()
        .find(|f| f.get("name").and_then(Json::as_str) == Some(family))
        .and_then(|f| f.get("samples").and_then(Json::as_array))
        .map(|samples| {
            samples
                .iter()
                .filter_map(|s| s.get("value").and_then(Json::as_f64))
                .sum()
        })
        .unwrap_or_else(|| panic!("no metric family {family:?}"))
}

/// Reads one sample of a labeled metric family in a `stats` response.
fn labeled_metric(stats: &Json, family: &str, label: &str, value: &str) -> f64 {
    let families = stats
        .get("metrics")
        .and_then(|m| m.get("families"))
        .and_then(Json::as_array)
        .expect("stats carry metric families");
    families
        .iter()
        .find(|f| f.get("name").and_then(Json::as_str) == Some(family))
        .and_then(|f| f.get("samples").and_then(Json::as_array))
        .and_then(|samples| {
            samples
                .iter()
                .find(|s| {
                    s.get("labels")
                        .and_then(|l| l.get(label))
                        .and_then(Json::as_str)
                        == Some(value)
                })
                .and_then(|s| s.get("value").and_then(Json::as_f64))
        })
        .unwrap_or_else(|| panic!("no sample {family}{{{label}={value:?}}}"))
}

/// Polls `stats` until the gate quiesces (submitted = completed +
/// rejected): another connection's job may still be running when this
/// one asks, so a fixed-point read needs a retry loop.
fn quiesced_stats(client: &mut GemClient) -> Json {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().expect("stats");
        let submitted = metric(&stats, "gem_server_jobs_submitted_total");
        let done = metric(&stats, "gem_server_jobs_completed_total")
            + metric(&stats, "gem_server_jobs_rejected_total");
        if submitted == done {
            return stats;
        }
        assert!(Instant::now() < deadline, "gate never quiesced");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The flagship scenario: two designs, two sessions each, opened
/// concurrently by four clients over TCP. The compile cache must
/// collapse the four compiles into two, every session's outputs must
/// match the golden interpreter bit for bit, and the server's metrics
/// must reconcile at quiesce.
#[test]
fn concurrent_sessions_share_compiles_and_match_golden() {
    let (addr, server) = start_server(ServerConfig {
        workers: 4,
        queue: 16,
        cache: 4,
        ..ServerConfig::default()
    });

    // Four clients open concurrently: sessions 0,1 → design A; 2,3 → B.
    let barrier = Arc::new(Barrier::new(4));
    let handles: Vec<_> = (0..4usize)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = GemClient::connect(addr).expect("connect");
                let source = if i < 2 { DESIGN_A } else { DESIGN_B };
                barrier.wait();
                let resp = client.open(source, wire_opts()).expect("open");
                let session = resp.get("session").and_then(Json::as_u64).unwrap();
                let cached = resp.get("cached").and_then(Json::as_bool).unwrap();
                (i, client, session, cached)
            })
        })
        .collect();
    let opens: Vec<_> = handles
        .into_iter()
        .map(|t| t.join().expect("open thread"))
        .collect();

    // Exactly one compile per design: of the two clients per design, one
    // (either one — the race is real) must have hit the cache.
    for pair in opens.chunks(2) {
        let hits = pair.iter().filter(|(_, _, _, cached)| *cached).count();
        assert_eq!(hits, 1, "one of each design pair must hit the cache");
    }

    // Drive every session and its golden model with the same stimulus,
    // all four sessions in parallel.
    let compiled_a = Arc::new(compile(&verilog::parse(DESIGN_A).unwrap(), &small_opts()).unwrap());
    let compiled_b = Arc::new(compile(&verilog::parse(DESIGN_B).unwrap(), &small_opts()).unwrap());
    let drivers: Vec<_> = opens
        .into_iter()
        .map(|(i, mut client, session, _)| {
            let compiled = if i < 2 {
                Arc::clone(&compiled_a)
            } else {
                Arc::clone(&compiled_b)
            };
            std::thread::spawn(move || {
                let mut golden = EaigSim::new(&compiled.eaig);
                for cycle in 0..20u64 {
                    if i < 2 {
                        let en = !(cycle + i as u64).is_multiple_of(3);
                        let delta = (cycle * 7 + i as u64 * 13) & 0xFF;
                        let delta_hex = format!("{delta:02x}");
                        let resp = client
                            .step(
                                session,
                                1,
                                vec![("en", if en { "1" } else { "0" }), ("delta", &delta_hex)],
                            )
                            .expect("step");
                        golden_set(&mut golden, &compiled, "en", en as u64);
                        golden_set(&mut golden, &compiled, "delta", delta);
                        assert_eq!(
                            out_u64(&resp, "acc"),
                            golden_get(&mut golden, &compiled, "acc"),
                            "session {i} diverged from golden at cycle {cycle}"
                        );
                        golden.step();
                    } else {
                        let a = (cycle * 5 + i as u64) & 0xFF;
                        let b = (cycle * 11 + 3 * i as u64) & 0xFF;
                        let (ah, bh) = (format!("{a:02x}"), format!("{b:02x}"));
                        let resp = client
                            .step(session, 1, vec![("a", &ah), ("b", &bh)])
                            .expect("step");
                        golden_set(&mut golden, &compiled, "a", a);
                        golden_set(&mut golden, &compiled, "b", b);
                        assert_eq!(
                            out_u64(&resp, "x"),
                            golden_get(&mut golden, &compiled, "x"),
                            "session {i} output x diverged at cycle {cycle}"
                        );
                        assert_eq!(
                            out_u64(&resp, "r"),
                            golden_get(&mut golden, &compiled, "r"),
                            "session {i} output r diverged at cycle {cycle}"
                        );
                        golden.step();
                    }
                }
                // Cheap inline path: peek returns the same value a step
                // response reported.
                let outputs = if i < 2 { vec!["acc"] } else { vec!["x", "r"] };
                for port in outputs {
                    client.peek(session, port).expect("peek");
                }
                client.close(session).expect("close");
                client
            })
        })
        .collect();
    let mut clients: Vec<_> = drivers
        .into_iter()
        .map(|t| t.join().expect("driver thread"))
        .collect();

    // Metric reconciliation at quiesce.
    let stats = quiesced_stats(&mut clients[0]);
    assert_eq!(metric(&stats, "gem_server_compiles_total"), 2.0);
    assert_eq!(metric(&stats, "gem_server_cache_misses_total"), 2.0);
    assert_eq!(metric(&stats, "gem_server_cache_hits_total"), 2.0);
    assert_eq!(metric(&stats, "gem_server_cache_lookups_total"), 4.0);
    assert_eq!(metric(&stats, "gem_server_sessions_opened_total"), 4.0);
    assert_eq!(metric(&stats, "gem_server_sessions_closed_total"), 4.0);
    assert_eq!(metric(&stats, "gem_server_sessions_active"), 0.0);
    assert_eq!(metric(&stats, "gem_server_cycles_total"), 80.0);
    assert_eq!(stats.get("sessions").and_then(Json::as_u64), Some(0));

    shutdown_and_join(addr, server);
}

/// The four-lane MAC the benchmark ladder serves (`server_mac`): small
/// on purpose, so a served step is wire and queue time, not engine time.
const NVDLA_MAC: &str = "
module nvdla_mac(input clk, input rst, input start,
                 input [31:0] act, input [31:0] wgt,
                 output reg [31:0] acc, output [15:0] p0);
  wire [15:0] m0;
  wire [15:0] m1;
  wire [15:0] m2;
  wire [15:0] m3;
  assign m0 = {8'd0, act[7:0]}   * {8'd0, wgt[7:0]};
  assign m1 = {8'd0, act[15:8]}  * {8'd0, wgt[15:8]};
  assign m2 = {8'd0, act[23:16]} * {8'd0, wgt[23:16]};
  assign m3 = {8'd0, act[31:24]} * {8'd0, wgt[31:24]};
  wire [31:0] sum;
  assign sum = {16'd0, m0} + {16'd0, m1} + {16'd0, m2} + {16'd0, m3};
  assign p0 = m0;
  always @(posedge clk) begin
    if (rst) acc <= 32'd0;
    else if (start) acc <= acc + sum;
  end
endmodule
";

/// A frame of several TCP segments (`open` sources and `replay` VCDs
/// are this size) round-trips like a small one. Whether a round trip
/// waits out a delayed ACK is asserted where it is decided: TCP_NODELAY
/// on both ends (`accepted_streams_have_nagle_off`,
/// `connect_disables_nagle`) and one `write` per frame
/// (`one_write_per_frame_and_none_when_too_large`); the ladder's
/// `server_mac` times it.
#[test]
fn a_frame_of_many_segments_round_trips() {
    let (addr, server) = start_server(ServerConfig::default());
    let mut client = GemClient::connect(addr).expect("connect");
    let opened = client.open(NVDLA_MAC, Json::object()).expect("opens");
    let session = opened.get("session").and_then(Json::as_u64).unwrap();
    client.poke(session, "rst", "0").expect("pokes");
    client.step(session, 1, Vec::new()).expect("steps");
    let pad = Json::Str("x".repeat(200 * 1024));
    client
        .request("ping", vec![("ignored", pad)])
        .expect("pong");
    client.ping(0).expect("the connection still serves");

    drop(client);
    shutdown_and_join(addr, server);
}

/// Sessions of one design are clones of its cache entry's machine: they
/// cost one compile, step independently, and keep running when the entry
/// they came from is evicted.
#[test]
fn sessions_step_independently_and_outlive_their_cache_entry() {
    let (addr, server) = start_server(ServerConfig {
        cache: 1,
        ..ServerConfig::default()
    });
    let mut client = GemClient::connect(addr).expect("connect");
    let open = |client: &mut GemClient, source: &str| {
        let r = client.open(source, wire_opts()).expect("opens");
        (
            r.get("session").and_then(Json::as_u64).expect("session id"),
            r.get("cached")
                .and_then(Json::as_bool)
                .expect("cached flag"),
        )
    };
    let (s1, cached1) = open(&mut client, DESIGN_A);
    let (s2, cached2) = open(&mut client, DESIGN_A);
    assert!(!cached1 && cached2, "second open rides the first compile");

    // Outputs are pre-edge: after n cycles of `+= d`, acc shows d·(n−1).
    let acc = |client: &mut GemClient, s, cycles, delta: &str| {
        let r = client.step(s, cycles, vec![("en", "1"), ("delta", delta)]);
        out_u64(&r.expect("steps"), "acc")
    };
    assert_eq!(acc(&mut client, s1, 4, "03"), 9);
    assert_eq!(acc(&mut client, s2, 2, "05"), 5, "s2 never saw s1's cycles");
    assert_eq!(acc(&mut client, s1, 1, "03"), 12);

    // A second design pushes DESIGN_A's entry out of the one-slot cache.
    let (other, cached) = open(&mut client, DESIGN_B);
    assert!(!cached);
    let stats = quiesced_stats(&mut client);
    assert_eq!(metric(&stats, "gem_server_cache_evictions_total"), 1.0);
    assert_eq!(acc(&mut client, s1, 1, "03"), 15, "s1 survived eviction");
    assert_eq!(acc(&mut client, s2, 1, "05"), 10, "s2 survived eviction");

    // Opening DESIGN_A again compiles again and starts from power-on.
    let (s3, cached3) = open(&mut client, DESIGN_A);
    assert!(!cached3, "the entry was evicted");
    assert_eq!(acc(&mut client, s3, 1, "07"), 0);
    assert_eq!(acc(&mut client, s1, 1, "03"), 18);

    let stats = quiesced_stats(&mut client);
    assert_eq!(metric(&stats, "gem_server_compiles_total"), 3.0);
    assert_eq!(metric(&stats, "gem_server_sessions_active"), 4.0);
    for s in [s1, s2, s3, other] {
        client.close(s).expect("close");
    }
    drop(client);
    shutdown_and_join(addr, server);
}

/// A full queue answers `busy` with a retry hint — while the job queued
/// ahead of it is still waiting, not after the queue drains.
#[test]
fn full_queue_rejects_with_retry_hint() {
    let (addr, server) = start_server(ServerConfig {
        workers: 1,
        queue: 1,
        ..ServerConfig::default()
    });

    // Occupy the single slot, then the single place in line.
    let t1 = std::thread::spawn(move || {
        GemClient::connect(addr).unwrap().ping(400).expect("ping 1");
    });
    std::thread::sleep(Duration::from_millis(100));
    let t2 = std::thread::spawn(move || {
        GemClient::connect(addr).unwrap().ping(400).expect("ping 2");
    });
    std::thread::sleep(Duration::from_millis(100));

    // Third delayed ping must be rejected busy before ping 2, which
    // waits for ping 1, has run.
    let mut c3 = GemClient::connect(addr).expect("connect");
    let err = c3.ping(10).expect_err("queue is full");
    assert!(!t2.is_finished(), "the refusal waited for the queue");
    assert!(err.is_busy(), "expected busy, got {err}");
    match err {
        ClientError::Server { retry_after_ms, .. } => {
            assert!(retry_after_ms.is_some(), "busy must carry retry_after_ms");
        }
        other => panic!("expected server error, got {other}"),
    }

    t1.join().unwrap();
    t2.join().unwrap();

    // After the backlog drains, the same request succeeds.
    c3.ping(1).expect("retry succeeds after drain");

    let stats = quiesced_stats(&mut c3);
    assert!(metric(&stats, "gem_server_jobs_rejected_total") >= 1.0);
    assert_eq!(
        metric(&stats, "gem_server_jobs_submitted_total"),
        metric(&stats, "gem_server_jobs_completed_total")
            + metric(&stats, "gem_server_jobs_rejected_total")
    );
    // The per-reason family must attribute every rejection: this path
    // only produces full-queue rejections, and the reasons must sum to
    // the unlabeled total.
    assert!(
        labeled_metric(&stats, "gem_server_rejected_total", "reason", "queue_full") >= 1.0,
        "full-queue rejection must be attributed to its reason"
    );
    assert_eq!(
        labeled_metric(
            &stats,
            "gem_server_rejected_total",
            "reason",
            "shutting_down"
        ),
        0.0
    );
    assert_eq!(
        metric(&stats, "gem_server_rejected_total"),
        metric(&stats, "gem_server_jobs_rejected_total"),
        "reason breakdown must reconcile with the total"
    );

    shutdown_and_join(addr, server);
}

/// The hostile session ROADMAP item 1 measured, against a server with one
/// slot: seven lines of Verilog that used to panic synthesis (and with it
/// the only worker), and option values that used to panic the placer or
/// truncate to width 0, declared sizes that used to abort the process in
/// an allocation. Each is refused with a typed error — no panic is
/// caught because none happens — and the server goes on serving.
#[test]
fn hostile_text_and_options_are_typed_errors_and_the_server_serves_on() {
    let (addr, server) = start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = GemClient::connect(addr).expect("connect");
    let refusal = |r: Result<Json, ClientError>| match r {
        Err(ClientError::Server { code, message, .. }) => (code, message),
        other => panic!("expected a typed server error, got {other:?}"),
    };

    let designs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/designs");
    let read = |file: &str| std::fs::read_to_string(format!("{designs}/{file}")).expect(file);
    // A reversed part-select is refused where it is written; sent again,
    // the same answer comes from the negative cache.
    let seven = read("counter.v").replace("if (en)", "if (en[0:7])");
    assert!(seven.contains("en[0:7]"), "the mutation applies");
    let (code, first) = refusal(client.compile(&seven, wire_opts()));
    assert_eq!(code, "compile_failed");
    assert!(first.contains("en[0:7] is reversed"), "{first}");
    let (code, again) = refusal(client.compile(&seven, wire_opts()));
    assert_eq!((code.as_str(), &again), ("compile_failed", &first));
    // A part-select past its port parses; the analyzer names it.
    let (code, message) = refusal(client.compile(&read("bad/part_select.v"), wire_opts()));
    assert_eq!(code, "compile_failed");
    assert!(message.contains("GEM-L004"), "{message}");

    // Five lines that asked lowering for 17 GB, and a memory that asked
    // the prepass for 96 (an allocation failure aborts: no `catch_unwind`
    // would have helped): refused where the size is declared, whichever
    // command carries the text.
    for text in [
        "module m(input a, output y);\n wire [4294967294:0] w;\n assign w = a;\n assign y = w;\nendmodule",
        "module m(input clk, input a, output reg y);\n reg [7:0] mem [0:4000000000];\n always @(posedge clk) y <= a;\nendmodule",
    ] {
        for answer in [
            client.compile(text, wire_opts()),
            client.open(text, wire_opts()),
            client.lint(text, wire_opts()),
        ] {
            let (code, message) = refusal(answer);
            assert_eq!(code, "compile_failed");
            assert!(message.contains("syntax error at line 2"), "{message}");
        }
    }

    // Seven hundred parentheses, about 1.4 KB of text: past the frontend's
    // nesting bound they are a syntax error where they nest. Unbounded,
    // the parser overflowed this thread's stack, which aborts the whole
    // process (no `catch_unwind` contains that).
    let nested = format!(
        "module m(input a, output y);\n assign y = {}a{};\nendmodule",
        "(".repeat(700),
        ")".repeat(700)
    );
    let (code, message) = refusal(client.compile(&nested, wire_opts()));
    assert_eq!(code, "compile_failed");
    assert!(message.contains("syntax error at line 2"), "{message}");
    assert!(message.contains("nesting deeper than"), "{message}");
    client.ping(0).expect("and the server answers on");

    for width in [3u64, 100, 65536, 1 << 32] {
        let mut opts = wire_opts();
        opts.set("width", width);
        let (code, message) = refusal(client.open(DESIGN_A, opts));
        assert_eq!(code, "bad_request", "width {width}: {message}");
        assert!(message.contains("width"), "{message}");
    }

    let open = client.open(DESIGN_A, wire_opts()).expect("a good open");
    let session = open.get("session").and_then(Json::as_u64).expect("id");
    let step = client
        .step(session, 2, vec![("en", "1"), ("delta", "03")])
        .expect("a good step");
    assert_eq!(out_u64(&step, "acc"), 3);

    let stats = client.stats().expect("stats");
    assert_eq!(metric(&stats, "gem_server_panics_total"), 0.0);
    assert_eq!(
        metric(&stats, "gem_server_compiles_total"),
        6.0,
        "five refused texts and one good design, each compiled once"
    );
    assert_eq!(metric(&stats, "gem_server_cache_hits_total"), 3.0);
    assert_eq!(
        metric(&stats, "gem_server_jobs_submitted_total"),
        metric(&stats, "gem_server_jobs_completed_total"),
        "bad options never reached the gate, and nothing was refused there"
    );
    assert_eq!(metric(&stats, "gem_server_jobs_completed_total"), 12.0);
    shutdown_and_join(addr, server);
}

/// Session lifecycle odds and ends over the wire: checkpoints restore
/// bit-exact state, VCD replay matches stepping, errors carry their
/// typed codes, and the idle reaper evicts abandoned sessions.
#[test]
fn lifecycle_checkpoints_replay_and_errors() {
    let (addr, server) = start_server(ServerConfig {
        idle_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    });
    let mut client = GemClient::connect(addr).expect("connect");

    // --- checkpoint/restore -------------------------------------------
    let resp = client.open(DESIGN_A, wire_opts()).expect("open");
    let session = resp.get("session").and_then(Json::as_u64).unwrap();
    for _ in 0..5 {
        client
            .step(session, 1, vec![("en", "1"), ("delta", "01")])
            .expect("warm-up step");
    }
    client.save(session).expect("save");
    let after_save = client
        .step(session, 1, vec![("en", "1"), ("delta", "01")])
        .expect("step");
    let v1 = out_u64(&after_save, "acc");
    client
        .step(session, 2, vec![])
        .expect("diverge past the checkpoint");
    client.restore(session).expect("restore");
    let replayed = client
        .step(session, 1, vec![("en", "1"), ("delta", "01")])
        .expect("step after restore");
    assert_eq!(out_u64(&replayed, "acc"), v1, "restore must be bit-exact");

    // --- VCD replay vs. golden ----------------------------------------
    let compiled_a = compile(&verilog::parse(DESIGN_A).unwrap(), &small_opts()).unwrap();
    let mut w = VcdWriter::new("tb");
    let en = w.add_var("en", 1);
    let delta = w.add_var("delta", 8);
    w.begin();
    for t in 0..6u64 {
        w.timestamp(t);
        w.change(en, &Bits::from_u64((t % 2 == 0) as u64, 1));
        w.change(delta, &Bits::from_u64(t * 3 + 1, 8));
    }
    let vcd_text = w.finish();
    let fresh = client.open(DESIGN_A, wire_opts()).expect("open fresh");
    let fresh_session = fresh.get("session").and_then(Json::as_u64).unwrap();
    let replayed = client.replay(fresh_session, &vcd_text).expect("replay");
    assert_eq!(replayed.get("cycles").and_then(Json::as_u64), Some(6));
    let rows = replayed
        .get("outputs")
        .and_then(Json::as_array)
        .expect("per-cycle outputs");
    let mut golden = EaigSim::new(&compiled_a.eaig);
    for (t, row) in rows.iter().enumerate() {
        golden_set(&mut golden, &compiled_a, "en", (t % 2 == 0) as u64);
        golden_set(&mut golden, &compiled_a, "delta", t as u64 * 3 + 1);
        let want = golden_get(&mut golden, &compiled_a, "acc");
        let got = row.get("acc").and_then(Json::as_str).expect("acc hex");
        assert_eq!(u64::from_str_radix(got, 16).unwrap(), want, "cycle {t}");
        golden.step();
    }
    // The response's VCD document parses and covers the same cycles.
    let vcd_out = replayed.get("vcd").and_then(Json::as_str).expect("vcd");
    let dump = gem_netlist::vcd::VcdDump::parse(vcd_out).expect("valid vcd");
    assert!(dump.var("acc").is_some());

    // --- typed error codes --------------------------------------------
    let err = client
        .open(
            "module broken(input clk, output w); endmodule garbage",
            wire_opts(),
        )
        .expect_err("bad source");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, "compile_failed"),
        other => panic!("expected server error, got {other}"),
    }
    let err = client.peek(999_999, "acc").expect_err("unknown session");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, "not_found"),
        other => panic!("expected server error, got {other}"),
    }
    let err = client
        .request("frobnicate", Vec::new())
        .expect_err("unknown command");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, "bad_request"),
        other => panic!("expected server error, got {other}"),
    }

    // --- idle eviction -------------------------------------------------
    // Leave both sessions untouched past the idle timeout; the reaper
    // must evict them and later requests must see not_found.
    std::thread::sleep(Duration::from_millis(700));
    let err = client.peek(session, "acc").expect_err("evicted session");
    assert!(matches!(
        err,
        ClientError::Server { ref code, .. } if code == "not_found"
    ));
    let stats = quiesced_stats(&mut client);
    assert!(metric(&stats, "gem_server_sessions_evicted_total") >= 2.0);
    assert_eq!(
        metric(&stats, "gem_server_sessions_opened_total"),
        metric(&stats, "gem_server_sessions_active")
            + metric(&stats, "gem_server_sessions_closed_total")
            + metric(&stats, "gem_server_sessions_evicted_total")
    );

    shutdown_and_join(addr, server);
}

/// Per-timestamp values of one output port in a response VCD (the
/// server's writers emit every port at every timestamp).
fn vcd_port_values(dump: &gem_netlist::vcd::VcdDump, port: &str) -> Vec<u64> {
    let var = dump.var(port).unwrap_or_else(|| panic!("no var {port:?}"));
    dump.changes
        .iter()
        .filter(|(_, v, _)| *v == var)
        .map(|(_, _, bits)| bits.to_u64())
        .collect()
}

/// Batch sessions end to end: lane counts are validated with a typed
/// error before any compile, per-lane pokes/peeks and `lane_outputs`
/// match one golden model per lane, lockstep batch replay returns one
/// output VCD per lane (short streams hold their last values), and the
/// lane metrics reconcile.
#[test]
fn batch_sessions_fan_lanes_over_the_wire() {
    let (addr, server) = start_server(ServerConfig::default());
    let mut client = GemClient::connect(addr).expect("connect");

    // --- lane-count validation -----------------------------------------
    for lanes in [0u32, 65, 128] {
        let err = client
            .open_lanes(DESIGN_A, wire_opts(), lanes)
            .expect_err("bad lane count must be rejected");
        match err {
            ClientError::Server { code, message, .. } => {
                assert_eq!(code, "bad_lanes", "lanes={lanes}");
                assert!(message.contains("between 1 and 64"), "got: {message}");
            }
            other => panic!("expected server error, got {other}"),
        }
    }
    // Rejected before touching the compile cache.
    let stats = client.stats().expect("stats");
    assert_eq!(metric(&stats, "gem_server_cache_lookups_total"), 0.0);

    // --- per-lane stepping vs. one golden model per lane ----------------
    const LANES: u32 = 8;
    let resp = client
        .open_lanes(DESIGN_A, wire_opts(), LANES)
        .expect("open batch");
    let accum = resp.get("session").and_then(Json::as_u64).unwrap();
    assert_eq!(resp.get("lanes").and_then(Json::as_u64), Some(LANES as u64));

    let compiled_a = compile(&verilog::parse(DESIGN_A).unwrap(), &small_opts()).unwrap();
    let mut goldens: Vec<EaigSim> = (0..LANES).map(|_| EaigSim::new(&compiled_a.eaig)).collect();
    let mut last_acc = vec![0u64; LANES as usize];
    for cycle in 0..12u64 {
        client.poke(accum, "en", "1").expect("broadcast poke");
        for lane in 0..LANES {
            let delta = (cycle * 9 + lane as u64 * 17 + 1) & 0xFF;
            client
                .poke_lane(accum, lane, "delta", &format!("{delta:02x}"))
                .expect("poke lane");
        }
        let resp = client.step(accum, 1, vec![]).expect("step");
        let lane_outputs = resp
            .get("lane_outputs")
            .and_then(Json::as_array)
            .expect("batch step carries lane_outputs");
        assert_eq!(lane_outputs.len(), LANES as usize);
        for lane in 0..LANES as usize {
            let delta = (cycle * 9 + lane as u64 * 17 + 1) & 0xFF;
            golden_set(&mut goldens[lane], &compiled_a, "en", 1);
            golden_set(&mut goldens[lane], &compiled_a, "delta", delta);
            let want = golden_get(&mut goldens[lane], &compiled_a, "acc");
            let got = lane_outputs[lane]
                .get("acc")
                .and_then(Json::as_str)
                .expect("acc hex");
            assert_eq!(
                u64::from_str_radix(got, 16).unwrap(),
                want,
                "lane {lane} diverged from its golden model at cycle {cycle}"
            );
            last_acc[lane] = want;
            goldens[lane].step();
        }
        // The scalar "outputs" view is lane 0.
        assert_eq!(
            out_u64(&resp, "acc"),
            u64::from_str_radix(
                lane_outputs[0].get("acc").and_then(Json::as_str).unwrap(),
                16
            )
            .unwrap()
        );
    }
    // Lane-addressed peek (no step in between) agrees with the last
    // step's lane view; a lane index past the session's count is a
    // typed error.
    for lane in 0..LANES {
        let hex = client.peek_lane(accum, lane, "acc").expect("peek lane");
        assert_eq!(
            u64::from_str_radix(&hex, 16).unwrap(),
            last_acc[lane as usize],
            "peek_lane disagrees with the step response on lane {lane}"
        );
    }
    let err = client
        .peek_lane(accum, LANES, "acc")
        .expect_err("lane index out of range");
    assert!(matches!(
        err,
        ClientError::Server { ref code, .. } if code == "bad_lanes"
    ));
    let err = client
        .poke_lane(accum, 31, "delta", "00")
        .expect_err("lane index beyond session lanes");
    assert!(matches!(
        err,
        ClientError::Server { ref code, .. } if code == "bad_lanes"
    ));

    // --- lockstep batch replay vs. per-lane golden models ---------------
    const RLANES: usize = 4;
    let resp = client
        .open_lanes(DESIGN_B, wire_opts(), RLANES as u32)
        .expect("open replay batch");
    let mixer = resp.get("session").and_then(Json::as_u64).unwrap();

    // While both batch sessions live, the lane gauge counts them all.
    let stats = client.stats().expect("stats");
    assert_eq!(
        metric(&stats, "gem_server_lanes_active"),
        (LANES as usize + RLANES) as f64
    );
    assert_eq!(metric(&stats, "gem_server_batch_sessions_total"), 2.0);

    // Streams of *different* lengths: exhausted lanes hold last values.
    let lens = [6usize, 5, 4, 3];
    let stim = |lane: usize, t: u64| {
        (
            (t * 5 + lane as u64 * 7 + 1) & 0xFF,
            (t * 3 + lane as u64 * 11 + 2) & 0xFF,
        )
    };
    let texts: Vec<String> = (0..RLANES)
        .map(|lane| {
            let mut w = VcdWriter::new("tb");
            let va = w.add_var("a", 8);
            let vb = w.add_var("b", 8);
            w.begin();
            for t in 0..lens[lane] as u64 {
                let (a, b) = stim(lane, t);
                w.timestamp(t);
                w.change(va, &Bits::from_u64(a, 8));
                w.change(vb, &Bits::from_u64(b, 8));
            }
            w.finish()
        })
        .collect();

    // Too many stimuli for the session is a typed error, session intact.
    let five: Vec<&str> = std::iter::repeat_n(texts[0].as_str(), 5).collect();
    let err = client
        .replay_batch(mixer, &five)
        .expect_err("5 stimuli on a 4-lane session");
    assert!(matches!(
        err,
        ClientError::Server { ref code, .. } if code == "bad_lanes"
    ));

    let text_refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let resp = client
        .replay_batch(mixer, &text_refs)
        .expect("batch replay");
    let total = *lens.iter().max().unwrap() as u64;
    assert_eq!(resp.get("cycles").and_then(Json::as_u64), Some(total));
    let vcds = resp
        .get("vcds")
        .and_then(Json::as_array)
        .expect("per-lane output vcds");
    assert_eq!(vcds.len(), RLANES);

    let compiled_b = compile(&verilog::parse(DESIGN_B).unwrap(), &small_opts()).unwrap();
    for lane in 0..RLANES {
        let text = vcds[lane].as_str().expect("vcd string");
        let dump = gem_netlist::vcd::VcdDump::parse(text).expect("valid vcd");
        let xs = vcd_port_values(&dump, "x");
        let rs = vcd_port_values(&dump, "r");
        assert_eq!(xs.len(), total as usize, "lane {lane}");
        let mut golden = EaigSim::new(&compiled_b.eaig);
        let mut held = stim(lane, 0);
        for t in 0..total {
            if t < lens[lane] as u64 {
                held = stim(lane, t); // fresh values while the stream lasts
            }
            golden_set(&mut golden, &compiled_b, "a", held.0);
            golden_set(&mut golden, &compiled_b, "b", held.1);
            assert_eq!(
                xs[t as usize],
                golden_get(&mut golden, &compiled_b, "x"),
                "lane {lane} output x diverged at cycle {t}"
            );
            assert_eq!(
                rs[t as usize],
                golden_get(&mut golden, &compiled_b, "r"),
                "lane {lane} output r diverged at cycle {t}"
            );
            golden.step();
        }
    }

    // --- lane metrics drain with their sessions -------------------------
    client.close(accum).expect("close accum");
    client.close(mixer).expect("close mixer");
    let stats = quiesced_stats(&mut client);
    assert_eq!(metric(&stats, "gem_server_lanes_active"), 0.0);
    assert_eq!(metric(&stats, "gem_server_batch_sessions_total"), 2.0);
    assert_eq!(metric(&stats, "gem_server_sessions_active"), 0.0);
    // Batch replay counts machine cycles, not lane-cycles: 12 steps plus
    // the 6-cycle lockstep replay.
    assert_eq!(metric(&stats, "gem_server_cycles_total"), 18.0);

    shutdown_and_join(addr, server);
}

/// A full-width batch session end to end: `open {"lanes": 64}` succeeds
/// (65 is rejected before the gate in the validation sweep above), a 64-stream
/// lockstep `replay_batch` produces 64 per-lane output VCDs bit-equal
/// to 64 independent single-lane sessions replaying the same stimuli,
/// and per-lane poke/peek addresses every one of the 64 lanes.
#[test]
fn full_width_batch_matches_independent_sessions() {
    let (addr, server) = start_server(ServerConfig::default());
    let mut client = GemClient::connect(addr).expect("connect");
    const LANES: usize = 64;
    let resp = client
        .open_lanes(DESIGN_B, wire_opts(), LANES as u32)
        .expect("open 64-lane batch");
    let batch = resp.get("session").and_then(Json::as_u64).unwrap();
    assert_eq!(resp.get("lanes").and_then(Json::as_u64), Some(64));

    // 64 distinct stimulus streams.
    let cycles = 6u64;
    let stim = |lane: usize, t: u64| {
        (
            (t * 5 + lane as u64 * 7 + 1) & 0xFF,
            (t * 3 + lane as u64 * 11 + 2) & 0xFF,
        )
    };
    let texts: Vec<String> = (0..LANES)
        .map(|lane| {
            let mut w = VcdWriter::new("tb");
            let va = w.add_var("a", 8);
            let vb = w.add_var("b", 8);
            w.begin();
            for t in 0..cycles {
                let (a, b) = stim(lane, t);
                w.timestamp(t);
                w.change(va, &Bits::from_u64(a, 8));
                w.change(vb, &Bits::from_u64(b, 8));
            }
            w.finish()
        })
        .collect();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let resp = client.replay_batch(batch, &refs).expect("replay 64 lanes");
    assert_eq!(resp.get("cycles").and_then(Json::as_u64), Some(cycles));
    let vcds = resp
        .get("vcds")
        .and_then(Json::as_array)
        .expect("per-lane output vcds");
    assert_eq!(vcds.len(), LANES);

    // Every lane must be bit-equal to its own independent session.
    for lane in 0..LANES {
        let resp = client.open(DESIGN_B, wire_opts()).expect("open single");
        let single = resp.get("session").and_then(Json::as_u64).unwrap();
        let replayed = client.replay(single, &texts[lane]).expect("replay single");
        let batch_dump =
            gem_netlist::vcd::VcdDump::parse(vcds[lane].as_str().unwrap()).expect("batch vcd");
        let single_dump = gem_netlist::vcd::VcdDump::parse(
            replayed.get("vcd").and_then(Json::as_str).expect("vcd"),
        )
        .expect("single vcd");
        for port in ["x", "r"] {
            assert_eq!(
                vcd_port_values(&batch_dump, port),
                vcd_port_values(&single_dump, port),
                "lane {lane} port {port} diverged from its independent session"
            );
        }
        client.close(single).expect("close single");
    }

    // Per-lane poke/peek across the full width (x is combinational, so
    // the session state left by the replay does not disturb it).
    for lane in 0..LANES as u32 {
        client
            .poke_lane(batch, lane, "a", &format!("{lane:02x}"))
            .expect("poke a");
        client.poke_lane(batch, lane, "b", "a5").expect("poke b");
    }
    client.step(batch, 1, vec![]).expect("step");
    for lane in 0..LANES as u32 {
        let (a, b) = (u64::from(lane), 0xA5u64);
        let want = ((a ^ b) + (a & b)) & 0xFF;
        let got = client.peek_lane(batch, lane, "x").expect("peek x");
        assert_eq!(
            u64::from_str_radix(&got, 16).unwrap(),
            want,
            "lane {lane} poke/peek"
        );
    }
    client.close(batch).expect("close batch");
    shutdown_and_join(addr, server);
}

/// The single-stimulus `replay` form on a batch session drives every
/// lane, as a scalar poke does: after it, each lane reads what lane 0
/// reads on every output.
#[test]
fn scalar_replay_drives_every_lane_of_a_batch_session() {
    let (addr, server) = start_server(ServerConfig::default());
    let mut client = GemClient::connect(addr).expect("connect");
    let resp = client
        .open_lanes(DESIGN_B, wire_opts(), 4)
        .expect("open 4-lane batch");
    let session = resp.get("session").and_then(Json::as_u64).unwrap();
    let mut w = VcdWriter::new("tb");
    let va = w.add_var("a", 8);
    let vb = w.add_var("b", 8);
    w.begin();
    for t in 0..5u64 {
        w.timestamp(t);
        w.change(va, &Bits::from_u64(t * 37 + 3, 8));
        w.change(vb, &Bits::from_u64(t * 11 + 90, 8));
    }
    let resp = client.replay(session, &w.finish()).expect("replay");
    assert_eq!(resp.get("cycles").and_then(Json::as_u64), Some(5));
    for port in ["x", "r"] {
        let lane0 = client.peek_lane(session, 0, port).expect("peek lane 0");
        for lane in 1..4 {
            let got = client.peek_lane(session, lane, port).expect("peek lane");
            assert_eq!(got, lane0, "lane {lane} port {port}");
        }
    }
    shutdown_and_join(addr, server);
}

/// A stimulus whose time runs backwards is a `bad_request` naming the
/// line, in both wire forms of `replay`, and the session serves on.
#[test]
fn backwards_time_is_refused_by_both_replay_forms() {
    let (addr, server) = start_server(ServerConfig::default());
    let mut client = GemClient::connect(addr).expect("connect");
    let resp = client
        .open_lanes(DESIGN_B, wire_opts(), 2)
        .expect("open 2-lane batch");
    let session = resp.get("session").and_then(Json::as_u64).unwrap();
    let text = "$scope module tb $end\n$var wire 8 ! a $end\n\
                $upscope $end\n$enddefinitions $end\n#10\nb1 !\n#5\nb10 !\n";
    let forward = text.replace("#5", "#20");
    for (form, result) in [
        ("vcd", client.replay(session, text)),
        ("vcds", client.replay_batch(session, &[&forward, text])),
    ] {
        match result.expect_err("backwards time") {
            ClientError::Server { code, message, .. } => {
                assert_eq!(code, "bad_request", "{form}");
                assert!(
                    message.contains("line 7: timestamp #5 goes back from #10"),
                    "{form}: {message}"
                );
                if form == "vcds" {
                    assert!(
                        message.starts_with("stimulus VCD for lane 1: "),
                        "{message}"
                    );
                }
            }
            other => panic!("{form}: expected server error, got {other}"),
        }
    }
    let resp = client.replay(session, &forward).expect("replay serves on");
    assert_eq!(resp.get("cycles").and_then(Json::as_u64), Some(2));
    shutdown_and_join(addr, server);
}

/// The `profile` wire op end to end: the response carries the cache
/// key, the rendered table and a report with per-partition and
/// per-layer attribution. A legacy `"threads"` field (removed with the
/// host thread axis) is an unknown field like any other: the request
/// succeeds with identical exact counters, and no report names threads
/// or barriers.
#[test]
fn profile_op_reports_attribution_and_ignores_legacy_threads() {
    let (addr, server) = start_server(ServerConfig::default());
    let mut client = GemClient::connect(addr).expect("connect");

    let plain = client.profile(DESIGN_A, wire_opts(), 16).expect("profile");
    let legacy = client
        .request(
            "profile",
            vec![
                ("source", Json::Str(DESIGN_A.into())),
                ("opts", wire_opts()),
                ("cycles", Json::U64(16)),
                ("threads", Json::U64(4)),
            ],
        )
        .expect("profile with legacy threads field");

    assert_eq!(plain.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(legacy.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(plain.get("key"), legacy.get("key"));
    assert!(plain.get("key").and_then(Json::as_str).is_some());
    let report = |resp: &Json| -> Json {
        let table = resp.get("table").and_then(Json::as_str).expect("table");
        assert!(table.contains("partitions") && table.contains("layers"));
        let rep = resp.get("profile").expect("profile report").clone();
        for section in ["partitions", "layers"] {
            let rows = rep.get(section).and_then(Json::as_array);
            assert!(rows.is_some_and(|r| !r.is_empty()), "empty {section}");
        }
        assert!(rep.get("threads").is_none() && rep.get("barriers").is_none());
        rep
    };
    let (plain, legacy) = (report(&plain), report(&legacy));
    // Everything but the measured wall clock derives from exact counters.
    for exact in ["cycles", "gpu", "modeled_hz", "partitions", "layers"] {
        assert_eq!(plain.get(exact), legacy.get(exact), "{exact}");
    }
    assert_eq!(plain.get("cycles").and_then(Json::as_u64), Some(16));

    shutdown_and_join(addr, server);
}

/// The `lint` wire op returns typed diagnostics and a schedule
/// certificate for clean designs, and names the offending nets — with
/// no compile attempted — for designs with error-severity findings.
#[test]
fn lint_op_reports_diagnostics_and_certification() {
    let (addr, server) = start_server(ServerConfig::default());
    let mut client = GemClient::connect(addr).expect("connect");

    // Clean design: zero warnings, compiled and certified.
    let resp = client.lint(DESIGN_A, wire_opts()).expect("lint clean");
    assert_eq!(resp.get("clean").and_then(Json::as_bool), Some(true));
    assert_eq!(resp.get("certified").and_then(Json::as_bool), Some(true));
    let cert = resp.get("cert").and_then(Json::as_str).expect("cert");
    assert!(cert.contains("read(s) ordered"), "cert summary: {cert}");

    // A combinational loop: GEM-L001 with the looped nets named, not
    // certified, and no compile burned on it.
    let looped = "
module looped(input a, output y);
  wire fb;
  assign fb = fb & a;
  assign y = ~fb;
endmodule
";
    let resp = client.lint(looped, wire_opts()).expect("lint runs");
    assert_eq!(resp.get("clean").and_then(Json::as_bool), Some(false));
    assert_eq!(resp.get("certified").and_then(Json::as_bool), Some(false));
    let diags = resp
        .get("diagnostics")
        .and_then(Json::as_array)
        .expect("diagnostics array");
    let loop_diag = diags
        .iter()
        .find(|d| d.get("code").and_then(Json::as_str) == Some("GEM-L001"))
        .expect("comb-loop diagnostic");
    assert_eq!(
        loop_diag.get("severity").and_then(Json::as_str),
        Some("error")
    );
    let witness = loop_diag
        .get("witness")
        .and_then(Json::as_str)
        .expect("witness");
    assert!(witness.contains("fb"), "witness names the net: {witness}");

    let stats = quiesced_stats(&mut client);
    assert_eq!(
        metric(&stats, "gem_server_compiles_total"),
        1.0,
        "only the clean design compiled"
    );

    shutdown_and_join(addr, server);
}
