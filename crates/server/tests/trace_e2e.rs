//! End-to-end request-correlation test: one client-visible request id
//! must link the wire frame, the request span, the gated job span, and
//! the compile/step spans recorded deep inside the flow — all on the
//! connection's own thread — and request latency must surface as p50/p95/p99 quantiles
//! in the `stats` snapshot.
//!
//! This lives in its own integration-test binary because the span
//! collector is process-global: sharing a process with other tests that
//! install collectors would interleave events.

use gem_server::{GemClient, Server, ServerConfig};
use gem_telemetry::span::{self, TraceCollector, TraceEvent};
use gem_telemetry::{validate_chrome_trace, Json};

const DESIGN: &str = "
module accum(input clk, input en, input [7:0] delta, output reg [15:0] acc);
  always @(posedge clk) begin
    if (en) acc <= acc + {8'd0, delta};
  end
endmodule
";

fn wire_opts() -> Json {
    let mut o = Json::object();
    o.set("width", 256u64);
    o.set("parts", 4u64);
    o.set("stages", 1u64);
    o
}

fn rid_of(resp: &Json) -> u64 {
    resp.get("rid")
        .and_then(Json::as_u64)
        .expect("every response must carry its correlation id")
}

fn names_with_rid(events: &[TraceEvent], rid: u64) -> Vec<&str> {
    events
        .iter()
        .filter(|e| e.rid == Some(rid))
        .map(|e| e.name.as_str())
        .collect()
}

#[test]
fn one_correlation_id_links_wire_frames_and_spans() {
    let collector = TraceCollector::arc();
    span::install(std::sync::Arc::clone(&collector));

    let server = Server::bind(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let mut client = GemClient::connect(addr).expect("connect");

    // Open compiles the design inside a gated job; the compile flow's
    // stage spans must inherit this request's id.
    let open = client.open(DESIGN, wire_opts()).expect("open");
    let open_rid = rid_of(&open);
    let session = open.get("session").and_then(Json::as_u64).unwrap();

    // Step runs the simulator inside a gated job; cycle spans must
    // inherit this (different) request's id.
    let step = client
        .step(session, 3, vec![("en", "1"), ("delta", "07")])
        .expect("step");
    let step_rid = rid_of(&step);
    assert_ne!(open_rid, step_rid, "each request gets a fresh id");

    // Latency quantiles appear in the snapshot once requests completed.
    let stats = client.stats().expect("stats");
    let stats_rid = rid_of(&stats);
    assert!(stats_rid > step_rid, "ids are monotonic per server");
    let families = stats
        .get("metrics")
        .and_then(|m| m.get("families"))
        .and_then(Json::as_array)
        .expect("metric families");
    let latency = families
        .iter()
        .find(|f| f.get("name").and_then(Json::as_str) == Some("gem_server_request_latency_micros"))
        .expect("request latency histogram family");
    let samples = latency
        .get("samples")
        .and_then(Json::as_array)
        .expect("samples");
    for q in ["0.5", "0.95", "0.99"] {
        assert!(
            samples.iter().any(|s| {
                s.get("labels")
                    .and_then(|l| l.get("quantile"))
                    .and_then(Json::as_str)
                    == Some(q)
            }),
            "snapshot must expose p{q}"
        );
    }
    let count = samples
        .iter()
        .find(|s| {
            s.get("labels")
                .and_then(|l| l.get("agg"))
                .and_then(Json::as_str)
                == Some("count")
        })
        .and_then(|s| s.get("value").and_then(Json::as_f64))
        .expect("histogram count sample");
    assert!(
        count >= 2.0,
        "open + step must both be observed, got {count}"
    );

    client.close(session).expect("close");
    let mut shut = GemClient::connect(addr).expect("connect for shutdown");
    shut.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("run result");
    span::uninstall();

    let events = collector.drain();

    // The open request's id links: wire frame (asserted above via
    // `rid_of`), request span, gated job span, and the compile flow's
    // stage spans recorded inside the cache lookup.
    let open_names = names_with_rid(&events, open_rid);
    assert!(open_names.contains(&"request:open"), "{open_names:?}");
    assert!(open_names.contains(&"job:open"), "{open_names:?}");
    for stage in ["synth", "partition", "merge", "encode", "verify"] {
        assert!(
            open_names.contains(&stage),
            "compile stage {stage:?} must carry the open request's id: {open_names:?}"
        );
    }

    // The step request's id links its spans — and none of the compile
    // spans, proving ids do not bleed across requests.
    let step_names = names_with_rid(&events, step_rid);
    assert!(step_names.contains(&"request:step"), "{step_names:?}");
    assert!(step_names.contains(&"job:step"), "{step_names:?}");
    assert!(
        step_names.iter().filter(|n| **n == "cycle").count() >= 3,
        "three stepped cycles must each record a span: {step_names:?}"
    );
    assert!(
        !step_names.contains(&"synth"),
        "compile spans must not leak into the step request"
    );

    // The whole trace exports as a well-formed Chrome-trace document.
    let doc = span::events_to_chrome_trace(&events);
    let summary = validate_chrome_trace(&doc).expect("exported trace validates");
    assert!(summary.spans >= 10, "expected a rich trace: {summary:?}");
    assert!(summary.threads >= 2, "one thread per connection");
}
