//! End-to-end trace export: compile + simulate under an installed span
//! collector, then validate the Chrome-trace document.
//!
//! Lives in its own integration-test binary (= its own process) because
//! the span collector is process-global: unit tests elsewhere must never
//! see this file's timeline.

use gem_core::{compile, CompileOptions, GemSimulator};
use gem_netlist::ModuleBuilder;
use gem_telemetry::span;
use gem_telemetry::span::Phase;

fn acc_module() -> gem_netlist::Module {
    let mut b = ModuleBuilder::new("acc");
    let d = b.input("d", 16);
    let q = b.dff(16);
    let nxt = b.add(q, d);
    b.connect_dff(q, nxt);
    b.output("q", q);
    b.finish().expect("valid")
}

#[test]
fn compile_and_run_produce_a_valid_nested_timeline() {
    let collector = span::TraceCollector::arc();
    span::install(std::sync::Arc::clone(&collector));

    let m = acc_module();
    let compiled = compile(&m, &CompileOptions::small()).expect("compiles");
    let mut sim = GemSimulator::new(&compiled).expect("loads");
    for _ in 0..4 {
        sim.step();
    }
    drop(sim);
    span::uninstall();

    let events = collector.drain();
    // Compile stages nest under the compile root span.
    let root = events
        .iter()
        .find(|e| e.name == "compile" && e.ph == Phase::Begin)
        .expect("compile root span");
    for stage in ["synth", "partition", "merge", "encode", "verify"] {
        let b = events
            .iter()
            .find(|e| e.name == stage && e.ph == Phase::Begin)
            .unwrap_or_else(|| panic!("missing {stage} span"));
        assert_eq!(b.parent_id, root.span_id, "{stage} must nest under compile");
    }
    // The engine emitted cycle spans with nested stage spans, plus
    // per-core complete events.
    let cycle = events
        .iter()
        .find(|e| e.name == "cycle" && e.ph == Phase::Begin)
        .expect("cycle span");
    let stage0 = events
        .iter()
        .find(|e| e.name == "stage0" && e.ph == Phase::Begin)
        .expect("vgpu stage span");
    assert_eq!(stage0.parent_id, cycle.span_id);
    assert!(
        events
            .iter()
            .any(|e| e.ph == Phase::Complete && e.name.starts_with("core s")),
        "per-core execution events"
    );

    // The exported document passes the CI validator.
    let doc = span::events_to_chrome_trace(&events);
    let summary = span::validate_chrome_trace(&doc).expect("valid Chrome trace");
    assert!(summary.spans >= 7, "compile root + 6 stages at minimum");
    assert!(summary.events > 0 && summary.threads >= 1);

    // And it survives a serialize → parse round trip (what --trace-out
    // writes is what the validator reads back).
    let reparsed = gem_telemetry::parse_json(&doc.to_string()).expect("parses");
    span::validate_chrome_trace(&reparsed).expect("valid after round trip");
}
