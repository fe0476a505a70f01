//! End-to-end trace export: compile + simulate under an installed span
//! collector, then validate the Chrome-trace document.
//!
//! Lives in its own integration-test binary (= its own process) because
//! the span collector is process-global: unit tests elsewhere must never
//! see this file's timeline.

use gem_core::{compile, CompileOptions, GemSimulator};
use gem_netlist::ModuleBuilder;
use gem_telemetry::span;
use gem_telemetry::span::{ArgValue, Phase};

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
    // One 64-bit core does not hold the whole accumulator, two do: the
    // first partition attempt does not place, the second does.
    let narrow = CompileOptions {
        target_parts: 1,
        core_width: 64,
        ..CompileOptions::small()
    };
    let retried = compile(&m, &narrow).expect("compiles on the retry");
    span::uninstall();
    let partition = retried.flow.stage("partition").expect("partition ran");
    assert_eq!(partition.metric("attempts"), Some(2.0));

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

    // The retry is on the timeline, under the partition stage: the attempt
    // that did not place, why, and the goals the next one took.
    let retries: Vec<_> = events
        .iter()
        .filter(|e| e.name == "partition_retry")
        .collect();
    assert_eq!(retries.len(), 1, "one retry, in the narrow compile");
    let retry = retries[0];
    assert_eq!(retry.ph, Phase::Instant);
    let partition_span = events
        .iter()
        .rfind(|e| e.name == "partition" && e.ph == Phase::Begin)
        .expect("the narrow compile's partition span");
    assert_eq!(retry.parent_id, partition_span.span_id);
    let arg = |k: &str| {
        let found = retry.args.iter().find(|(name, _)| name == k);
        found
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("no {k} arg"))
    };
    assert_eq!(arg("attempt"), ArgValue::F64(1.0));
    assert_eq!(arg("parts"), ArgValue::F64(2.0));
    assert_eq!(arg("stages"), ArgValue::F64(1.0));
    assert!(matches!(arg("error"), ArgValue::Str(e) if !e.is_empty()));

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
