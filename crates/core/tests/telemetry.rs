//! Integration tests for the telemetry layer: compile-flow reports and
//! per-partition runtime metrics (see `docs/OBSERVABILITY.md`).

use gem_core::{compile, CompileOptions, GemSimulator};
use gem_netlist::{Bits, ModuleBuilder};

fn counter_module() -> gem_netlist::Module {
    let mut b = ModuleBuilder::new("counter");
    let en = b.input("en", 1);
    let q = b.dff(8);
    let one = b.lit(1, 8);
    let inc = b.add(q, one);
    let next = b.mux(en, inc, q);
    b.connect_dff(q, next);
    b.output("q", q);
    b.finish().expect("valid module")
}

/// The flow-report stage names are a stable, documented interface: tools
/// parse them out of `--emit-metrics` files. This test pins both the
/// names and their order.
#[test]
fn compile_flow_stage_names_are_stable() {
    let m = counter_module();
    let compiled = compile(&m, &CompileOptions::small()).expect("compiles");
    let names: Vec<&str> = compiled
        .flow
        .stages
        .iter()
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(
        names,
        ["analyze", "synth", "partition", "merge", "encode", "verify"],
        "stage names/order are part of the metrics-file format"
    );
    // The analyze stage records per-pass timings.
    let analyze = compiled.flow.stage("analyze").expect("analyze recorded");
    assert_eq!(analyze.metric("errors"), Some(0.0));
    assert!(analyze.metric("loops_wall_ns").is_some());
    // Key size metrics are attached where documented.
    let report = &compiled.flow;
    assert!(report.stage("synth").unwrap().metric("gates").unwrap() > 0.0);
    assert!(
        report
            .stage("partition")
            .unwrap()
            .metric("attempts")
            .unwrap()
            >= 1.0
    );
    assert!(report.stage("merge").unwrap().metric("max_layers").unwrap() >= 1.0);
    assert!(
        report
            .stage("encode")
            .unwrap()
            .metric("bitstream_bytes")
            .unwrap()
            == compiled.report.bitstream_bytes as f64
    );
    // And the combined JSON document exposes both report and flow.
    let doc = compiled.metrics_json();
    assert!(doc.get("report").is_some());
    assert!(doc.get("compile_flow").is_some());
}

/// Per-partition counters must reconcile with the device-global totals
/// the timing model consumes. The design is RAM-free, so even global
/// memory traffic attributes exactly (RAM-phase traffic is the one
/// device-level component).
#[test]
fn partition_counters_sum_to_global_totals() {
    let m = counter_module();
    let compiled = compile(&m, &CompileOptions::small()).expect("compiles");
    assert!(
        compiled.device.rams.is_empty(),
        "test needs a RAM-free design"
    );
    let mut sim = GemSimulator::new(&compiled).expect("loads");
    sim.set_input("en", Bits::from_u64(1, 1));
    for _ in 0..7 {
        sim.step();
    }
    let bd = sim.breakdown();
    let sum = bd.partition_sum();
    let total = *sim.counters();
    assert_eq!(bd.total, total);
    assert_eq!(sum.alu_ops, total.alu_ops);
    assert_eq!(sum.shared_accesses, total.shared_accesses);
    assert_eq!(sum.block_syncs, total.block_syncs);
    assert_eq!(sum.blocks_run, total.blocks_run);
    assert_eq!(sum.global_bytes, total.global_bytes);
    assert_eq!(sum.global_transactions, total.global_transactions);
    // The exported snapshot carries the same sums.
    let snap = sim.metrics();
    assert_eq!(
        snap.family("gem_alu_ops_total").unwrap().total(),
        total.alu_ops as f64
    );
    assert_eq!(snap.family("gem_cycles_total").unwrap().total(), 7.0);
    // Layer families cover every execution of every core.
    assert_eq!(
        snap.family("gem_blocks_run_total").unwrap().total(),
        total.blocks_run as f64
    );
}
