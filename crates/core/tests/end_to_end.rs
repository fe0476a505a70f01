//! Full-pipeline equivalence: RTL → synth → partition → merge → place →
//! assemble → virtual-GPU execution, cross-checked against the word-level
//! netlist reference simulator on random stimuli.

use gem_core::{compile, CompileOptions, GemSimulator};
use gem_netlist::{Bits, Module, ModuleBuilder, ReadKind};
use gem_place::{place_partition, PlaceOptions};
use gem_sim::NetlistSim;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Random co-simulation of the compiled design against the RTL reference.
fn cosim(m: &Module, opts: &CompileOptions, cycles: usize, seed: u64) -> gem_core::Compiled {
    let compiled = compile(m, opts).expect("compiles");
    let mut gem = GemSimulator::new(&compiled).expect("loads");
    let mut rtl = NetlistSim::new(m);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for cycle in 0..cycles {
        for p in m.inputs() {
            let w = m.width(p.net);
            let mut v = Bits::zeros(w);
            for i in 0..w {
                v.set_bit(i, rng.gen_bool(0.5));
            }
            rtl.set_input(&p.name, v.clone());
            gem.set_input(&p.name, v);
        }
        rtl.eval();
        gem.step();
        for p in m.outputs() {
            assert_eq!(
                gem.output(&p.name),
                rtl.output(&p.name),
                "cycle {cycle}: output {} diverged",
                p.name
            );
        }
        rtl.step();
    }
    compiled
}

#[test]
fn combinational_design() {
    let mut b = ModuleBuilder::new("comb");
    let x = b.input("x", 8);
    let y = b.input("y", 8);
    let s = b.add(x, y);
    let lt = b.ult(x, y);
    b.output("s", s);
    b.output("lt", lt);
    let m = b.finish().unwrap();
    cosim(&m, &CompileOptions::small(), 50, 1);
}

/// Options outside what placer, ISA and loader all accept are refused by
/// the compile itself, with a type: widths 3 and 100 used to panic in
/// `BoomerangLayer::new`, and 65536 compiled, verified, and then failed
/// to load.
#[test]
fn out_of_range_options_are_a_typed_error_not_a_panic() {
    use gem_core::CompileError;
    let mut b = ModuleBuilder::new("inv");
    let x = b.input("x", 1);
    let y = b.not(x);
    b.output("y", y);
    let m = b.finish().unwrap();
    type Set = fn(&mut CompileOptions);
    let refused: [(&str, Set); 9] = [
        ("width", |o| o.core_width = 0),
        ("width", |o| o.core_width = 1),
        ("width", |o| o.core_width = 3),
        ("width", |o| o.core_width = 100),
        ("width", |o| o.core_width = 65536),
        ("partition", |o| o.target_parts = 0),
        ("partition", |o| o.target_parts = usize::MAX),
        ("stage", |o| o.stages = 0),
        ("stage", |o| o.stages = 5),
    ];
    for (names, set) in refused {
        let mut opts = CompileOptions::small();
        set(&mut opts);
        match compile(&m, &opts) {
            Err(CompileError::Options(why)) => assert!(why.contains(names), "{why}"),
            other => panic!("{opts:?}: expected an options error, got {other:?}"),
        }
    }
    // The extremes of the legal range compile and load.
    for core_width in [8, CompileOptions::MAX_CORE_WIDTH] {
        let opts = CompileOptions {
            core_width,
            target_parts: CompileOptions::MAX_TARGET_PARTS,
            stages: CompileOptions::MAX_STAGES,
            ..Default::default()
        };
        cosim(&m, &opts, 4, 7);
    }
}

#[test]
fn sequential_counter_and_shift() {
    let mut b = ModuleBuilder::new("seq");
    let en = b.input("en", 1);
    let din = b.input("din", 1);
    let q = b.dff(8);
    let one = b.lit(1, 8);
    let inc = b.add(q, one);
    let nq = b.mux(en, inc, q);
    b.connect_dff(q, nq);
    let sh = b.dff(4);
    let hi = b.slice(sh, 0, 3);
    let nsh = b.concat(&[din, hi]);
    b.connect_dff(sh, nsh);
    b.output("q", q);
    b.output("sh", sh);
    let m = b.finish().unwrap();
    cosim(&m, &CompileOptions::small(), 80, 2);
}

/// A 16 × 8 synchronous-read memory: maps onto one native RAM block.
fn native_ram_module() -> Module {
    let mut b = ModuleBuilder::new("ram");
    let wa = b.input("wa", 4);
    let ra = b.input("ra", 4);
    let wd = b.input("wd", 8);
    let we = b.input("we", 1);
    let mem = b.memory("m", 16, 8);
    b.write_port(mem, wa, wd, we);
    let q = b.read_port(mem, ra, ReadKind::Sync);
    b.output("q", q);
    b.finish().unwrap()
}

#[test]
fn design_with_native_ram() {
    let m = native_ram_module();
    let compiled = cosim(&m, &CompileOptions::small(), 200, 3);
    assert_eq!(compiled.report.ram_blocks, 1);
    assert_eq!(compiled.device.rams.len(), 1);
}

#[test]
fn design_with_async_ram_polyfill() {
    let mut b = ModuleBuilder::new("rf");
    let wa = b.input("wa", 3);
    let ra = b.input("ra", 3);
    let wd = b.input("wd", 4);
    let we = b.input("we", 1);
    let mem = b.memory("rf", 8, 4);
    b.write_port(mem, wa, wd, we);
    let q = b.read_port(mem, ra, ReadKind::Async);
    b.output("q", q);
    let m = b.finish().unwrap();
    let compiled = cosim(&m, &CompileOptions::small(), 150, 4);
    assert_eq!(compiled.report.ram_blocks, 0);
    assert!(compiled.report.polyfilled_mem_bits > 0);
}

/// Deep shared logic so two stages are meaningful.
fn deep_module() -> Module {
    let mut b = ModuleBuilder::new("deep");
    let x = b.input("x", 16);
    let y = b.input("y", 16);
    let mut acc = b.xor(x, y);
    for _ in 0..4 {
        let t = b.add(acc, x);
        acc = b.xor(t, y);
    }
    let q = b.dff(16);
    let nq = b.add(q, acc);
    b.connect_dff(q, nq);
    b.output("acc", acc);
    b.output("q", q);
    b.finish().unwrap()
}

#[test]
fn two_stage_compile_matches() {
    let m = deep_module();
    let opts = CompileOptions {
        stages: 2,
        ..CompileOptions::small()
    };
    let compiled = cosim(&m, &opts, 60, 5);
    assert_eq!(compiled.report.stages, 2);
}

#[test]
fn verilog_source_to_gpu() {
    let src = r#"
        module blinky(input clk, input rst, output reg [3:0] cnt, output msb);
          assign msb = cnt[3];
          always @(posedge clk) begin
            if (rst) cnt <= 4'd0;
            else cnt <= cnt + 4'd1;
          end
        endmodule
    "#;
    let m = gem_netlist::verilog::parse(src).unwrap();
    cosim(&m, &CompileOptions::small(), 60, 6);
}

#[test]
fn report_fields_are_plausible() {
    let mut b = ModuleBuilder::new("stats");
    let x = b.input("x", 32);
    let y = b.input("y", 32);
    let p = b.mul(x, y);
    b.output("p", p);
    let m = b.finish().unwrap();
    // A 32×32 multiplier column's fan-in cone is wider than the tiny test
    // core, so compile with a wider core.
    let opts = CompileOptions {
        core_width: 2048,
        target_parts: 4,
        ..CompileOptions::default()
    };
    let compiled = compile(&m, &opts).expect("compiles");
    let r = &compiled.report;
    assert!(r.gates > 500, "multiplier should be big, got {}", r.gates);
    assert!(r.levels > 5);
    assert!(r.layers >= 1);
    assert!(r.layers < r.levels, "boomerang must compress levels");
    assert!(r.bitstream_bytes > 0);
    assert_eq!(r.bitstream_bytes, compiled.bitstream.total_bytes() as u64);
}

#[test]
fn fifo_placement_option_still_correct() {
    let mut b = ModuleBuilder::new("fifoopt");
    let x = b.input("x", 8);
    let y = b.input("y", 8);
    let s = b.add(x, y);
    let q = b.dff(8);
    let n = b.xor(q, s);
    b.connect_dff(q, n);
    b.output("q", q);
    let m = b.finish().unwrap();
    let opts = CompileOptions {
        timing_driven: false,
        ..CompileOptions::small()
    };
    cosim(&m, &opts, 50, 7);
}

/// Where the programs of a compile were built, read off its flow report.
#[derive(Debug, Clone, Copy)]
struct Shipped {
    /// Programs shipped: one per core.
    cores: usize,
    /// Stages mapped whole: one program each, built by the whole-stage
    /// check.
    whole: usize,
    /// Merges the oracle accepted: at least one shipped program came with
    /// a merge when there was any (a merged partition only grows).
    merges: usize,
    /// At least this many programs were built by the accepted partition
    /// attempt and kept: every program of a stage not mapped whole that
    /// no merge built.
    kept: usize,
}

/// Every program the compile ships — whether the whole-stage check, the
/// accepted partition attempt or the merge's oracle built it — equals a
/// fresh placement of its partition.
fn reuse_equals_redoing(m: &Module, opts: &CompileOptions) -> Shipped {
    let compiled = compile(m, opts).expect("compiles");
    let place_opts = PlaceOptions {
        core_width: opts.core_width,
        timing_driven: opts.timing_driven,
    };
    let stages = &compiled.partitioning.stages;
    assert_eq!(stages.len(), compiled.programs.len());
    let mut max_layers = 0;
    for (stage, programs) in stages.iter().zip(&compiled.programs) {
        assert_eq!(stage.partitions.len(), programs.len());
        for (p, program) in stage.partitions.iter().zip(programs) {
            let (fresh, stats) = place_partition(&compiled.eaig, p, &place_opts).expect("places");
            assert_eq!(
                program, &fresh,
                "a reused placement differs from a fresh one"
            );
            max_layers = max_layers.max(stats.layers);
        }
    }
    assert_eq!(compiled.report.layers, max_layers);
    let metric = |stage, name| {
        let st = compiled.flow.stage(stage).expect("stage ran");
        st.metric(name).expect("stage metric") as usize
    };
    let cores = metric("merge", "cores");
    assert_eq!(cores, compiled.bitstream.total_cores());
    let merges = metric("merge", "oracle_calls")
        - metric("merge", "width_rejects")
        - metric("merge", "place_rejects");
    let whole = metric("partition", "whole_stages");
    Shipped {
        cores,
        whole,
        merges,
        kept: cores.saturating_sub(whole + merges),
    }
}

#[test]
fn reused_placements_equal_fresh_ones() {
    // One with a native RAM block, one with two stages: both fit their
    // cores, so each stage is mapped whole.
    let ram = reuse_equals_redoing(&native_ram_module(), &CompileOptions::small());
    assert!(ram.cores > 0, "nothing shipped");
    assert_eq!(ram.whole, 1, "{ram:?}");
    let two_stages = CompileOptions {
        stages: 2,
        ..CompileOptions::small()
    };
    let deep = reuse_equals_redoing(&deep_module(), &two_stages);
    assert!(deep.cores > 0, "nothing shipped");
    assert_eq!(deep.whole, 2, "{deep:?}");

    // One where cores are too narrow for every partition to find a
    // partner: some programs come from merges, some were placed by the
    // accepted partition attempt and kept.
    let mut b = ModuleBuilder::new("wide");
    for k in 0..6 {
        let x = b.input(format!("x{k}"), 12);
        let q = b.dff(12);
        let p = b.mul(q, x);
        let nq = b.add(p, x);
        b.connect_dff(q, nq);
        b.output(format!("q{k}"), q);
    }
    let opts = CompileOptions {
        target_parts: 6,
        core_width: 128,
        ..Default::default()
    };
    let narrow = reuse_equals_redoing(&b.finish().unwrap(), &opts);
    assert!(narrow.merges > 0 && narrow.kept > 0, "{narrow:?}");
}
