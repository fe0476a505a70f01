//! Cross-crate integration tests: every engine in the workspace must
//! agree on the same designs, and serialized artifacts must round-trip.

use gem_core::{compile, CompileOptions, GemSimulator};
use gem_netlist::{verilog, Bits, ModuleBuilder, ReadKind};
use gem_sim::{EaigSim, EventSim, NetlistSim};
use gem_vgpu::{gl0am, GemGpu, KernelCounters};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A mixed design exercising arithmetic, control, and both memory kinds.
fn mixed_module() -> gem_netlist::Module {
    let mut b = ModuleBuilder::new("mixed");
    let sel = b.input("sel", 1);
    let x = b.input("x", 8);
    let we = b.input("we", 1);
    let addr = b.input("addr", 4);
    // Datapath.
    let q = b.dff(8);
    let sum = b.add(q, x);
    let diff = b.sub(q, x);
    let nxt = b.mux(sel, sum, diff);
    b.connect_dff(q, nxt);
    // Sync RAM logging the datapath.
    let mem = b.memory("log", 16, 8);
    b.write_port(mem, addr, q, we);
    let rd = b.read_port(mem, addr, ReadKind::Sync);
    // Async register file flavored lookup.
    let rf = b.memory("rf", 8, 8);
    let low = b.slice(addr, 0, 3);
    b.write_port(rf, low, x, we);
    let rf_rd = b.read_port(rf, low, ReadKind::Async);
    b.output("q", q);
    b.output("rd", rd);
    b.output("rf_rd", rf_rd);
    b.finish().expect("valid")
}

/// GEM, the RTL interpreter and both E-AIG interpreters (golden and
/// event-driven), same stimulus, cycle-by-cycle agreement. The run also
/// pins GL0AM's modeled cost: the event-driven engine's re-evaluation
/// counts priced by [`gl0am::counters`], at the values of the dedicated
/// GL0AM interpreter that pricing replaced.
#[test]
fn four_engines_agree() {
    let m = mixed_module();
    let compiled = compile(&m, &CompileOptions::small()).expect("compiles");
    let g = &compiled.eaig;

    let mut gem = GemSimulator::new(&compiled).expect("loads");
    let mut rtl = NetlistSim::new(&m);
    let mut gold = EaigSim::new(g);
    let mut ev = EventSim::new(g);

    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let n_in = g.inputs().len();
    for cycle in 0..150 {
        // Random named inputs.
        let mut bitvec = vec![false; n_in];
        for p in m.inputs() {
            let w = m.width(p.net);
            let mut v = Bits::zeros(w);
            for i in 0..w {
                v.set_bit(i, rng.gen_bool(0.5));
            }
            rtl.set_input(&p.name, v.clone());
            gem.set_input(&p.name, v.clone());
            let pb = compiled
                .eaig_inputs
                .iter()
                .find(|pb| pb.name == p.name)
                .expect("port mapped");
            for i in 0..w {
                bitvec[pb.lsb_index + i as usize] = v.bit(i);
            }
        }
        rtl.eval();
        for (i, &v) in bitvec.iter().enumerate() {
            gold.set_input(i, v);
        }
        gold.eval();
        let ev_out = ev.cycle(&bitvec);
        gem.step();

        for pb in &compiled.eaig_outputs {
            let rtl_v = rtl.output(&pb.name);
            let gem_v = gem.output(&pb.name);
            for i in 0..pb.width {
                let bit_idx = pb.lsb_index + i as usize;
                let want = rtl_v.bit(i);
                assert_eq!(gold.output(bit_idx), want, "golden {} c{cycle}", pb.name);
                assert_eq!(ev_out[bit_idx], want, "event {} c{cycle}", pb.name);
                assert_eq!(gem_v.bit(i), want, "gem {} c{cycle}", pb.name);
            }
        }
        rtl.step();
        gold.step();
    }

    let cost = gl0am::counters(ev.evaluations(), ev.active_levels(), ev.cycles());
    let pinned = KernelCounters {
        global_bytes: 5_172_480,
        global_transactions: 161_640,
        alu_ops: 40_410,
        device_syncs: 2_079,
        cycles: 150,
        ..KernelCounters::default()
    };
    assert_eq!(cost, pinned);
}

/// Bitstream serialization round-trips and the reloaded machine behaves
/// identically.
#[test]
fn bitstream_round_trip_preserves_behaviour() {
    let m = mixed_module();
    let compiled = compile(&m, &CompileOptions::small()).expect("compiles");
    let bytes = compiled.bitstream.to_bytes();
    let restored = gem_isa::Bitstream::from_bytes(&bytes).expect("parses");
    assert_eq!(restored, compiled.bitstream);

    let mut gpu1 = GemGpu::load(&compiled.bitstream, compiled.device.clone()).expect("loads");
    let mut gpu2 = GemGpu::load(&restored, compiled.device.clone()).expect("loads");
    let input_bits: Vec<u32> = compiled
        .io
        .inputs
        .iter()
        .flat_map(|p| p.bits.iter().copied())
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    for _ in 0..40 {
        for &gbit in &input_bits {
            let v = rng.gen_bool(0.5);
            gpu1.poke(gbit, v);
            gpu2.poke(gbit, v);
        }
        gpu1.step_cycle();
        gpu2.step_cycle();
        for p in &compiled.io.outputs {
            for &gbit in &p.bits {
                assert_eq!(gpu1.peek(gbit), gpu2.peek(gbit));
            }
        }
    }
}

/// Verilog in, VCD out: the full toolchain of the paper's Fig 1.
#[test]
fn verilog_to_vcd_toolchain() {
    let src = r#"
        module edge_counter(input clk, input sig, output reg [7:0] count);
          reg last;
          always @(posedge clk) begin
            last <= sig;
            if (sig != last) count <= count + 8'd1;
          end
        endmodule
    "#;
    let m = verilog::parse(src).expect("parses");
    let compiled = compile(&m, &CompileOptions::small()).expect("compiles");
    let mut sim = GemSimulator::new(&compiled).expect("loads");

    let mut vcd = gem_netlist::vcd::VcdWriter::new("tb");
    let v_sig = vcd.add_var("sig", 1);
    let v_cnt = vcd.add_var("count", 8);
    vcd.begin();
    let pattern = [false, true, true, false, true, false, false, true];
    for (t, &s) in pattern.iter().enumerate() {
        sim.set_input("sig", Bits::from(s));
        sim.step();
        vcd.timestamp(t as u64);
        vcd.change(v_sig, &Bits::from(s));
        vcd.change(v_cnt, &sim.output("count"));
    }
    // 5 transitions within the window; outputs show pre-edge values, so
    // run one extra quiet cycle to observe the last increment.
    sim.step();
    vcd.timestamp(pattern.len() as u64);
    vcd.change(v_cnt, &sim.output("count"));
    let final_count = sim.output("count").to_u64();
    assert_eq!(final_count, 5, "edge count");

    let text = vcd.finish();
    let dump = gem_netlist::vcd::VcdDump::parse(&text).expect("parses");
    assert_eq!(dump.vars.len(), 2);
    let last_count = dump
        .changes
        .iter()
        .rev()
        .find(|(_, v, _)| *v == dump.var("count").unwrap())
        .map(|(_, _, b)| b.to_u64());
    assert_eq!(last_count, Some(final_count));
}

/// Compiling the same module twice is deterministic.
#[test]
fn compilation_is_deterministic() {
    let m = mixed_module();
    let a = compile(&m, &CompileOptions::small()).expect("compiles");
    let b = compile(&m, &CompileOptions::small()).expect("compiles");
    assert_eq!(a.bitstream, b.bitstream);
    assert_eq!(a.report.layers, b.report.layers);
    assert_eq!(a.report.parts, b.report.parts);
}
