//! Synthesis correctness: co-simulate the RTL netlist (word-level golden
//! model) against the synthesized E-AIG (bit-level golden model) on random
//! stimuli, for every operator class and both memory implementations.

use gem_aig::Node;
use gem_netlist::{Bits, Module, ModuleBuilder, ReadKind};
use gem_sim::{EaigSim, NetlistSim};
use gem_synth::{synthesize, SynthOptions, SynthResult};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Runs `cycles` random cycles through both models and asserts identical
/// outputs each cycle.
fn cosim(m: &Module, opts: &SynthOptions, cycles: usize, seed: u64) -> SynthResult {
    let r = synthesize(m, opts).expect("synthesizable");
    let mut rtl = NetlistSim::new(m);
    let mut aig = EaigSim::new(&r.eaig);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for cycle in 0..cycles {
        // Random inputs.
        for (pi, p) in m.inputs().enumerate() {
            let w = m.width(p.net);
            let mut v = Bits::zeros(w);
            for i in 0..w {
                v.set_bit(i, rng.gen_bool(0.5));
            }
            rtl.set_input(&p.name, v.clone());
            let layout = &r.inputs[pi];
            for i in 0..w {
                aig.set_input(layout.lsb_index + i as usize, v.bit(i));
            }
        }
        rtl.eval();
        aig.eval();
        for (po, p) in m.outputs().enumerate() {
            let expect = rtl.output(&p.name);
            let layout = &r.outputs[po];
            for i in 0..expect.width() {
                let got = aig.output(layout.lsb_index + i as usize);
                assert_eq!(
                    got,
                    expect.bit(i),
                    "cycle {cycle}: output {}[{i}] mismatch (expect {expect})",
                    p.name
                );
            }
        }
        rtl.step();
        aig.step();
    }
    r
}

#[test]
fn arithmetic_ops_equivalent() {
    let mut b = ModuleBuilder::new("arith");
    let x = b.input("x", 16);
    let y = b.input("y", 16);
    let add = b.add(x, y);
    let sub = b.sub(x, y);
    let neg = b.neg(x);
    let mul = b.mul(x, y);
    b.output("add", add);
    b.output("sub", sub);
    b.output("neg", neg);
    b.output("mul", mul);
    let m = b.finish().unwrap();
    cosim(&m, &SynthOptions, 64, 1);
}

#[test]
fn comparison_ops_equivalent() {
    let mut b = ModuleBuilder::new("cmp");
    let x = b.input("x", 9);
    let y = b.input("y", 9);
    let eq = b.eq(x, y);
    let lt = b.ult(x, y);
    b.output("eq", eq);
    b.output("lt", lt);
    let m = b.finish().unwrap();
    cosim(&m, &SynthOptions, 128, 2);
}

#[test]
fn bitwise_and_reductions_equivalent() {
    let mut b = ModuleBuilder::new("bits");
    let x = b.input("x", 13);
    let y = b.input("y", 13);
    let and = b.and(x, y);
    let or = b.or(x, y);
    let xor = b.xor(x, y);
    let not = b.not(x);
    let ra = b.reduce_and(x);
    let ro = b.reduce_or(x);
    let rx = b.reduce_xor(x);
    for (n, v) in [
        ("and", and),
        ("or", or),
        ("xor", xor),
        ("not", not),
        ("ra", ra),
        ("ro", ro),
        ("rx", rx),
    ] {
        b.output(n, v);
    }
    let m = b.finish().unwrap();
    cosim(&m, &SynthOptions, 64, 3);
}

#[test]
fn shifts_equivalent_including_overflow_amounts() {
    // 5-bit value (non-power-of-two width exercises the ≥n masking) with a
    // wide amount input so out-of-range amounts occur often.
    let mut b = ModuleBuilder::new("shift");
    let x = b.input("x", 5);
    let amt = b.input("amt", 4);
    let shl = b.shl(x, amt);
    let shr = b.lshr(x, amt);
    b.output("shl", shl);
    b.output("shr", shr);
    let m = b.finish().unwrap();
    cosim(&m, &SynthOptions, 200, 4);
}

#[test]
fn mux_slice_concat_equivalent() {
    let mut b = ModuleBuilder::new("wiring");
    let x = b.input("x", 12);
    let y = b.input("y", 12);
    let s = b.input("s", 1);
    let mx = b.mux(s, x, y);
    let hi = b.slice(x, 6, 6);
    let cat = b.concat(&[hi, y]);
    b.output("mx", mx);
    b.output("cat", cat);
    let m = b.finish().unwrap();
    cosim(&m, &SynthOptions, 64, 5);
}

#[test]
fn registers_with_enable_and_reset_equivalent() {
    let mut b = ModuleBuilder::new("regs");
    let d = b.input("d", 8);
    let en = b.input("en", 1);
    let rst = b.input("rst", 1);
    let q = b.dff_init(Bits::from_u64(0xA5, 8));
    b.dff_enable(q, en);
    b.dff_reset(q, rst);
    let inc = b.lit(1, 8);
    let next = b.add(d, inc);
    b.connect_dff(q, next);
    b.output("q", q);
    let m = b.finish().unwrap();
    cosim(&m, &SynthOptions, 100, 6);
}

/// A cone feeding no output, register or memory stays in the E-AIG but
/// the golden model never evaluates it; everything it does evaluate still
/// matches the RTL.
#[test]
fn dead_cone_skipped_and_outputs_equivalent() {
    let mut b = ModuleBuilder::new("dead");
    let x = b.input("x", 8);
    let y = b.input("y", 8);
    let _unread = b.mul(x, y);
    let s = b.add(x, y);
    b.output("s", s);
    let m = b.finish().unwrap();
    let r = cosim(&m, &SynthOptions, 64, 17);
    let ands = r.eaig.nodes().iter().filter(|n| matches!(n, Node::And(..)));
    assert!(
        r.eaig.num_live_ands() < ands.count(),
        "the unread multiplier left no dead gates"
    );
}

#[test]
fn counter_feedback_equivalent() {
    let mut b = ModuleBuilder::new("counter");
    let q = b.dff(16);
    let one = b.lit(1, 16);
    let n = b.add(q, one);
    b.connect_dff(q, n);
    b.output("q", q);
    let m = b.finish().unwrap();
    cosim(&m, &SynthOptions, 64, 7);
}

fn sync_ram_module(words: u32, width: u32) -> Module {
    let aw = 32 - (words - 1).leading_zeros().min(31);
    let aw = if words == 1 { 1 } else { aw };
    let mut b = ModuleBuilder::new("ram");
    let wa = b.input("wa", aw);
    let ra = b.input("ra", aw);
    let wd = b.input("wd", width);
    let we = b.input("we", 1);
    let mem = b.memory("m", words, width);
    b.write_port(mem, wa, wd, we);
    let q = b.read_port(mem, ra, ReadKind::Sync);
    b.output("q", q);
    b.finish().unwrap()
}

#[test]
fn sync_ram_maps_to_blocks_and_matches() {
    let m = sync_ram_module(64, 8);
    let r = cosim(&m, &SynthOptions, 300, 8);
    assert_eq!(r.stats.ram_blocks, 1);
    assert_eq!(r.stats.polyfilled_mem_bits, 0);
}

#[test]
fn sync_ram_non_power_of_two_depth_matches() {
    // 40 words: addresses 40..63 exist in the address space but must read
    // as zero and drop writes.
    let m = sync_ram_module(40, 8);
    let r = cosim(&m, &SynthOptions, 400, 9);
    assert_eq!(r.stats.ram_blocks, 1);
}

#[test]
fn wide_ram_splits_into_segments() {
    let m = sync_ram_module(16, 70); // 3 segments of 32 bits
    let r = cosim(&m, &SynthOptions, 200, 10);
    assert_eq!(r.stats.ram_blocks, 3);
}

#[test]
fn async_ram_polyfilled_and_matches() {
    let mut b = ModuleBuilder::new("rf");
    let wa = b.input("wa", 4);
    let ra = b.input("ra", 4);
    let wd = b.input("wd", 8);
    let we = b.input("we", 1);
    let mem = b.memory("rf", 16, 8);
    b.write_port(mem, wa, wd, we);
    let q = b.read_port(mem, ra, ReadKind::Async);
    b.output("q", q);
    let m = b.finish().unwrap();
    let r = cosim(&m, &SynthOptions, 300, 12);
    assert_eq!(r.stats.ram_blocks, 0);
    assert_eq!(r.stats.polyfilled_mem_bits, 128);
}

#[test]
fn multi_write_port_memory_polyfills_and_matches() {
    let mut b = ModuleBuilder::new("mw");
    let a0 = b.input("a0", 3);
    let a1 = b.input("a1", 3);
    let d0 = b.input("d0", 4);
    let d1 = b.input("d1", 4);
    let e0 = b.input("e0", 1);
    let e1 = b.input("e1", 1);
    let ra = b.input("ra", 3);
    let mem = b.memory("m", 8, 4);
    b.write_port(mem, a0, d0, e0);
    b.write_port(mem, a1, d1, e1); // later port wins on same-address clash
    let q = b.read_port(mem, ra, ReadKind::Sync);
    b.output("q", q);
    let m = b.finish().unwrap();
    let r = cosim(&m, &SynthOptions, 400, 13);
    assert_eq!(r.stats.ram_blocks, 0, "multi-write must polyfill");
    assert_eq!(r.stats.polyfilled_mem_bits, 8 * 4, "every word, every bit");
}

#[test]
fn two_read_ports_replicate_blocks() {
    let mut b = ModuleBuilder::new("dual");
    let wa = b.input("wa", 5);
    let ra0 = b.input("ra0", 5);
    let ra1 = b.input("ra1", 5);
    let wd = b.input("wd", 8);
    let we = b.input("we", 1);
    let mem = b.memory("m", 32, 8);
    b.write_port(mem, wa, wd, we);
    let q0 = b.read_port(mem, ra0, ReadKind::Sync);
    let q1 = b.read_port(mem, ra1, ReadKind::Sync);
    b.output("q0", q0);
    b.output("q1", q1);
    let m = b.finish().unwrap();
    let r = cosim(&m, &SynthOptions, 300, 14);
    assert_eq!(r.stats.ram_blocks, 2, "one block per read port");
}

#[test]
fn deep_ram_banks() {
    // 3 × 8192 words deep: 3 banks, high address bits steer the mux.
    let m = sync_ram_module(3 * 8192, 8);
    let r = cosim(&m, &SynthOptions, 200, 15);
    assert_eq!(r.stats.ram_blocks, 3);
}

/// The prefix adder against a ripple-carry adder built from 1-bit cells
/// (EXPERIMENTS.md A2): synthesis cannot reshape a chain the netlist
/// spells out, so the ripple keeps its linear depth.
#[test]
fn depth_optimization_reduces_levels() {
    let prefix = {
        let mut b = ModuleBuilder::new("prefix");
        let x = b.input("x", 64);
        let y = b.input("y", 64);
        let s = b.add(x, y);
        b.output("s", s);
        b.finish().unwrap()
    };
    let ripple = {
        let mut b = ModuleBuilder::new("ripple");
        let x = b.input("x", 64);
        let y = b.input("y", 64);
        let mut carry = b.lit(0, 1);
        let mut sum = Vec::new();
        for i in 0..64 {
            let (xi, yi) = (b.bit(x, i), b.bit(y, i));
            let p = b.xor(xi, yi);
            sum.push(b.xor(p, carry));
            let g = b.and(xi, yi);
            let pc = b.and(p, carry);
            carry = b.or(g, pc);
        }
        let s = b.concat(&sum);
        b.output("s", s);
        b.finish().unwrap()
    };
    let fast = cosim(&prefix, &SynthOptions, 64, 18);
    let slow = cosim(&ripple, &SynthOptions, 64, 18);
    assert!(
        fast.stats.levels * 3 < slow.stats.levels,
        "prefix adder ({}) should be much shallower than ripple ({})",
        fast.stats.levels,
        slow.stats.levels
    );
}

#[test]
fn verilog_frontend_to_eaig_pipeline() {
    let src = r#"
        module gray(input clk, input [3:0] x, output [3:0] g, output reg [3:0] acc);
          assign g = x ^ (x >> 1);
          always @(posedge clk) acc <= acc + g;
        endmodule
    "#;
    let m = gem_netlist::verilog::parse(src).unwrap();
    cosim(&m, &SynthOptions, 100, 16);
}
