//! Randomized-but-deterministic tests over the core invariants: random
//! RTL expression trees must survive the complete flow (synthesis →
//! partitioning → placement → assembly → virtual-GPU execution) with
//! bit-exact behaviour, and the foundational data structures must uphold
//! their algebraic laws.
//!
//! The cases are generated from fixed seeds via SplitMix64
//! ([`gem_sim::FuzzRng`]; the sealed build has no property-testing
//! framework), so every run exercises the
//! same inputs — failures reproduce by seed with no shrinking needed.

use gem_core::{compile, CompileOptions, GemSimulator};
use gem_netlist::{Bits, Module, ModuleBuilder, NetId};
use gem_sim::{FuzzRng, NetlistSim};

/// A recipe for one random combinational/sequential module.
#[derive(Debug, Clone)]
struct Recipe {
    width: u32,
    ops: Vec<u8>,
    make_reg: bool,
}

impl Recipe {
    fn random(g: &mut FuzzRng) -> Recipe {
        Recipe {
            width: 2 + g.below(8) as u32,
            ops: (0..1 + g.below(13)).map(|_| g.below(10) as u8).collect(),
            make_reg: g.below(2) == 1,
        }
    }
}

fn build(recipe: &Recipe) -> Module {
    let mut b = ModuleBuilder::new("prop");
    let x = b.input("x", recipe.width);
    let y = b.input("y", recipe.width);
    let mut vals: Vec<NetId> = vec![x, y];
    for (k, &op) in recipe.ops.iter().enumerate() {
        let a = vals[k % vals.len()];
        let c = vals[(k * 7 + 1) % vals.len()];
        let v = match op {
            0 => b.add(a, c),
            1 => b.sub(a, c),
            2 => b.and(a, c),
            3 => b.or(a, c),
            4 => b.xor(a, c),
            5 => b.not(a),
            6 => {
                let s = b.ult(a, c);
                b.mux(s, a, c)
            }
            7 => b.mul(a, c),
            8 => {
                let e = b.eq(a, c);
                let t = b.not(a);
                b.mux(e, t, c)
            }
            _ => b.neg(a),
        };
        vals.push(v);
    }
    let last = *vals.last().expect("nonempty");
    if recipe.make_reg {
        let q = b.dff(recipe.width);
        let nx = b.xor(q, last);
        b.connect_dff(q, nx);
        b.output("out", q);
    } else {
        b.output("out", last);
    }
    b.finish().expect("valid module")
}

/// Any random module survives the whole flow bit-exactly.
#[test]
fn full_flow_matches_reference() {
    for case in 0..24u64 {
        let mut g = FuzzRng::new(0xF10F_0000 + case);
        let recipe = Recipe::random(&mut g);
        let m = build(&recipe);
        let compiled = compile(&m, &CompileOptions::small()).expect("compiles");
        let mut gem = GemSimulator::new(&compiled).expect("loads");
        let mut rtl = NetlistSim::new(&m);
        for _ in 0..12 {
            let state = g.next_u64();
            let xv = Bits::from_u64(state & ((1 << recipe.width) - 1), recipe.width);
            let yv = Bits::from_u64((state >> 17) & ((1 << recipe.width) - 1), recipe.width);
            rtl.set_input("x", xv.clone());
            rtl.set_input("y", yv.clone());
            gem.set_input("x", xv);
            gem.set_input("y", yv);
            rtl.eval();
            gem.step();
            assert_eq!(
                gem.output("out"),
                rtl.output("out"),
                "case {case} recipe {recipe:?}"
            );
            rtl.step();
        }
    }
}

/// Bits arithmetic agrees with u64 arithmetic for widths ≤ 32.
#[test]
fn bits_matches_u64() {
    let mut g = FuzzRng::new(0xB175);
    for _ in 0..200 {
        let w = 1 + g.below(32) as u32;
        let mask = if w == 32 { u32::MAX } else { (1u32 << w) - 1 };
        let av = g.next_u64() as u32 & mask;
        let bv = g.next_u64() as u32 & mask;
        let ba = Bits::from_u64(av as u64, w);
        let bb = Bits::from_u64(bv as u64, w);
        assert_eq!(ba.add(&bb).to_u64(), (av.wrapping_add(bv) & mask) as u64);
        assert_eq!(ba.sub(&bb).to_u64(), (av.wrapping_sub(bv) & mask) as u64);
        assert_eq!(ba.mul(&bb).to_u64(), (av.wrapping_mul(bv) & mask) as u64);
        assert_eq!(ba.ult(&bb), av < bv);
        assert_eq!(ba.and(&bb).to_u64(), (av & bv) as u64);
        assert_eq!(ba.xor(&bb).to_u64(), (av ^ bv) as u64);
        assert_eq!(ba.not().to_u64(), (!av & mask) as u64);
    }
}

/// Slicing and concatenation are inverses.
#[test]
fn bits_slice_concat_inverse() {
    let mut g = FuzzRng::new(0x511CE);
    for _ in 0..200 {
        let w = 2 + g.below(47) as u32;
        let cut = 1 + g.below(u64::from(w) - 1) as u32;
        let v = g.next_u64();
        let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        let b = Bits::from_u64(v & mask, w);
        let lo = b.slice(0, cut);
        let hi = b.slice(cut, w - cut);
        assert_eq!(lo.concat(&hi), b, "w={w} cut={cut}");
    }
}

/// The E-AIG's AND builder is commutative, idempotent, and respects
/// identity/annihilator laws.
#[test]
fn eaig_and_laws() {
    use gem_aig::{Eaig, Lit};
    let mut gen = FuzzRng::new(0xA1D);
    for _ in 0..50 {
        let n_inputs = 2 + gen.below(4) as usize;
        let mut g = Eaig::new();
        let ins: Vec<Lit> = (0..n_inputs).map(|i| g.input(format!("i{i}"))).collect();
        for _ in 0..1 + gen.below(19) {
            let la = ins[gen.below(n_inputs as u64) as usize].flip_if(gen.below(2) == 1);
            let lb = ins[gen.below(n_inputs as u64) as usize].flip_if(gen.below(2) == 1);
            assert_eq!(g.and(la, lb), g.and(lb, la), "commutative");
            assert_eq!(g.and(la, la), la, "idempotent");
            assert_eq!(g.and(la, Lit::TRUE), la, "identity");
            assert_eq!(g.and(la, Lit::FALSE), Lit::FALSE, "annihilator");
            assert_eq!(g.and(la, la.flip()), Lit::FALSE, "complement");
        }
    }
}

/// Placement preserves semantics on random partitions of random logic
/// (direct CoreProgram evaluation against the golden simulator).
#[test]
fn placement_preserves_semantics() {
    use gem_aig::{Eaig, Lit};
    use gem_partition::{partition, PartitionOptions};
    use gem_place::{place_partition, PlaceOptions};
    use gem_sim::EaigSim;
    for case in 0..12u64 {
        let mut gen = FuzzRng::new(0x91ACE + case);
        let seed = gen.next_u64();
        let width_pow = 6 + gen.below(3) as u32;
        let mut g = Eaig::new();
        let mut lits: Vec<Lit> = (0..10).map(|i| g.input(format!("i{i}"))).collect();
        let mut x = seed | 1;
        for _ in 0..50 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = lits[(x >> 8) as usize % lits.len()];
            let b = lits[(x >> 24) as usize % lits.len()];
            lits.push(match (x >> 40) % 3 {
                0 => g.and(a, b),
                1 => g.or(a, b),
                _ => g.xor(a, b),
            });
        }
        let last = *lits.last().unwrap();
        g.output("o", last);
        let parts = partition(
            &g,
            &PartitionOptions {
                target_parts: 2,
                ..Default::default()
            },
        );
        let opts = PlaceOptions {
            core_width: 1 << width_pow,
            ..Default::default()
        };
        let mut gold = EaigSim::new(&g);
        let programs: Vec<_> = parts.stages[0]
            .partitions
            .iter()
            .map(|p| place_partition(&g, p, &opts).expect("mappable"))
            .collect();
        for c in 0..8u64 {
            let ins: Vec<bool> = (0..10).map(|i| (seed >> (c + i)) & 1 == 1).collect();
            for (i, &v) in ins.iter().enumerate() {
                gold.set_input(i, v);
            }
            gold.eval();
            for (pi, (prog, _)) in programs.iter().enumerate() {
                let outs = prog.evaluate(|n| gold.lit(Lit::from_node(n)));
                for (k, &sink) in parts.stages[0].partitions[pi].sinks.iter().enumerate() {
                    assert_eq!(outs[k], gold.lit(sink), "case {case} part {pi} sink {k}");
                }
            }
            gold.step();
        }
    }
}
