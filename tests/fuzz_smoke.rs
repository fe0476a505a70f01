//! Tier-1 differential smoke: the golden-vs-engine fuzz harness, run
//! from the workspace root so `cargo test -q` (the tier-1 gate) always
//! exercises golden-vs-vGPU at 1 and 64 lanes.
//!
//! The full 220-design sweep lives in
//! `crates/sim/tests/differential_fuzz.rs` (`--ignored`, run by the CI
//! `fuzz-sweep` job). This copy is intentionally small.

use gem_core::{compile, CompileOptions, GemSimulator};
use gem_sim::{random_module, EaigSim, FuzzConfig, FuzzRng};

fn run_seed(seed: u64, cycles: u64) {
    let cfg = FuzzConfig::for_seed(seed);
    let m = random_module(seed, &cfg);
    // 64-bit cores: the widest setting that still forces multi-core
    // placements on this corpus (256 swallows every design whole).
    let opts = CompileOptions {
        core_width: 64,
        target_parts: 4,
        ..Default::default()
    };
    let compiled =
        compile(&m, &opts).unwrap_or_else(|e| panic!("seed {seed}: compile failed: {e}"));
    let mut gold = EaigSim::new(&compiled.eaig);
    // Scalar pokes broadcast to every lane, so all 64 lanes of the
    // batch sim replay the golden stimulus.
    let mut sims = [1u32, 64].map(|lanes| {
        let mut sim = GemSimulator::new(&compiled).unwrap();
        sim.set_lanes(lanes).unwrap();
        sim
    });

    let n_in = compiled.eaig.inputs().len();
    let mut stim = FuzzRng::new(seed ^ 0x5717_B0B5);
    for cycle in 0..cycles {
        let mut bitvec = vec![false; n_in];
        for p in m.inputs() {
            let w = m.width(p.net);
            let v = stim.bits(w);
            for sim in &mut sims {
                sim.set_input(&p.name, v.clone());
            }
            let pb = compiled
                .eaig_inputs
                .iter()
                .find(|pb| pb.name == p.name)
                .unwrap();
            for i in 0..w {
                bitvec[pb.lsb_index + i as usize] = v.bit(i);
            }
        }
        for (i, &v) in bitvec.iter().enumerate() {
            gold.set_input(i, v);
        }
        gold.eval();
        for sim in &mut sims {
            sim.step();
        }
        for pb in compiled.eaig_outputs.iter() {
            for sim in &sims {
                // The top active lane: lane 0 of the scalar sim, lane 63
                // of the batch (the first to go if a word were truncated).
                let lane = sim.lanes() - 1;
                let got = sim.output_lane(&pb.name, lane);
                for i in 0..pb.width {
                    assert_eq!(
                        got.bit(i),
                        gold.output(pb.lsb_index + i as usize),
                        "seed {seed} cycle {cycle}: lane {lane} diverged on {}[{i}]",
                        pb.name
                    );
                }
            }
        }
        gold.step();
    }
}

/// Golden vs the vGPU at 1 and 64 lanes on a dozen random designs.
#[test]
fn fuzz_smoke() {
    for seed in 0..12 {
        run_seed(seed, 10);
    }
}
