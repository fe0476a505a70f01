//! Differential fuzzing: randomly generated designs, golden E-AIG
//! interpreter vs the event-driven one and the virtual GPU at every lane
//! width.
//!
//! For every seed the suite builds a random module
//! ([`gem_sim::random_module`]), compiles it, and runs the same random
//! stimulus through the golden [`EaigSim`], the event-driven [`EventSim`]
//! and **four** `GemSimulator`s in lockstep — 1, 4, 32 and 64 lanes —
//! asserting, every cycle:
//!
//! * bit-exact outputs against the golden model, of `EventSim` and of
//!   every `GemSimulator` (lane 0 of batch sessions replays the golden
//!   stimulus),
//! * bit-exact noise-lane outputs between the batch sims (lanes 1..64
//!   carry per-lane noise streams, identical across sims; lanes 32..64
//!   run on the 64-lane sim only and are held against independent
//!   scalar runs by `lane_equivalence`).
//!
//! The lane counts sit on both sides of the RAM phase's crossover: 4
//! lanes move RAM data bit by bit, 32 and 64 by transpose (`gem-vgpu`'s
//! `ram.rs`), and one lane runs the signal-packed kernel.
//!
//! and, at the end, the counter-reconciliation invariants on the scalar
//! sim's breakdown. Each compiled E-AIG also has no empty logic level
//! between 1 and its depth — the fact that makes `Levels::depth` the
//! 8-thread Verilator model's barrier count.
//!
//! `fuzz_smoke` (a small seed range) runs in the tier-1 suite; the full
//! ≥200-design sweep is `fuzz_sweep` behind `--ignored`:
//!
//! ```text
//! cargo test -p gem-sim --test differential_fuzz -- --ignored
//! ```
//!
//! A failure message always contains the seed and the diverging
//! configuration, which reproduce the design, the stimulus, and the
//! divergence deterministically.

use gem_core::{compile, CompileOptions, GemSimulator};
use gem_sim::{random_module, EaigSim, EventSim, FuzzConfig, FuzzRng};

/// Salt for the noise streams driving lanes 1..64 of batch sims (lane 0
/// replays the golden stimulus).
const NOISE_SALT: u64 = 0xBADC_AB1E;

/// The lane counts every seed runs at, the single lane first.
const LANES: [u32; 4] = [1, 4, 32, 64];

/// Runs one seed through the golden model and every lane count.
/// Returns the number of partitions the design was placed on, so
/// callers can assert the corpus still contains multi-core placements
/// (a 256-bit core swallows every fuzz design whole — 64 bits is the
/// widest core that still forces them on this corpus).
fn run_differential(seed: u64, cycles: u64) -> usize {
    run_differential_with(seed, cycles, &FuzzConfig::for_seed(seed))
}

/// Same as [`run_differential`] but with an explicit generator config,
/// so suites can pick a shaped corpus (e.g. RAM-heavy).
fn run_differential_with(seed: u64, cycles: u64, cfg: &FuzzConfig) -> usize {
    let m = random_module(seed, cfg);
    let opts = CompileOptions {
        core_width: 64,
        target_parts: 4,
        ..Default::default()
    };
    // A few seeds need more live state than a 64-bit core holds; widen
    // for those rather than dropping them from the corpus.
    let compiled = compile(&m, &opts).or_else(|_| {
        compile(
            &m,
            &CompileOptions {
                core_width: 256,
                ..opts
            },
        )
    });
    let compiled = compiled.unwrap_or_else(|e| panic!("seed {seed}: compile failed: {e}"));
    // Every fuzz compile goes through the static bitstream verifier; a
    // compile that skipped it would silently weaken the whole suite.
    let verify = compiled.flow.stage("verify");
    assert_eq!(
        verify.and_then(|st| st.metric("violations")),
        Some(0.0),
        "seed {seed}: compile skipped bitstream verification"
    );
    let levels = compiled.eaig.levels();
    assert!(
        levels.histogram.iter().skip(1).all(|&gates| gates > 0),
        "seed {seed}: empty logic level in {:?}",
        levels.histogram
    );
    let mut gold = EaigSim::new(&compiled.eaig);
    let mut event = EventSim::new(&compiled.eaig);
    let mut sims = LANES.map(|lanes| {
        let mut sim = GemSimulator::new(&compiled).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        sim.set_lanes(lanes)
            .unwrap_or_else(|e| panic!("seed {seed}: set_lanes({lanes}): {e}"));
        sim
    });

    let n_in = compiled.eaig.inputs().len();
    let mut stim = FuzzRng::new(seed ^ 0x5717_B0B5);
    let mut noise: Vec<FuzzRng> = (1..GemSimulator::MAX_LANES as u64)
        .map(|lane| FuzzRng::new(seed ^ NOISE_SALT ^ lane.wrapping_mul(0x9E37_79B9)))
        .collect();
    for cycle in 0..cycles {
        // Golden stimulus: lane 0 everywhere (scalar sims broadcast).
        let mut bitvec = vec![false; n_in];
        for p in m.inputs() {
            let w = m.width(p.net);
            let v = stim.bits(w);
            for s in sims.iter_mut() {
                if s.lanes() == 1 {
                    s.set_input(&p.name, v.clone());
                } else {
                    s.set_input_lane(&p.name, 0, v.clone());
                }
            }
            let pb = compiled
                .eaig_inputs
                .iter()
                .find(|pb| pb.name == p.name)
                .unwrap_or_else(|| panic!("seed {seed}: input {} unmapped", p.name));
            for i in 0..w {
                bitvec[pb.lsb_index + i as usize] = v.bit(i);
            }
        }
        // Noise lanes: one draw per (lane, input) per cycle, applied to
        // every batch sim that runs the lane, so each lane is comparable
        // bit-for-bit between every sim that runs it.
        for lane in 1..GemSimulator::MAX_LANES {
            for p in m.inputs() {
                let v = noise[lane as usize - 1].bits(m.width(p.net));
                for s in sims.iter_mut().filter(|s| s.lanes() > lane) {
                    s.set_input_lane(&p.name, lane, v.clone());
                }
            }
        }
        for (i, &v) in bitvec.iter().enumerate() {
            gold.set_input(i, v);
        }
        gold.eval();
        let event_out = event.cycle(&bitvec);
        for s in sims.iter_mut() {
            s.step();
        }
        for pb in compiled.eaig_outputs.iter() {
            let want: Vec<bool> = (0..pb.width)
                .map(|i| gold.output(pb.lsb_index + i as usize))
                .collect();
            assert_eq!(
                event_out[pb.lsb_index..pb.lsb_index + want.len()],
                want,
                "seed {seed} cycle {cycle}: EventSim diverged from golden on {}",
                pb.name
            );
            for s in sims.iter() {
                let v = if s.lanes() == 1 {
                    s.output(&pb.name)
                } else {
                    s.output_lane(&pb.name, 0)
                };
                for (i, &w) in want.iter().enumerate() {
                    assert_eq!(
                        v.bit(i as u32),
                        w,
                        "seed {seed} cycle {cycle}: {} lane(s) diverged from golden on {}[{i}]",
                        s.lanes(),
                        pb.name
                    );
                }
            }
        }
        // Noise lanes must agree between the batch sims: the
        // determinism claim covers every stimulus stream, not just the
        // golden-checked lane 0.
        let b64 = &sims[LANES.len() - 1];
        for pb in compiled.eaig_outputs.iter() {
            for narrow in &sims[1..LANES.len() - 1] {
                for lane in 1..narrow.lanes() {
                    assert_eq!(
                        b64.output_lane(&pb.name, lane),
                        narrow.output_lane(&pb.name, lane),
                        "seed {seed} cycle {cycle}: 64- and {}-lane sims diverged on lane {lane} of {}",
                        narrow.lanes(),
                        pb.name
                    );
                }
            }
        }
        gold.step();
    }

    // Reconciliation invariants on the scalar sim's breakdown.
    let bd = sims[0].breakdown();
    let sum = bd.partition_sum();
    assert_eq!(sum.alu_ops, bd.total.alu_ops, "seed {seed}: alu_ops");
    assert_eq!(
        sum.blocks_run, bd.total.blocks_run,
        "seed {seed}: blocks_run"
    );
    assert_eq!(
        sum.shared_accesses, bd.total.shared_accesses,
        "seed {seed}: shared_accesses"
    );
    assert_eq!(
        sum.block_syncs, bd.total.block_syncs,
        "seed {seed}: block_syncs"
    );
    assert!(
        sum.global_bytes <= bd.total.global_bytes,
        "seed {seed}: partitions attributed more global traffic than the device moved"
    );
    bd.partitions.len()
}

/// Tier-1 smoke subset: a couple dozen random designs, short stimuli,
/// every lane count per seed. The corpus must contain at least one
/// multi-core placement, or stage-boundary visibility goes untested.
#[test]
fn fuzz_smoke() {
    let widest = (0..25).map(|seed| run_differential(seed, 12)).max();
    assert!(widest > Some(1), "no seed was placed on more than one core");
}

/// Tier-1 RAM smoke: 15 seeds from the RAM-heavy corpus, where every
/// design has at least one memory and every memory carries both a sync
/// and an async read port. The plain corpus only hits memories
/// probabilistically; this subset pins both RAM read paths (and their
/// verifier checks) in every run.
#[test]
fn ram_smoke() {
    for seed in 0..15 {
        let cfg = FuzzConfig::ram_heavy(seed);
        assert!(cfg.mems >= 1 && cfg.dual_read, "ram_heavy lost its RAMs");
        run_differential_with(seed, 10, &cfg);
    }
}

/// Full sweep: ≥200 random designs × multi-cycle stimuli × every lane
/// count. Run with `--ignored`.
#[test]
#[ignore = "full sweep; run with --ignored"]
fn fuzz_sweep() {
    for seed in 0..220 {
        run_differential(seed, 24);
    }
}
