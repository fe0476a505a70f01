//! Differential fuzzing: randomly generated designs, golden E-AIG
//! interpreter vs the virtual GPU across the full execution matrix.
//!
//! For every seed the suite builds a random module
//! ([`gem_sim::random_module`]), compiles it, and runs the same random
//! stimulus through the golden [`EaigSim`] and **six** `GemSimulator`
//! configurations in lockstep — every point of
//!
//! ```text
//! {1, 4} threads × {1, 32, 64} lanes
//! ```
//!
//! asserting, every cycle:
//!
//! * bit-exact outputs against the golden model (lane 0 of batch
//!   sessions replays the golden stimulus),
//! * bit-exact noise-lane outputs across every batch configuration
//!   (lanes 1..64 carry per-lane noise streams, identical across sims;
//!   lanes a narrower sim doesn't run are compared only among the sims
//!   that do run them),
//! * identical architectural counters within each lane-count group
//!   (RAM-phase counters are lane-dependent, so the 1-, 32- and 64-lane
//!   groups are compared separately) — the determinism contract for
//!   the thread knob,
//! * the PR-1 counter-reconciliation invariants on the merged breakdown.
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
use gem_sim::{random_module, EaigSim, FuzzConfig, FuzzRng};

/// Salt for the noise streams driving lanes 1..64 of batch sims (lane 0
/// replays the golden stimulus).
const NOISE_SALT: u64 = 0xBADC_AB1E;

/// One point of the execution matrix.
struct MatrixSim {
    sim: GemSimulator,
    threads: usize,
    lanes: u32,
}

impl MatrixSim {
    fn describe(&self) -> String {
        format!("{} thread(s), {} lane(s)", self.threads, self.lanes)
    }
}

/// Runs one seed through the golden model and the full threads × lanes
/// matrix. Returns the pool tasks the parallel engines
/// dispatched, so callers can assert the sweep really fanned out
/// (stages with a single core bypass the pool, and a 256-bit core
/// swallows every fuzz design whole — 64 bits is the widest core that
/// still forces multi-partition placements on this corpus).
fn run_differential(seed: u64, cycles: u64) -> u64 {
    run_differential_with(seed, cycles, &FuzzConfig::for_seed(seed))
}

/// Same as [`run_differential`] but with an explicit generator config,
/// so suites can pick a shaped corpus (e.g. RAM-heavy).
fn run_differential_with(seed: u64, cycles: u64, cfg: &FuzzConfig) -> u64 {
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
    // Every fuzz compile goes through the static bitstream verifier
    // (`CompileOptions::default` enables it); a compile that skipped it
    // would silently weaken the whole suite.
    assert!(
        compiled.report.verified,
        "seed {seed}: compile skipped bitstream verification"
    );
    let mut gold = EaigSim::new(&compiled.eaig);
    let mut sims = Vec::new();
    for threads in [1usize, 4] {
        for lanes in [1u32, 32, 64] {
            let mut sim =
                GemSimulator::new(&compiled).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            sim.set_threads(threads);
            sim.set_lanes(lanes)
                .unwrap_or_else(|e| panic!("seed {seed}: set_lanes({lanes}): {e}"));
            sims.push(MatrixSim {
                sim,
                threads,
                lanes,
            });
        }
    }

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
                if s.lanes == 1 {
                    s.sim.set_input(&p.name, v.clone());
                } else {
                    s.sim.set_input_lane(&p.name, 0, v.clone());
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
        // every batch sim that runs the lane, so active lanes are
        // comparable bit-for-bit across sims of the same (or wider)
        // lane count.
        for lane in 1..GemSimulator::MAX_LANES {
            for p in m.inputs() {
                let v = noise[lane as usize - 1].bits(m.width(p.net));
                for s in sims.iter_mut().filter(|s| s.lanes > lane) {
                    s.sim.set_input_lane(&p.name, lane, v.clone());
                }
            }
        }
        for (i, &v) in bitvec.iter().enumerate() {
            gold.set_input(i, v);
        }
        gold.eval();
        for s in sims.iter_mut() {
            s.sim.step();
        }
        for pb in compiled.eaig_outputs.iter() {
            let want: Vec<bool> = (0..pb.width)
                .map(|i| gold.output(pb.lsb_index + i as usize))
                .collect();
            for s in sims.iter() {
                let v = if s.lanes == 1 {
                    s.sim.output(&pb.name)
                } else {
                    s.sim.output_lane(&pb.name, 0)
                };
                for (i, &w) in want.iter().enumerate() {
                    assert_eq!(
                        v.bit(i as u32),
                        w,
                        "seed {seed} cycle {cycle}: {} diverged from golden on {}[{i}]",
                        s.describe(),
                        pb.name
                    );
                }
            }
        }
        // Noise lanes must agree across every batch configuration that
        // runs them: the determinism claim covers all 64
        // stimulus streams, not just the golden-checked lane 0. Lanes
        // 1..32 are cross-checked over every batch sim; lanes 32..64
        // only among the full-width (64-lane) sims.
        for pb in compiled.eaig_outputs.iter() {
            for lane in 1..GemSimulator::MAX_LANES {
                let group: Vec<&MatrixSim> = sims.iter().filter(|s| s.lanes > lane).collect();
                assert!(group.len() >= 2, "lane {lane}: matrix lost its sims");
                let want = group[0].sim.output_lane(&pb.name, lane);
                for s in &group[1..] {
                    assert_eq!(
                        s.sim.output_lane(&pb.name, lane),
                        want,
                        "seed {seed} cycle {cycle}: {} diverged from {} on lane {lane} of {}",
                        s.describe(),
                        group[0].describe(),
                        pb.name
                    );
                }
            }
        }
        // Determinism contract: merged counters identical across
        // thread counts, every cycle — within each lane
        // group (the RAM phase touches every active lane, so 32-lane
        // counters legitimately differ from 1-lane ones).
        for lanes in [1u32, 32, 64] {
            let group: Vec<&MatrixSim> = sims.iter().filter(|s| s.lanes == lanes).collect();
            let want = group[0].sim.counters();
            for s in &group[1..] {
                assert_eq!(
                    s.sim.counters(),
                    want,
                    "seed {seed} cycle {cycle}: counters diverged between {} and {}",
                    s.describe(),
                    group[0].describe()
                );
            }
        }
        gold.step();
    }

    // PR-1 reconciliation invariants on the merged breakdown, plus
    // breakdown equality across the whole 1-lane group.
    let scalar: Vec<&MatrixSim> = sims.iter().filter(|s| s.lanes == 1).collect();
    let bd = scalar[0].sim.breakdown();
    for s in &scalar[1..] {
        assert_eq!(
            s.sim.breakdown(),
            bd,
            "seed {seed}: breakdowns diverged between {} and {}",
            s.describe(),
            scalar[0].describe()
        );
    }
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
    sims.iter()
        .filter(|s| s.threads > 1)
        .map(|s| s.sim.exec_stats().parallel_tasks)
        .sum()
}

/// Tier-1 smoke subset: a couple dozen random designs, short stimuli,
/// full threads × lanes matrix per seed. The corpus must
/// contain at least one multi-core placement, or the "parallel" engine
/// under test silently degrades to serial.
#[test]
fn fuzz_smoke() {
    let mut pool_tasks = 0;
    for seed in 0..25 {
        pool_tasks += run_differential(seed, 12);
    }
    assert!(pool_tasks > 0, "no seed engaged the parallel engine");
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

/// Full sweep: ≥200 random designs × multi-cycle stimuli × the full
/// execution matrix. Run with `--ignored`.
#[test]
#[ignore = "full sweep; run with --ignored"]
fn fuzz_sweep() {
    let mut pool_tasks = 0;
    for seed in 0..220 {
        pool_tasks += run_differential(seed, 24);
    }
    assert!(pool_tasks > 0, "no seed engaged the parallel engine");
}
