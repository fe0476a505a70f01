//! Differential lane-equivalence fuzzing: a full-width 64-lane batch
//! must be bit-identical, per lane, to 64 independent single-lane runs.
//!
//! For every seed the suite builds a random module
//! ([`gem_sim::random_module`]), compiles it once, and derives 64
//! *different* stimulus streams from the seed (one per lane, each with
//! its own `FuzzRng`). The same [`gem_sim::LaneBatch`] then drives:
//!
//! * one `GemSimulator` with `set_lanes(64)` — the lane-batched engine,
//! * 64 independent single-lane `GemSimulator`s — the reference bank,
//!
//! through the engine-agnostic [`gem_sim::LaneTarget`] surface, and
//! [`gem_sim::lanes::first_divergence`] diffs the per-lane traces. A
//! third of the lanes get a per-lane start skew, exercising the
//! hold-then-replay path.
//!
//! A second driver (`run_widen_narrow`) changes the lane count 1 → 64 →
//! 1 in the middle of a run, which is where the engine swaps between
//! its two lowered forms of the program.
//!
//! `lane_smoke` runs in the tier-1 suite; the full sweep is
//! `lane_sweep` behind `--ignored`:
//!
//! ```text
//! cargo test -p gem-sim --test lane_equivalence -- --ignored
//! ```
//!
//! A failure message always contains the seed, which reproduces the
//! design, the streams, and the divergence deterministically.

use gem_core::{compile, CompileOptions, Compiled, GemSimulator};
use gem_netlist::Bits;
use gem_sim::lanes::first_divergence;
use gem_sim::{random_module, FuzzConfig, FuzzRng, LaneBatch, LaneStream, LaneTarget};

// Run the reference comparison at the machine's full lane width: if any
// stage of the pipeline silently truncated back to 32 lanes, the high
// half of the batch would diverge from its independent runs here.
const LANES: usize = 64;

/// The lane-batched engine as a [`LaneTarget`].
struct BatchTarget {
    sim: GemSimulator,
}

impl LaneTarget for BatchTarget {
    fn poke_lane(&mut self, lane: usize, port: &str, value: &Bits) {
        self.sim.set_input_lane(port, lane as u32, value.clone());
    }
    fn step(&mut self) {
        self.sim.step();
    }
    fn peek_lane(&mut self, lane: usize, port: &str) -> Bits {
        self.sim.output_lane(port, lane as u32)
    }
}

/// A bank of independent single-lane simulators as a [`LaneTarget`].
struct BankTarget {
    sims: Vec<GemSimulator>,
}

impl LaneTarget for BankTarget {
    fn poke_lane(&mut self, lane: usize, port: &str, value: &Bits) {
        self.sims[lane].set_input(port, value.clone());
    }
    fn step(&mut self) {
        for sim in &mut self.sims {
            sim.step();
        }
    }
    fn peek_lane(&mut self, lane: usize, port: &str) -> Bits {
        self.sims[lane].output(port)
    }
}

fn compile_seed(seed: u64, cfg: &FuzzConfig) -> Compiled {
    let m = random_module(seed, cfg);
    let opts = CompileOptions {
        core_width: 64,
        target_parts: 4,
        ..Default::default()
    };
    compile(&m, &opts)
        .or_else(|_| {
            compile(
                &m,
                &CompileOptions {
                    core_width: 256,
                    ..opts
                },
            )
        })
        .unwrap_or_else(|e| panic!("seed {seed}: compile failed: {e}"))
}

/// Builds 64 distinct per-lane stimulus streams for a compiled design.
/// Every third lane starts `lane / 3` cycles late (per-lane reset skew).
fn batch_for(compiled: &Compiled, seed: u64, cycles: u64) -> LaneBatch {
    let streams = (0..LANES)
        .map(|lane| {
            let mut rng = FuzzRng::new(seed ^ 0xBA7C_4000 ^ (lane as u64) << 40);
            let skew = if lane % 3 == 0 { lane as u64 / 3 } else { 0 };
            let cycles = (0..cycles.saturating_sub(skew))
                .map(|_| {
                    compiled
                        .eaig_inputs
                        .iter()
                        .map(|p| (p.name.clone(), rng.bits(p.width)))
                        .collect()
                })
                .collect();
            LaneStream { skew, cycles }
        })
        .collect();
    LaneBatch::new(streams).expect("64 lanes fit")
}

/// Runs one seed: batch vs bank, trace-diffed per lane.
fn run_lane_equivalence(seed: u64, cycles: u64, cfg: &FuzzConfig) {
    let compiled = compile_seed(seed, cfg);
    let batch = batch_for(&compiled, seed, cycles);
    let watch: Vec<&str> = compiled
        .eaig_outputs
        .iter()
        .map(|p| p.name.as_str())
        .collect();

    let mut sim = GemSimulator::new(&compiled).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    sim.set_lanes(LANES as u32)
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    let mut batched = BatchTarget { sim };
    let batch_trace = batch.run(&mut batched, &watch);

    let sims = (0..LANES)
        .map(|_| GemSimulator::new(&compiled).unwrap_or_else(|e| panic!("seed {seed}: {e}")))
        .collect();
    let mut bank = BankTarget { sims };
    let bank_trace = batch.run(&mut bank, &watch);

    if let Some(d) = first_divergence(&batch_trace, &bank_trace) {
        panic!(
            "seed {seed}: lane {} diverged from its independent run \
             at cycle {} on output {:?} (batch {:?}, independent {:?})",
            d.lane,
            d.cycle,
            watch[d.port],
            batch_trace[d.lane][d.cycle][d.port],
            bank_trace[d.lane][d.cycle][d.port],
        );
    }

    // The lane metrics must reconcile on the batched engine: every lane
    // stepped every batch cycle.
    let snap = batched.sim.metrics();
    let lane_fam = snap
        .family("gem_sim_lane_steps_total")
        .expect("lane steps exported");
    assert_eq!(
        lane_fam.total(),
        (batch.len_cycles() * LANES as u64) as f64,
        "seed {seed}: lane step counters do not reconcile"
    );
    assert_eq!(
        snap.family("gem_sim_lanes_active").expect("gauge").total(),
        LANES as f64
    );
}

/// One lane, then 64, then one again, mid-run. The engine runs a
/// different lowered form of the program on each side of both switches
/// (signal-packed at one lane, lane-word above), so: lane 0 must track
/// an independent single-lane run throughout, and a lane opened at the
/// widening must track an independent run that followed lane 0's
/// stimulus until then and its own afterwards.
fn run_widen_narrow(seed: u64, cfg: &FuzzConfig) {
    const PHASE: u64 = 6;
    const PROBE: u32 = 37;
    let compiled = compile_seed(seed, cfg);
    let new_sim = || GemSimulator::new(&compiled).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    let (mut sim, mut lane0, mut probe) = (new_sim(), new_sim(), new_sim());
    let mut rng0 = FuzzRng::new(seed ^ 0x0001_6401);
    let mut rng_probe = FuzzRng::new(seed ^ 0x0025_6401);
    for cycle in 0..3 * PHASE {
        if cycle == PHASE {
            sim.set_lanes(LANES as u32).expect("widen");
        } else if cycle == 2 * PHASE {
            sim.set_lanes(1).expect("narrow");
        }
        let widened = (PHASE..2 * PHASE).contains(&cycle);
        for p in &compiled.eaig_inputs {
            let (v0, vp) = (rng0.bits(p.width), rng_probe.bits(p.width));
            lane0.set_input(&p.name, v0.clone());
            if widened {
                sim.set_input_lane(&p.name, 0, v0);
                sim.set_input_lane(&p.name, PROBE, vp.clone());
                probe.set_input(&p.name, vp);
            } else {
                sim.set_input(&p.name, v0.clone());
                probe.set_input(&p.name, v0);
            }
        }
        sim.step();
        lane0.step();
        probe.step();
        for p in &compiled.eaig_outputs {
            assert_eq!(
                sim.output(&p.name),
                lane0.output(&p.name),
                "seed {seed} cycle {cycle}: lane 0 on output {:?}",
                p.name
            );
            if cycle < 2 * PHASE {
                assert_eq!(
                    sim.output_lane(&p.name, PROBE),
                    probe.output(&p.name),
                    "seed {seed} cycle {cycle}: lane {PROBE} on output {:?}",
                    p.name
                );
            }
        }
    }
}

/// Tier-1 smoke: a handful of seeds, plus one RAM-heavy seed so
/// per-lane RAM images are always covered, each also through the
/// 1 → 64 → 1 lane-count switch.
#[test]
fn lane_smoke() {
    for seed in 0..6 {
        run_lane_equivalence(seed, 10, &FuzzConfig::for_seed(seed));
        run_widen_narrow(seed, &FuzzConfig::for_seed(seed));
    }
    run_lane_equivalence(3, 8, &FuzzConfig::ram_heavy(3));
    run_widen_narrow(3, &FuzzConfig::ram_heavy(3));
}

/// Full sweep: more seeds × longer stimuli, plus a RAM-heavy band. Run
/// with `--ignored` (CI runs it in the lane-determinism job).
#[test]
#[ignore = "full sweep; run with --ignored"]
fn lane_sweep() {
    for seed in 0..40 {
        run_lane_equivalence(seed, 20, &FuzzConfig::for_seed(seed));
    }
    for seed in 0..8 {
        run_lane_equivalence(seed, 16, &FuzzConfig::ram_heavy(seed));
    }
}
