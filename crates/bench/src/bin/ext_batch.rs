//! **Lane-batched multi-stimulus execution** — aggregate throughput of
//! one 64-lane batch simulator vs independent single-lane runs.
//!
//! The lane subsystem packs up to 64 independent stimulus streams into
//! the bit-lanes of the vGPU's 64-bit state words (`gem_place::Word`),
//! so one `step()` advances 64 simulations (GATSPI/RTLflow-style data
//! parallelism; see docs/BATCH.md). This binary measures what that buys
//! on the largest evaluation design:
//!
//! * **single-lane baseline**: one simulator, one stream — wall-clock
//!   simulated cycles/sec,
//! * **batch engines** at 8, 32, and 64 lanes: one simulator, N streams
//!   — wall-clock *aggregate* lane-cycles/sec (steps/sec × lanes),
//! * **bank reference**: 64 independent single-lane simulators stepped
//!   round-robin — the honest no-lane way to run 64 streams.
//!
//! Before any number is reported the binary *proves* lane equivalence
//! on this design: a reference per-lane trace is recorded from 64
//! independent single-lane runs, and a full-width 64-lane batch must
//! reproduce it bit for bit.
//!
//! Records `BENCH_batch.json` (plus the usual
//! `target/gem-experiments/ext_batch.json`). The recorded run must show
//! the 64-lane aggregate at ≥ 1.5x the 32-lane aggregate (the word
//! lift's payoff) and ≥ 8x the single-lane baseline.
//!
//! Usage: `cargo run -p gem-bench --release --bin ext_batch
//!         [--scale 1] [--cycles 256]`

use gem_bench::{arg, compile_design, fmt_hz, suite, write_record};
use gem_core::GemSimulator;
use gem_netlist::Bits;
use gem_sim::FuzzRng;
use gem_telemetry::Json;
use std::time::Instant;

const LANES: usize = GemSimulator::MAX_LANES as usize;
const PROOF_CYCLES: u64 = 48;

fn main() {
    let scale = arg("--scale", 1) as u32;
    let cycles = arg("--cycles", 256);

    let (design, opts) = suite(scale)
        .into_iter()
        .max_by_key(|(d, _)| d.module.cells().len())
        .expect("suite is non-empty");
    println!("ext_batch: design {} (scale {scale})", design.name);
    let compiled = compile_design(&design, &opts);
    let r = &compiled.report;
    println!(
        "  {} gates, {} stage(s) x {} partition(s), {} layer(s)",
        r.gates, r.stages, r.parts, r.layers
    );

    let inputs: Vec<(String, u32)> = design
        .module
        .inputs()
        .map(|p| (p.name.clone(), design.module.width(p.net)))
        .collect();
    // One deterministic stimulus stream per lane, all distinct.
    let lane_rng = |lane: usize| FuzzRng::new(0xBA7C_4000 ^ lane as u64);

    // --- lane-equivalence proof (refuse to benchmark a wrong engine) --
    // Reference trace: 64 independent single-lane runs, recorded once
    // (the stimulus is deterministic, so one recording serves every
    // batch configuration).
    let reference: Vec<Vec<Vec<Bits>>> = {
        let mut bank: Vec<GemSimulator> = (0..LANES)
            .map(|_| GemSimulator::new(&compiled).expect("loads"))
            .collect();
        let mut rngs: Vec<FuzzRng> = (0..LANES).map(lane_rng).collect();
        let mut trace = Vec::new();
        for _ in 0..PROOF_CYCLES {
            for (lane, rng) in rngs.iter_mut().enumerate() {
                for (name, width) in &inputs {
                    bank[lane].set_input(name, rng.bits(*width));
                }
            }
            for sim in bank.iter_mut() {
                sim.step();
            }
            trace.push(
                bank.iter()
                    .map(|sim| {
                        compiled
                            .io
                            .outputs
                            .iter()
                            .map(|p| sim.output(&p.name))
                            .collect()
                    })
                    .collect(),
            );
        }
        trace
    };
    // The full-width batch must reproduce the reference per lane.
    let mut batch = GemSimulator::new(&compiled).expect("loads");
    batch.set_lanes(LANES as u32).expect("64 lanes");
    let mut rngs: Vec<FuzzRng> = (0..LANES).map(lane_rng).collect();
    for (cycle, want) in reference.iter().enumerate() {
        for (lane, rng) in rngs.iter_mut().enumerate() {
            for (name, width) in &inputs {
                batch.set_input_lane(name, lane as u32, rng.bits(*width));
            }
        }
        batch.step();
        for (pi, p) in compiled.io.outputs.iter().enumerate() {
            for (lane, lane_want) in want.iter().enumerate() {
                assert_eq!(
                    batch.output_lane(&p.name, lane as u32),
                    lane_want[pi],
                    "cycle {cycle}: lane {lane} diverged from its independent run on {}",
                    p.name
                );
            }
        }
    }
    println!(
        "  equivalence: {LANES}-lane batch == {LANES} independent runs over \
         {PROOF_CYCLES} cycles ✓"
    );

    let mut rec = Json::object();
    rec.set("design", design.name.clone());
    rec.set("gates", r.gates as u64);
    rec.set("cycles", cycles);
    rec.set("max_lanes", LANES as u64);

    // --- single-lane baseline -----------------------------------------
    let single_hz = {
        let mut sim = GemSimulator::new(&compiled).expect("loads");
        let mut rng = lane_rng(0);
        let mut drive_step = |sim: &mut GemSimulator| {
            for (name, width) in &inputs {
                sim.set_input(name, rng.bits(*width));
            }
            sim.step();
        };
        for _ in 0..16 {
            drive_step(&mut sim);
        }
        let t0 = Instant::now();
        for _ in 0..cycles {
            drive_step(&mut sim);
        }
        cycles as f64 / t0.elapsed().as_secs_f64()
    };
    println!("  1 lane (baseline): {} cycles/s", fmt_hz(single_hz));
    rec.set("single_lane_cycles_per_sec", single_hz);

    // --- batch engines -------------------------------------------------
    let mut rows = Vec::new();
    let mut aggregates: Vec<(usize, f64)> = Vec::new();
    for lanes in [8usize, 32, LANES] {
        let mut sim = GemSimulator::new(&compiled).expect("loads");
        sim.set_lanes(lanes as u32).expect("lane count");
        let mut rngs: Vec<FuzzRng> = (0..lanes).map(lane_rng).collect();
        let mut drive_step = |sim: &mut GemSimulator| {
            for (lane, rng) in rngs.iter_mut().enumerate() {
                for (name, width) in &inputs {
                    sim.set_input_lane(name, lane as u32, rng.bits(*width));
                }
            }
            sim.step();
        };
        for _ in 0..16 {
            drive_step(&mut sim);
        }
        let t0 = Instant::now();
        for _ in 0..cycles {
            drive_step(&mut sim);
        }
        let steps_hz = cycles as f64 / t0.elapsed().as_secs_f64();
        let aggregate = steps_hz * lanes as f64;
        let speedup = aggregate / single_hz;
        println!(
            "  {lanes} lanes: {} steps/s, {} lane-cycles/s aggregate ({speedup:.2}x)",
            fmt_hz(steps_hz),
            fmt_hz(aggregate),
        );
        let mut row = Json::object();
        row.set("lanes", lanes as u64);
        row.set("steps_per_sec", steps_hz);
        row.set("aggregate_cycles_per_sec", aggregate);
        row.set("speedup_vs_single", speedup);
        rows.push(row);
        aggregates.push((lanes, aggregate));
    }
    rec.set("engines", Json::Array(rows));
    let agg = |lanes: usize| {
        aggregates
            .iter()
            .find(|(l, _)| *l == lanes)
            .map(|(_, a)| *a)
            .expect("engine row recorded")
    };
    let speedup_at_max = agg(LANES) / single_hz;
    let word_lift_gain = agg(LANES) / agg(32);
    println!("  64-lane over 32-lane aggregate: {word_lift_gain:.2}x");

    // --- bank reference: 64 independent sims, no lanes -----------------
    let bank_aggregate = {
        let mut bank: Vec<GemSimulator> = (0..LANES)
            .map(|_| GemSimulator::new(&compiled).expect("loads"))
            .collect();
        let mut rngs: Vec<FuzzRng> = (0..LANES).map(lane_rng).collect();
        let mut drive_step = |bank: &mut Vec<GemSimulator>| {
            for (sim, rng) in bank.iter_mut().zip(rngs.iter_mut()) {
                for (name, width) in &inputs {
                    sim.set_input(name, rng.bits(*width));
                }
                sim.step();
            }
        };
        for _ in 0..4 {
            drive_step(&mut bank);
        }
        // The bank costs ~64x a single step; fewer rounds suffice.
        let rounds = (cycles / 16).max(8);
        let t0 = Instant::now();
        for _ in 0..rounds {
            drive_step(&mut bank);
        }
        rounds as f64 * LANES as f64 / t0.elapsed().as_secs_f64()
    };
    println!(
        "  bank of {LANES} (no lanes): {} lane-cycles/s aggregate ({:.2}x)",
        fmt_hz(bank_aggregate),
        bank_aggregate / single_hz
    );
    rec.set("bank_aggregate_cycles_per_sec", bank_aggregate);
    // The headline numbers: aggregate throughput of the full batch over
    // the single-lane baseline, and what the u32 → u64 word lift bought
    // over the old 32-lane ceiling.
    rec.set("speedup_aggregate", speedup_at_max);
    rec.set("speedup_64_vs_32_aggregate", word_lift_gain);

    write_record("ext_batch", &rec);
    if let Err(e) = std::fs::write("BENCH_batch.json", rec.to_string_pretty()) {
        eprintln!("could not write BENCH_batch.json: {e}");
    } else {
        println!("  baseline recorded in BENCH_batch.json");
    }
    assert!(
        speedup_at_max >= 8.0,
        "aggregate speedup at {LANES} lanes fell below 8x: {speedup_at_max:.2}"
    );
    assert!(
        word_lift_gain >= 1.5,
        "64-lane aggregate fell below 1.5x the 32-lane aggregate: {word_lift_gain:.2}"
    );
}
