//! The three simulator workloads: one driver, three plans.
//!
//! A run brings the design up (`setup_s`, several times), warms up, then
//! steps the simulator in fixed-size windows until the clock budget is
//! spent, timing every cycle from "inputs in hand" to "outputs read".
//! Afterwards — untimed — the golden `EaigSim` replays the same stimulus
//! and every recorded output bit is compared.

use crate::dut::{apply, bring_up, sim_options, BringUp, CycleInputs, Dut, Rtl};
use crate::layers;
use crate::report::{Digest, Outcome, RunConfig};
use crate::spans::Recorder;
use crate::spec::Metrics;
use crate::stats::{median, median_of_windows, quantile, sorted};
use gem_core::{Compiled, GemSimulator};
use gem_designs::{gemmini_like, openpiton_like, Design, Workload, WorkloadSpec};
use gem_netlist::Bits;
use gem_place::Word;
use gem_sim::EaigSim;
use gem_telemetry::Json;
use std::time::Instant;

/// Which golden comparisons a plan asks for.
struct GoldenPlan {
    /// Lanes replayed on the golden model.
    lanes: Vec<u32>,
    /// Cycles compared per lane, counted from cycle 0 (`None` = all run).
    cycles: Option<usize>,
}

struct SimPlan {
    design: Design,
    /// One stimulus description per lane.
    lane_workloads: Vec<Workload>,
    golden: GoldenPlan,
}

impl SimPlan {
    fn lanes(&self) -> u32 {
        self.lane_workloads.len() as u32
    }
}

/// A copy of a design's own workload steered by the run's seed: program
/// loads go to `tile`, random stimuli are reseeded.
fn steer(w: &Workload, tile: u64, seed: u64) -> Workload {
    let mut w = w.clone();
    match &mut w.spec {
        WorkloadSpec::ProgramLoad { tile_select, .. } => {
            if let Some((_, t)) = tile_select {
                *t = tile;
            }
        }
        WorkloadSpec::RandomToggle { seed: s, .. } => *s = seed,
    }
    w
}

fn plan(name: &str, seed: u64, quick: bool) -> SimPlan {
    match name {
        "piton8_scalar" => {
            let design = openpiton_like(8);
            let program = design.workload("ldst_quad2").expect("paper test name");
            let lane_workloads = vec![steer(program, seed % 8, seed)];
            SimPlan {
                design,
                lane_workloads,
                golden: GoldenPlan {
                    lanes: vec![0],
                    cycles: None,
                },
            }
        }
        "piton8_lanes64" => {
            let design = openpiton_like(8);
            let lane_workloads = (0..64u64)
                .map(|k| steer(&design.workloads[k as usize % 3], (k + seed) % 8, seed))
                .collect();
            SimPlan {
                design,
                lane_workloads,
                golden: GoldenPlan {
                    lanes: vec![0, 21, 42, 63],
                    cycles: Some(if quick { 64 } else { 1280 }),
                },
            }
        }
        "gemmini_compile" => {
            let design = gemmini_like(12);
            let lane_workloads = vec![steer(&design.workloads[0], 0, seed)];
            SimPlan {
                design,
                lane_workloads,
                golden: GoldenPlan {
                    lanes: vec![0],
                    cycles: None,
                },
            }
        }
        other => unreachable!("{other} is not a simulator workload"),
    }
}

/// The per-lane stimulus generators of one run, packed per cycle into the
/// form the lane count calls for.
struct LaneFeed {
    stimuli: Vec<gem_designs::Stimulus>,
}

impl LaneFeed {
    fn new(plan: &SimPlan) -> Self {
        let module = &plan.design.module;
        let widths = |n: &str| module.port(n).map(|p| module.width(p.net)).unwrap_or(1);
        LaneFeed {
            stimuli: plan
                .lane_workloads
                .iter()
                .map(|w| w.stimulus(&widths))
                .collect(),
        }
    }

    fn next(&mut self) -> CycleInputs {
        if let [only] = self.stimuli.as_mut_slice() {
            return CycleInputs::Scalar(only.next_inputs());
        }
        let mut packed: Vec<(String, Vec<Word>)> = Vec::new();
        for (lane, stim) in self.stimuli.iter_mut().enumerate() {
            for (i, (port, bits)) in stim.next_inputs().into_iter().enumerate() {
                if lane == 0 {
                    packed.push((port.clone(), vec![0; bits.width() as usize]));
                }
                let (name, words) = &mut packed[i];
                assert_eq!(*name, port, "lanes of one design drive the same ports");
                for (b, word) in words.iter_mut().enumerate() {
                    *word |= Word::from(bits.bit(b as u32)) << lane;
                }
            }
        }
        CycleInputs::Packed(packed)
    }
}

/// Reads every output port of every lane, lane-major.
fn read_outputs(sim: &GemSimulator, ports: &[String], lanes: u32) -> Vec<Bits> {
    let mut out = Vec::with_capacity(ports.len() * lanes as usize);
    for lane in 0..lanes {
        for port in ports {
            out.push(if lanes == 1 {
                sim.output(port)
            } else {
                sim.output_lane(port, lane)
            });
        }
    }
    out
}

/// What the timed loop leaves behind for the golden pass and the report.
struct Observed<'a> {
    golden: &'a GoldenPlan,
    /// Output ports per lane.
    ports: usize,
    /// Cycles (from 0) whose outputs, all lanes, enter the digest: the
    /// part of the run every run completes, whatever its clock allows.
    digest_upto: usize,
    /// `kept[cycle]` = outputs of the golden-checked lanes, lane-major
    /// (empty past the golden plan's cycle cap).
    kept: Vec<Vec<Bits>>,
    digest: Digest,
}

impl Observed<'_> {
    fn record(&mut self, all: Vec<Bits>) {
        let cycle = self.kept.len();
        if cycle < self.digest_upto {
            for bit in all.iter().flat_map(Bits::iter) {
                self.digest.fold(u64::from(bit));
            }
        }
        let keep = if self.golden.cycles.is_none_or(|cap| cycle < cap) {
            let ports = self.ports;
            self.golden
                .lanes
                .iter()
                .flat_map(|&l| all[l as usize * ports..][..ports].iter().cloned())
                .collect()
        } else {
            Vec::new()
        };
        self.kept.push(keep);
    }
}

/// Replays the checked lanes on the golden model and compares every
/// recorded output bit. One operation per compared (lane, cycle); returns
/// `(attempted, failed, golden cycles per second)`.
fn golden_check(
    plan: &SimPlan,
    compiled: &Compiled,
    observed: &Observed,
    flip_golden: bool,
    rec: &mut Recorder,
) -> (u64, u64, f64) {
    let module = &plan.design.module;
    let widths = |n: &str| module.port(n).map(|p| module.width(p.net)).unwrap_or(1);
    let cycles = plan
        .golden
        .cycles
        .map_or(observed.kept.len(), |cap| cap.min(observed.kept.len()));
    let input_base = |port: &str| {
        compiled
            .eaig_inputs
            .iter()
            .find(|p| p.name == port)
            .expect("stimulus names inputs")
            .lsb_index
    };
    let (mut attempted, mut failed, mut golden_s) = (0u64, 0u64, 0.0);
    for (gi, &lane) in plan.golden.lanes.iter().enumerate() {
        let mut stim = plan.lane_workloads[lane as usize].stimulus(&widths);
        let mut golden = EaigSim::new(&compiled.eaig);
        for (cycle, kept) in observed.kept[..cycles].iter().enumerate() {
            let inputs = stim.next_inputs();
            let (_, s) = rec.time("sim", "golden_cycle", |_| {
                for (port, bits) in &inputs {
                    let base = input_base(port);
                    for (i, bit) in bits.iter().enumerate() {
                        golden.set_input(base + i, bit);
                    }
                }
                golden.eval();
            });
            golden_s += s;
            let seen = &kept[gi * compiled.io.outputs.len()..][..compiled.io.outputs.len()];
            let mut same = true;
            for (port, seen) in compiled.io.outputs.iter().zip(seen) {
                let layout = compiled
                    .eaig_outputs
                    .iter()
                    .find(|p| p.name == port.name)
                    .expect("every output port is synthesized");
                for (i, bit) in seen.iter().enumerate() {
                    let mut want = golden.output(layout.lsb_index + i);
                    // The self-test: corrupt one reference bit and the
                    // harness must notice.
                    want ^= flip_golden && gi == 0 && cycle == cycles / 2 && i == 0;
                    same &= bit == want;
                }
            }
            attempted += 1;
            failed += u64::from(!same);
            golden_s += rec.time("sim", "golden_step", |_| golden.step()).1;
        }
    }
    (attempted, failed, (attempted as f64) / golden_s)
}

/// Runs one simulator workload.
pub fn run(name: &str, cfg: &RunConfig) -> Outcome {
    let origin = Instant::now();
    let mut rec = Recorder::new(origin, 0, cfg.trace);
    let mut m = Metrics::default();
    let plan = plan(name, cfg.seed, cfg.quick);
    let lanes = plan.lanes();
    let dut = Dut {
        rtl: Rtl::Module(plan.design.module.clone()),
        opts: sim_options(),
    };

    // --- set-up, several times; the last bring-up is the one measured.
    let mut ups = Vec::new();
    let (compiled, mut sim, mut feed) = loop {
        let mut feed = LaneFeed::new(&plan);
        let first = feed.next();
        let (compiled, sim, up) = bring_up(&dut, lanes, &first, &mut rec);
        ups.push(up);
        if ups.len() == cfg.setup_reps {
            break (compiled, sim, feed);
        }
    };
    let median_up = |part: fn(&BringUp) -> f64| median(&ups.iter().map(part).collect::<Vec<_>>());
    m.set("setup_s", median_up(|u| u.total_s));

    // --- cycles.
    let ports: Vec<String> = compiled.io.outputs.iter().map(|p| p.name.clone()).collect();
    let digest_upto = cfg.warmup + cfg.min_windows * cfg.window;
    let mut observed = Observed {
        golden: &plan.golden,
        ports: ports.len(),
        digest_upto,
        kept: Vec::new(),
        digest: Digest::default(),
    };
    // Cycle 0 ran inside the last bring-up.
    let first_outputs = read_outputs(&sim, &ports, lanes);
    observed.record(first_outputs);
    for _ in 1..cfg.warmup {
        let inputs = feed.next();
        apply(&mut sim, &inputs);
        sim.step();
        let out = read_outputs(&sim, &ports, lanes);
        observed.record(out);
    }

    // Windows alternate untraced / traced in a traced run, so the two
    // throughputs that define the tracing overhead share one thermal and
    // cache state. An untraced run has only untraced windows.
    let mut plain = Windows::default();
    let mut traced = Windows::default();
    let (mut set_s, mut step_s, mut out_s) = (Vec::new(), Vec::new(), Vec::new());
    let measure_start = Instant::now();
    let mut windows = 0;
    while windows < cfg.min_windows || measure_start.elapsed().as_secs_f64() < cfg.seconds {
        let inputs: Vec<CycleInputs> = (0..cfg.window).map(|_| feed.next()).collect();
        let trace_this = cfg.trace && windows % 2 == 1;
        let mut window_s = 0.0;
        for inputs in &inputs {
            let (out, cycle_s) = if trace_this {
                rec.time("core", "cycle", |rec| {
                    set_s.push(rec.time("core", "set_input", |_| apply(&mut sim, inputs)).1);
                    step_s.push(rec.time("core", "step", |_| sim.step()).1);
                    let (out, s) =
                        rec.time("core", "output", |_| read_outputs(&sim, &ports, lanes));
                    out_s.push(s);
                    out
                })
            } else {
                let t0 = Instant::now();
                apply(&mut sim, inputs);
                sim.step();
                let out = read_outputs(&sim, &ports, lanes);
                (out, t0.elapsed().as_secs_f64())
            };
            window_s += cycle_s;
            let side = if trace_this { &mut traced } else { &mut plain };
            side.cycle_s.push(cycle_s);
            observed.record(out);
        }
        let side = if trace_this { &mut traced } else { &mut plain };
        side.window_s.push(window_s);
        windows += 1;
    }
    let counters = *sim.counters();
    let cycles_run = observed.kept.len();
    let lane_cycles_per_s =
        f64::from(lanes) * median_of_windows(&plain.window_s, cfg.window as f64);
    let cycle_s = sorted(plain.cycle_s);
    m.set("step_p01_ms", quantile(&cycle_s, 0.01) * 1e3);
    m.set("peak_rss_mib", crate::report::peak_rss_mib());

    // --- correctness, untimed.
    let (attempted, failed, golden_hz) =
        golden_check(&plan, &compiled, &observed, cfg.flip_golden, &mut rec);

    // --- layers.
    let mut exact = Metrics::default();
    layers::exact_counts(&compiled, &counters, &mut exact);
    if cfg.trace {
        m.merge(&exact);
        m.set("core.compile_s", median_up(|u| u.compile_s));
        m.set("core.package_ms", median_up(|u| u.package_s) * 1e3);
        m.set("core.lane_cycles_per_s", lane_cycles_per_s);
        m.set("core.set_input_us", median(&set_s) * 1e6);
        let step_s = sorted(step_s);
        m.set("core.step_p50_us", quantile(&step_s, 0.5) * 1e6);
        m.set("core.step_p90_us", quantile(&step_s, 0.9) * 1e6);
        m.set("core.step_p99_us", quantile(&step_s, 0.99) * 1e6);
        m.set("core.output_us", median(&out_s) * 1e6);
        m.set("sim.golden_cycles_per_s", golden_hz);
        let traced_rate = f64::from(lanes) * median_of_windows(&traced.window_s, cfg.window as f64);
        m.set(
            "trace.overhead_share",
            1.0 - traced_rate / lane_cycles_per_s,
        );
        let mut probe_feed = LaneFeed::new(&plan);
        let next = || probe_feed.next();
        layers::probe(&dut, &compiled, lanes, cfg, next, &mut rec, &mut m);
    }

    let mut detail = Json::object();
    detail.set("lanes", lanes);
    detail.set("cycles", cycles_run);
    detail.set("windows", windows);
    detail.set("window_cycles", cfg.window);
    detail.set("step_samples", cycle_s.len());
    detail.set("lane_cycles_per_s", lane_cycles_per_s);
    detail.set("step_p50_ms", quantile(&cycle_s, 0.5) * 1e3);
    detail.set("step_p90_ms", quantile(&cycle_s, 0.9) * 1e3);
    detail.set("setup_reps", ups.len());
    detail.set("golden_checked", attempted);
    detail.set("output_digest", observed.digest.hex());
    detail.set("digest_cycles", digest_upto.min(cycles_run));
    Outcome {
        attempted,
        failed,
        metrics: m,
        exact,
        detail,
        recorder: rec,
    }
}

#[derive(Default)]
struct Windows {
    window_s: Vec<f64>,
    cycle_s: Vec<f64>,
}
