//! Shared harness for regenerating every table and figure of the paper.
//!
//! One binary, `repro [--scale N]`, regenerates every artifact from one
//! compile per design and asserts the reproduction's verdicts. Its body
//! is [`repro::main`], in this library, so the tests measure and judge
//! with the very functions the binary calls.
//!
//! Methodology (see DESIGN.md §3): CPU baselines (the event-driven
//! `EventSim` as the "commercial" tool, the full-cycle `EaigSim` as
//! "Verilator") are measured in wall-clock on the host; GPU engines are
//! *modeled* — GEM executed functionally on the virtual GPU, GL0AM's
//! gate-level re-simulation counted by `EventSim` — and converted to Hz
//! with the calibrated A100/3090 timing models. Designs are ≈1/15 the
//! gate count of the paper's, with matching structure; intensive
//! quantities (ratios, crossovers, layer compression, replication
//! percentages) are the reproduction targets.

pub mod repro;

use gem_core::{compile, CompileOptions, Compiled, GemSimulator};
use gem_designs::{Design, Workload};
use gem_netlist::Bits;
use gem_sim::{EaigSim, EventSim};
use gem_synth::PortBits;
use gem_vgpu::{gl0am, GpuSpec, KernelCounters, TimingModel};
use std::time::Instant;

/// Per-design harness configuration mirroring Table I's stages column.
pub fn compile_options_for(design_name: &str) -> CompileOptions {
    let stages = match design_name {
        // The paper uses 2 RepCut stages for the OpenPiton designs.
        "OpenPiton1" | "OpenPiton8" => 2,
        _ => 1,
    };
    CompileOptions {
        target_parts: 16,
        stages,
        core_width: 2048,
        ..Default::default()
    }
}

/// The evaluation suite at the given scale with per-design options.
pub fn suite(scale: u32) -> Vec<(Design, CompileOptions)> {
    gem_designs::all_designs(scale)
        .into_iter()
        .map(|d| {
            let opts = compile_options_for(&d.name);
            (d, opts)
        })
        .collect()
}

/// Applies named-port inputs to a bit-level input vector using the E-AIG
/// port layout.
pub fn apply_to_bitvec(layout: &[PortBits], inputs: &[(String, Bits)], bits: &mut [bool]) {
    for (name, v) in inputs {
        if let Some(pb) = layout.iter().find(|p| &p.name == name) {
            for i in 0..pb.width.min(v.width()) {
                bits[pb.lsb_index + i as usize] = v.bit(i);
            }
        }
    }
}

/// Wall-clock measurement of a closure executing `cycles` cycles; returns
/// simulated cycles per second.
pub fn measure_hz(cycles: u64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..cycles {
        f();
    }
    cycles as f64 / t0.elapsed().as_secs_f64()
}

/// Speed of the event-driven ("commercial") baseline on a workload;
/// also returns the measured signal events per cycle.
pub fn measure_event(d: &Design, c: &Compiled, w: &Workload, cycles: u64) -> (f64, f64) {
    let widths = |n: &str| port_width(d, n);
    let mut stim = w.stimulus(&widths);
    let mut sim = EventSim::new(&c.eaig);
    let mut bits = vec![false; c.eaig.inputs().len()];
    for _ in 0..stim.warmup_cycles() {
        let ins = stim.next_inputs();
        apply_to_bitvec(&c.eaig_inputs, &ins, &mut bits);
        sim.cycle(&bits);
    }
    let ev0 = sim.events_total();
    let hz = measure_hz(cycles, || {
        let ins = stim.next_inputs();
        apply_to_bitvec(&c.eaig_inputs, &ins, &mut bits);
        sim.cycle(&bits);
    });
    let events_per_cycle = (sim.events_total() - ev0) as f64 / cycles as f64;
    (hz, events_per_cycle)
}

/// Speed of the levelized full-cycle ("Verilator") baseline, [`EaigSim`],
/// at one thread, measured in wall-clock.
pub fn measure_levelized(d: &Design, c: &Compiled, w: &Workload, cycles: u64) -> f64 {
    let widths = |n: &str| port_width(d, n);
    let mut stim = w.stimulus(&widths);
    let mut sim = EaigSim::new(&c.eaig);
    let mut bits = vec![false; c.eaig.inputs().len()];
    for _ in 0..stim.warmup_cycles() {
        let ins = stim.next_inputs();
        apply_to_bitvec(&c.eaig_inputs, &ins, &mut bits);
        sim.cycle(&bits);
    }
    measure_hz(cycles, || {
        let ins = stim.next_inputs();
        apply_to_bitvec(&c.eaig_inputs, &ins, &mut bits);
        sim.cycle(&bits);
    })
}

/// Modeled speed of the GL0AM-style gate-level GPU baseline (A100): the
/// event-driven baseline's re-evaluation counts over the warm-up and
/// `cycles` cycles, priced by [`gem_vgpu::gl0am::counters`].
pub fn measure_gl0am(d: &Design, c: &Compiled, w: &Workload, cycles: u64) -> f64 {
    let widths = |n: &str| port_width(d, n);
    let mut stim = w.stimulus(&widths);
    let mut sim = EventSim::new(&c.eaig);
    let mut bits = vec![false; c.eaig.inputs().len()];
    for _ in 0..stim.warmup_cycles() + cycles {
        let ins = stim.next_inputs();
        apply_to_bitvec(&c.eaig_inputs, &ins, &mut bits);
        sim.cycle(&bits);
    }
    let counters = gl0am::counters(sim.evaluations(), sim.active_levels(), sim.cycles());
    TimingModel::new(GpuSpec::a100()).hz_total(&counters)
}

/// GEM's kernel counters on a workload: a few functional cycles on the
/// virtual GPU (they are cycle-invariant — GEM is a full-cycle
/// simulator), for the timing models to convert to speed.
pub fn measure_gem(d: &Design, c: &Compiled, w: &Workload) -> KernelCounters {
    let widths = |n: &str| port_width(d, n);
    let mut stim = w.stimulus(&widths);
    let mut sim = GemSimulator::new(c).expect("bitstream loads");
    for _ in 0..8 {
        for (name, v) in stim.next_inputs() {
            sim.set_input(&name, v);
        }
        sim.step();
    }
    *sim.counters()
}

/// Cross-checks the compiled design against the golden E-AIG interpreter
/// on the workload's stimulus for `cycles` cycles.
///
/// # Panics
///
/// Panics on any output mismatch — the harness refuses to report speed
/// numbers for an incorrect engine.
pub fn verify_gem(d: &Design, c: &Compiled, w: &Workload, cycles: u64) {
    let widths = |n: &str| port_width(d, n);
    let mut stim = w.stimulus(&widths);
    let mut gem = GemSimulator::new(c).expect("bitstream loads");
    let mut gold = EaigSim::new(&c.eaig);
    let mut bits = vec![false; c.eaig.inputs().len()];
    for cycle in 0..cycles {
        let ins = stim.next_inputs();
        apply_to_bitvec(&c.eaig_inputs, &ins, &mut bits);
        for (name, v) in &ins {
            gem.set_input(name, v.clone());
        }
        for (i, &bv) in bits.iter().enumerate() {
            gold.set_input(i, bv);
        }
        gold.eval();
        gem.step();
        for pb in &c.eaig_outputs {
            let got = gem.output(&pb.name);
            for i in 0..pb.width {
                let want = gold.output(pb.lsb_index + i as usize);
                assert_eq!(
                    got.bit(i),
                    want,
                    "design {} workload {} cycle {cycle}: output {}[{i}] mismatch",
                    d.name,
                    w.name,
                    pb.name
                );
            }
        }
        gold.step();
    }
}

fn port_width(d: &Design, name: &str) -> u32 {
    d.module
        .port(name)
        .map(|p| d.module.width(p.net))
        .unwrap_or(1)
}

/// Compiles a design with its harness options (convenience for binaries).
pub fn compile_design(d: &Design, opts: &CompileOptions) -> Compiled {
    compile(&d.module, opts).unwrap_or_else(|e| panic!("design {} failed to compile: {e}", d.name))
}

/// Formats a f64 Hz value (or any count) with thousands separators,
/// paper-style.
pub fn fmt_hz(hz: f64) -> String {
    let v = hz.round() as i64;
    let s = v.to_string();
    let mut out = String::new();
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_hz_groups_thousands() {
        assert_eq!(fmt_hz(65385.2), "65,385");
        assert_eq!(fmt_hz(7.9), "8");
        assert_eq!(fmt_hz(1234567.0), "1,234,567");
    }
}
