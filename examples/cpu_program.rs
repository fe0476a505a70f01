//! Run a program on the RocketChip-like CPU design under GEM, and compare
//! the modeled GPU simulation speed against the CPU baselines — a
//! one-design slice of Table II.
//!
//! Run with: `cargo run --release --example cpu_program`

use gem_core::GemSimulator;
use gem_designs::cpu::{assemble, Insn};
use gem_netlist::Bits;
use gem_sim::{EaigSim, EventSim};
use gem_vgpu::{GpuSpec, TimingModel};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = gem_designs::rocket_like();
    // sum = 1 + 2 + ... : r1 counts up, r7 accumulates.
    let program = assemble(&[
        Insn::Li(1, 0),
        Insn::Li(2, 1),
        Insn::Add(1, 1, 2), // loop at 2
        Insn::Add(7, 7, 1),
        Insn::Jmp(2),
    ]);

    let opts = gem_core::CompileOptions {
        core_width: 2048,
        target_parts: 8,
        ..Default::default()
    };
    let t0 = Instant::now();
    let compiled = gem_core::compile(&design.module, &opts)?;
    println!(
        "compiled {} ({} gates) in {:?}; {} partitions, {} layers",
        design.name,
        compiled.report.gates,
        t0.elapsed(),
        compiled.report.parts,
        compiled.report.layers
    );

    // Boot: stream the program while in reset, then run.
    let mut sim = GemSimulator::new(&compiled)?;
    for (i, &w) in program.iter().enumerate() {
        sim.set_input("rst", Bits::from_u64(1, 1));
        sim.set_input("host_we", Bits::from_u64(1, 1));
        sim.set_input("host_addr", Bits::from_u64(i as u64, 8));
        sim.set_input("host_data", Bits::from_u64(u64::from(w), 16));
        sim.step();
    }
    sim.set_input("rst", Bits::zeros(1));
    sim.set_input("host_we", Bits::zeros(1));
    for _ in 0..90 {
        sim.step();
    }
    println!(
        "after 90 cycles (30 instructions at CPI=3): pc={} result={}",
        sim.output("pc").to_u64(),
        sim.output("result").to_u64()
    );

    // Speed comparison on this design.
    let per_cycle = sim.counters().per_cycle().expect("ran");
    let gem_a100 = TimingModel::new(GpuSpec::a100()).hz(&per_cycle);
    let gem_3090 = TimingModel::new(GpuSpec::rtx3090()).hz(&per_cycle);
    let n = compiled.eaig.inputs().len();
    let cycles = 3000u64;
    let mut ev = EventSim::new(&compiled.eaig);
    let t = Instant::now();
    for c in 0..cycles {
        let mut ins = vec![false; n];
        ins[0] = c % 7 == 0;
        ev.cycle(&ins);
    }
    let ev_hz = cycles as f64 / t.elapsed().as_secs_f64();
    let mut full = EaigSim::new(&compiled.eaig);
    let t = Instant::now();
    for c in 0..cycles {
        let mut ins = vec![false; n];
        ins[0] = c % 7 == 0;
        full.cycle(&ins);
    }
    let full_hz = cycles as f64 / t.elapsed().as_secs_f64();
    println!("simulation speed (simulated cycles/second):");
    println!("  GEM on A100 (modeled):      {gem_a100:>12.0} Hz");
    println!("  GEM on RTX 3090 (modeled):  {gem_3090:>12.0} Hz");
    println!("  event-driven CPU baseline:  {ev_hz:>12.0} Hz (measured)");
    println!("  full-cycle CPU baseline:    {full_hz:>12.0} Hz (measured)");
    Ok(())
}
