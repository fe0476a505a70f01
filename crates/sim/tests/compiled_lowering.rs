//! Property tests for the two threaded-code lowerings the virtual GPU
//! executes — lane-word (`gem_vgpu::CompiledCore` /
//! `gem_place::CompiledLayer`) and signal-packed (`gem_vgpu::PackedCore`
//! / `gem_place::PackedLayer`) — driven by the same random-design corpus
//! as the differential fuzz suite:
//!
//! * **totality** — every decoded program the compiler emits lowers
//!   without panicking, and the lowered shape reconciles with the
//!   decoded one (layer count, write split, read table);
//! * **cost-model reconciliation** — the per-cycle `KernelCounters`
//!   charges of a real simulation step are each decoded core's layers
//!   at its architectural width, whichever form ran;
//! * **scalar-spec equivalence** — every lowered core, run on random
//!   64-lane globals, publishes exactly what the scalar spec
//!   (`BoomerangLayer::execute` between a read gather and a write
//!   publish) computes for each lane alone;
//! * **form equivalence** — the packed core, run on the splat of one
//!   lane, publishes that lane of the lane-word core's output splatted,
//!   and widening it gives the lane-word lowering exactly.
//!
//! Failure messages carry the seed, which reproduces the design and the
//! stimulus deterministically.

use gem_core::{compile, CompileOptions, GemSimulator};
use gem_isa::{disassemble_core_exact, DecodedCore, WriteSrc};
use gem_sim::{random_module, FuzzConfig, FuzzRng};
use gem_vgpu::compiled::Scratch;
use gem_vgpu::{CompiledCore, PackedCore};

fn compile_seed(seed: u64) -> gem_core::Compiled {
    let m = random_module(seed, &FuzzConfig::for_seed(seed));
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

/// Every decoded program lowers, and the lowered form preserves the
/// decoded program's shape: same layer count, reads carried over
/// verbatim, writes split into immediate + deferred without loss.
#[test]
fn every_fuzz_program_lowers_and_preserves_shape() {
    for seed in 0..20u64 {
        let compiled = compile_seed(seed);
        let mut cores = 0usize;
        for stage in &compiled.bitstream.stages {
            for bytes in stage {
                let dec = disassemble_core_exact(bytes)
                    .unwrap_or_else(|e| panic!("seed {seed}: decode failed: {e}"));
                let comp = CompiledCore::lower(&dec);
                let packed = PackedCore::lower(&dec)
                    .unwrap_or_else(|| panic!("seed {seed}: packed lowering refused"));
                assert_eq!(packed.widen(), comp, "seed {seed}: widened packed form");
                assert_eq!(packed.depth(), dec.layers.len(), "seed {seed}: depth");
                assert_eq!(comp.width, dec.width, "seed {seed}: width");
                assert_eq!(
                    comp.layers.len(),
                    dec.layers.len(),
                    "seed {seed}: layer count"
                );
                assert_eq!(comp.reads.len(), dec.reads.len(), "seed {seed}: reads");
                assert_eq!(
                    comp.immediate.len() + comp.deferred.len(),
                    dec.writes.len(),
                    "seed {seed}: write split lost entries"
                );
                let deferred = dec.writes.iter().filter(|w| w.deferred).count();
                assert_eq!(
                    comp.deferred.len(),
                    deferred,
                    "seed {seed}: deferred classification"
                );
                cores += 1;
            }
        }
        assert!(cores > 0, "seed {seed}: empty bitstream");
    }
}

/// One simulated step charges every decoded core its architectural
/// layers — `2w` shared accesses, `w − 1` fold ALU ops and `1 + log2 w`
/// block syncs a layer of width `w` — whatever the packed form it ran
/// let the host skip.
#[test]
fn lowered_op_counts_reconcile_with_kernel_counters() {
    for seed in 0..12u64 {
        let compiled = compile_seed(seed);
        let (mut shared, mut alu, mut syncs) = (0u64, 0u64, 0u64);
        for stage in &compiled.bitstream.stages {
            for bytes in stage {
                let dec = disassemble_core_exact(bytes)
                    .unwrap_or_else(|e| panic!("seed {seed}: decode failed: {e}"));
                let (w, layers) = (u64::from(dec.width), dec.layers.len() as u64);
                shared += layers * 2 * w;
                alu += layers * (w - 1);
                syncs += layers * (1 + u64::from(dec.width.trailing_zeros()));
            }
        }
        let mut sim = GemSimulator::new(&compiled).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        sim.step();
        let c = sim.counters();
        assert_eq!(c.shared_accesses, shared, "seed {seed}: shared accesses");
        assert_eq!(c.alu_ops, alu, "seed {seed}: alu ops");
        assert_eq!(c.block_syncs, syncs, "seed {seed}: block syncs");
    }
}

/// `(global index, value)` pairs one core publishes for one lane.
type LaneWrites = Vec<(u32, bool)>;

/// One lane of the lane words a lowered core published.
fn lane_of(words: &[(u32, u64)], lane: u32) -> LaneWrites {
    words
        .iter()
        .map(|&(g, w)| (g, (w >> lane) & 1 == 1))
        .collect()
}

/// The scalar spec of one core cycle on one lane of `global`: gather
/// `reads`, run every layer's scalar executor, publish `writes` as
/// (immediate, deferred) lists in program order.
fn scalar_core(dec: &DecodedCore, global: &[u64], lane: u32) -> (LaneWrites, LaneWrites) {
    let mut state = vec![false; dec.width as usize];
    for r in &dec.reads {
        state[r.state as usize] = (global[r.global as usize] >> lane) & 1 == 1;
    }
    for layer in &dec.layers {
        layer.execute(&mut state);
    }
    let (mut imm, mut def) = (Vec::new(), Vec::new());
    for w in &dec.writes {
        let v = match w.src {
            WriteSrc::State { addr, invert } => state[addr as usize] ^ invert,
            WriteSrc::Const(c) => c,
        };
        if w.deferred {
            def.push((w.global, v));
        } else {
            imm.push((w.global, v));
        }
    }
    (imm, def)
}

/// The direct check of the read gather, the layers as wired into a core
/// (const-slot redirect included) and the immediate/deferred write
/// split: for every core of the corpus, each lane of what
/// `CompiledCore::execute_words_into` publishes from random 64-lane
/// globals equals the scalar spec run on that lane alone — same
/// destinations, same values, same order. (Compiler output never lets a
/// constant slot's value reach a writeback; `gem-vgpu`'s unit tests pin
/// that a redirected slot reads zero.) And the packed core, given a
/// lane's splat — what a one-lane machine's globals are — publishes that
/// lane's splat: packed == lane of the lane-word form == scalar spec.
/// All through one recycled scratch, as on a stepping thread.
#[test]
fn lowered_core_matches_scalar_spec_per_lane() {
    let mut scratch = Scratch::default();
    for seed in 0..20u64 {
        let compiled = compile_seed(seed);
        let mut rng = FuzzRng::new(seed ^ 0x5CA1_A25B);
        let global: Vec<u64> = (0..compiled.device.global_bits)
            .map(|_| rng.next_u64())
            .collect();
        for (si, stage) in compiled.bitstream.stages.iter().enumerate() {
            for (ci, bytes) in stage.iter().enumerate() {
                let dec = disassemble_core_exact(bytes)
                    .unwrap_or_else(|e| panic!("seed {seed}: decode failed: {e}"));
                let (mut imm, mut def) = (Vec::new(), Vec::new());
                CompiledCore::lower(&dec).execute_words_into(
                    &global,
                    &mut scratch,
                    &mut imm,
                    &mut def,
                );
                let packed = PackedCore::lower(&dec).expect("compiler output lowers");
                for lane in [0, (seed as u32 * 7 + ci as u32) % 64] {
                    let splat_of = |w: u64| 0u64.wrapping_sub((w >> lane) & 1);
                    let one: Vec<u64> = global.iter().map(|&w| splat_of(w)).collect();
                    let (mut imm1, mut def1) = (Vec::new(), Vec::new());
                    packed.execute_into(&one, &mut scratch, &mut imm1, &mut def1);
                    let splats = |ws: &[(u32, u64)]| -> Vec<(u32, u64)> {
                        ws.iter().map(|&(g, w)| (g, splat_of(w))).collect()
                    };
                    assert_eq!(
                        (imm1, def1),
                        (splats(&imm), splats(&def)),
                        "seed {seed} stage {si} core {ci} lane {lane}: packed form"
                    );
                }
                for lane in 0..u64::BITS {
                    let (want_imm, want_def) = scalar_core(&dec, &global, lane);
                    assert_eq!(
                        lane_of(&imm, lane),
                        want_imm,
                        "seed {seed} stage {si} core {ci} lane {lane}: immediate writes"
                    );
                    assert_eq!(
                        lane_of(&def, lane),
                        want_def,
                        "seed {seed} stage {si} core {ci} lane {lane}: deferred writes"
                    );
                }
            }
        }
    }
}
