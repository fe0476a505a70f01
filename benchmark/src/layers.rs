//! Per-layer probes: each crate's public entry points, timed from outside.
//!
//! The compile-flow probes call the same functions `gem_core::compile`
//! chains, one at a time, on the design the workload just compiled; the
//! kernel probes run the lowered fold network and the bare machine next
//! to the `GemSimulator` shell. Layer names are crate names. Nothing here
//! feeds an end-to-end metric.

use crate::dut::{CycleInputs, Dut, Rtl};
use crate::report::RunConfig;
use crate::spans::Recorder;
use crate::spec::Metrics;
use crate::stats::{median, quantile, sorted};
use gem_core::{verify, Compiled};
use gem_isa::{certify_schedule, disassemble_core, DecodedCore};
use gem_partition::merge::{estimate_width, merge_partitions};
use gem_partition::repcut::Region;
use gem_partition::{partition, Partition, PartitionOptions};
use gem_place::{place_partition, splat, CompiledLayer, PlaceOptions, Word};
use gem_vgpu::compiled::Scratch;
use gem_vgpu::{CompiledCore, GemGpu, GpuSpec, KernelCounters, TimingModel};
use std::hint::black_box;
use std::mem::size_of;

/// Runs `f` `reps` times inside spans and returns the median seconds.
fn median_secs<R>(
    rec: &mut Recorder,
    layer: &'static str,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> f64 {
    let secs: Vec<f64> = (0..reps)
        .map(|_| rec.time(layer, name, |_| black_box(f())).1)
        .collect();
    median(&secs)
}

/// Sizes and simulated statistics that must repeat exactly: read off the
/// compile report and the machine counters, never timed.
pub fn exact_counts(compiled: &Compiled, counters: &KernelCounters, m: &mut Metrics) {
    let r = &compiled.report;
    m.set("synth.gates", r.gates as f64);
    m.set("synth.levels", f64::from(r.levels));
    let attempts = compiled
        .flow
        .stage("partition")
        .and_then(|s| s.metric("attempts"))
        .expect("compile records its partition attempts");
    m.set("partition.attempts", attempts);
    m.set("partition.parts", f64::from(r.parts));
    m.set("partition.replication", r.replication_cost);
    m.set("place.layers_max", f64::from(r.layers));
    m.set("isa.bitstream_bytes", r.bitstream_bytes as f64);
    let cycles = counters.cycles as f64;
    m.set("vgpu.alu_ops_per_cycle", counters.alu_ops as f64 / cycles);
    m.set(
        "vgpu.shared_accesses_per_cycle",
        counters.shared_accesses as f64 / cycles,
    );
    m.set(
        "vgpu.global_bytes_per_cycle",
        counters.global_bytes as f64 / cycles,
    );
    m.set(
        "vgpu.device_syncs_per_cycle",
        counters.device_syncs as f64 / cycles,
    );
    m.set("vgpu.blocks_per_cycle", counters.blocks_run as f64 / cycles);
    m.set(
        "vgpu.modeled_a100_hz",
        TimingModel::new(GpuSpec::a100()).hz_total(counters),
    );
}

/// Every timed probe of a traced run: the mapping flow stage by stage,
/// the bare machine on the workload's own inputs, and the kernels against
/// the global array it ended on. [`exact_counts`] must already be in `m`.
pub fn probe(
    dut: &Dut,
    compiled: &Compiled,
    lanes: u32,
    cfg: &RunConfig,
    next_inputs: impl FnMut() -> CycleInputs,
    rec: &mut Recorder,
    m: &mut Metrics,
) {
    compile_flow(dut, compiled, cfg.probe_reps, rec, m);
    let global = bare_machine(compiled, lanes, cfg.probe_cycles, next_inputs, rec, m);
    kernels(compiled, &global, cfg.probe_cycles, rec, m);
    let bare = m.get("vgpu.step_p50_us").expect("bare machine ran");
    let kernel = m.get("vgpu.kernel_us").expect("kernel probe ran");
    m.set("vgpu.nonkernel_us", bare - kernel);
}

/// Times every stage of the mapping flow on its own. `reps` applies to
/// the sub-second stages; partition, merge and place run once (seconds
/// each on the big designs, and deterministic).
fn compile_flow(dut: &Dut, compiled: &Compiled, reps: usize, rec: &mut Recorder, m: &mut Metrics) {
    let parsed;
    let module = match &dut.rtl {
        Rtl::Module(module) => module,
        Rtl::Verilog(text) => {
            let parse =
                || gem_netlist::verilog::parse_with_lints(text).expect("ladder text parses");
            let s = median_secs(rec, "netlist", "parse_with_lints", reps * 8, parse);
            m.set("netlist.parse_ms", s * 1e3);
            parsed = parse().0;
            &parsed
        }
    };
    let s = median_secs(rec, "analyze", "analyze_module", reps, || {
        gem_analyze::analyze_module(module)
    });
    m.set("analyze.run_ms", s * 1e3);
    let s = median_secs(rec, "synth", "synthesize", reps, || {
        gem_synth::synthesize(module, &dut.opts.synth).expect("ladder designs synthesize")
    });
    m.set("synth.run_ms", s * 1e3);

    // Partition again with the goals of the attempt `compile` accepted
    // (its retry schedule doubles the part goal every attempt and adds a
    // stage after every second failure).
    let g = &compiled.eaig;
    let attempts = m
        .get("partition.attempts")
        .expect("exact counts come first") as usize;
    let popts = PartitionOptions {
        target_parts: dut.opts.target_parts << (attempts - 1),
        stages: (dut.opts.stages + (attempts - 1) / 2).min(4.max(dut.opts.stages)),
        seed: dut.opts.seed,
        ..Default::default()
    };
    let (unmerged, s) = rec.time("partition", "partition", |_| partition(g, &popts));
    m.set("partition.run_s", s);

    // Algorithm 1, replayed with the `mappable` test `compile` uses, so
    // the placements it tries are inside the merge time exactly as there.
    let place_opts = PlaceOptions {
        core_width: dut.opts.core_width,
        timing_driven: dut.opts.timing_driven,
        ..Default::default()
    };
    let mappable = |p: &Partition| {
        estimate_width(g, p) <= dut.opts.core_width as usize
            && place_partition(g, p, &place_opts).is_ok()
    };
    let (merged_parts, s) = rec.time("partition", "merge_partitions", |_| {
        let mut stop = vec![false; g.len()];
        let mut widest = 0;
        for stage in &unmerged.stages {
            let region = Region {
                sinks: stage
                    .partitions
                    .iter()
                    .flat_map(|p| p.sinks.iter().copied())
                    .collect(),
                stop: stop.clone(),
            };
            let (merged, _) = merge_partitions(g, &region, stage, &mappable);
            for l in &merged.cut_lits {
                stop[l.node().0 as usize] = true;
            }
            widest = widest.max(merged.partitions.len());
        }
        widest
    });
    assert_eq!(
        merged_parts, compiled.report.parts as usize,
        "the merge replay must land on the partition count compile reported"
    );
    m.set("partition.merge_s", s);

    let (_, s) = rec.time("place", "place_partition", |_| {
        for p in compiled
            .partitioning
            .stages
            .iter()
            .flat_map(|s| &s.partitions)
        {
            black_box(place_partition(g, p, &place_opts).expect("final partitions place"));
        }
    });
    m.set("place.run_s", s);

    let programs = Some(compiled.programs.as_slice());
    let s = median_secs(rec, "isa", "verify", reps, || {
        verify(
            &compiled.bitstream,
            &compiled.device,
            &compiled.io,
            programs,
        )
    });
    m.set("isa.verify_ms", s * 1e3);
    let ctx = gem_core::verify::context(&compiled.device, &compiled.io, programs);
    let s = median_secs(rec, "isa", "certify_schedule", reps, || {
        certify_schedule(&compiled.bitstream, &ctx).expect("ladder schedules certify")
    });
    m.set("isa.certify_ms", s * 1e3);
    let s = median_secs(rec, "isa", "disassemble_core", reps, || {
        decode_all(compiled)
    });
    m.set("isa.decode_ms", s * 1e3);
    let s = median_secs(rec, "vgpu", "load", reps, || {
        GemGpu::load(&compiled.bitstream, compiled.device.clone()).expect("bitstream loads")
    });
    m.set("vgpu.load_ms", s * 1e3);
}

fn decode_all(compiled: &Compiled) -> Vec<DecodedCore> {
    compiled
        .bitstream
        .stages
        .iter()
        .flatten()
        .map(|bytes| disassemble_core(bytes).expect("own bitstream decodes"))
        .collect()
}

/// A filler for scratch state: the folds are data-independent, but an
/// all-zero row would let a smarter kernel cheat.
fn noise(i: usize) -> Word {
    (i as Word + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The lowered fold network on its own, and the per-core kernel against a
/// frozen global array. `passes` is the sample count behind each median.
fn kernels(
    compiled: &Compiled,
    global: &[Word],
    passes: usize,
    rec: &mut Recorder,
    m: &mut Metrics,
) {
    let decoded = decode_all(compiled);

    // place: every layer of every core, one pass = one simulated cycle's
    // worth of folds. Constant gather slots are redirected to a zero
    // word one past the core width, as the machine does at load, so the
    // probe times the lowered form the engine runs.
    let layers: Vec<(usize, Vec<CompiledLayer>)> = decoded
        .iter()
        .map(|d| {
            let lowered = d
                .layers
                .iter()
                .map(|l| {
                    let mut l = CompiledLayer::lower(l);
                    l.redirect_consts(d.width);
                    l
                })
                .collect();
            (d.width as usize, lowered)
        })
        .collect();
    let mut states: Vec<Vec<Word>> = layers
        .iter()
        .map(|(width, _)| (0..*width).map(noise).chain([0]).collect())
        .collect();
    let (mut row, mut next) = (Vec::new(), Vec::new());
    let secs: Vec<f64> = (0..passes)
        .map(|_| {
            rec.time("place", "fold_pass", |_| {
                for ((_, core), state) in layers.iter().zip(states.iter_mut()) {
                    for layer in core {
                        layer.execute_words_into(state, &mut row, &mut next);
                    }
                }
                black_box(&mut states);
            })
            .1
        })
        .collect();
    let fold_s = median(&secs);
    m.set("place.fold_us", fold_s * 1e6);
    let alu_ops_per_cycle = m
        .get("vgpu.alu_ops_per_cycle")
        .expect("exact counts come first");
    m.set("place.fold_and_evals_per_s", alu_ops_per_cycle / fold_s);
    // Computed, not measured: the gather table, the three masks of every
    // fold slot, the state words gathered and written back, and the
    // ping-pong row traffic (each level reads two words and writes one
    // per slot).
    let w = size_of::<Word>();
    let bytes: usize = layers
        .iter()
        .flat_map(|(_, core)| core)
        .map(|l| {
            let slots: usize = l.folds.iter().map(|f| f.xa.len()).sum();
            let writebacks: usize = l.folds.iter().map(|f| f.writeback.len()).sum();
            l.perm.len() * (size_of::<u32>() + 2 * w) + slots * 6 * w + writebacks * w
        })
        .sum();
    m.set("place.fold_bytes_per_cycle", bytes as f64);

    // vgpu: the whole per-core kernel (read gather, folds, write lists).
    let cores: Vec<CompiledCore> = decoded.iter().map(CompiledCore::lower).collect();
    let mut scratch = Scratch::default();
    let (mut imm, mut def) = (Vec::new(), Vec::new());
    let secs: Vec<f64> = (0..passes)
        .map(|_| {
            rec.time("vgpu", "kernel_pass", |_| {
                imm.clear();
                def.clear();
                for core in &cores {
                    core.execute_words_into(global, &mut scratch, &mut imm, &mut def);
                }
                black_box((&imm, &def));
            })
            .1
        })
        .collect();
    m.set("vgpu.kernel_us", median(&secs) * 1e6);
}

/// A second, bare machine driven below the `GemSimulator` shell on the
/// workload's own inputs. Returns the global signal array it ended on
/// (the frozen snapshot for [`kernels`]).
fn bare_machine(
    compiled: &Compiled,
    lanes: u32,
    cycles: usize,
    mut next_inputs: impl FnMut() -> CycleInputs,
    rec: &mut Recorder,
    m: &mut Metrics,
) -> Vec<Word> {
    let mut gpu =
        GemGpu::load(&compiled.bitstream, compiled.device.clone()).expect("bitstream loads");
    if lanes > 1 {
        gpu.set_lanes(lanes).expect("lane count is in range");
    }
    let slots_of = |port: &str| &compiled.io.input(port).expect("stimulus names inputs").bits;
    let mut step_s = Vec::with_capacity(cycles);
    for _ in 0..cycles {
        match next_inputs() {
            CycleInputs::Scalar(v) => {
                for (port, bits) in &v {
                    for (i, &slot) in slots_of(port).iter().enumerate() {
                        gpu.poke_lanes(slot, splat(bits.bit(i as u32)));
                    }
                }
            }
            CycleInputs::Packed(v) => {
                for (port, words) in &v {
                    for (&slot, &word) in slots_of(port).iter().zip(words) {
                        gpu.poke_lanes(slot, word);
                    }
                }
            }
        }
        step_s.push(rec.time("vgpu", "step_cycle", |_| gpu.step_cycle()).1);
        for port in &compiled.io.outputs {
            for &slot in &port.bits {
                black_box(gpu.peek_lanes(slot));
            }
        }
    }
    m.set("vgpu.step_p50_us", quantile(&sorted(step_s), 0.5) * 1e6);
    (0..compiled.bitstream.global_bits)
        .map(|i| gpu.peek_lanes(i))
        .collect()
}
