//! Golden waveform regression corpus for the example designs.
//!
//! Every design under `examples/designs/` is compiled (verifier on),
//! driven with a fixed seeded stimulus, and its output waveform dumped
//! as VCD. The FNV-1a digest of that text is pinned under
//! `tests/golden/<design>.digest` — any change to synthesis, placement,
//! encoding, or the simulator that alters observable behavior shows up
//! as a digest mismatch naming the design.
//!
//! The compiler's output is pinned too: `tests/golden/<case>.gemb.digest`
//! holds the same digest of `Bitstream::to_bytes()` for every example
//! design and for a few generated designs (wide and narrow cores, one and
//! two stages, timing-driven and FIFO placement). A compile-time
//! optimisation that claims to change no mapping decision has to leave
//! every one of them alone.
//!
//! To re-bless after an *intentional* behavioral change:
//!
//! ```text
//! GEM_BLESS=1 cargo test --test golden_vcd
//! ```
//!
//! then review the `.digest` diff like any other golden-file change.

use gem_core::{compile, CompileOptions, GemSimulator};
use gem_designs::{gemmini_like, openpiton_like};
use gem_netlist::vcd::VcdWriter;
use gem_netlist::verilog;
use gem_sim::FuzzRng;
use std::path::Path;

const CYCLES: u64 = 48;

/// FNV-1a over the VCD text or the bitstream bytes: stable,
/// dependency-free, and mismatch messages stay short (a full-text golden
/// would drown the diff).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Holds `bytes` against the digest pinned in `tests/golden/<file>`
/// (writes it instead under `GEM_BLESS`); a mismatch is returned as one
/// line naming the case.
fn check_pinned(file: &str, bytes: &[u8]) -> Option<String> {
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let golden_path = golden_dir.join(file);
    let digest = format!("{:016x}\n", fnv1a(bytes));
    if std::env::var_os("GEM_BLESS").is_some() {
        std::fs::create_dir_all(&golden_dir).expect("mkdir tests/golden");
        std::fs::write(&golden_path, &digest).expect("write digest");
        return None;
    }
    let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|_| {
        panic!(
            "no golden digest at {} — run GEM_BLESS=1 cargo test --test golden_vcd",
            golden_path.display()
        )
    });
    (want != digest).then(|| format!("{file}: digest {} != golden {}", digest.trim(), want.trim()))
}

/// Compiles one design and records its outputs for [`CYCLES`] cycles of
/// seeded random stimulus into a VCD document; also returns the
/// serialized bitstream the waveform was simulated from.
fn waveform(path: &Path) -> (String, Vec<u8>) {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let name = path.file_stem().unwrap().to_string_lossy().into_owned();
    let module = verilog::parse(&src).unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
    let opts = CompileOptions {
        core_width: 256,
        target_parts: 4,
        ..Default::default()
    };
    let compiled = compile(&module, &opts).unwrap_or_else(|e| panic!("{name}: compile: {e}"));
    let verify = compiled.flow.stage("verify");
    assert_eq!(
        verify.and_then(|st| st.metric("violations")),
        Some(0.0),
        "{name}: verifier did not run"
    );

    let mut w = VcdWriter::new(&name);
    let vars: Vec<_> = module
        .outputs()
        .map(|p| (p.name.clone(), w.add_var(&p.name, module.width(p.net))))
        .collect();
    w.begin();
    let mut sim = GemSimulator::new(&compiled).unwrap_or_else(|e| panic!("{name}: {e}"));
    // The stimulus seed is part of the golden contract — changing it
    // invalidates every digest.
    let mut stim = FuzzRng::new(0x601D);
    for cycle in 0..CYCLES {
        for p in module.inputs() {
            sim.set_input(&p.name, stim.bits(module.width(p.net)));
        }
        sim.step();
        w.timestamp(cycle);
        for (pname, var) in &vars {
            w.change(*var, &sim.output(pname));
        }
    }
    (w.finish(), compiled.bitstream.to_bytes())
}

/// The same waveform extracted from lane 0 of a full-width 64-lane
/// batch: lane 0 replays the pinned golden stimulus while every other
/// lane runs its own unrelated stream. The digest must match the scalar
/// run's — lane batching must not perturb observable behavior, at any
/// machine word width.
fn lane_zero_waveform(path: &Path) -> String {
    const LANES: u32 = GemSimulator::MAX_LANES;
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let name = path.file_stem().unwrap().to_string_lossy().into_owned();
    let module = verilog::parse(&src).unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
    let opts = CompileOptions {
        core_width: 256,
        target_parts: 4,
        ..Default::default()
    };
    let compiled = compile(&module, &opts).unwrap_or_else(|e| panic!("{name}: compile: {e}"));

    let mut w = VcdWriter::new(&name);
    let vars: Vec<_> = module
        .outputs()
        .map(|p| (p.name.clone(), w.add_var(&p.name, module.width(p.net))))
        .collect();
    w.begin();
    let mut sim = GemSimulator::new(&compiled).unwrap_or_else(|e| panic!("{name}: {e}"));
    sim.set_lanes(LANES)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    // Lane 0 replays the golden stimulus seed; the other 63 lanes run
    // unrelated streams that must not leak into lane 0's waveform.
    let mut stim = FuzzRng::new(0x601D);
    let mut noise: Vec<FuzzRng> = (1..LANES)
        .map(|lane| FuzzRng::new(0xD15_7A4C ^ u64::from(lane)))
        .collect();
    for cycle in 0..CYCLES {
        for p in module.inputs() {
            let width = module.width(p.net);
            sim.set_input_lane(&p.name, 0, stim.bits(width));
            for (k, rng) in noise.iter_mut().enumerate() {
                sim.set_input_lane(&p.name, k as u32 + 1, rng.bits(width));
            }
        }
        sim.step();
        w.timestamp(cycle);
        for (pname, var) in &vars {
            w.change(*var, &sim.output_lane(pname, 0));
        }
    }
    w.finish()
}

#[test]
fn lane_zero_of_batch_matches_golden_digests() {
    const LANES: u32 = GemSimulator::MAX_LANES;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden_dir = root.join("tests/golden");
    // The named corpus designs the issue pins; new designs are covered
    // by the scalar test above without forcing a lane run.
    for name in ["counter", "alu", "regfile"] {
        let path = root.join(format!("examples/designs/{name}.v"));
        let want = std::fs::read_to_string(golden_dir.join(format!("{name}.digest")))
            .unwrap_or_else(|_| panic!("{name}: no pinned golden digest"));
        let digest = format!("{:016x}\n", fnv1a(lane_zero_waveform(&path).as_bytes()));
        assert_eq!(
            digest, want,
            "{name}: lane 0 of a {LANES}-lane batch diverged from the pinned scalar waveform"
        );
    }
}

#[test]
fn example_designs_match_golden_digests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let designs_dir = root.join("examples/designs");

    let mut paths: Vec<_> = std::fs::read_dir(&designs_dir)
        .expect("examples/designs exists")
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "v"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 3,
        "golden corpus lost designs: {}",
        paths.len()
    );

    let mut mismatches = Vec::new();
    for path in &paths {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let (vcd, gemb) = waveform(path);
        mismatches.extend(check_pinned(&format!("{name}.digest"), vcd.as_bytes()));
        mismatches.extend(check_pinned(&format!("{name}.gemb.digest"), &gemb));
    }
    assert!(
        mismatches.is_empty(),
        "observable behavior changed (re-bless only if intentional):\n  {}",
        mismatches.join("\n  ")
    );
}

/// Compiles each generated case and holds its serialized bitstream
/// against the pinned digest.
fn assert_bitstreams_pinned(cases: &[(&str, gem_designs::Design, CompileOptions)]) {
    let mismatches: Vec<String> = cases
        .iter()
        .filter_map(|(case, design, opts)| {
            let compiled =
                compile(&design.module, opts).unwrap_or_else(|e| panic!("{case}: compile: {e}"));
            check_pinned(
                &format!("{case}.gemb.digest"),
                &compiled.bitstream.to_bytes(),
            )
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "the compiler made a different mapping decision (re-bless only if intentional):\n  {}",
        mismatches.join("\n  ")
    );
}

/// Bitstream identity on generated designs that reach what the three
/// example designs do not: a core wide enough that a fold level holds
/// far more slots than the placer tries, a two-stage flow on narrow
/// cores, and FIFO placement.
#[test]
fn generated_designs_match_bitstream_digests() {
    let opts = |stages, core_width, timing_driven| CompileOptions {
        target_parts: 8,
        stages,
        core_width,
        timing_driven,
        ..Default::default()
    };
    assert_bitstreams_pinned(&[
        ("piton1_s1_w2048", openpiton_like(1), opts(1, 2048, true)),
        ("gemmini4_s2_w256", gemmini_like(4), opts(2, 256, true)),
        (
            "piton2_s2_w1024_fifo",
            openpiton_like(2),
            opts(2, 1024, false),
        ),
    ]);
}

/// The two ladder designs at the ladder's mapping options
/// (`benchmark/src/dut.rs::sim_options`). Seconds each in a release
/// build, so CI runs it there with `--include-ignored`.
#[test]
#[ignore = "compiles the ladder designs; run in release"]
fn ladder_designs_match_bitstream_digests() {
    let opts = CompileOptions {
        target_parts: 16,
        stages: 2,
        core_width: 2048,
        ..Default::default()
    };
    assert_bitstreams_pinned(&[
        ("gemmini12_ladder", gemmini_like(12), opts.clone()),
        ("piton8_ladder", openpiton_like(8), opts),
    ]);
}

/// A full-width 64-lane snapshot resumes bit-exactly, per lane: a fresh
/// simulator restored from a mid-run capture tracks the original run
/// cycle for cycle.
#[test]
fn full_width_snapshots_resume_bit_exactly() {
    const LANES: u32 = GemSimulator::MAX_LANES;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let path = root.join("examples/designs/alu.v");
    let src = std::fs::read_to_string(&path).expect("alu.v");
    let module = verilog::parse(&src).expect("parse");
    let opts = CompileOptions {
        core_width: 256,
        target_parts: 4,
        ..Default::default()
    };
    let compiled = compile(&module, &opts).expect("compile");

    // Steps `cycles` cycles of per-lane stimulus and records every lane
    // of every output after each.
    let drive = |sim: &mut GemSimulator, stims: &mut [FuzzRng], cycles: u64| {
        let mut trace = Vec::new();
        for _ in 0..cycles {
            for p in module.inputs() {
                let width = module.width(p.net);
                for (lane, rng) in stims.iter_mut().enumerate() {
                    sim.set_input_lane(&p.name, lane as u32, rng.bits(width));
                }
            }
            sim.step();
            trace.push(
                module
                    .outputs()
                    .flat_map(|p| (0..LANES).map(|l| sim.output_lane(&p.name, l)))
                    .collect::<Vec<_>>(),
            );
        }
        trace
    };
    let stims = |salt: u64| -> Vec<FuzzRng> {
        (0..LANES)
            .map(|lane| FuzzRng::new(salt ^ u64::from(lane)))
            .collect()
    };

    // Warm up, snapshot mid-run, then continue the original run.
    let mut sim = GemSimulator::new(&compiled).expect("sim");
    sim.set_lanes(LANES).expect("lanes");
    drive(&mut sim, &mut stims(0x5A9_5407), 8);
    let snap = sim.snapshot();
    let continued = drive(&mut sim, &mut stims(0x7E57_0002), 8);

    // A fresh simulator restored from the snapshot, given the identical
    // further stimulus, must agree on every lane of every output.
    let mut fresh = GemSimulator::new(&compiled).expect("sim");
    fresh.set_lanes(LANES).expect("lanes");
    fresh.restore(&snap).expect("restore");
    let resumed = drive(&mut fresh, &mut stims(0x7E57_0002), 8);
    assert_eq!(
        resumed, continued,
        "a restored 64-lane snapshot diverged from the run it was taken from"
    );
}
