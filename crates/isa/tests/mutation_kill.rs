//! Mutation self-test: the verifier must kill every mutant.
//!
//! For each [`MutationClass`] the harness corrupts known-good compiled
//! bitstreams (a deep combinational design, a counter, a RAM design,
//! and a handful of fuzz-generated modules) with several seeds and
//! asserts [`gem_isa::verify_bitstream`] rejects every single mutant. A
//! surviving mutant means a verifier check regressed — the failure
//! message names the class and seed, which reproduce the mutant
//! deterministically.
//!
//! The dual baseline — every *unmutated* bitstream must verify clean —
//! keeps the harness honest: a verifier that rejects everything would
//! also "kill" all mutants.

use gem_core::{compile, CompileOptions, Compiled};
use gem_isa::mutate::{mutate, MutationClass, ALL_CLASSES};
use gem_isa::verify::Violation;
use gem_isa::{verify_bitstream, ScheduleCert, VerifyContext, VerifyReport};
use gem_netlist::{Module, ModuleBuilder, ReadKind};
use gem_sim::{random_module, FuzzConfig};

/// Deep chained arithmetic: enough logic levels for multi-layer
/// boomerang programs, and enough width pressure (at `core_width` 32)
/// to split across cores so cross-core messages exist.
fn deep_logic() -> Module {
    let mut b = ModuleBuilder::new("deep");
    let a = b.input("a", 8);
    let c = b.input("b", 8);
    let mut x = b.add(a, c);
    for _ in 0..6 {
        x = b.add(x, a);
        x = b.xor(x, c);
    }
    b.output("y", x);
    b.finish().expect("deep fixture is valid")
}

/// A gated counter: sequential state with deferred write-back.
fn counter() -> Module {
    let mut b = ModuleBuilder::new("counter");
    let en = b.input("en", 1);
    let q = b.dff(8);
    let one = b.lit(1, 8);
    let next = b.add(q, one);
    let en = b.bit(en, 0);
    b.dff_enable(q, en);
    b.connect_dff(q, next);
    b.output("q", q);
    b.finish().expect("counter fixture is valid")
}

/// A 16×8 memory with both read kinds: RAM operand slots and the
/// async-read polyfill in one design.
fn ram_design() -> Module {
    let mut b = ModuleBuilder::new("ram");
    let wa = b.input("wa", 4);
    let wd = b.input("wd", 8);
    let we = b.input("we", 1);
    let ra = b.input("ra", 4);
    let mem = b.memory("m", 16, 8);
    let we = b.bit(we, 0);
    b.write_port(mem, wa, wd, we);
    let sq = b.read_port(mem, ra, ReadKind::Sync);
    let aq = b.read_port(mem, ra, ReadKind::Async);
    b.output("sq", sq);
    b.output("aq", aq);
    b.finish().expect("ram fixture is valid")
}

/// Narrow cores and several partitions across two stages force
/// multi-core placements, so message-level mutations have material to
/// bite on.
fn opts() -> CompileOptions {
    CompileOptions {
        core_width: 64,
        target_parts: 4,
        stages: 2,
        ..Default::default()
    }
}

/// The fixture set: three hand-written shapes plus fuzz designs.
fn fixtures() -> Vec<(String, Compiled)> {
    let mut out = Vec::new();
    for (name, m) in [
        ("deep", deep_logic()),
        ("counter", counter()),
        ("ram", ram_design()),
    ] {
        let c = compile(&m, &opts())
            .or_else(|_| {
                compile(
                    &m,
                    &CompileOptions {
                        core_width: 256,
                        ..opts()
                    },
                )
            })
            .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
        out.push((name.to_string(), c));
    }
    for seed in [3u64, 11, 19] {
        let m = random_module(seed, &FuzzConfig::for_seed(seed));
        let o = CompileOptions {
            core_width: 64,
            target_parts: 4,
            ..Default::default()
        };
        let c = compile(&m, &o)
            .or_else(|_| {
                compile(
                    &m,
                    &CompileOptions {
                        core_width: 256,
                        ..o
                    },
                )
            })
            .unwrap_or_else(|e| panic!("fuzz seed {seed}: compile failed: {e}"));
        out.push((format!("fuzz{seed}"), c));
    }
    out
}

/// Baseline: every unmutated fixture passes all checks. (A verifier
/// that flags everything would trivially "kill" all mutants below.)
#[test]
fn unmutated_fixtures_verify_clean() {
    for (name, c) in fixtures() {
        let report = c.verify();
        assert!(
            report.passed(),
            "{name}: clean bitstream flagged:\n{}",
            report.summary()
        );
        // Every check family actually ran.
        assert_eq!(report.checks.len(), gem_isa::verify::CHECK_NAMES.len());
    }
}

/// The headline: every applicable (class, seed, fixture) mutant is
/// killed, and every class is exercised by at least three mutants.
#[test]
fn verifier_kills_every_mutant_class() {
    let fixtures = fixtures();
    let mut report_lines = Vec::new();
    for class in ALL_CLASSES {
        let mut kills = 0usize;
        let mut survivors: Vec<String> = Vec::new();
        for (name, c) in &fixtures {
            let ctx = gem_core::verify::context(&c.device, &c.io, Some(&c.programs));
            for seed in 1..=4u64 {
                let Some(mutant) = mutate(&c.bitstream, class, seed) else {
                    continue;
                };
                assert_ne!(
                    mutant, c.bitstream,
                    "{class} seed {seed} on {name}: mutator returned the original"
                );
                let vr = verify_bitstream(&mutant, &ctx);
                if vr.passed() {
                    survivors.push(format!("{name} seed {seed}"));
                } else {
                    kills += 1;
                }
            }
        }
        assert!(
            survivors.is_empty(),
            "class {class}: mutants SURVIVED verification: {survivors:?}"
        );
        assert!(
            kills >= 3,
            "class {class}: only {kills} mutants applied across the fixture set \
             (need ≥3 for meaningful coverage — extend the fixtures)"
        );
        report_lines.push(format!("{class}: {kills} mutants, {kills} killed"));
    }
    eprintln!("mutation kill matrix:\n  {}", report_lines.join("\n  "));
}

/// Program-free drill: the classes advertised as detectable without
/// placement metadata really are — the same mutants must die even when
/// `ctx.programs` is `None` (the `.gemb` package situation).
#[test]
fn program_free_classes_die_without_placement_metadata() {
    let fixtures = fixtures();
    for class in gem_isa::mutate::PROGRAM_FREE_CLASSES {
        let mut kills = 0usize;
        for (name, c) in &fixtures {
            let ctx = gem_core::verify::context(&c.device, &c.io, None);
            for seed in 1..=4u64 {
                let Some(mutant) = mutate(&c.bitstream, class, seed) else {
                    continue;
                };
                let vr = verify_bitstream(&mutant, &ctx);
                assert!(
                    !vr.passed(),
                    "{class} seed {seed} on {name}: survived a program-free verify"
                );
                kills += 1;
            }
        }
        assert!(
            kills >= 3,
            "class {class}: only {kills} program-free mutants"
        );
    }
}

/// The send/receive classes — lost and duplicated sends, and the two
/// races — must be killed *by the happens-before checker itself*: the
/// `schedule` check family flags them and [`gem_isa::certify_schedule`]
/// refuses to certify the mutant, not merely some other family happening
/// to trip. This is the static counterpart of the runtime-divergence
/// argument: the race never needs to manifest on hardware to be
/// rejected.
#[test]
fn schedule_checker_kills_every_send_class() {
    let fixtures = fixtures();
    for class in [
        MutationClass::DropWrite,
        MutationClass::DupWrite,
        MutationClass::MsgBeforeProducer,
        MutationClass::DualWriterSameSlot,
    ] {
        let mut kills = 0usize;
        for (name, c) in &fixtures {
            let ctx = gem_core::verify::context(&c.device, &c.io, None);
            assert!(
                gem_isa::certify_schedule(&c.bitstream, &ctx).is_ok(),
                "{name}: clean bitstream must certify"
            );
            for seed in 1..=4u64 {
                let Some(mutant) = mutate(&c.bitstream, class, seed) else {
                    continue;
                };
                let vr = verify_bitstream(&mutant, &ctx);
                let sched = vr.check("schedule").expect("schedule family ran");
                assert!(
                    sched.violations > 0,
                    "{class} seed {seed} on {name}: not flagged by the \
                     schedule check itself ({})",
                    vr.summary()
                );
                let errs =
                    gem_isa::certify_schedule(&mutant, &ctx).expect_err("mutant must not certify");
                assert!(errs.iter().all(|e| e.check == "schedule"));
                kills += 1;
            }
        }
        assert!(
            kills >= 3,
            "class {class}: only {kills} send mutants applied"
        );
    }
}

/// Merge-only classes (excluded from `PROGRAM_FREE_CLASSES`) must still
/// die when programs *are* present — otherwise the exclusion list is
/// hiding a verifier gap rather than a metadata limitation.
#[test]
fn merge_only_classes_die_with_placement_metadata() {
    let fixtures = fixtures();
    for class in [
        MutationClass::SwapLayers,
        MutationClass::PermRetarget,
        MutationClass::FoldFlip,
    ] {
        let mut kills = 0usize;
        for (name, c) in &fixtures {
            let ctx = gem_core::verify::context(&c.device, &c.io, Some(&c.programs));
            for seed in 1..=4u64 {
                let Some(mutant) = mutate(&c.bitstream, class, seed) else {
                    continue;
                };
                let vr = verify_bitstream(&mutant, &ctx);
                assert!(
                    !vr.passed(),
                    "{class} seed {seed} on {name}: survived with programs present"
                );
                kills += 1;
            }
        }
        assert!(kills >= 3, "class {class}: only {kills} mutants applied");
    }
}

/// FNV-1a, continued over `bytes`.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01B3);
    }
}

/// Folds into `h` everything a [`VerifyReport`] says but its wall
/// times: the core count, each check's name and violation count, every
/// violation's check, location and message in report order, and the
/// certificate.
fn fold_report(h: &mut u64, r: &VerifyReport) {
    fnv1a(h, format!("cores {}\n", r.cores).as_bytes());
    for c in &r.checks {
        fnv1a(h, format!("{} {}\n", c.name, c.violations).as_bytes());
    }
    for v in &r.violations {
        fnv1a(
            h,
            format!("{} {:?} {}\n", v.check, v.location, v.message).as_bytes(),
        );
    }
    fnv1a(h, format!("{:?}\n", r.cert).as_bytes());
}

/// Folds into `h` one [`gem_isa::certify_schedule`] result: the
/// certificate, or every refusing violation in order.
fn fold_certify(h: &mut u64, r: &Result<ScheduleCert, Vec<Violation>>) {
    match r {
        Ok(cert) => fnv1a(h, format!("ok {cert:?}\n").as_bytes()),
        Err(vs) => {
            for v in vs {
                fnv1a(
                    h,
                    format!("{} {:?} {}\n", v.check, v.location, v.message).as_bytes(),
                );
            }
        }
    }
}

/// The verifier's and the certifier's answers, pinned: every seeded
/// mutant of every fixture, and every clean fixture and example design,
/// each under three contexts (with placement programs, without, and
/// without but carrying the clean compile's stored certificate). One
/// digest folds every [`VerifyReport`], the other every
/// [`gem_isa::certify_schedule`] result. A change to how the gate walks
/// a bitstream that claims to keep its verdicts must leave both alone;
/// a change to a check's verdicts or messages re-pins them.
#[test]
fn verify_reports_match_their_pinned_digests() {
    let mut designs = fixtures();
    let examples = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/designs");
    for name in ["alu", "counter", "regfile"] {
        let src = std::fs::read_to_string(examples.join(format!("{name}.v"))).expect("example");
        let o = CompileOptions {
            core_width: 256,
            target_parts: 4,
            ..Default::default()
        };
        let c = gem_core::compile_verilog(&src, &o).expect("example compiles");
        designs.push((format!("example {name}"), c));
    }
    let (mut reports, mut certs) = (0xCBF2_9CE4_8422_2325u64, 0xCBF2_9CE4_8422_2325u64);
    let mut cases = 0usize;
    for (_, c) in &designs {
        let mut bitstreams = vec![c.bitstream.clone()];
        for class in ALL_CLASSES {
            for seed in 1..=4u64 {
                bitstreams.extend(mutate(&c.bitstream, class, seed));
            }
        }
        let with_programs = gem_core::verify::context(&c.device, &c.io, Some(&c.programs));
        let without = gem_core::verify::context(&c.device, &c.io, None);
        let stored = VerifyContext {
            schedule_cert: Some(&c.schedule_cert),
            ..without.clone()
        };
        for bs in &bitstreams {
            for ctx in [&with_programs, &without, &stored] {
                fold_report(&mut reports, &verify_bitstream(bs, ctx));
                fold_certify(&mut certs, &gem_isa::certify_schedule(bs, ctx));
                cases += 1;
            }
        }
    }
    assert_eq!(
        (cases, format!("{reports:016x}"), format!("{certs:016x}")),
        (
            1479,
            "04d9f41ba10d24a5".to_string(),
            "0d483ea0174680ca".to_string()
        ),
        "verify / certify digests moved"
    );
}
