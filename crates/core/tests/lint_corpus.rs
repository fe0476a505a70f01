//! Lint-fixture and clean-corpus gates for the static analyzer.
//!
//! Two directions, both load-bearing for `docs/ANALYZE.md`'s contract:
//!
//! * every fixture under `examples/designs/bad/` trips exactly its
//!   advertised diagnostic code, with a concrete (net-naming) witness —
//!   the analyzer's findings are stable, documented API;
//! * every shipping example design and a 25-seed slice of the fuzz
//!   corpus analyze **clean of warnings** and compile to a certified
//!   schedule — the analyzer does not cry wolf on valid designs, and
//!   the happens-before certifier covers the whole corpus.

use gem_analyze::{analyze_module, analyze_with_lints, Severity};
use gem_core::{compile, compile_verilog, CompileOptions, Compiled};
use gem_netlist::verilog;
use gem_sim::{random_module, FuzzConfig};
use std::path::{Path, PathBuf};

fn repo_dir(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"))
}

/// The violations the compile's `verify` stage counted: the schedule is
/// certified when that stage ran and found none.
fn verify_violations(c: &Compiled) -> Option<f64> {
    c.flow.stage("verify")?.metric("violations")
}

fn verilog_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {dir:?}: {e}"))
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "v"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no .v files under {dir:?}");
    files
}

/// Each bad fixture yields its advertised code at its advertised
/// severity, and the witness names at least one source-level net.
#[test]
fn bad_fixtures_trip_their_advertised_codes() {
    let expected: &[(&str, &str, Severity, &str)] = &[
        ("comb_loop.v", "GEM-L001", Severity::Error, "fb"),
        ("multi_driven.v", "GEM-L003", Severity::Error, "y"),
        ("dead_cone.v", "GEM-L006", Severity::Info, "unused"),
        ("width_mismatch.v", "GEM-L005", Severity::Warning, "y"),
        ("part_select.v", "GEM-L004", Severity::Error, "gate"),
    ];
    let dir = repo_dir("examples/designs/bad");
    for &(file, code, severity, witness_names) in expected {
        let path = dir.join(file);
        let (module, lints) = verilog::parse_with_lints(&read(&path))
            .unwrap_or_else(|e| panic!("{file} must parse (analysis explains it): {e}"));
        let report = analyze_with_lints(&module, &lints);
        let hit = report
            .diagnostics
            .iter()
            .find(|d| d.code == code)
            .unwrap_or_else(|| panic!("{file}: expected {code}, got {}", report.summary()));
        assert_eq!(hit.severity, severity, "{file}: {hit}");
        assert!(
            hit.witness.contains(witness_names),
            "{file}: witness must name {witness_names:?}, got {:?}",
            hit.witness
        );
    }
    // The fixture set and the expectation table stay in lockstep.
    assert_eq!(verilog_files(&dir).len(), expected.len());
}

/// The error-severity fixtures are exactly what `compile_verilog`
/// rejects — same code, same witness — so `gem run` on a bad design
/// tells the user which nets to look at.
#[test]
fn error_fixtures_fail_compile_with_named_witness() {
    let dir = repo_dir("examples/designs/bad");
    for (file, code, net) in [
        ("comb_loop.v", "GEM-L001", "fb"),
        ("multi_driven.v", "GEM-L003", "y"),
        ("part_select.v", "GEM-L004", "gate"),
    ] {
        let err = compile_verilog(&read(&dir.join(file)), &CompileOptions::small())
            .expect_err(file)
            .to_string();
        assert!(err.contains(code), "{file}: {err}");
        assert!(err.contains(net), "{file} must name {net:?}: {err}");
    }
}

/// One checker, one verdict: what `finish()` refuses, `validate`,
/// `analyze_module` and `compile` refuse too — including the two rules
/// only `validate` used to know, which `compile(&Module)` let through.
#[test]
fn compile_refuses_exactly_what_finish_refuses() {
    use gem_netlist::{validate, ModuleBuilder};
    let zero_width = || {
        let mut b = ModuleBuilder::new("zero");
        let a = b.input("a", 0);
        b.output("y", a);
        b
    };
    let duplicate_port = || {
        let mut b = ModuleBuilder::new("dup");
        let a = b.input("a", 1);
        b.input("a", 1);
        b.output("y", a);
        b
    };
    for (build, code) in [
        (&zero_width as &dyn Fn() -> ModuleBuilder, "GEM-L008"),
        (&duplicate_port, "GEM-L009"),
    ] {
        assert!(build().finish().is_err(), "{code}: finish");
        let m = build().finish_raw();
        assert!(validate(&m).is_err(), "{code}: validate");
        let report = analyze_module(&m);
        assert!(
            report.errors().any(|d| d.code == code),
            "{code}: {}",
            report.summary()
        );
        match compile(&m, &CompileOptions::small()) {
            Err(gem_core::CompileError::Analyze(why)) => assert!(why.contains(code), "{why}"),
            other => panic!("{code}: compile must refuse, got {:?}", other.map(|_| ())),
        }
    }
    // The 257-driver text: the count used to wrap to one in release.
    let src = format!(
        "module m(input a, output y);\n{}endmodule",
        "assign y = a;\n".repeat(257)
    );
    assert!(verilog::parse(&src).is_err());
    let (m, lints) = verilog::parse_with_lints(&src).expect("elaborates");
    assert!(validate(&m).is_err());
    let report = analyze_with_lints(&m, &lints);
    let l003 = report
        .errors()
        .find(|d| d.code == "GEM-L003")
        .expect("L003");
    assert!(l003.message.contains("257 drivers"), "{l003}");
    let err = compile_verilog(&src, &CompileOptions::small()).expect_err("refused");
    assert!(err.to_string().contains("GEM-L003"), "{err}");
}

/// Every shipping example design analyzes with zero warnings and
/// compiles to a certified schedule.
#[test]
fn example_corpus_is_warning_free_and_certified() {
    for path in verilog_files(&repo_dir("examples/designs")) {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let (module, lints) =
            verilog::parse_with_lints(&read(&path)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = analyze_with_lints(&module, &lints);
        assert!(
            report.clean(Severity::Warning),
            "{name} must be warning-free: {}",
            report.summary()
        );
        let compiled = compile_verilog(&read(&path), &CompileOptions::small())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            verify_violations(&compiled),
            Some(0.0),
            "{name} must certify"
        );
        let cert = compiled.schedule_cert;
        assert_eq!(cert.reads, cert.barrier_edges + cert.boundary_edges);
    }
}

/// 25 fuzz seeds: the analyzer stays silent on generated-valid designs
/// and every one certifies.
#[test]
fn fuzz_corpus_is_warning_free_and_certified() {
    for seed in 0..25 {
        let module = random_module(seed, &FuzzConfig::for_seed(seed));
        let report = analyze_module(&module);
        assert!(
            report.clean(Severity::Warning),
            "seed {seed} must be warning-free: {}",
            report.summary()
        );
        let compiled = compile(&module, &CompileOptions::small())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(
            verify_violations(&compiled),
            Some(0.0),
            "seed {seed} must certify"
        );
    }
}
