//! `gem verify <pkg.gemb>` is the one package re-check: it checks the
//! package's stored schedule certificate, refusing a package whose
//! certificate no longer matches its bitstream, and runs the fault drills.

use gem_core::Package;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const DESIGN: &str = "
module acc(input clk, input [3:0] x, output reg [3:0] q);
  always @(posedge clk) q <= q + x;
endmodule
";

/// Compiles the design into a package under a directory of its own, one
/// per test: tests run in parallel.
fn package(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("cli_verify")
        .join(test);
    std::fs::create_dir_all(&dir).expect("fixture dir");
    let (design, pkg) = (dir.join("acc.v"), dir.join("acc.gemb"));
    std::fs::write(&design, DESIGN).expect("write design");
    let out = gem(&[
        "compile",
        design.to_str().unwrap(),
        "-o",
        pkg.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    pkg
}

fn gem(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gem"))
        .args(args)
        .output()
        .expect("gem runs")
}

fn verify(pkg: &Path) -> Output {
    gem(&["verify", pkg.to_str().unwrap()])
}

#[test]
fn a_tampered_certificate_fails_verify() {
    let pkg = package("tampered");
    let clean = verify(&pkg);
    assert!(
        clean.status.success(),
        "{}",
        String::from_utf8_lossy(&clean.stdout)
    );

    let mut p = Package::from_bytes(&std::fs::read(&pkg).unwrap()).expect("package parses");
    p.schedule_cert.table_digest ^= 1;
    let tampered = pkg.with_file_name("tampered.gemb");
    std::fs::write(&tampered, p.to_bytes()).unwrap();
    let out = verify(&tampered);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "tampered cert passed:\n{stdout}");
    assert!(stdout.contains("stored schedule certificate"), "{stdout}");
}

#[test]
fn lint_refuses_a_package_and_names_verify() {
    let pkg = package("lint");
    let out = gem(&["lint", pkg.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "lint accepted a package");
    assert!(stderr.contains("gem verify"), "{stderr}");
}

#[test]
fn a_zero_fault_seed_is_refused() {
    let pkg = package("fault0");
    let out = gem(&["verify", pkg.to_str().unwrap(), "--fault", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "seed 0 ran no drill and passed");
    assert!(stderr.contains("nonzero seed"), "{stderr}");
}
