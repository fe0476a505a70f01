//! The `gem` CLI's argument scan and `run --poke`: a flag's value is never
//! taken for the input, a flag the subcommand does not list is refused by
//! name, and a poked value must fit its port, however wide. A stimulus
//! waveform whose time runs backwards is refused naming its line.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A 72-bit input next to an 8-bit one, each visible on an output.
const WIDE: &str = "
module wide(input [71:0] x, input [7:0] a, output [7:0] hi, output [7:0] lo);
  assign hi = x[71:64];
  assign lo = a;
endmodule
";

fn counter() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/designs/counter.v")
}

/// Writes [`WIDE`] under a directory of its own, one per test: tests run
/// in parallel.
fn wide(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("cli_args")
        .join(test);
    std::fs::create_dir_all(&dir).expect("fixture dir");
    let design = dir.join("wide.v");
    std::fs::write(&design, WIDE).expect("write design");
    design
}

fn gem(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gem"))
        .args(args)
        .output()
        .expect("gem runs")
}

/// Exits 1 with an error on stderr (not a panic's 101) that contains
/// `needle`.
fn assert_refused(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(needle), "{stderr}");
}

#[test]
fn a_flag_before_the_input_keeps_its_value() {
    let counter = counter();
    let out = gem(&["run", "--cycles", "2", counter.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rows: Vec<&str> = stdout
        .lines()
        .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
        .collect();
    assert_eq!(rows.len(), 2, "{stdout}");
}

#[test]
fn a_misspelled_flag_is_refused_by_name() {
    let counter = counter();
    let out = gem(&["run", counter.to_str().unwrap(), "--cycle", "3"]);
    assert_refused(&out, "\"--cycle\"");
    // A flag of another subcommand is as unknown here.
    let out = gem(&["stats", counter.to_str().unwrap(), "--cycles", "3"]);
    assert_refused(&out, "\"--cycles\"");
    // The client checks its action's flags before it connects.
    let out = gem(&[
        "client",
        "--addr",
        "127.0.0.1:1",
        "step",
        "--session",
        "1",
        "--cycle",
        "3",
    ]);
    assert_refused(&out, "\"--cycle\"");
}

#[test]
fn a_value_flag_without_its_value_is_refused() {
    let counter = counter();
    let out = gem(&["run", counter.to_str().unwrap(), "--cycles"]);
    assert_refused(&out, "--cycles expects a value");
}

#[test]
fn a_poke_wider_than_its_port_is_refused() {
    let wide = wide("refused");
    let out = gem(&[
        "run",
        wide.to_str().unwrap(),
        "--cycles",
        "1",
        "--poke",
        "a=1ff",
    ]);
    assert_refused(&out, "does not fit in 8 bit(s)");
    let out = gem(&[
        "run",
        wide.to_str().unwrap(),
        "--cycles",
        "1",
        "--poke",
        "x=1ffffffffffffffffff",
    ]);
    assert_refused(&out, "does not fit in 72 bit(s)");
}

#[test]
fn a_poke_wider_than_64_bits_reaches_the_port() {
    let wide = wide("reaches");
    let out = gem(&[
        "run",
        wide.to_str().unwrap(),
        "--cycles",
        "1",
        "--poke",
        "x=ab0000000000000000",
        "--poke",
        "a=0xff",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Columns: cycle, hi = x[71:64] = 0xab, lo = a = 0xff.
    let row: Vec<&str> = stdout
        .lines()
        .find(|l| l.trim_start().starts_with('0'))
        .expect("one cycle row")
        .split_whitespace()
        .collect();
    assert_eq!(row, ["0", "171", "255"], "{stdout}");
}

#[test]
fn a_stimulus_whose_time_runs_backwards_is_refused() {
    let wide = wide("backwards");
    let stim = wide.with_file_name("backwards.vcd");
    std::fs::write(
        &stim,
        "$scope module tb $end\n$var wire 8 ! a $end\n$upscope $end\n\
         $enddefinitions $end\n#10\nb1 !\n#5\nb10 !\n",
    )
    .expect("write stimulus");
    let out = gem(&[
        "run",
        wide.to_str().unwrap(),
        "--stimulus",
        stim.to_str().unwrap(),
    ]);
    assert_refused(&out, "line 7: timestamp #5 goes back from #10");
}
