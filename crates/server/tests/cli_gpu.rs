//! `gem run --gpu`: the named timing model prices every run, the
//! waveform-driven one included, and an unknown name is refused.

use std::path::PathBuf;
use std::process::{Command, Output};

const DESIGN: &str = "
module adder(input [3:0] x, input [3:0] y, output [3:0] s);
  assign s = x + y;
endmodule
";

const STIMULUS: &str = "$timescale 1ns $end\n$scope module tb $end\n\
                        $var wire 4 ! x $end\n$var wire 4 \" y $end\n\
                        $upscope $end\n$enddefinitions $end\n\
                        #0\nb0011 !\nb0001 \"\n#1\nb0100 !\nb0010 \"\n";

/// Writes the design and its stimulus under a directory of their own.
fn fixtures() -> (PathBuf, PathBuf) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_gpu");
    std::fs::create_dir_all(&dir).expect("fixture dir");
    let (design, stimulus) = (dir.join("adder.v"), dir.join("in.vcd"));
    std::fs::write(&design, DESIGN).expect("write design");
    std::fs::write(&stimulus, STIMULUS).expect("write stimulus");
    (design, stimulus)
}

fn gem_run(design: &PathBuf, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gem"))
        .arg("run")
        .arg(design)
        .args(extra)
        .output()
        .expect("gem runs")
}

#[test]
fn the_stimulus_path_prices_the_named_gpu() {
    let (design, stimulus) = fixtures();
    let out = gem_run(
        &design,
        &["--stimulus", stimulus.to_str().unwrap(), "--gpu", "3090"],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("modeled speed on RTX 3090"), "{stdout}");
}

#[test]
fn an_unknown_gpu_is_refused() {
    let (design, stimulus) = fixtures();
    for extra in [
        &["--gpu", "h100"][..],
        &["--stimulus", stimulus.to_str().unwrap(), "--gpu", "h100"],
    ] {
        let out = gem_run(&design, extra);
        assert!(!out.status.success(), "{extra:?} exited 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("h100"), "{stderr}");
    }
}
