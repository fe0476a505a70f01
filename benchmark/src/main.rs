//! `gem-ladder`: the repo's one benchmark.
//!
//! ```text
//! gem-ladder --workload W --seed N --seconds S --trace 0|1   one run; last line is the result object
//! gem-ladder all   [--seed N] [--seconds S] [--repeat R] [--quick]   the whole ladder, each run a child process
//! gem-ladder trace [--seed N] [--seconds S] [--quick]               only the traced (per-layer) runs
//! gem-ladder check A.json B.json [--spec BENCHMARK.json]            is B no worse than A?
//! ```
//!
//! The harness drives only the default configuration, through each
//! crate's stable public surface (see README.md, "API budget"), so the
//! knob-removing changes on the roadmap never need to edit it.

use gem_ladder::report::RunConfig;
use gem_ladder::{check, report, serverload, simload, spec};
use gem_telemetry::{parse_json, Json};
use std::process::{Command, ExitCode, Stdio};

/// `--name value` options and bare words of a command line.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }
    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| fail(&format!("{name} takes a number, not {v:?}"))),
            None => default,
        }
    }
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn fail(message: &str) -> ! {
    eprintln!("gem-ladder: {message}");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    // Every measuring command runs on one CPU (see `rerun_on_one_cpu`).
    if args.0.first().map(String::as_str) != Some("check") {
        if let Some(code) = report::rerun_on_one_cpu() {
            return code;
        }
    }
    let unset = report::unset_gem_env();
    let ok = match args.0.first().map(String::as_str) {
        Some("check") => run_check(&args),
        Some("all") => ladder(&args, &unset, args.number("--repeat", 1)),
        Some("trace") => ladder(&args, &unset, 0),
        _ => one_workload(&args, &unset),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run of one workload in this process (the benchmark driver's entry
/// point, and what `all` spawns).
fn one_workload(args: &Args, unset: &[String]) -> bool {
    let Some(workload) = args.value("--workload") else {
        fail("expected --workload <name>, or one of: all, trace, check");
    };
    if !spec::WORKLOADS.contains(&workload) {
        fail(&format!(
            "unknown workload {workload:?}; the ladder has {:?}",
            spec::WORKLOADS
        ));
    }
    let cfg = RunConfig::new(
        args.number("--seed", 1),
        args.number("--seconds", 10.0),
        args.number::<u8>("--trace", 0) != 0,
        args.flag("--quick"),
        args.flag("--flip-golden"),
    );
    let outcome = match workload {
        "server_mac" => serverload::run(&cfg),
        sim => simload::run(sim, &cfg),
    };
    if cfg.trace {
        let path = report::output_dir().join(format!("trace-{workload}.json"));
        std::fs::write(&path, outcome.recorder.chrome_trace(workload).to_string())
            .expect("trace file is writable");
        println!("trace written to {}", path.display());
    }
    report::print(workload, &cfg, &outcome, unset);
    outcome.failed == 0
}

/// Runs one workload in a child process and returns its result object
/// with the `detail` line folded in, or `None` if the child failed.
fn child_run(workload: &str, args: &Args, trace: bool) -> Option<Json> {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    for name in ["--seed", "--seconds"] {
        if let Some(v) = args.value(name) {
            cmd.args([name, v]);
        }
    }
    if args.flag("--quick") {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .expect("the ladder can start itself");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let mut result = parse_json(lines.pop()?).ok()?;
    let detail = parse_json(lines.pop()?.strip_prefix("detail ")?).ok()?;
    for line in lines {
        println!("{line}");
    }
    result.set("detail", detail);
    out.status.success().then_some(result)
}

/// The whole ladder: every workload `repeat` times untraced, then once
/// traced; one results file with provenance.
fn ladder(args: &Args, unset: &[String], repeat: usize) -> bool {
    let seed: u64 = args.number("--seed", 1);
    let mut ok = true;
    let mut workloads = Json::object();
    for workload in spec::WORKLOADS {
        let mut runs = Vec::new();
        for trace in std::iter::repeat_n(false, repeat).chain([true]) {
            match child_run(workload, args, trace) {
                Some(r) => runs.push(r),
                None => {
                    eprintln!("gem-ladder: {workload} (trace {trace}) failed");
                    ok = false;
                }
            }
        }
        let mut w = Json::object();
        w.set("runs", Json::Array(runs));
        workloads.set(workload, w);
    }
    let mut doc = Json::object();
    doc.set("provenance", report::provenance(seed, unset));
    doc.set("quick", args.flag("--quick"));
    doc.set("workloads", workloads);
    let path = match args.value("--out") {
        Some(p) => p.into(),
        None => report::output_dir().join(format!("results-seed{seed}.json")),
    };
    std::fs::write(&path, doc.to_string_pretty()).expect("results file is writable");
    println!("results written to {}", path.display());
    ok
}

fn run_check(args: &Args) -> bool {
    let read = |path: &str| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        parse_json(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
    };
    let (Some(a), Some(b)) = (args.0.get(1), args.0.get(2)) else {
        fail("usage: gem-ladder check A.json B.json [--spec BENCHMARK.json]");
    };
    let spec = read(args.value("--spec").unwrap_or("BENCHMARK.json"));
    let bounds = spec::bounds_from_benchmark_json(&spec).unwrap_or_else(|e| fail(&e));
    let pass = check::compare(&read(a), &read(b), &bounds);
    println!("{}", if pass { "PASS" } else { "FAIL" });
    pass
}
