//! Run configuration, the result line, and provenance.

use crate::spans::Recorder;
use crate::spec::{Metrics, END_TO_END, PER_LAYER};
use crate::stats::highest_supported_percentile;
use gem_telemetry::Json;
use std::path::PathBuf;
use std::process::Command;

/// Everything one workload run is told.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Clock budget of the measured phase; the run always completes
    /// `min_windows` first, so `0` makes the length count-bound.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Self-test: corrupt one reference bit; the run must fail.
    pub flip_golden: bool,
    pub setup_reps: usize,
    /// Untimed cycles before the first window (covers the program load).
    pub warmup: usize,
    /// Cycles per window (requests per client block on the server).
    pub window: usize,
    pub min_windows: usize,
    /// Repeats behind the median of each sub-second compile-flow probe.
    pub probe_reps: usize,
    /// Cycles of the bare-machine probe; passes of the kernel probes.
    pub probe_cycles: usize,
}

impl RunConfig {
    pub fn new(seed: u64, seconds: f64, trace: bool, quick: bool, flip_golden: bool) -> Self {
        if quick {
            // 1/16 of the counts, and count-bound: a smoke of every path.
            RunConfig {
                seed,
                seconds: 0.0,
                trace,
                quick,
                flip_golden,
                setup_reps: 1,
                warmup: 64,
                window: 16,
                min_windows: 4,
                probe_reps: 1,
                probe_cycles: 16,
            }
        } else {
            RunConfig {
                seed,
                seconds,
                trace,
                quick,
                flip_golden,
                setup_reps: 3,
                warmup: 256,
                window: 64,
                min_windows: 8,
                probe_reps: 3,
                probe_cycles: 256,
            }
        }
    }
}

/// What a workload hands back.
pub struct Outcome {
    /// Operations checked against the reference.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// The exactly repeatable counts, filled in traced and untraced runs
    /// alike so `check` can compare them between any two result sets.
    pub exact: Metrics,
    /// Lanes, cycle and sample counts, the output digest.
    pub detail: Json,
    pub recorder: Recorder,
}

/// FNV-1a over the values a run observed; what `check` compares to tell
/// "same outputs" from "different outputs" between two result sets.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn fold(&mut self, value: u64) {
        self.0 = (self.0 ^ value).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is a kB count");
    kib / 1024.0
}

/// Removes every `GEM_`-prefixed variable from the environment and says
/// which: the ladder measures the default configuration, whatever the
/// caller's shell exports. Called first thing in `main`, before any
/// thread exists.
pub fn unset_gem_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("GEM_"))
        .collect();
    for n in &names {
        std::env::remove_var(n);
    }
    names
}

/// The CPUs this process may run on (`Cpus_allowed_list` of
/// `/proc/self/status`, e.g. `0-1` or `0,2-3`).
pub fn allowed_cpus() -> Vec<u32> {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .expect("the kernel reports the affinity mask");
    let number = |s: &str| s.trim().parse::<u32>().expect("CPU numbers are decimal");
    list.trim()
        .split(',')
        .flat_map(|range| match range.split_once('-') {
            Some((lo, hi)) => number(lo)..=number(hi),
            None => number(range)..=number(range),
        })
        .collect()
}

/// Set in the environment of a run that [`rerun_on_one_cpu`] started, so
/// it does not start another.
const PINNED_MARK: &str = "LADDER_PINNED";

/// Runs this very command again confined to one CPU (`taskset -c N`, the
/// highest-numbered CPU allowed, away from CPU 0's interrupts) and returns
/// its exit code; `None` when this process is that run already, has one
/// CPU anyway, or `taskset` cannot be used (said on stderr — the numbers
/// of such a run follow the scheduler).
///
/// Why: with two or more CPUs the default engine runs a coordinator and
/// one worker per CPU, and on the sandbox's two shared virtual CPUs a
/// step then takes 1.3 ms or 2.0 ms depending on which threads the guest
/// scheduler has put together, switching about once a second; runs of one
/// binary differ by 25 %. On one CPU `available_parallelism` is 1, the
/// same default configuration resolves to one thread, and runs agree to
/// 2 %. No thread knob is named: this is the default engine as a one-CPU
/// host runs it.
pub fn rerun_on_one_cpu() -> Option<std::process::ExitCode> {
    if std::env::var_os(PINNED_MARK).is_some() {
        return None;
    }
    let cpu = match allowed_cpus().as_slice() {
        [] | [_] => return None,
        [.., last] => last.to_string(),
    };
    let usable = Command::new("taskset")
        .args(["-c", &cpu, "true"])
        .status()
        .is_ok_and(|s| s.success());
    if !usable {
        eprintln!("gem-ladder: taskset is not usable here; running on every CPU, timings will be unsteady");
        return None;
    }
    let exe = std::env::current_exe().expect("the running binary has a path");
    let status = Command::new("taskset")
        .args(["-c", &cpu])
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(PINNED_MARK, &cpu)
        .status()
        .expect("taskset started a moment ago");
    // Killed by a signal: no code to pass on, but not a success either.
    Some(std::process::ExitCode::from(
        status.code().unwrap_or(1) as u8
    ))
}

/// Where trace and result files go: `ladder/` beside the profile
/// directory the running binary was built into, i.e. inside whichever
/// target directory cargo used.
pub fn output_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let dir = exe
        .parent()
        .and_then(|p| p.parent())
        .expect("cargo puts binaries two levels into the target directory")
        .join("ladder");
    std::fs::create_dir_all(&dir).expect("target directory is writable");
    dir
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Who measured, on what: commit and dirty flag (`unknown` outside a git
/// checkout), compiler, cores as this process sees them, and the `GEM_*`
/// variables that were unset.
pub fn provenance(seed: u64, unset: &[String]) -> Json {
    let mut p = Json::object();
    let commit = command_line("git", &["rev-parse", "HEAD"]);
    p.set("commit", commit.as_deref().unwrap_or("unknown"));
    match command_line("git", &["status", "--porcelain"]) {
        Some(s) => p.set("dirty", !s.is_empty()),
        None => p.set("dirty", Json::Null),
    }
    let rustc = command_line("rustc", &["-V"]);
    p.set("rustc", rustc.as_deref().unwrap_or("unknown"));
    p.set(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    p.set("cpus_allowed", allowed_cpus());
    p.set("seed", seed);
    p.set("unset_env", unset.to_vec());
    p
}

/// Prints the run for a reader, then the `detail` line the ladder parent
/// parses, then — last — the one-object result line of the contract.
pub fn print(workload: &str, cfg: &RunConfig, outcome: &Outcome, unset: &[String]) {
    let table: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "workload {workload}  seed {}  trace {}  ({})",
        cfg.seed,
        u8::from(cfg.trace),
        if cfg.trace { "per-layer" } else { "end-to-end" }
    );
    for (name, unit) in table {
        let v = outcome.metrics.get(name).unwrap_or(0.0);
        println!("  {name:<34} {v:>16.4} {unit}");
    }
    // Not gated (they follow the sandbox's neighbours more than the
    // code; see README.md), but a reader wants them next to the floor.
    for (key, unit) in [
        ("lane_cycles_per_s", "cycle/s"),
        ("step_p50_ms", "ms"),
        ("step_p90_ms", "ms"),
    ] {
        if let Some(v) = outcome.detail.get(key).and_then(Json::as_f64) {
            println!("  ({key:<32} {v:>16.4} {unit}, for the reader)");
        }
    }
    let samples = outcome
        .detail
        .get("step_samples")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    match highest_supported_percentile(samples as usize) {
        Some(p) => println!(
            "  {samples} step samples; the highest percentile with ten samples beyond it is p{}",
            p * 100.0
        ),
        None => println!("  {samples} step samples; too few for any percentile"),
    }
    println!(
        "  checked {} operations against the reference, {} failed",
        outcome.attempted, outcome.failed
    );
    if cfg.trace {
        println!("  layer self time (span minus children):");
        for (layer, secs) in outcome.recorder.self_seconds_by_layer() {
            println!("    {layer:<10} {secs:>10.4} s");
        }
    }

    let mut detail = outcome.detail.clone();
    detail.set("workload", workload);
    detail.set("seed", cfg.seed);
    detail.set("trace", cfg.trace);
    detail.set("quick", cfg.quick);
    detail.set("exact", outcome.exact.to_json_values());
    detail.set("unset_env", unset.to_vec());
    detail.set("cpus_allowed", allowed_cpus());
    println!("detail {detail}");

    let mut line = Json::object();
    line.set("correct", outcome.failed == 0);
    line.set("attempted", outcome.attempted);
    line.set("failed", outcome.failed);
    line.set("metrics", outcome.metrics.to_json(table));
    println!("{line}");
}
