//! `gem` — command-line front end for the GEM flow.
//!
//! ```text
//! gem compile <design.v> [-o out.gemb] [--width N] [--parts N] [--stages N]
//! gem run     <design.gemb|design.v> [--cycles N] [--poke port=hex ...]
//!             [--reset port] [--stimulus in.vcd] [--vcd out.vcd]
//!             [--gpu a100|3090]
//! gem stats   <design.v>            # Table-I style report
//! gem lint    <design.v> [--json] [--deny warnings]
//! gem verify  <design.gemb|design.v> [--fault SEED]
//! gem profile <design.v|design.gemb> [--cycles N] [--json out.json]
//! gem serve   [--addr host:port] [--workers N] [--queue N] [--cache N]
//!             [--idle-ms N] [--port-file path]
//! gem client  --addr host:port <action> [...]
//! ```
//!
//! `compile` parses the synthesizable-Verilog subset, runs the full flow
//! (synthesis → partitioning → placement → bitstream) and writes a
//! self-contained `.gemb` package. `run` executes a package (or compiles
//! a Verilog file on the fly) on the virtual GPU, printing outputs each
//! cycle, optionally dumping a VCD and reporting the modeled simulation
//! speed. `serve` starts the multi-session simulation service
//! (`docs/SERVER.md`); `client` drives one against a running server.

use gem_analyze::Severity;
use gem_core::{
    compile, replay_lanes, CompileOptions, GemSimulator, OutputRecorder, Package, ProfileOptions,
    VcdStimulus,
};
use gem_netlist::{verilog, Bits};
use gem_server::protocol::{bits_from_hex, set_lint_fields};
use gem_server::{mapping_defaults, ClientError, GemClient, Server, ServerConfig};
use gem_telemetry::span::{self, TraceCollector};
use gem_telemetry::{validate_chrome_trace, Json};
use gem_vgpu::{GpuSpec, TimingModel};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compile") => cmd_compile(&args[1..]),
        Some("run") => traced(&args[1..], cmd_run),
        Some("stats") => cmd_stats(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("profile") => traced(&args[1..], cmd_profile),
        Some("trace-check") => cmd_trace_check(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprint!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
gem — GPU-accelerated emulator-inspired RTL simulation

USAGE:
  gem compile <design.v> [-o out.gemb] [--width N] [--parts N] [--stages N]
              [--emit-metrics out.json]
  gem run     <design.gemb|design.v> [--cycles N] [--poke port=hex ...]
              [--reset port] [--stimulus in.vcd] [--vcd out.vcd]
              [--gpu a100|3090]
              [--emit-metrics out.json] [--trace-out trace.json]
  gem stats   <design.v> [--emit-metrics out.json]
  gem lint    <design.v> [--json] [--deny warnings]
              [--width N] [--parts N] [--stages N] [--emit-metrics out.json]
  gem verify  <design.gemb|design.v> [--width N] [--parts N] [--stages N]
              [--fault SEED] [--emit-metrics out.json]
  gem profile <design.v|design.gemb> [--cycles N]
              [--gpu a100|3090] [--width N] [--parts N] [--stages N]
              [--json out.json] [--trace-out trace.json]
  gem trace-check <trace.json>
  gem serve   [--addr host:port] [--workers N] [--queue N] [--cache N]
              [--idle-ms N] [--port-file path]
              [--emit-metrics out.json]
  gem client  --addr host:port <action>
      ping     [--delay-ms N]
      compile  <design.v> [--width N] [--parts N] [--stages N]
      open     <design.v> [--width N] [--parts N] [--stages N]
      poke     --session N --port name --value hex
      peek     --session N --port name
      step     --session N [--cycles N] [--poke port=hex ...]
      replay   --session N --stimulus in.vcd [--vcd out.vcd]
      profile  <design.v> [--cycles N] [--width N] [--parts N] [--stages N]
      close    --session N
      stats | shutdown

--emit-metrics writes a JSON document with the per-stage compile
timings/sizes (when the design is compiled in this invocation) and the
per-partition runtime counters (when it is run). For `serve` it writes
the gem_server_* families after shutdown; for `verify` it writes the
gem_verify_* families.

`lint` runs the whole-program static analyzer (docs/ANALYZE.md) over
Verilog source. It prints every netlist diagnostic (comb loops with
the cycle named, undriven/multiply-driven nets, width mismatches, dead
and constant cones) and, when the netlist is error-free, compiles to
attach the schedule happens-before certificate. Exit is nonzero on any
error-severity finding; --deny warnings extends that to warnings (the
CI gate).

`verify` runs the static bitstream checker (docs/VERIFY.md) over a
package or a freshly compiled design, prints a per-check table, and
exits nonzero on any violation. On a package it also re-checks the
stored schedule certificate against the bitstream. --fault SEED
(nonzero) corrupts the finished bitstream with a seeded mutation first
(the command must then FAIL — a gate self-test).

`profile` loads a package (or compiles a design), runs it for --cycles
cycles, and prints hotspot attribution from the machine's own
counters: modeled time by partition and by boomerang layer
(docs/OBSERVABILITY.md §6).

--trace-out records every span the invocation produces (compile
stages, per-cycle execution, per-stage and per-core work) and writes a
Chrome-trace JSON file loadable in Perfetto (ui.perfetto.dev) or
chrome://tracing. `trace-check` validates such a file: well-formed
JSON, balanced begin/end pairs, monotonic per-thread timestamps.
";

/// Each subcommand lists its flags once, as space-separated names; a
/// trailing `=` marks a flag that takes a value.
const MAPPING: &str = "--width= --parts= --stages=";
const COMPILE: &[&str] = &[MAPPING, "-o= --emit-metrics="];
const RUN: &[&str] = &[
    MAPPING,
    "--cycles= --poke= --reset= --stimulus= --vcd= --gpu= --emit-metrics= --trace-out=",
];
const STATS: &[&str] = &[MAPPING, "--emit-metrics="];
const LINT: &[&str] = &[MAPPING, "--json --deny= --emit-metrics="];
const VERIFY: &[&str] = &[MAPPING, "--fault= --emit-metrics="];
const PROFILE: &[&str] = &[MAPPING, "--cycles= --gpu= --json= --trace-out="];
const SERVE: &[&str] =
    &["--addr= --workers= --queue= --cache= --idle-ms= --port-file= --emit-metrics="];

/// The arguments that are neither flags nor flag values. An argument
/// that starts with `-` and is not one of `flags`, or a value flag
/// without its value, is refused.
fn positionals<'a>(args: &'a [String], flags: &[&str]) -> Result<Vec<&'a String>, String> {
    let mut found = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with('-') {
            found.push(a);
            continue;
        }
        let takes_value = flags
            .iter()
            .flat_map(|f| f.split_whitespace())
            .find_map(|f| (f.trim_end_matches('=') == a).then(|| f.ends_with('=')))
            .ok_or_else(|| format!("unknown flag {a:?} (see `gem --help`)"))?;
        if takes_value && it.next().is_none() {
            return Err(format!("{a} expects a value"));
        }
    }
    Ok(found)
}

/// The input file: the first argument that is neither a flag nor a flag
/// value.
fn positional<'a>(args: &'a [String], flags: &[&str]) -> Result<&'a String, String> {
    positionals(args, flags)?
        .into_iter()
        .next()
        .ok_or_else(|| "missing input file".to_string())
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn flag_u64(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} expects a number, got {v:?}")),
    }
}

/// A numeric flag narrowed to the type its consumer takes, by range
/// check — never by truncation (`--width 4294967296` is not width 0).
fn flag_num<T: TryFrom<u64>>(args: &[String], name: &str, default: u64) -> Result<T, String> {
    let v = flag_u64(args, name, default)?;
    T::try_from(v).map_err(|_| format!("{name} {v} is out of range"))
}

/// The mapping options every compiling subcommand takes. Their legal
/// ranges are `CompileOptions::validate`'s, checked by the compile.
fn mapping_opts(args: &[String]) -> Result<CompileOptions, String> {
    let d = mapping_defaults();
    Ok(CompileOptions {
        core_width: flag_num(args, "--width", d.core_width.into())?,
        target_parts: flag_num(args, "--parts", d.target_parts as u64)?,
        stages: flag_num(args, "--stages", d.stages as u64)?,
        ..d
    })
}

/// Writes the `--emit-metrics` document if the flag is present:
/// compile-side metrics (report + flow timings) when available, plus the
/// runtime counter snapshot when a simulation ran.
fn emit_metrics(
    args: &[String],
    compile_side: Option<Json>,
    sim: Option<&GemSimulator>,
) -> Result<(), String> {
    let Some(path) = flag(args, "--emit-metrics") else {
        return Ok(());
    };
    let mut doc = compile_side.unwrap_or_else(Json::object);
    if let Some(sim) = sim {
        doc.set("runtime", sim.metrics().to_json());
    }
    std::fs::write(&path, doc.to_string_pretty())
        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// Runs a subcommand under `--trace-out`: installs a span collector
/// first (so compile and execution spans are captured), exports the
/// Chrome-trace file after — even when the command itself failed, so a
/// crash still leaves a timeline to inspect.
fn traced(args: &[String], cmd: fn(&[String]) -> Result<(), String>) -> Result<(), String> {
    let Some(path) = flag(args, "--trace-out") else {
        return cmd(args);
    };
    let collector = TraceCollector::arc();
    span::install(Arc::clone(&collector));
    let result = cmd(args);
    span::uninstall();
    let doc = collector.export_chrome_trace();
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .map_or(0, |a| a.len());
    let write = std::fs::write(&path, doc.to_string_pretty())
        .map_err(|e| format!("cannot write {path:?}: {e}"));
    if write.is_ok() {
        println!("wrote {path} ({events} trace events)");
    }
    result.and(write)
}

fn compile_verilog(path: &str, args: &[String]) -> Result<gem_core::Compiled, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let opts = mapping_opts(args)?;
    // The analyzing front end rejects broken designs with named
    // witnesses (e.g. a combinational loop's cycle) instead of an
    // opaque levelization failure deep in synthesis.
    gem_core::compile_verilog(&src, &opts).map_err(|e| format!("{path}: compilation failed: {e}"))
}

fn read_package(path: &str) -> Result<Package, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    Package::from_bytes(&bytes).map_err(|e| e.to_string())
}

/// What `run` and `profile` execute: a `.gemb` package as written, or
/// the package of a fresh compile of Verilog source, loaded into a
/// power-on simulator. The second value is the compile-side metrics
/// document (the report alone for a package), built only when
/// `--emit-metrics` asks for it.
fn load(input: &str, args: &[String]) -> Result<(GemSimulator, Option<Json>), String> {
    let wants_metrics = flag(args, "--emit-metrics").is_some();
    let (pkg, doc) = if input.ends_with(".gemb") {
        let pkg = read_package(input)?;
        let doc = wants_metrics.then(|| {
            let mut doc = Json::object();
            doc.set("report", pkg.report.to_json());
            doc
        });
        (pkg, doc)
    } else {
        let compiled = compile_verilog(input, args)?;
        let doc = wants_metrics.then(|| compiled.metrics_json());
        (Package::from_compiled(&compiled), doc)
    };
    let sim = pkg
        .into_simulator()
        .map_err(|e| format!("package rejected: {e}"))?;
    Ok((sim, doc))
}

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let input = positional(args, COMPILE)?;
    let compiled = compile_verilog(input, args)?;
    let out = flag(args, "-o").unwrap_or_else(|| {
        std::path::Path::new(input)
            .with_extension("gemb")
            .to_string_lossy()
            .into_owned()
    });
    let pkg = Package::from_compiled(&compiled);
    std::fs::write(&out, pkg.to_bytes()).map_err(|e| format!("cannot write {out:?}: {e}"))?;
    let r = &compiled.report;
    println!(
        "{input}: {} gates / {} levels → {} stage(s), {} partition(s), {} layer(s)",
        r.gates, r.levels, r.stages, r.parts, r.layers
    );
    println!("wrote {out} ({} bytes)", r.bitstream_bytes);
    emit_metrics(args, Some(compiled.metrics_json()), None)
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let input = positional(args, STATS)?;
    let compiled = compile_verilog(input, args)?;
    let r = &compiled.report;
    println!("design:            {input}");
    println!("E-AIG gates:       {}", r.gates);
    println!("logic levels:      {}", r.levels);
    println!("pipeline stages:   {}", r.stages);
    println!("boomerang layers:  {}", r.layers);
    println!("partitions:        {}", r.parts);
    println!("RAM blocks:        {}", r.ram_blocks);
    println!("polyfilled bits:   {}", r.polyfilled_mem_bits);
    println!("replication cost:  {:.2}%", r.replication_cost * 100.0);
    println!("bitstream size:    {} bytes", r.bitstream_bytes);
    emit_metrics(args, Some(compiled.metrics_json()), None)
}

/// `gem lint`: whole-program static analysis of Verilog source: the
/// netlist lint passes and, when they find no error, a full compile to
/// attach the schedule happens-before certificate. Error-severity
/// findings exit nonzero; `--deny warnings` extends that to warnings.
fn cmd_lint(args: &[String]) -> Result<(), String> {
    let input = positional(args, LINT)?;
    if input.ends_with(".gemb") {
        return Err(format!(
            "{input}: lint reads Verilog source; re-check a package with `gem verify {input}`"
        ));
    }
    let json_mode = args.iter().any(|a| a == "--json");
    let deny_floor = match flag(args, "--deny").as_deref() {
        None => None,
        Some("warnings") => Some(Severity::Warning),
        Some(other) => return Err(format!("--deny expects \"warnings\", got {other:?}")),
    };

    let src = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input:?}: {e}"))?;
    let (module, lints) = verilog::parse_with_lints(&src).map_err(|e| format!("{input}: {e}"))?;
    let report = gem_analyze::analyze_with_lints(&module, &lints);
    let diagnostics = &report.diagnostics;
    let compiled = if report.clean(Severity::Error) {
        let c = compile(&module, &mapping_opts(args)?);
        Some(
            c.map(|c| c.schedule_cert.summary())
                .map_err(|e| e.to_string()),
        )
    } else {
        None
    };

    if json_mode {
        let mut doc = Json::object();
        set_lint_fields(&mut doc, &report, compiled.as_ref());
        println!("{}", doc.to_string_pretty());
    } else {
        println!("design:   {input}");
        println!("{:<12} {:>9} {:>12}", "pass", "findings", "wall");
        for p in &report.passes {
            println!(
                "{:<12} {:>9} {:>9.2} µs",
                p.name,
                p.diagnostics,
                p.wall_ns as f64 / 1e3
            );
        }
        for d in diagnostics {
            println!("  {d}");
        }
        println!("summary:  {}", report.summary());
        match &compiled {
            Some(Ok(c)) => println!("schedule: {c}"),
            _ => println!("schedule: no certificate"),
        }
        if let Some(Err(e)) = &compiled {
            println!("compile:  {e}");
        }
    }
    if let Some(path) = flag(args, "--emit-metrics") {
        let doc = gem_analyze::analyze_metrics(&report).to_json();
        std::fs::write(&path, doc.to_string_pretty())
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        // Stderr so `--json` stdout stays machine-parseable.
        eprintln!("wrote {path}");
    }

    let errors = diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    if errors > 0 {
        return Err(format!("FAIL: {errors} error-severity finding(s)"));
    }
    if let Some(Err(e)) = compiled {
        return Err(format!(
            "FAIL: analysis clean but compile/certification failed: {e}"
        ));
    }
    if let Some(floor) = deny_floor {
        let denied = diagnostics.iter().filter(|d| d.severity >= floor).count();
        if denied > 0 {
            return Err(format!(
                "FAIL (--deny warnings): {denied} finding(s) at or above warning severity"
            ));
        }
    }
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let input = positional(args, VERIFY)?;
    let fault = flag(args, "--fault")
        .map(|_| flag_u64(args, "--fault", 0))
        .transpose()?;
    if fault == Some(0) {
        // Seed 0 would corrupt nothing and then report PASS.
        return Err("--fault expects a nonzero seed".into());
    }
    let report = if input.ends_with(".gemb") {
        let pkg = read_package(input)?;
        // Packages carry no placement metadata, so the merge check is
        // skipped and a drill injects only classes detectable without it.
        // The stored certificate is checked unless a drill corrupted the
        // bitstream, which makes it stale whether or not a real check
        // catches the mutant.
        let mut ctx = gem_core::verify::context(&pkg.device, &pkg.io, None);
        let bitstream = match fault {
            Some(seed) => gem_isa::mutate::corrupt_from(
                &pkg.bitstream,
                seed,
                &gem_isa::mutate::PROGRAM_FREE_CLASSES,
            ),
            None => {
                ctx.schedule_cert = Some(&pkg.schedule_cert);
                pkg.bitstream.clone()
            }
        };
        gem_isa::verify_bitstream(&bitstream, &ctx)
    } else {
        // The compile has passed the verifier already; a drill corrupts
        // the finished artifact and verifies it again, with its programs
        // but not its certificate — any mutation would make that stale,
        // and the drill must be caught by a real check.
        let mut compiled = compile_verilog(input, args)?;
        if let Some(seed) = fault {
            compiled.bitstream = gem_isa::mutate::corrupt(&compiled.bitstream, seed);
        }
        gem_core::verify(
            &compiled.bitstream,
            &compiled.device,
            &compiled.io,
            Some(&compiled.programs),
        )
    };

    println!("design:  {input} ({} cores)", report.cores);
    println!("{:<12} {:>10} {:>12}", "check", "violations", "wall");
    for c in &report.checks {
        println!(
            "{:<12} {:>10} {:>9.2} µs",
            c.name,
            c.violations,
            c.wall_ns as f64 / 1e3
        );
    }
    for v in &report.violations {
        println!("  {v}");
    }
    if let Some(path) = flag(args, "--emit-metrics") {
        let doc = gem_core::verify_metrics(&report).to_json();
        std::fs::write(&path, doc.to_string_pretty())
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        println!("wrote {path}");
    }
    if report.passed() {
        println!("PASS: all {} checks clean", report.checks.len());
        Ok(())
    } else {
        Err(format!(
            "FAIL: {} violation(s) across {} check(s)",
            report.total_violations(),
            report.checks.iter().filter(|c| c.violations > 0).count()
        ))
    }
}

/// The `--gpu` timing model (A100 when absent); an unknown name is an
/// error.
fn gpu_spec(args: &[String]) -> Result<GpuSpec, String> {
    match flag(args, "--gpu").as_deref() {
        None | Some("a100") => Ok(GpuSpec::a100()),
        Some("3090" | "rtx3090") => Ok(GpuSpec::rtx3090()),
        Some(other) => Err(format!("unknown --gpu {other:?}, expected a100 or 3090")),
    }
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    let input = positional(args, PROFILE)?;
    let spec = gpu_spec(args)?;
    let (sim, _) = load(input, args)?;
    let opts = ProfileOptions {
        cycles: flag_u64(args, "--cycles", ProfileOptions::default().cycles)?,
        spec,
    };
    let report = gem_core::profile(sim, input, &opts);
    print!("{}", report.render_table());
    if let Some(path) = flag(args, "--json") {
        std::fs::write(&path, report.to_json().to_string_pretty())
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_trace_check(args: &[String]) -> Result<(), String> {
    let input = positional(args, &[])?;
    let text = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input:?}: {e}"))?;
    let doc =
        gem_telemetry::parse_json(&text).map_err(|e| format!("{input}: invalid JSON: {e}"))?;
    let summary = validate_chrome_trace(&doc).map_err(|e| format!("{input}: {e}"))?;
    println!(
        "{input}: OK — {} events ({} spans, {} complete, {} instants) on {} thread(s), {:.3} ms span",
        summary.events,
        summary.spans,
        summary.complete,
        summary.instants,
        summary.threads,
        summary.max_ts_micros / 1e3
    );
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let input = positional(args, RUN)?;
    let cycles = flag_u64(args, "--cycles", 16)?;
    let spec = gpu_spec(args)?;
    let (mut sim, compile_doc) = load(input, args)?;
    let io = sim.io().clone();
    // Pokes: --poke name=hex (applied every cycle).
    let mut pokes: Vec<(String, Bits)> = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if a == "--poke" {
            let spec = args
                .get(i + 1)
                .ok_or_else(|| "--poke expects port=hexvalue".to_string())?;
            let (name, val) = spec
                .split_once('=')
                .ok_or_else(|| format!("bad poke {spec:?}, expected port=hexvalue"))?;
            let port = io
                .input(name)
                .ok_or_else(|| format!("no input port named {name:?}"))?;
            let v = bits_from_hex(val, port.bits.len() as u32)
                .map_err(|e| format!("bad poke {spec:?}: {e}"))?;
            pokes.push((name.to_string(), v));
        }
    }
    for (name, v) in &pokes {
        sim.set_input(name, v.clone());
    }
    // Optional one-cycle reset pulse before the measured window.
    if let Some(rst) = flag(args, "--reset") {
        let port = io
            .input(&rst)
            .ok_or_else(|| format!("no input port named {rst:?} for --reset"))?;
        sim.set_input(&rst, Bits::ones(port.bits.len() as u32));
        sim.step();
        sim.set_input(&rst, Bits::zeros(port.bits.len() as u32));
    }
    println!(
        "cycle  {}",
        io.outputs
            .iter()
            .map(|p| format!("{:>12}", p.name))
            .collect::<String>()
    );
    let print_row = |c: usize, row: &[Bits]| {
        let row: String = row.iter().map(|v| format!("{:>12}", v.to_u64())).collect();
        println!("{c:>5}  {row}");
    };
    let vcd = flag(args, "--vcd");
    let mut rec = OutputRecorder::new(&io, 0);
    // Waveform-driven run replaces the free-running loop.
    if let Some(path) = flag(args, "--stimulus") {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
        let stim = VcdStimulus::new(&text, &io).map_err(|e| e.to_string())?;
        replay_lanes(&mut sim, &[&stim], std::slice::from_mut(&mut rec));
        for (c, row) in rec.rows().iter().enumerate() {
            print_row(c, row);
        }
    } else {
        for c in 0..cycles as usize {
            sim.step();
            print_row(c, rec.record(&sim));
            if vcd.is_none() {
                rec.clear();
            }
        }
    }
    if let Some(path) = vcd {
        std::fs::write(&path, rec.to_vcd()).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        println!("wrote {path}");
    }
    // Modeled speed (hz_total is zero-safe; skip the line when no cycles
    // ran rather than reporting a meaningless 0 Hz).
    if sim.counters().cycles > 0 {
        let name = spec.name;
        let hz = TimingModel::new(spec).hz_total(sim.counters());
        println!("modeled speed on {name}: {hz:.0} simulated cycles/second");
    }
    emit_metrics(args, compile_doc, Some(&sim))
}

// ------------------------------------------------------------- serving --

fn cmd_serve(args: &[String]) -> Result<(), String> {
    positionals(args, SERVE)?;
    let d = ServerConfig::default();
    let idle_ms = d.idle_timeout.as_millis() as u64;
    let cfg = ServerConfig {
        addr: flag(args, "--addr").unwrap_or(d.addr),
        workers: flag_num(args, "--workers", d.workers as u64)?,
        queue: flag_num(args, "--queue", d.queue as u64)?,
        cache: flag_num(args, "--cache", d.cache as u64)?,
        idle_timeout: Duration::from_millis(flag_u64(args, "--idle-ms", idle_ms)?),
    };
    let server = Server::bind(cfg).map_err(|e| format!("cannot bind: {e}"))?;
    let addr = server.local_addr();
    let metrics = server.metrics();
    println!("listening on {addr}");
    if let Some(path) = flag(args, "--port-file") {
        // The port file carries the resolved address, so scripts binding
        // port 0 can discover where the server actually listens.
        std::fs::write(&path, format!("{addr}\n"))
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    }
    server.run().map_err(|e| format!("server failed: {e}"))?;
    if let Some(path) = flag(args, "--emit-metrics") {
        std::fs::write(&path, metrics.snapshot().to_json().to_string_pretty())
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        println!("wrote {path}");
    }
    println!("server stopped");
    Ok(())
}

// -------------------------------------------------------------- client --

fn client_opts(args: &[String]) -> Result<Json, String> {
    let d = mapping_defaults();
    let mut o = Json::object();
    o.set("width", flag_u64(args, "--width", d.core_width.into())?);
    o.set("parts", flag_u64(args, "--parts", d.target_parts as u64)?);
    o.set("stages", flag_u64(args, "--stages", d.stages as u64)?);
    Ok(o)
}

fn client_err(e: ClientError) -> String {
    e.to_string()
}

fn cmd_client(args: &[String]) -> Result<(), String> {
    // The action is the first argument that is neither a flag nor the
    // value of `--addr`, which may come before or after it.
    let at = (0..args.len())
        .find(|&i| !args[i].starts_with('-') && (i == 0 || args[i - 1] != "--addr"))
        .ok_or_else(|| format!("missing client action\n{USAGE}"))?;
    let action = args[at].as_str();
    let mut rest = args.to_vec();
    rest.remove(at);
    let flags = match action {
        "ping" => "--delay-ms=",
        "compile" | "open" => MAPPING,
        "poke" => "--session= --port= --value=",
        "peek" => "--session= --port=",
        "step" => "--session= --cycles= --poke=",
        "replay" => "--session= --stimulus= --vcd=",
        "profile" => "--width= --parts= --stages= --cycles=",
        "close" => "--session=",
        "stats" | "shutdown" => "",
        other => return Err(format!("unknown client action {other:?}\n{USAGE}")),
    };
    let files = positionals(&rest, &["--addr=", flags])?;
    let addr =
        flag(&rest, "--addr").ok_or_else(|| "client requires --addr host:port".to_string())?;
    let mut client =
        GemClient::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let file = || {
        files
            .first()
            .ok_or_else(|| "missing input file".to_string())
    };
    match action {
        "ping" => {
            client
                .ping(flag_u64(&rest, "--delay-ms", 0)?)
                .map_err(client_err)?;
            println!("pong");
        }
        "compile" | "open" => {
            let file = file()?;
            let src =
                std::fs::read_to_string(file).map_err(|e| format!("cannot read {file:?}: {e}"))?;
            let opts = client_opts(&rest)?;
            let resp = if action == "open" {
                client.open(&src, opts).map_err(client_err)?
            } else {
                client.compile(&src, opts).map_err(client_err)?
            };
            if let Some(s) = resp.get("session").and_then(Json::as_u64) {
                println!("session {s}");
            }
            println!(
                "key {} cached {}",
                resp.get("key").and_then(Json::as_str).unwrap_or("?"),
                resp.get("cached").and_then(Json::as_bool).unwrap_or(false),
            );
        }
        "poke" => {
            let session = flag_u64(&rest, "--session", 0)?;
            let port = flag(&rest, "--port").ok_or("poke requires --port")?;
            let value = flag(&rest, "--value").ok_or("poke requires --value")?;
            client.poke(session, &port, &value).map_err(client_err)?;
            println!("ok");
        }
        "peek" => {
            let session = flag_u64(&rest, "--session", 0)?;
            let port = flag(&rest, "--port").ok_or("peek requires --port")?;
            let v = client.peek(session, &port).map_err(client_err)?;
            println!("{port} = 0x{v}");
        }
        "step" => {
            let session = flag_u64(&rest, "--session", 0)?;
            let cycles = flag_u64(&rest, "--cycles", 1)?;
            let mut pokes = Vec::new();
            for (i, a) in rest.iter().enumerate() {
                if a == "--poke" {
                    let spec = rest
                        .get(i + 1)
                        .ok_or_else(|| "--poke expects port=hexvalue".to_string())?;
                    let (name, val) = spec
                        .split_once('=')
                        .ok_or_else(|| format!("bad poke {spec:?}"))?;
                    pokes.push((name, val));
                }
            }
            let resp = client.step(session, cycles, pokes).map_err(client_err)?;
            println!(
                "cycle {}",
                resp.get("cycle").and_then(Json::as_u64).unwrap_or(0)
            );
            if let Some(Json::Object(outs)) = resp.get("outputs") {
                for (name, v) in outs {
                    println!("  {name} = 0x{}", v.as_str().unwrap_or("?"));
                }
            }
        }
        "replay" => {
            let session = flag_u64(&rest, "--session", 0)?;
            let path = flag(&rest, "--stimulus").ok_or("replay requires --stimulus in.vcd")?;
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
            let resp = client.replay(session, &text).map_err(client_err)?;
            println!(
                "replayed {} cycle(s)",
                resp.get("cycles").and_then(Json::as_u64).unwrap_or(0)
            );
            if let Some(out) = flag(&rest, "--vcd") {
                let text = resp.get("vcd").and_then(Json::as_str).unwrap_or_default();
                std::fs::write(&out, text).map_err(|e| format!("cannot write {out:?}: {e}"))?;
                println!("wrote {out}");
            }
        }
        "profile" => {
            let file = file()?;
            let src =
                std::fs::read_to_string(file).map_err(|e| format!("cannot read {file:?}: {e}"))?;
            let opts = client_opts(&rest)?;
            let cycles = flag_u64(&rest, "--cycles", ProfileOptions::default().cycles)?;
            let resp = client.profile(&src, opts, cycles).map_err(client_err)?;
            print!("{}", resp.get("table").and_then(Json::as_str).unwrap_or(""));
        }
        "close" => {
            client
                .close(flag_u64(&rest, "--session", 0)?)
                .map_err(client_err)?;
            println!("closed");
        }
        "stats" => {
            let resp = client.stats().map_err(client_err)?;
            println!("{}", resp.to_string_pretty());
        }
        "shutdown" => {
            client.shutdown().map_err(client_err)?;
            println!("server shutting down");
        }
        _ => unreachable!("every action has its flags above"),
    }
    Ok(())
}
