//! `repro [--scale N]`: regenerate every paper artifact from one compile
//! per design and hold the reproduction to its verdicts.
//!
//! `measure` compiles each design of [`suite`] once, runs the
//! [`verify_gem`] correctness gate, and derives Table I, Table II, Fig 3
//! (re-placed at the paper's 8192-bit core), Fig 5, Obs. 4 and ablation A1
//! from that one compile. `verdicts` evaluates every row of
//! EXPERIMENTS.md's "Reproduction summary" as a named predicate over those
//! records: **asserted** when it rests on quantities that repeat exactly
//! (counts, replication percentages, kernel counters, modeled Hz),
//! **reported** — value beside the paper's, no pass/fail — when it rests
//! on host wall-clock. [`main`] prints the tables in the Markdown
//! EXPERIMENTS.md uses, writes `target/gem-experiments/*.json`, and fails
//! if an asserted predicate does.

use crate::{
    compile_design, fmt_hz, measure_event, measure_gem, measure_gl0am, measure_levelized, suite,
    verify_gem,
};
use gem_aig::Eaig;
use gem_core::Compiled;
use gem_designs::{Design, Workload};
use gem_partition::{partition, PartitionOptions};
use gem_place::{place_partition, PlaceOptions};
use gem_telemetry::{json, Json};
use gem_vgpu::{GpuSpec, TimingModel};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// What the binary prints (with exit code 2) for any argument it does not
/// understand.
const USAGE: &str = "usage: repro [--scale N]
  --scale N   suite size: 0 = CI (seconds), 1 = EXPERIMENTS.md (default)";

/// Parses the binary's arguments (program name already skipped) into the
/// scale, refusing before anything compiles a scale at which a generator
/// would not build its design as asked.
///
/// # Errors
///
/// An unknown flag, a missing value, an unparsable value or a refused
/// scale, as the message to print above [`USAGE`].
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<u32, String> {
    let mut scale = 1;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag != "--scale" {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = args.next().ok_or("--scale needs a value")?;
        scale = value
            .parse()
            .map_err(|_| format!("--scale {value:?} is not a non-negative integer"))?;
    }
    gem_designs::suite_sizes(scale).map_err(|e| format!("--scale {scale}: {e}"))?;
    Ok(scale)
}

/// Cycles each wall-clock baseline is timed over in Table II — a constant
/// of the scale, so two runs at one scale report the same events/cycle and
/// GL0AM model inputs.
fn measured_cycles(scale: u32) -> u64 {
    if scale == 0 {
        2000
    } else {
        800
    }
}

/// The regenerated artifacts: `(record under target/gem-experiments/,
/// DESIGN.md §2 ids it covers)`.
const ARTIFACTS: [(&str, &[&str]); 6] = [
    ("table1", &["T1", "S1"]),
    ("table2", &["T2"]),
    ("fig3_boomerang", &["F3"]),
    ("fig5_repcut", &["F5"]),
    ("obs4_longtail", &["S2"]),
    ("ablate_placement", &["A1"]),
];

/// The rows of every regenerated artifact, by record name.
#[derive(Debug, Clone, Default, PartialEq)]
struct Records {
    /// Suite scale the records were measured at.
    scale: u32,
    /// `compile_design` calls made: one per design of the suite.
    compiles: usize,
    /// Date, commit and host of the measurement: what EXPERIMENTS.md
    /// carries above its tables.
    stamp: String,
    /// Record name → rows.
    tables: BTreeMap<&'static str, Vec<Json>>,
}

impl Records {
    /// The rows of `record` (none if it was never measured).
    fn rows(&self, record: &str) -> &[Json] {
        self.tables.get(record).map_or(&[], Vec::as_slice)
    }

    fn push(&mut self, record: &'static str, row: Json) {
        self.tables.entry(record).or_default().push(row);
    }
}

/// Compiles, verifies and measures the suite at `scale`.
///
/// # Panics
///
/// Panics if a design fails to compile or GEM's outputs diverge from the
/// golden model — no speed is reported for a wrong engine.
fn measure(scale: u32) -> Records {
    let cycles = measured_cycles(scale);
    let mut r = Records {
        scale,
        stamp: stamp(scale),
        ..Default::default()
    };
    for (d, opts) in suite(scale) {
        let t0 = Instant::now();
        let c = compile_design(&d, &opts);
        let compile_seconds = t0.elapsed().as_secs_f64();
        r.compiles += 1;
        verify_gem(&d, &c, &d.workloads[0], 24);
        r.push("table1", table1_row(&d, &c, compile_seconds));
        r.push("obs4_longtail", obs4_row(&d, &c.eaig));
        let (fig3, a1) = replace_rows(&d, &c);
        r.push("fig3_boomerang", fig3);
        r.push("ablate_placement", a1);
        if d.name == "RocketChip" {
            r.tables.insert("fig5_repcut", fig5_rows(&c.eaig));
        }
        for w in &d.workloads {
            r.push("table2", table2_row(&d, &c, w, cycles));
        }
    }
    r
}

fn table1_row(d: &Design, c: &Compiled, compile_seconds: f64) -> Json {
    let r = &c.report;
    json!({
        "design": d.name.as_str(),
        "gates": r.gates,
        "levels": r.levels,
        "stages": r.stages,
        "layers": r.layers,
        "parts": r.parts,
        "bitstream_bytes": r.bitstream_bytes,
        "replication_cost": r.replication_cost,
        "ram_blocks": r.ram_blocks,
        "polyfilled_mem_bits": r.polyfilled_mem_bits,
        "compile_seconds": compile_seconds,
        "bytes_per_gate": r.bitstream_bytes as f64 / r.gates as f64,
        "levels_per_layer": f64::from(r.levels) / f64::from(r.layers),
    })
}

fn obs4_row(d: &Design, g: &Eaig) -> Json {
    let levels = g.levels();
    let stats = levels.stats();
    json!({
        "design": d.name.as_str(),
        "gates": stats.gates,
        "depth": stats.depth,
        "half_at_level": stats.levels_for_half_gates,
        "frontier_fraction": stats.frontier_fraction,
        "histogram": levels.histogram,
    })
}

/// Fig 3 and A1 from the compile's partitions, re-placed at the paper's
/// full 8192-bit core width: a boomerang layer there has 13 fold levels,
/// so it absorbs deeper slices of logic per permutation than the narrow
/// harness cores. A levelized executor pays one permutation +
/// synchronization per logic level of each partition, the boomerang
/// executor one per layer; A1 places the same partitions in FIFO instead
/// of criticality order.
fn replace_rows(d: &Design, c: &Compiled) -> (Json, Json) {
    let timing_driven = PlaceOptions {
        core_width: 8192,
        ..Default::default()
    };
    let fifo = PlaceOptions {
        timing_driven: false,
        ..timing_driven
    };
    let (mut cores, mut levelized, mut boomerang, mut fifo_layers) = (0u64, 0u64, 0u64, 0u64);
    for p in c.partitioning.stages.iter().flat_map(|s| &s.partitions) {
        let (prog, stats) = place_partition(&c.eaig, p, &timing_driven).expect("placed in compile");
        let (prog_fifo, _) = place_partition(&c.eaig, p, &fifo).expect("placed in compile");
        cores += 1;
        levelized += u64::from(stats.depth);
        boomerang += prog.permutations() as u64;
        fifo_layers += prog_fifo.permutations() as u64;
    }
    let fig3 = json!({
        "design": d.name.as_str(),
        "cores": cores,
        "levelized_permutations": levelized,
        "boomerang_permutations": boomerang,
        "reduction": levelized as f64 / boomerang.max(1) as f64,
    });
    let a1 = json!({
        "design": d.name.as_str(),
        "timing_driven_layers": boomerang,
        "fifo_layers": fifo_layers,
        "timing_driven_per_fifo": boomerang as f64 / fifo_layers.max(1) as f64,
    });
    (fig3, a1)
}

/// Fig 5: replication cost against partition count for 1, 2 and 3 RepCut
/// stages, on the design with the deepest *shared* logic — the
/// RocketChip-like CPU, whose vector-MAC unit and register-file decoders
/// sit under every sink. (Designs whose sharing is only at sources, like
/// the NVDLA lanes, do not replicate and do not need stages.)
fn fig5_rows(g: &Eaig) -> Vec<Json> {
    let cut = |target_parts, stages| {
        let opts = PartitionOptions {
            target_parts,
            stages,
            ..Default::default()
        };
        partition(g, &opts)
    };
    let row = |parts| {
        let (p1, p2, p3) = (cut(parts, 1), cut(parts, 2), cut(parts, 3));
        let mut row = json!({
            "parts": parts,
            "single_stage_replication": p1.replication_cost(),
            "two_stage_replication": p2.replication_cost(),
            "three_stage_replication": p3.replication_cost(),
            "single_stage_actual_parts": p1.max_parts(),
            "two_stage_actual_parts": p2.max_parts(),
            "two_stage_cut": Json::Null,
        });
        // The rescue is claimed where there is something to rescue: once
        // single-stage replication has passed 50 %.
        if p1.replication_cost() > 0.5 {
            row.set(
                "two_stage_cut",
                p1.replication_cost() / p2.replication_cost(),
            );
        }
        row
    };
    [2usize, 4, 8, 16, 24, 32].into_iter().map(row).collect()
}

fn table2_row(d: &Design, c: &Compiled, w: &Workload, cycles: u64) -> Json {
    let counters = measure_gem(d, c, w);
    let gem_a100 = TimingModel::new(GpuSpec::a100()).hz_total(&counters);
    let gem_3090 = TimingModel::new(GpuSpec::rtx3090()).hz_total(&counters);
    let (comm, events) = measure_event(d, c, w, cycles);
    let v1 = measure_levelized(d, c, w, cycles);
    let gl0am = measure_gl0am(d, c, w, cycles.min(500));
    json!({
        "design": d.name.as_str(), "test": w.name.as_str(),
        "commercial_hz": comm, "verilator1_hz": v1,
        "gl0am_hz": gl0am, "gem_a100_hz": gem_a100, "gem_3090_hz": gem_3090,
        "events_per_cycle": events,
        "speedup_comm": gem_a100 / comm, "speedup_v1": gem_a100 / v1,
        "speedup_gl0am": gem_a100 / gl0am,
        "a100_per_3090": gem_a100 / gem_3090,
        "gem_counters": json!({
            "global_bytes": counters.global_bytes,
            "global_transactions": counters.global_transactions,
            "shared_accesses": counters.shared_accesses,
            "alu_ops": counters.alu_ops,
            "block_syncs": counters.block_syncs,
            "device_syncs": counters.device_syncs,
            "blocks_run": counters.blocks_run,
            "cycles": counters.cycles,
        }),
    })
}

// --- Verdicts ------------------------------------------------------------

/// How an asserted value is held against its threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// `value > threshold`
    Above,
    /// `value <= threshold`
    AtMost,
}

/// How a predicate folds a field over a record's rows.
#[derive(Debug, Clone, Copy)]
enum Agg {
    Min,
    Max,
    Mean,
}
use Agg::{Max, Mean, Min};

/// One row of the "Reproduction summary".
#[derive(Debug, Clone, PartialEq)]
struct Verdict {
    /// Predicate id, `<DESIGN.md §2 id>.<name>`.
    id: &'static str,
    /// The paper's claim.
    claim: &'static str,
    /// The paper's value.
    paper: &'static str,
    /// What the predicate reads, e.g. `min table1.levels_per_layer`.
    reads: String,
    /// This repo's value, as the summary prints it.
    measured: String,
    /// The value the predicate rests on: the worst case over the rows it
    /// covers (NaN when there are none — an empty record proves nothing).
    value: f64,
    /// What an **asserted** predicate holds `value` against — it rests on
    /// quantities that repeat exactly, and the threshold holds at scale 0
    /// and 1. `None`: the row rests on host wall-clock and is **reported**
    /// without pass/fail.
    holds: Option<(Op, f64)>,
}

impl Verdict {
    fn row(id: &'static str, claim: &'static str, paper: &'static str) -> Self {
        Verdict {
            id,
            claim,
            paper,
            reads: String::new(),
            measured: String::new(),
            value: f64::NAN,
            holds: None,
        }
    }

    /// Folds `record.field` over the rows of `r` that carry it.
    fn reads(mut self, r: &Records, agg: Agg, record: &str, field: &str) -> Self {
        let values = r.rows(record).iter().filter_map(|t| t.get(field)?.as_f64());
        let (mut lo, mut hi, mut sum, mut n) = (f64::NAN, f64::NAN, 0.0, 0.0);
        for v in values {
            (lo, hi, sum, n) = (v.min(lo), v.max(hi), sum + v, n + 1.0);
        }
        let (name, value, measured) = match agg {
            Min => ("min", lo, format!("{lo:.2}–{hi:.2}")),
            Max => ("max", hi, format!("{lo:.2}–{hi:.2}")),
            Mean => ("mean", sum / n, format!("{:.2}", sum / n)),
        };
        self.reads = format!("{name} {record}.{field}");
        (self.value, self.measured) = (value, measured);
        self
    }

    fn above(mut self, threshold: f64) -> Self {
        self.holds = Some((Op::Above, threshold));
        self
    }

    fn at_most(mut self, threshold: f64) -> Self {
        self.holds = Some((Op::AtMost, threshold));
        self
    }

    /// Whether an asserted predicate holds; `None` for a reported one.
    fn pass(&self) -> Option<bool> {
        self.holds.map(|(op, threshold)| match op {
            Op::Above => self.value > threshold,
            Op::AtMost => self.value <= threshold,
        })
    }

    /// An asserted value's distance from its threshold, positive on the
    /// passing side.
    fn margin(&self) -> Option<f64> {
        self.holds.map(|(op, threshold)| match op {
            Op::Above => self.value - threshold,
            Op::AtMost => threshold - self.value,
        })
    }

    fn class(&self) -> &'static str {
        match self.holds {
            Some(_) => "asserted",
            None => "reported",
        }
    }

    /// `reads`, with the comparison for an asserted predicate.
    fn predicate(&self) -> String {
        match self.holds {
            Some((Op::Above, threshold)) => format!("{} > {threshold}", self.reads),
            Some((Op::AtMost, threshold)) => format!("{} ≤ {threshold}", self.reads),
            None => self.reads.clone(),
        }
    }

    fn to_json(&self) -> Json {
        let mut v = json!({
            "id": self.id, "claim": self.claim, "paper": self.paper,
            "class": self.class(), "predicate": self.predicate(),
            "measured": self.measured.as_str(), "value": self.value,
        });
        if let (Some(pass), Some(margin)) = (self.pass(), self.margin()) {
            v.set("margin", margin);
            v.set("pass", pass);
        }
        v
    }
}

/// Evaluates every row of the "Reproduction summary" over `r`.
fn verdicts(r: &Records) -> Vec<Verdict> {
    // Table II, per design: GEM's counters must not depend on the
    // workload, while the activity the baselines pay for does.
    let table2 = r.rows("table2");
    let mut designs: Vec<&Json> = table2.iter().filter_map(|t| t.get("design")).collect();
    designs.dedup();
    let activity_dependent = |design: &&&Json| {
        let of_design = |t: &&Json| t.get("design") == Some(**design);
        let rows: Vec<&Json> = table2.iter().filter(of_design).collect();
        let same = |field| rows.iter().all(|t| t.get(field) == rows[0].get(field));
        !same("gem_counters") || (rows.len() > 1 && same("events_per_cycle"))
    };
    let dependent = designs.iter().filter(activity_dependent).count();
    let mut activity = Verdict::row(
        "T2.activity_invariant",
        "GEM speed activity-invariant: same counters on every workload (Table II)",
        "yes",
    );
    activity.reads = "designs with unequal table2.gem_counters or equal events_per_cycle".into();
    activity.measured = format!("{dependent} of {} designs differ", designs.len());
    if !designs.is_empty() {
        activity.value = dependent as f64;
    }

    let row = Verdict::row;
    vec![
        row(
            "T1.layers_vs_levels",
            "Levels/layers, 2048-bit cores (Table I, §IV)",
            "6–8×",
        )
        .reads(r, Min, "table1", "levels_per_layer")
        .above(3.0),
        row(
            "T1.bytes_per_gate",
            "Bitstream compactness, B/gate (Table I)",
            "17–30",
        )
        .reads(r, Max, "table1", "bytes_per_gate")
        .at_most(30.0),
        row(
            "F3.sync_reduction",
            "Boomerang sync reduction, 8192-bit cores (Fig 3)",
            ">5×",
        )
        .reads(r, Min, "fig3_boomerang", "reduction")
        .above(5.0),
        row(
            "F5.single_stage_blowup",
            "Single-stage replicated/original gates (Fig 5)",
            ">2",
        )
        .reads(r, Max, "fig5_repcut", "single_stage_replication")
        .above(2.0),
        row(
            "F5.two_stage_rescue",
            "Cut by a second stage once past 50 % (Fig 5)",
            "→<3 %",
        )
        .reads(r, Min, "fig5_repcut", "two_stage_cut")
        .above(2.0),
        row(
            "S2.long_tail",
            "Gates in the front quarter of levels (Obs. 4)",
            "qualitative",
        )
        .reads(r, Min, "obs4_longtail", "frontier_fraction")
        .above(0.5),
        activity.at_most(0.0),
        row(
            "T2.event_driven_idle",
            "Event-driven catches GEM when idle: C/GEM",
            "0.95× min",
        )
        .reads(r, Min, "table2", "speedup_comm"),
        row(
            "T2.avg_vs_commercial",
            "Avg speed-up vs commercial (event-driven)",
            "9.15×",
        )
        .reads(r, Mean, "table2", "speedup_comm"),
        row(
            "T2.avg_vs_verilator1",
            "Avg speed-up vs Verilator-1t",
            "24.87×",
        )
        .reads(r, Mean, "table2", "speedup_v1"),
        // Both sides modeled; held to within 2× of the paper's average.
        row("T2.avg_vs_gl0am", "Avg speed-up vs GL0AM", "7.72×")
            .reads(r, Mean, "table2", "speedup_gl0am")
            .above(7.72 / 2.0),
        row("T2.a100_over_3090", "A100/3090 on every workload", ">1")
            .reads(r, Min, "table2", "a100_per_3090")
            .above(1.0),
        row(
            "A1.timing_driven_layers",
            "Timing-driven/FIFO layers (§III-D)",
            "design choice",
        )
        .reads(r, Max, "ablate_placement", "timing_driven_per_fifo")
        .at_most(1.0),
    ]
}

// --- Output --------------------------------------------------------------

/// A scalar record field as a Markdown cell; `None` for the arrays and
/// objects only the JSON carries.
fn cell(v: &Json) -> Option<String> {
    Some(match v {
        Json::Array(_) | Json::Object(_) => return None,
        Json::Null => String::new(),
        Json::Str(s) => s.clone(),
        Json::F64(x) if x.abs() < 1000.0 => format!("{x:.3}"),
        _ => fmt_hz(v.as_f64()?),
    })
}

/// Appends a Markdown table; `header` and `rows` are cells joined by `" | "`.
fn table(out: &mut String, title: &str, header: &str, rows: impl Iterator<Item = String>) {
    let columns = header.matches(" | ").count() + 1;
    *out += &format!(
        "## {title}\n\n| {header} |\n|{}\n",
        " --- |".repeat(columns)
    );
    for row in rows {
        *out += &format!("| {row} |\n");
    }
    out.push('\n');
}

fn stdout_of(program: &str, args: &[&str]) -> String {
    let out = Command::new(program).args(args).output().ok();
    out.filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Date, commit and host of this run.
fn stamp(scale: u32) -> String {
    format!(
        "{} · commit {} · {} {}, {} CPU(s) · `repro --scale {scale}`, {} measured cycles",
        stdout_of("date", &["-u", "+%F"]),
        stdout_of("git", &["describe", "--always", "--dirty"]),
        std::env::consts::ARCH,
        std::env::consts::OS,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        measured_cycles(scale),
    )
}

/// The tables and the summary in the Markdown EXPERIMENTS.md uses, so
/// that refreshing the document is a paste.
fn markdown(r: &Records, verdicts: &[Verdict]) -> String {
    let mut out = format!("Measured: {}\n\n", r.stamp);
    // Columns are the records' own scalar fields, under their own names:
    // the vocabulary the predicates below are written in.
    for (record, ids) in ARTIFACTS {
        let rows = r.rows(record);
        let first = rows.first().and_then(Json::as_object).unwrap_or_default();
        let scalar = first.iter().filter(|(_, v)| cell(v).is_some());
        let fields: Vec<&str> = scalar.map(|(k, _)| k.as_str()).collect();
        let line = |t: &Json| {
            let cells = fields.iter().filter_map(|k| cell(t.get(k)?));
            cells.collect::<Vec<_>>().join(" | ")
        };
        let title = format!("{record}.json ({})", ids.join(", "));
        table(&mut out, &title, &fields.join(" | "), rows.iter().map(line));
    }
    let summary = |v: &Verdict| {
        let verdict = match (v.pass(), v.margin()) {
            (Some(true), Some(margin)) => format!("✔ by {margin:.3}"),
            (Some(false), Some(margin)) => format!("✘ by {margin:.3}"),
            _ => "— (host wall-clock)".to_string(),
        };
        let (id, predicate, class) = (v.id, v.predicate(), v.class());
        let (claim, paper, measured) = (v.claim, v.paper, &v.measured);
        format!("{claim} | {paper} | {measured} | `{id}`: {predicate} | {class} | {verdict}")
    };
    let header = "Claim | Paper | This repo | Predicate | Class | Verdict";
    table(
        &mut out,
        "Reproduction summary",
        header,
        verdicts.iter().map(summary),
    );
    out
}

/// Writes every record of `r` plus `verdicts.json` under `dir`.
///
/// # Errors
///
/// The first record that cannot be written, with its path — CI reads these
/// files, so a missing one fails the run.
fn write(dir: &Path, r: &Records, verdicts: &[Verdict]) -> std::io::Result<()> {
    let write_record = |name: &str, value: Json| {
        let path = dir.join(format!("{name}.json"));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, value.to_string_pretty()))
            .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))
    };
    for (record, _) in ARTIFACTS {
        write_record(record, Json::Array(r.rows(record).to_vec()))?;
    }
    let doc = json!({
        "scale": r.scale,
        "compiles": r.compiles,
        "stamp": r.stamp.as_str(),
        "verdicts": verdicts.iter().map(Verdict::to_json).collect::<Vec<_>>(),
    });
    write_record("verdicts", doc)
}

/// The `repro` binary: everything is printed and written before the exit
/// code says whether an asserted predicate failed (1), a record could not
/// be written (1) or the arguments were not understood (2).
pub fn main(args: impl IntoIterator<Item = String>) -> ExitCode {
    let scale = match parse_args(args) {
        Ok(scale) => scale,
        Err(e) => {
            eprintln!("repro: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let records = measure(scale);
    let verdicts = verdicts(&records);
    print!("{}", markdown(&records, &verdicts));
    if let Err(e) = write(Path::new("target/gem-experiments"), &records, &verdicts) {
        eprintln!("repro: cannot write record {e}");
        return ExitCode::FAILURE;
    }
    let failed = verdicts.iter().filter(|v| v.pass() == Some(false));
    let failed: Vec<&str> = failed.map(|v| v.id).collect();
    if !failed.is_empty() {
        eprintln!("repro: asserted predicates failed: {}", failed.join(", "));
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One scale-0 measurement shared by the tests that need real records.
    fn scale0() -> &'static Records {
        static RUN: OnceLock<Records> = OnceLock::new();
        RUN.get_or_init(|| measure(0))
    }

    fn failed_ids(r: &Records) -> Vec<&'static str> {
        let failed = verdicts(r).into_iter().filter(|v| v.pass() == Some(false));
        failed.map(|v| v.id).collect()
    }

    fn asserted(r: &Records) -> Vec<(&'static str, f64)> {
        let asserted = verdicts(r).into_iter().filter(|v| v.holds.is_some());
        asserted.map(|v| (v.id, v.value)).collect()
    }

    #[test]
    fn repro_predicates_hold_at_scale_0() {
        let r = scale0();
        assert_eq!(failed_ids(r), Vec::<&str>::new());
        assert_eq!(r.compiles, suite(0).len(), "one compile per design");
        for id in ["T1", "T2", "F3", "F5", "S1", "S2", "A1"] {
            let covers =
                |(record, ids): &(&str, &[&str])| ids.contains(&id) && !r.rows(record).is_empty();
            assert!(ARTIFACTS.iter().any(covers), "no record for {id}");
        }
        // One predicate per summary row, every one of them with a value,
        // and what is asserted repeats exactly from run to run — which
        // wall-clock never would.
        let mut ids: Vec<&str> = verdicts(r).iter().map(|v| v.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), verdicts(r).len());
        assert!(!markdown(r, &verdicts(r)).contains("NaN"));
        assert_eq!(asserted(r), asserted(&measure(0)));
    }

    #[test]
    fn each_predicate_can_fail() {
        // `(predicate, record, field, value)`: the field set, in every row
        // of the record, to a value just past the predicate's threshold.
        let cases = [
            ("T1.layers_vs_levels", "table1", "levels_per_layer", 2.9),
            ("T1.bytes_per_gate", "table1", "bytes_per_gate", 30.5),
            ("F3.sync_reduction", "fig3_boomerang", "reduction", 4.9),
            (
                "F5.single_stage_blowup",
                "fig5_repcut",
                "single_stage_replication",
                1.99,
            ),
            ("F5.two_stage_rescue", "fig5_repcut", "two_stage_cut", 1.9),
            ("S2.long_tail", "obs4_longtail", "frontier_fraction", 0.49),
            // Baselines that see no difference in activity.
            ("T2.activity_invariant", "table2", "events_per_cycle", 100.0),
            ("T2.avg_vs_gl0am", "table2", "speedup_gl0am", 3.8),
            // The 3090 a hair ahead of the A100.
            ("T2.a100_over_3090", "table2", "a100_per_3090", 0.999),
            // FIFO one layer in 34 better.
            (
                "A1.timing_driven_layers",
                "ablate_placement",
                "timing_driven_per_fifo",
                1.03,
            ),
        ];
        for (id, record, field, value) in cases {
            let mut r = scale0().clone();
            for t in r.tables.get_mut(record).unwrap() {
                t.set(field, value);
            }
            assert_eq!(failed_ids(&r), [id], "{record}.{field} = {value}");
        }
        // One workload charged differently from its siblings.
        let mut r = scale0().clone();
        r.tables.get_mut("table2").unwrap()[1].set("gem_counters", "one ALU op more");
        assert_eq!(failed_ids(&r), ["T2.activity_invariant"]);
        // Every asserted predicate has a case above, and none passes
        // vacuously on records that were never measured.
        let all: Vec<&str> = asserted(scale0()).iter().map(|&(id, _)| id).collect();
        assert!(all.iter().all(|id| cases.iter().any(|c| c.0 == *id)));
        assert_eq!(failed_ids(&Records::default()), all);
    }

    #[test]
    fn arguments_fail_loudly() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        assert_eq!(parse(&[]), Ok(1));
        assert_eq!(parse(&["--scale", "0"]), Ok(0));
        assert_eq!(parse(&["--scale", "2"]), Ok(2), "no generator caps scale 2");
        let past = parse(&["--scale", "4294967295"]).unwrap_err();
        assert!(past.contains("nvdla_like"), "{past}");
        let wide = parse(&["--scale", "683"]).unwrap_err();
        assert!(wide.contains("gemmini_like(8196): n must be in"), "{wide}");
        for bad in [
            &["--scale", "x"][..],
            &["--scale", "-1"],
            &["--scale"],
            &["--bogus"],
            &["--cycles", "800"],
            &["--scale", "0", "extra"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn unwritable_record_is_an_error() {
        // No directory can be created beneath a regular file.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml/records");
        let err = write(&dir, &Records::default(), &[]).unwrap_err();
        assert!(err.to_string().contains("table1.json"), "{err}");
    }
}
