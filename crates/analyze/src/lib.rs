//! Whole-program static analyzer for the GEM flow.
//!
//! **Netlist lints** ([`analyze_module`]) walk a [`gem_netlist::Module`]
//! — validated or not. The structural ones are the findings of the one
//! checker, [`gem_netlist::check`] (what [`gem_netlist::validate`]
//! returns the first of), reported in full with source-named witnesses;
//! dead cones and constant-foldable cones are advisory and this crate's
//! own. Frontend findings ([`gem_netlist::verilog::SourceLint`]) fold
//! into the same report via [`analyze_with_lints`].
//!
//! Every finding is a typed [`Diagnostic`] `{ code, severity, witness }`
//! with source names carried from the Verilog frontend, and every pass
//! records wall time ([`PassResult`]) so the compile flow's `analyze`
//! stage and the `gem_analyze_*` metric families (see
//! [`analyze_metrics`]) come for free.
//!
//! # Diagnostic codes
//!
//! The rules behind them are stated once, in `docs/ANALYZE.md` §1.
//!
//! | code       | severity | meaning |
//! |------------|----------|---------|
//! | `GEM-L001` | error    | combinational cycle (witness: the cycle path) |
//! | `GEM-L002` | error    | undriven net |
//! | `GEM-L003` | error    | multiply-driven net |
//! | `GEM-L004` | error    | cell/port width mismatch |
//! | `GEM-L005` | warning  | assignment truncates its right-hand side |
//! | `GEM-L006` | info     | dead cone (logic feeding no output or state) |
//! | `GEM-L007` | info     | constant-foldable cone |
//! | `GEM-L008` | error    | declared net or memory size out of range (zero included) |
//! | `GEM-L009` | error    | duplicate port name |

#![deny(unsafe_code)]

mod passes;

use gem_netlist::verilog::SourceLint;
use gem_netlist::{check, Module};
use gem_telemetry::{Json, MetricFamily, MetricKind, MetricsSnapshot, Sample};
use std::fmt;
use std::time::Instant;

/// How bad a finding is. `Error` blocks compilation; `Warning` fails
/// `--deny warnings`; `Info` is advisory (the optimizer handles it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: the flow handles it (e.g. synthesis prunes dead cones).
    Info,
    /// Suspicious but compilable; fails `--deny warnings` gates.
    Warning,
    /// The design cannot be compiled faithfully.
    Error,
}

impl Severity {
    /// Stable lowercase name (part of the JSON/metrics format).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One typed finding with a concrete witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`GEM-Lnnn`); the catalog lives in `docs/ANALYZE.md`.
    pub code: &'static str,
    /// Severity tier.
    pub severity: Severity,
    /// Human-readable statement of the problem.
    pub message: String,
    /// The concrete evidence: named nets on a cycle, the offending net
    /// — never empty, always source-level when names survived the
    /// frontend.
    pub witness: String,
}

impl Diagnostic {
    /// The wire and `--json` form: `code`, `severity`, `message`,
    /// `witness`.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("code", self.code);
        o.set("severity", self.severity.name());
        o.set("message", self.message.as_str());
        o.set("witness", self.witness.as_str());
        o
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {} (witness: {})",
            self.severity, self.code, self.message, self.witness
        )
    }
}

/// Timing and yield of one analysis pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassResult {
    /// Pass name (stable; part of the metrics format).
    pub name: &'static str,
    /// Wall time spent, nanoseconds.
    pub wall_ns: u64,
    /// Diagnostics the pass produced.
    pub diagnostics: usize,
}

/// The complete analysis outcome: per-pass timings plus every finding.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Passes executed, in order.
    pub passes: Vec<PassResult>,
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Findings at exactly `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// Error-severity findings (these block compilation).
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// True when nothing at or above `floor` was found (the `--deny`
    /// gate: `clean(Severity::Warning)` is "zero warnings").
    pub fn clean(&self, floor: Severity) -> bool {
        self.diagnostics.iter().all(|d| d.severity < floor)
    }

    /// One-line outcome: counts per severity, first errors inline.
    pub fn summary(&self) -> String {
        let (e, w, i) = (
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        );
        if self.diagnostics.is_empty() {
            return format!("clean ({} passes)", self.passes.len());
        }
        let shown: Vec<String> = self.errors().take(2).map(|d| d.to_string()).collect();
        let detail = if shown.is_empty() {
            String::new()
        } else {
            format!(": {}", shown.join("; "))
        };
        format!("{e} error(s), {w} warning(s), {i} info(s){detail}")
    }

    fn run_pass(&mut self, name: &'static str, f: impl FnOnce(&mut Vec<Diagnostic>)) {
        let start = Instant::now();
        let before = self.diagnostics.len();
        f(&mut self.diagnostics);
        self.passes.push(PassResult {
            name,
            wall_ns: start.elapsed().as_nanos() as u64,
            diagnostics: self.diagnostics.len() - before,
        });
    }
}

/// Runs the netlist lint passes over a module.
///
/// The module may be unvalidated (e.g. straight from
/// [`gem_netlist::verilog::parse_with_lints`] or
/// [`gem_netlist::builder::ModuleBuilder::finish_raw`]): the report has
/// an error-severity structural finding exactly when
/// [`gem_netlist::validate`] refuses the module — both are
/// [`gem_netlist::check`] — and adds the advisory findings validation
/// has no opinion on.
pub fn analyze_module(m: &Module) -> AnalysisReport {
    analyze_with_lints(m, &[])
}

/// Like [`analyze_module`], folding frontend source lints (width
/// truncations the Verilog elaborator papered over) into the report.
pub fn analyze_with_lints(m: &Module, lints: &[SourceLint]) -> AnalysisReport {
    let mut r = AnalysisReport::default();
    r.run_pass("source", |d| passes::source_lints(lints, d));
    r.run_pass("drivers", |d| passes::structural(m, check::drivers(m), d));
    r.run_pass("widths", |d| passes::structural(m, check::widths(m), d));
    r.run_pass("loops", |d| passes::structural(m, check::loops(m), d));
    r.run_pass("dead_cone", |d| passes::dead_cone(m, d));
    r.run_pass("const_cone", |d| passes::const_cone(m, d));
    r
}

/// Converts an analysis report into the `gem_analyze_*` metric families
/// (documented in `docs/OBSERVABILITY.md`).
pub fn analyze_metrics(report: &AnalysisReport) -> MetricsSnapshot {
    let mut s = MetricsSnapshot::default();
    s.push_scalar(
        "gem_analyze_passes_total",
        "Static analysis passes executed",
        MetricKind::Counter,
        report.passes.len() as f64,
    );
    s.push_scalar(
        "gem_analyze_clean",
        "1 when the last analysis found no warnings or errors",
        MetricKind::Gauge,
        if report.clean(Severity::Warning) {
            1.0
        } else {
            0.0
        },
    );
    s.push(MetricFamily {
        name: "gem_analyze_diagnostics_total".to_string(),
        help: "Diagnostics found, by severity".to_string(),
        kind: MetricKind::Counter,
        samples: [Severity::Error, Severity::Warning, Severity::Info]
            .iter()
            .map(|&sev| Sample {
                labels: vec![("severity".to_string(), sev.name().to_string())],
                value: report.count(sev) as f64,
            })
            .collect(),
    });
    s.push(MetricFamily {
        name: "gem_analyze_pass_wall_nanos".to_string(),
        help: "Wall time spent per analysis pass".to_string(),
        kind: MetricKind::Gauge,
        samples: report
            .passes
            .iter()
            .map(|p| Sample {
                labels: vec![("pass".to_string(), p.name.to_string())],
                value: p.wall_ns as f64,
            })
            .collect(),
    });
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_netlist::ModuleBuilder;

    #[test]
    fn clean_module_is_clean() {
        let mut b = ModuleBuilder::new("clean");
        let a = b.input("a", 4);
        let q = b.dff(4);
        let x = b.xor(a, q);
        b.connect_dff(q, x);
        b.output("y", x);
        let m = b.finish().expect("valid");
        let r = analyze_module(&m);
        assert!(r.clean(Severity::Info), "{}", r.summary());
        assert_eq!(r.passes.len(), 6);
        assert!(r.summary().starts_with("clean"));
    }

    /// The slice rule refuses a slice past its input, also when
    /// `lo + width` does not fit a `u32` and used to wrap back in — seen
    /// as GEM-L004 here and as `validate`'s first finding alike.
    #[test]
    fn the_slice_rule_refuses_out_of_range_slices_overflow_included() {
        for (lo, width) in [(0, 8), (u32::MAX - 2, 8)] {
            let mut b = ModuleBuilder::new("s");
            let a = b.input("a", 1);
            let y = b.slice(a, lo, width);
            b.output("y", y);
            let m = b.finish_raw();
            let report = analyze_module(&m);
            assert!(
                report.errors().any(|d| d.code == "GEM-L004"),
                "[{lo},+{width}): {}",
                report.summary()
            );
            let validated = gem_netlist::validate(&m);
            assert!(
                matches!(
                    validated,
                    Err(gem_netlist::ValidateError::WidthMismatch { at, .. }) if at == y
                ),
                "[{lo},+{width}): {validated:?}"
            );
        }
    }

    #[test]
    fn comb_loop_yields_l001_with_named_witness() {
        let mut b = ModuleBuilder::new("loopy");
        let a = b.input("a", 1);
        let f = b.forward(1);
        b.name_net(f, "fb");
        let x = b.and(f, a);
        b.name_net(x, "x");
        let n = b.not(x);
        b.drive(f, n);
        b.output("y", x);
        let m = b.finish_raw();
        let r = analyze_module(&m);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == "GEM-L001")
            .expect("loop diagnosed");
        assert_eq!(d.severity, Severity::Error);
        assert!(
            d.witness.contains("fb") && d.witness.contains("x"),
            "witness names the nets on the cycle: {}",
            d.witness
        );
    }

    #[test]
    fn undriven_and_multi_driven_are_l002_l003() {
        let mut b = ModuleBuilder::new("drv");
        let a = b.input("a", 1);
        let dangling = b.forward(1);
        b.name_net(dangling, "dangling");
        let twice = b.forward(1);
        b.drive(twice, a);
        b.drive(twice, a);
        let x = b.and(dangling, twice);
        b.output("y", x);
        let m = b.finish_raw();
        let r = analyze_module(&m);
        let codes: Vec<&str> = r.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"GEM-L002"), "{codes:?}");
        assert!(codes.contains(&"GEM-L003"), "{codes:?}");
    }

    /// What `validate` alone used to know (and `compile(&Module)` so did
    /// not): declared sizes and port names are findings like the others.
    #[test]
    fn bad_sizes_and_duplicate_ports_are_l008_l009() {
        let mut b = ModuleBuilder::new("decls");
        let a = b.input("a", 0);
        b.input("a", 1);
        let addr = b.input("addr", 1);
        let mem = b.memory("huge", u32::MAX, 8);
        let q = b.read_port(mem, addr, gem_netlist::ReadKind::Sync);
        b.output("y", a);
        b.output("q", q);
        let m = b.finish_raw();
        let r = analyze_module(&m);
        let found: Vec<(&str, &str)> = r.errors().map(|d| (d.code, d.witness.as_str())).collect();
        assert_eq!(
            found,
            [
                ("GEM-L009", "port \"a\""),
                ("GEM-L008", "n0 (\"a\")"),
                ("GEM-L008", "memory \"huge\""),
            ],
            "{}",
            r.summary()
        );
        assert!(gem_netlist::validate(&m).is_err());
    }

    #[test]
    fn dead_and_const_cones_are_advisory() {
        let mut b = ModuleBuilder::new("cones");
        let a = b.input("a", 4);
        let q = b.dff(4);
        b.connect_dff(q, a);
        b.output("y", q);
        // Dead: computed, feeds nothing.
        let dead = b.add(a, q);
        b.name_net(dead, "unused_sum");
        // Const-foldable: all-constant operands.
        let c1 = b.lit(3, 4);
        let c2 = b.lit(5, 4);
        let folded = b.add(c1, c2);
        b.name_net(folded, "three_plus_five");
        b.output("z", folded);
        let m = b.finish().expect("valid");
        let r = analyze_module(&m);
        assert!(r.clean(Severity::Warning), "{}", r.summary());
        let dead = r
            .diagnostics
            .iter()
            .find(|d| d.code == "GEM-L006")
            .expect("dead cone found");
        assert_eq!(dead.severity, Severity::Info);
        assert!(dead.witness.contains("unused_sum"), "{}", dead.witness);
        let cc = r
            .diagnostics
            .iter()
            .find(|d| d.code == "GEM-L007")
            .expect("const cone found");
        assert!(cc.witness.contains("three_plus_five"), "{}", cc.witness);
    }

    #[test]
    fn source_lints_become_l005_warnings() {
        let (m, lints) = gem_netlist::verilog::parse_with_lints(
            "module t(input [7:0] a, output [3:0] y);\n assign y = a;\nendmodule",
        )
        .expect("parses");
        let r = analyze_with_lints(&m, &lints);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == "GEM-L005")
            .expect("truncation warned");
        assert_eq!(d.severity, Severity::Warning);
        assert!(!r.clean(Severity::Warning));
        assert!(r.clean(Severity::Error));
    }

    #[test]
    fn metrics_cover_every_pass_and_severity() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 1);
        b.output("y", a);
        let m = b.finish().expect("valid");
        let r = analyze_module(&m);
        let snap = analyze_metrics(&r);
        assert_eq!(snap.family("gem_analyze_clean").unwrap().total(), 1.0);
        assert_eq!(
            snap.family("gem_analyze_pass_wall_nanos")
                .unwrap()
                .samples
                .len(),
            r.passes.len()
        );
        assert_eq!(
            snap.family("gem_analyze_diagnostics_total")
                .unwrap()
                .samples
                .len(),
            3
        );
    }
}
