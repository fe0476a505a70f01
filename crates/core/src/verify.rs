//! Compiler-side adapter for the static bitstream verifier.
//!
//! [`gem_isa::verify`] works from a neutral [`VerifyContext`] so the ISA
//! crate stays below the machine layer; this module builds that context
//! from the compiler's own artifacts ([`DeviceConfig`], [`IoMap`], the
//! placed programs) and converts a [`VerifyReport`] into the
//! `gem_verify_*` metric families of a [`MetricsSnapshot`].

use crate::IoMap;
use gem_isa::{verify_bitstream, Bitstream, VerifyContext, VerifyReport};
use gem_place::CoreProgram;
use gem_telemetry::{MetricFamily, MetricKind, MetricsSnapshot, Sample};
use gem_vgpu::DeviceConfig;

/// Builds the verifier's view of the device from compiler outputs.
pub fn context<'a>(
    device: &DeviceConfig,
    io: &IoMap,
    programs: Option<&'a [Vec<CoreProgram>]>,
) -> VerifyContext<'a> {
    VerifyContext {
        global_bits: device.global_bits,
        rams: device.rams.clone(),
        initial_ones: device.initial_ones.clone(),
        input_slots: io.inputs.iter().flat_map(|p| p.bits.clone()).collect(),
        output_slots: io.outputs.iter().flat_map(|p| p.bits.clone()).collect(),
        programs,
        schedule_cert: None,
    }
}

/// Runs the full static check suite against a compiled design's
/// artifacts. Pass `programs: None` when verifying a packaged design
/// that no longer carries placement metadata (the `merge` check is
/// skipped).
pub fn verify(
    bitstream: &Bitstream,
    device: &DeviceConfig,
    io: &IoMap,
    programs: Option<&[Vec<CoreProgram>]>,
) -> VerifyReport {
    verify_bitstream(bitstream, &context(device, io, programs))
}

impl crate::Compiled {
    /// Verifies this compile result's bitstream against its own device,
    /// I/O, and placement metadata (all six check families); the
    /// `schedule` check also cross-checks the stored certificate against
    /// recomputation.
    pub fn verify(&self) -> VerifyReport {
        let mut ctx = context(&self.device, &self.io, Some(&self.programs));
        ctx.schedule_cert = Some(&self.schedule_cert);
        verify_bitstream(&self.bitstream, &ctx)
    }
}

/// Converts a verification report into the `gem_verify_*` metric
/// families (documented in `docs/OBSERVABILITY.md`).
pub fn verify_metrics(report: &VerifyReport) -> MetricsSnapshot {
    let mut s = MetricsSnapshot::default();
    s.push_scalar(
        "gem_verify_cores",
        "Cores examined by the static bitstream verifier",
        MetricKind::Gauge,
        report.cores as f64,
    );
    s.push_scalar(
        "gem_verify_passed",
        "1 when the last verification found no violations",
        MetricKind::Gauge,
        if report.passed() { 1.0 } else { 0.0 },
    );
    s.push_scalar(
        "gem_verify_checks_total",
        "Check families executed",
        MetricKind::Counter,
        report.checks.len() as f64,
    );
    let labeled = |values: Vec<(&str, f64)>| -> Vec<Sample> {
        values
            .into_iter()
            .map(|(name, value)| Sample {
                labels: vec![("check".to_string(), name.to_string())],
                value,
            })
            .collect()
    };
    s.push(MetricFamily {
        name: "gem_verify_violations_total".to_string(),
        help: "Invariant violations found, by check family".to_string(),
        kind: MetricKind::Counter,
        samples: labeled(
            report
                .checks
                .iter()
                .map(|c| (c.name, c.violations as f64))
                .collect(),
        ),
    });
    s.push(MetricFamily {
        name: "gem_verify_check_wall_nanos".to_string(),
        help: "Wall time spent per check family".to_string(),
        kind: MetricKind::Gauge,
        samples: labeled(
            report
                .checks
                .iter()
                .map(|c| (c.name, c.wall_ns as f64))
                .collect(),
        ),
    });
    s
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{compile, CompileOptions};
    use gem_netlist::ModuleBuilder;

    pub(crate) fn counter() -> gem_netlist::Module {
        let mut b = ModuleBuilder::new("counter");
        let en = b.input("en", 1);
        let q = b.dff(8);
        let one = b.lit(1, 8);
        let inc = b.add(q, one);
        let next = b.mux(en, inc, q);
        b.connect_dff(q, next);
        b.output("q", q);
        b.finish().expect("valid module")
    }

    #[test]
    fn compiled_designs_verify_clean() {
        let c = compile(&counter(), &CompileOptions::small()).expect("compiles");
        let r = c.verify();
        assert!(r.passed(), "{}", r.summary());
        assert_eq!(r.checks.len(), gem_isa::verify::CHECK_NAMES.len());
        // The flow recorded a verify stage with per-check metrics.
        let st = c.flow.stage("verify").expect("verify stage recorded");
        assert_eq!(st.metric("violations"), Some(0.0));
        assert_eq!(st.metric("roundtrip_violations"), Some(0.0));
    }

    #[test]
    fn metrics_families_cover_every_check() {
        let c = compile(&counter(), &CompileOptions::small()).expect("compiles");
        let snap = verify_metrics(&c.verify());
        assert_eq!(snap.family("gem_verify_passed").unwrap().total(), 1.0);
        let v = snap.family("gem_verify_violations_total").unwrap();
        assert_eq!(v.samples.len(), gem_isa::verify::CHECK_NAMES.len());
        assert_eq!(v.total(), 0.0);
        assert!(snap.family("gem_verify_check_wall_nanos").is_some());
    }
}
