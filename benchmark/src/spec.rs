//! The ladder's vocabulary: workload names, metric names and units.
//!
//! `BENCHMARK.json` at the repo root carries the same lists (plus the
//! direction and regression bound of each metric); `tests/ladder.rs`
//! holds the two in agreement, so a metric cannot be added on one side
//! only.

use gem_telemetry::Json;

pub const WORKLOADS: [&str; 4] = [
    "piton8_scalar",
    "piton8_lanes64",
    "gemmini_compile",
    "server_mac",
];

/// `(name, unit)` of every end-to-end metric, measured with tracing off.
/// Every workload reports every one of them.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("step_p01_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of every per-layer metric, measured in the traced run.
/// The prefix is the crate the timed call belongs to. A workload that
/// never enters a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("netlist.parse_ms", "ms"),
    ("analyze.run_ms", "ms"),
    ("synth.run_ms", "ms"),
    ("synth.gates", "count"),
    ("synth.levels", "count"),
    ("partition.run_s", "s"),
    ("partition.merge_s", "s"),
    ("partition.attempts", "count"),
    ("partition.parts", "count"),
    ("partition.replication", "ratio"),
    ("place.run_s", "s"),
    ("place.layers_max", "count"),
    ("place.fold_us", "us"),
    ("place.fold_and_evals_per_s", "1/s"),
    ("place.fold_bytes_per_cycle", "B"),
    ("isa.verify_ms", "ms"),
    ("isa.certify_ms", "ms"),
    ("isa.decode_ms", "ms"),
    ("isa.bitstream_bytes", "B"),
    ("core.compile_s", "s"),
    ("core.package_ms", "ms"),
    ("core.lane_cycles_per_s", "cycle/s"),
    ("core.set_input_us", "us"),
    ("core.step_p50_us", "us"),
    ("core.step_p90_us", "us"),
    ("core.step_p99_us", "us"),
    ("core.output_us", "us"),
    ("vgpu.load_ms", "ms"),
    ("vgpu.step_p50_us", "us"),
    ("vgpu.kernel_us", "us"),
    ("vgpu.nonkernel_us", "us"),
    ("vgpu.alu_ops_per_cycle", "count"),
    ("vgpu.shared_accesses_per_cycle", "count"),
    ("vgpu.global_bytes_per_cycle", "B"),
    ("vgpu.device_syncs_per_cycle", "count"),
    ("vgpu.blocks_per_cycle", "count"),
    ("vgpu.modeled_a100_hz", "Hz"),
    ("sim.golden_cycles_per_s", "cycle/s"),
    ("server.open_cold_s", "s"),
    ("server.open_cached_ms", "ms"),
    ("server.ping_p50_ms", "ms"),
    ("server.ping_min_ms", "ms"),
    ("server.engine_ms", "ms"),
    ("server.job_mean_ms", "ms"),
    ("server.compiles", "count"),
    ("server.cache_hits", "count"),
    ("server.busy_retries", "count"),
    ("server.overhead_share", "ratio"),
    ("server.served_cycles_per_s", "cycle/s"),
    ("server.step_p50_ms", "ms"),
    ("server.step_p90_ms", "ms"),
    ("server.step_p99_ms", "ms"),
    ("server.peek_p50_ms", "ms"),
    ("telemetry.frame_roundtrip_us", "us"),
    ("trace.overhead_share", "ratio"),
];

/// Values of one run, filled by name and emitted in table order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records a value.
    ///
    /// # Panics
    ///
    /// Panics on a name that is in neither table or on a non-finite value
    /// — both are harness bugs that must not reach a results file.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "metric {name:?} is not in the ladder's tables"
        );
        assert!(value.is_finite(), "metric {name:?} is {value}");
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// Copies every value of `other` in.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, value) in &other.0 {
            self.set(name, *value);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Every recorded value as a flat `name: value` object.
    pub fn to_json_values(&self) -> Json {
        let mut o = Json::object();
        for (name, value) in &self.0 {
            o.set(name, *value);
        }
        o
    }

    /// The `metrics` object of the result line: every metric of `table`
    /// with its unit; layers the workload never entered read 0.
    pub fn to_json(&self, table: &[(&'static str, &'static str)]) -> Json {
        let mut o = Json::object();
        for (name, unit) in table {
            let mut m = Json::object();
            m.set("value", self.get(name).unwrap_or(0.0));
            m.set("unit", *unit);
            o.set(name, m);
        }
        o
    }
}

/// What `check` needs from `BENCHMARK.json`: each end-to-end metric's
/// direction and bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// Reads the end-to-end bounds out of a `BENCHMARK.json` document.
pub fn bounds_from_benchmark_json(doc: &Json) -> Result<Vec<Bound>, String> {
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without better")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            Ok(Bound {
                name: name.to_string(),
                higher_is_better: better == "higher",
                bound,
            })
        })
        .collect()
}
