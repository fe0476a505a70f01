//! Hotspot attribution: where does a design's simulation time go?
//!
//! [`profile`] runs a loaded design for N cycles and attributes the
//! modeled GPU timing (deterministic, from
//! [`gem_vgpu::KernelCounters`]) two ways, next to the measured wall
//! clock of the run:
//!
//! * **per partition** — each virtual core's modeled µs/cycle from its
//!   own counter refinement (memory traffic vs. compute, whichever
//!   dominates). Partitions of one stage run concurrently on the GPU, so
//!   the slowest partition of each stage bounds that stage.
//! * **per boomerang layer** — compute cost share by layer, localizing
//!   hot logic depth.
//!
//! The report is the data argument for the ROADMAP's re-partitioning
//! items: `gem profile <design.v|design.gemb>` prints
//! [`ProfileReport::render_table`], and the server's `profile` wire op
//! returns [`ProfileReport::to_json`].

use crate::simulator::GemSimulator;
use gem_telemetry::Json;
use gem_vgpu::{GpuSpec, TimingModel};
use std::time::Instant;

/// Knobs for a profiling run.
#[derive(Debug, Clone)]
pub struct ProfileOptions {
    /// Simulated cycles to run (clamped to at least 1).
    pub cycles: u64,
    /// GPU the modeled timing targets.
    pub spec: GpuSpec,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            cycles: 256,
            spec: GpuSpec::a100(),
        }
    }
}

/// Modeled cost of one partition (virtual core).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionProfile {
    /// Pipeline stage index.
    pub stage: u32,
    /// Core index within the stage.
    pub core: u32,
    /// Modeled µs per simulated cycle (max of memory and compute terms).
    pub modeled_micros_per_cycle: f64,
    /// Share of the summed per-partition modeled cost (0..=1).
    pub share: f64,
    /// Whether this is the slowest partition of its stage (it bounds the
    /// stage's modeled time — partitions of a stage run concurrently).
    pub stage_critical: bool,
    /// Global-memory bytes per cycle.
    pub global_bytes_per_cycle: f64,
    /// Shared-memory accesses plus fold ALU ops per cycle.
    pub compute_ops_per_cycle: f64,
}

/// Compute cost of one boomerang layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerProfile {
    /// Layer index (0 = widest).
    pub layer: u32,
    /// Times any core executed this layer.
    pub executions: u64,
    /// Shared-memory accesses plus ALU ops attributed to the layer.
    pub compute_ops: u64,
    /// Share of the summed layer compute cost (0..=1).
    pub share: f64,
}

/// The full attribution report of one profiling run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Design name.
    pub design: String,
    /// Cycles simulated.
    pub cycles: u64,
    /// GPU the modeled numbers target.
    pub gpu: String,
    /// Measured wall-clock seconds for the run.
    pub wall_seconds: f64,
    /// Measured simulation speed, cycles per second.
    pub actual_hz: f64,
    /// Modeled speed on the target GPU, cycles per second.
    pub modeled_hz: f64,
    /// Partitions, most expensive first.
    pub partitions: Vec<PartitionProfile>,
    /// Boomerang layers, widest (layer 0) first.
    pub layers: Vec<LayerProfile>,
}

/// Compiles nothing, simulates everything: steps `sim` for `opts.cycles`
/// cycles and attributes the time from the machine's own counters. Pass
/// a power-on simulator — its counter totals are divided by this run's
/// cycles. Inputs stay as they are (zero at power-on): GEM's full-cycle
/// execution makes the cost stimulus-independent.
pub fn profile(mut sim: GemSimulator, design: &str, opts: &ProfileOptions) -> ProfileReport {
    let cycles = opts.cycles.max(1);
    let started = Instant::now();
    for _ in 0..cycles {
        sim.step();
    }
    let wall_seconds = started.elapsed().as_secs_f64();
    let model = TimingModel::new(opts.spec.clone());
    let bd = sim.breakdown();

    // Per-partition modeled cost: memory vs. compute, per cycle.
    let mut partitions: Vec<PartitionProfile> = bd
        .partitions
        .iter()
        .map(|p| {
            let c = &p.counters;
            let bytes = c.global_bytes as f64 / cycles as f64;
            let ops = (c.shared_accesses + c.alu_ops) as f64 / cycles as f64;
            let (t_mem, t_compute) = model.mem_and_compute_seconds(bytes, ops, 1.0);
            PartitionProfile {
                stage: p.stage,
                core: p.core,
                modeled_micros_per_cycle: t_mem.max(t_compute) * 1e6,
                share: 0.0,
                stage_critical: false,
                global_bytes_per_cycle: bytes,
                compute_ops_per_cycle: ops,
            }
        })
        .collect();
    let total_cost: f64 = partitions.iter().map(|p| p.modeled_micros_per_cycle).sum();
    for p in &mut partitions {
        p.share = if total_cost > 0.0 {
            p.modeled_micros_per_cycle / total_cost
        } else {
            0.0
        };
    }
    // Mark each stage's critical (slowest) partition.
    let max_stage = partitions.iter().map(|p| p.stage).max().unwrap_or(0);
    for si in 0..=max_stage {
        if let Some(max_core) = partitions
            .iter()
            .filter(|p| p.stage == si)
            .max_by(|a, b| {
                a.modeled_micros_per_cycle
                    .total_cmp(&b.modeled_micros_per_cycle)
            })
            .map(|p| p.core)
        {
            for p in &mut partitions {
                if p.stage == si && p.core == max_core {
                    p.stage_critical = true;
                }
            }
        }
    }
    partitions.sort_by(|a, b| {
        b.modeled_micros_per_cycle
            .total_cmp(&a.modeled_micros_per_cycle)
    });

    // Per-layer compute shares.
    let layer_total: u64 = bd
        .layers
        .iter()
        .map(|l| l.shared_accesses + l.alu_ops)
        .sum();
    let layers = bd
        .layers
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let ops = l.shared_accesses + l.alu_ops;
            LayerProfile {
                layer: i as u32,
                executions: l.executions,
                compute_ops: ops,
                share: if layer_total > 0 {
                    ops as f64 / layer_total as f64
                } else {
                    0.0
                },
            }
        })
        .collect();

    ProfileReport {
        design: design.to_string(),
        cycles,
        gpu: opts.spec.name.to_string(),
        wall_seconds,
        actual_hz: if wall_seconds > 0.0 {
            cycles as f64 / wall_seconds
        } else {
            0.0
        },
        modeled_hz: model.hz_total(sim.counters()),
        partitions,
        layers,
    }
}

impl ProfileReport {
    /// Renders the human-readable attribution table `gem profile` prints.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "profile: {} — {} cycles, modeled on {}\n",
            self.design, self.cycles, self.gpu
        ));
        out.push_str(&format!(
            "wall {:.3} s ({:.0} cyc/s actual)   modeled {:.0} cyc/s\n\n",
            self.wall_seconds, self.actual_hz, self.modeled_hz
        ));
        out.push_str("partitions (modeled, most expensive first; * bounds its stage)\n");
        out.push_str("  stage core   us/cycle  share  bytes/cyc  ops/cyc\n");
        for p in &self.partitions {
            out.push_str(&format!(
                "  {:>5} {:>4}{} {:>9.4} {:>5.1}% {:>10.0} {:>8.0}\n",
                p.stage,
                p.core,
                if p.stage_critical { "*" } else { " " },
                p.modeled_micros_per_cycle,
                p.share * 100.0,
                p.global_bytes_per_cycle,
                p.compute_ops_per_cycle,
            ));
        }
        out.push_str("\nlayers (compute share by boomerang layer)\n");
        out.push_str("  layer  executions  compute_ops  share\n");
        for l in &self.layers {
            out.push_str(&format!(
                "  {:>5} {:>11} {:>12} {:>5.1}%\n",
                l.layer,
                l.executions,
                l.compute_ops,
                l.share * 100.0
            ));
        }
        out
    }

    /// Serializes the report (the `profile` wire op's payload).
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("design", self.design.as_str());
        o.set("cycles", self.cycles);
        o.set("gpu", self.gpu.as_str());
        o.set("wall_seconds", self.wall_seconds);
        o.set("actual_hz", self.actual_hz);
        o.set("modeled_hz", self.modeled_hz);
        let parts: Vec<Json> = self
            .partitions
            .iter()
            .map(|p| {
                let mut j = Json::object();
                j.set("stage", u64::from(p.stage));
                j.set("core", u64::from(p.core));
                j.set("modeled_micros_per_cycle", p.modeled_micros_per_cycle);
                j.set("share", p.share);
                j.set("stage_critical", p.stage_critical);
                j.set("global_bytes_per_cycle", p.global_bytes_per_cycle);
                j.set("compute_ops_per_cycle", p.compute_ops_per_cycle);
                j
            })
            .collect();
        o.set("partitions", Json::Array(parts));
        let layers: Vec<Json> = self
            .layers
            .iter()
            .map(|l| {
                let mut j = Json::object();
                j.set("layer", u64::from(l.layer));
                j.set("executions", l.executions);
                j.set("compute_ops", l.compute_ops);
                j.set("share", l.share);
                j
            })
            .collect();
        o.set("layers", Json::Array(layers));
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompileOptions};
    use gem_netlist::ModuleBuilder;

    fn acc() -> GemSimulator {
        let mut b = ModuleBuilder::new("acc");
        let d = b.input("d", 16);
        let q = b.dff(16);
        let nxt = b.add(q, d);
        b.connect_dff(q, nxt);
        b.output("q", q);
        let m = b.finish().expect("valid");
        let c = compile(&m, &CompileOptions::small()).expect("compiles");
        GemSimulator::new(&c).expect("loads")
    }

    #[test]
    fn profile_attributes_partitions_and_layers() {
        let rep = profile(
            acc(),
            "acc",
            &ProfileOptions {
                cycles: 16,
                ..ProfileOptions::default()
            },
        );
        assert_eq!(rep.cycles, 16);
        assert!(!rep.partitions.is_empty());
        // Shares sum to ~1 and the list is sorted descending.
        let share_sum: f64 = rep.partitions.iter().map(|p| p.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9, "share sum {share_sum}");
        for w in rep.partitions.windows(2) {
            assert!(w[0].modeled_micros_per_cycle >= w[1].modeled_micros_per_cycle);
        }
        // Exactly one critical partition per stage.
        let stages: std::collections::BTreeSet<u32> =
            rep.partitions.iter().map(|p| p.stage).collect();
        for si in &stages {
            assert_eq!(
                rep.partitions
                    .iter()
                    .filter(|p| p.stage == *si && p.stage_critical)
                    .count(),
                1,
                "stage {si}"
            );
        }
        assert!(!rep.layers.is_empty());
        let layer_sum: f64 = rep.layers.iter().map(|l| l.share).sum();
        assert!((layer_sum - 1.0).abs() < 1e-9);
        assert!(rep.modeled_hz > 0.0);
        // Table renders every section.
        let table = rep.render_table();
        assert!(table.contains("partitions"));
        assert!(table.contains("layers"));
        // JSON round-trips through the parser.
        let parsed = gem_telemetry::parse_json(&rep.to_json().to_string()).expect("parses");
        assert_eq!(parsed.get("design").unwrap().as_str(), Some("acc"));
        assert!(!parsed
            .get("partitions")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
    }
}
