//! Architectural event counters accumulated during virtual execution.
//!
//! [`KernelCounters`] are the device-global totals the timing model
//! consumes. [`CounterBreakdown`] refines them along the two axes the
//! paper's performance analysis cares about: **partitions** (one VLIW
//! core / thread block each, labeled by pipeline stage and core index)
//! and **boomerang layers** (combinational depth inside a core). Both are
//! convertible to a label-oriented [`MetricsSnapshot`] for export.
//!
//! Attribution rules: everything a core does — bitstream streaming,
//! signal gathers/publishes, shared-memory folds, block barriers — is
//! charged to its partition, so partition sums reconcile exactly with the
//! core-attributable global totals. RAM-phase traffic and device-wide
//! barriers happen outside any core and stay device-level only (see
//! `docs/OBSERVABILITY.md`).

use gem_telemetry::{MetricFamily, MetricKind, MetricsSnapshot, Sample};
use std::ops::{AddAssign, Mul};

/// Counts of the events that determine GPU runtime. All counts are
/// cumulative; divide by the simulated cycle count for per-cycle rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelCounters {
    /// Bytes moved through global memory (instruction words + signal
    /// gathers + publishes).
    pub global_bytes: u64,
    /// 128-byte global-memory transactions.
    pub global_transactions: u64,
    /// Shared-memory accesses (permutation gathers, fold traffic).
    pub shared_accesses: u64,
    /// Boolean fold operations executed.
    pub alu_ops: u64,
    /// Block-level (`__syncthreads`) barriers.
    pub block_syncs: u64,
    /// Device-wide (cooperative-groups) barriers.
    pub device_syncs: u64,
    /// Thread blocks launched (virtual; resident blocks iterate when the
    /// partition count exceeds device capacity).
    pub blocks_run: u64,
    /// Simulated design cycles executed.
    pub cycles: u64,
}

impl AddAssign for KernelCounters {
    fn add_assign(&mut self, o: Self) {
        self.global_bytes += o.global_bytes;
        self.global_transactions += o.global_transactions;
        self.shared_accesses += o.shared_accesses;
        self.alu_ops += o.alu_ops;
        self.block_syncs += o.block_syncs;
        self.device_syncs += o.device_syncs;
        self.blocks_run += o.blocks_run;
        self.cycles += o.cycles;
    }
}

/// `n` repetitions of the same events — how the per-cycle cost of an
/// oblivious core becomes its total after `n` cycles.
impl Mul<u64> for KernelCounters {
    type Output = KernelCounters;

    fn mul(self, n: u64) -> KernelCounters {
        KernelCounters {
            global_bytes: self.global_bytes * n,
            global_transactions: self.global_transactions * n,
            shared_accesses: self.shared_accesses * n,
            alu_ops: self.alu_ops * n,
            block_syncs: self.block_syncs * n,
            device_syncs: self.device_syncs * n,
            blocks_run: self.blocks_run * n,
            cycles: self.cycles * n,
        }
    }
}

impl KernelCounters {
    /// Per-cycle averages (None when no cycles ran).
    pub fn per_cycle(&self) -> Option<KernelCounters> {
        if self.cycles == 0 {
            return None;
        }
        let d = self.cycles;
        Some(KernelCounters {
            global_bytes: self.global_bytes / d,
            global_transactions: self.global_transactions / d,
            shared_accesses: self.shared_accesses / d,
            alu_ops: self.alu_ops / d,
            block_syncs: self.block_syncs / d,
            device_syncs: self.device_syncs / d,
            blocks_run: self.blocks_run / d,
            cycles: 1,
        })
    }

    /// Exact per-cycle rates as floats (all zero when no cycles ran).
    /// Unlike [`per_cycle`](Self::per_cycle), nothing is truncated, so
    /// small counts over many cycles stay visible.
    pub fn rates(&self) -> KernelRates {
        if self.cycles == 0 {
            return KernelRates::default();
        }
        let d = self.cycles as f64;
        KernelRates {
            global_bytes: self.global_bytes as f64 / d,
            global_transactions: self.global_transactions as f64 / d,
            shared_accesses: self.shared_accesses as f64 / d,
            alu_ops: self.alu_ops as f64 / d,
            block_syncs: self.block_syncs as f64 / d,
            device_syncs: self.device_syncs as f64 / d,
            blocks_run: self.blocks_run as f64 / d,
        }
    }
}

/// Exact per-cycle event rates (see [`KernelCounters::rates`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KernelRates {
    /// Global-memory bytes per cycle.
    pub global_bytes: f64,
    /// 128-byte transactions per cycle.
    pub global_transactions: f64,
    /// Shared-memory accesses per cycle.
    pub shared_accesses: f64,
    /// Fold ALU operations per cycle.
    pub alu_ops: f64,
    /// Block barriers per cycle.
    pub block_syncs: f64,
    /// Device barriers per cycle.
    pub device_syncs: f64,
    /// Blocks launched per cycle.
    pub blocks_run: f64,
}

/// Counters attributed to one partition (one VLIW core / thread block).
///
/// `counters.device_syncs` and `counters.cycles` are always zero here:
/// both are device-level events that no single partition owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionCounters {
    /// Pipeline stage index of the core.
    pub stage: u32,
    /// Core index within the stage.
    pub core: u32,
    /// Events charged to this core.
    pub counters: KernelCounters,
}

/// Events aggregated per boomerang-layer index across all cores, i.e.
/// layer `k` sums the cost of the `k`-th layer of every core that is at
/// least `k + 1` layers deep. The tail of this distribution shows how
/// much of the device's work the deepest partitions serialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerCounters {
    /// Boomerang-layer index within a core program.
    pub layer: u32,
    /// Fold ALU operations in this layer across all cores.
    pub alu_ops: u64,
    /// Shared-memory accesses in this layer across all cores.
    pub shared_accesses: u64,
    /// Block barriers issued by this layer across all cores.
    pub block_syncs: u64,
    /// Core executions that reached this layer.
    pub executions: u64,
}

/// Device totals plus their per-partition and per-layer refinement.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CounterBreakdown {
    /// Device-global totals (the same struct [`crate::GemGpu::counters`]
    /// returns).
    pub total: KernelCounters,
    /// Per-partition attribution, ordered by (stage, core).
    pub partitions: Vec<PartitionCounters>,
    /// Per-layer aggregation, ordered by layer index.
    pub layers: Vec<LayerCounters>,
}

impl CounterBreakdown {
    /// Sums the per-partition counters. For every core-attributable field
    /// (`alu_ops`, `shared_accesses`, `block_syncs`, `blocks_run`) this equals the corresponding field of
    /// [`total`](Self::total); `global_bytes`/`global_transactions` match
    /// exactly on RAM-free designs (RAM-phase traffic is device-level).
    pub fn partition_sum(&self) -> KernelCounters {
        let mut sum = KernelCounters::default();
        for p in &self.partitions {
            sum += p.counters;
        }
        sum
    }

    /// Converts the breakdown into labeled metric families
    /// (`gem_*_total{stage,core}` per partition, `gem_layer_*{layer}` per
    /// layer, plus unlabeled device scalars).
    pub fn to_metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let t = &self.total;
        for (name, help, v) in [
            (
                "gem_cycles_total",
                "Simulated design cycles executed",
                t.cycles,
            ),
            (
                "gem_device_syncs_total",
                "Device-wide barriers",
                t.device_syncs,
            ),
            (
                "gem_ram_phase_bytes_total",
                "Global-memory bytes moved outside any partition (RAM phase)",
                t.global_bytes - self.partition_sum().global_bytes,
            ),
        ] {
            snap.push_scalar(name, help, MetricKind::Counter, v as f64);
        }
        let part_metric =
            |name: &str, help: &str, get: &dyn Fn(&KernelCounters) -> u64| MetricFamily {
                name: name.to_string(),
                help: help.to_string(),
                kind: MetricKind::Counter,
                samples: self
                    .partitions
                    .iter()
                    .map(|p| Sample {
                        labels: vec![
                            ("stage".to_string(), p.stage.to_string()),
                            ("core".to_string(), p.core.to_string()),
                        ],
                        value: get(&p.counters) as f64,
                    })
                    .collect(),
            };
        snap.push(part_metric(
            "gem_global_bytes_total",
            "Global-memory bytes (bitstream + signal traffic) per partition",
            &|c| c.global_bytes,
        ));
        snap.push(part_metric(
            "gem_global_transactions_total",
            "128-byte global-memory transactions per partition",
            &|c| c.global_transactions,
        ));
        snap.push(part_metric(
            "gem_shared_accesses_total",
            "Shared-memory accesses per partition",
            &|c| c.shared_accesses,
        ));
        snap.push(part_metric(
            "gem_alu_ops_total",
            "Boolean fold operations per partition",
            &|c| c.alu_ops,
        ));
        snap.push(part_metric(
            "gem_block_syncs_total",
            "Block-level barriers per partition",
            &|c| c.block_syncs,
        ));
        snap.push(part_metric(
            "gem_blocks_run_total",
            "Executions per partition",
            &|c| c.blocks_run,
        ));
        let layer_metric =
            |name: &str, help: &str, get: &dyn Fn(&LayerCounters) -> u64| MetricFamily {
                name: name.to_string(),
                help: help.to_string(),
                kind: MetricKind::Counter,
                samples: self
                    .layers
                    .iter()
                    .map(|l| Sample {
                        labels: vec![("layer".to_string(), l.layer.to_string())],
                        value: get(l) as f64,
                    })
                    .collect(),
            };
        snap.push(layer_metric(
            "gem_layer_alu_ops_total",
            "Fold ALU operations per boomerang-layer index",
            &|l| l.alu_ops,
        ));
        snap.push(layer_metric(
            "gem_layer_shared_accesses_total",
            "Shared-memory accesses per boomerang-layer index",
            &|l| l.shared_accesses,
        ));
        snap.push(layer_metric(
            "gem_layer_block_syncs_total",
            "Block barriers per boomerang-layer index",
            &|l| l.block_syncs,
        ));
        snap.push(layer_metric(
            "gem_layer_executions_total",
            "Core executions reaching each boomerang-layer index",
            &|l| l.executions,
        ));
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> KernelCounters {
        KernelCounters {
            global_bytes: 1000,
            global_transactions: 10,
            shared_accesses: 64,
            alu_ops: 31,
            block_syncs: 5,
            device_syncs: 2,
            blocks_run: 3,
            cycles: 4,
        }
    }

    #[test]
    fn per_cycle_is_none_without_cycles() {
        assert_eq!(KernelCounters::default().per_cycle(), None);
    }

    #[test]
    fn rates_do_not_truncate() {
        let c = sample();
        let r = c.rates();
        assert_eq!(r.global_bytes, 250.0);
        assert_eq!(r.alu_ops, 31.0 / 4.0);
        // Integer division would have lost this: 3 blocks / 4 cycles.
        assert_eq!(r.blocks_run, 0.75);
        assert_eq!(KernelCounters::default().rates(), KernelRates::default());
    }

    #[test]
    fn breakdown_partition_sum_and_snapshot() {
        let p = |stage: u32, core: u32, alu: u64| PartitionCounters {
            stage,
            core,
            counters: KernelCounters {
                alu_ops: alu,
                blocks_run: 1,
                ..Default::default()
            },
        };
        let bd = CounterBreakdown {
            total: KernelCounters {
                alu_ops: 30,
                blocks_run: 3,
                device_syncs: 7,
                cycles: 1,
                ..Default::default()
            },
            partitions: vec![p(0, 0, 10), p(0, 1, 5), p(1, 0, 15)],
            layers: vec![LayerCounters {
                layer: 0,
                alu_ops: 30,
                shared_accesses: 0,
                block_syncs: 0,
                executions: 3,
            }],
        };
        assert_eq!(bd.partition_sum().alu_ops, bd.total.alu_ops);
        assert_eq!(bd.partition_sum().blocks_run, bd.total.blocks_run);
        let snap = bd.to_metrics_snapshot();
        let fam = snap.family("gem_alu_ops_total").expect("family");
        assert_eq!(fam.samples.len(), 3);
        assert_eq!(fam.total(), 30.0);
        assert_eq!(
            snap.family("gem_layer_executions_total").unwrap().total(),
            3.0
        );
        assert_eq!(snap.family("gem_cycles_total").unwrap().total(), 1.0);
    }
}
