//! GL0AM-style gate-level GPU simulation cost (the paper's GPU baseline).
//!
//! GL0AM simulates at gate level with 0-delay re-simulation: each cycle,
//! gates affected by changed inputs are re-evaluated by GPU threads that
//! fetch operand values and truth tables from global memory — irregular,
//! per-gate accesses, exactly the pattern GEM's design avoids. That
//! re-simulation is the levelized event-driven wavefront `gem_sim::EventSim`
//! already runs on the E-AIG (so its activity-dependence matches the real
//! tool); [`counters`] prices its counts:
//!
//! * per re-simulated gate: two operand fetches, one truth-table fetch and
//!   one result store, each an uncoalesced 32-byte transaction;
//! * one device-wide synchronization per active logic level (levelized
//!   0-delay evaluation) and one per cycle boundary.
//!
//! This reproduces both of GL0AM's published behaviours: it beats CPU
//! simulators on large designs but trails GEM by roughly an order of
//! magnitude, and its speed varies with workload activity.

use crate::counters::KernelCounters;

/// Bytes charged per irregular gate-level access (one 32-byte sector).
const SECTOR: u64 = 32;

/// GL0AM's kernel counters for `cycles` cycles of levelized re-simulation
/// that re-evaluated `evaluations` gates in `active_levels` levels with a
/// non-empty worklist (`gem_sim::EventSim::evaluations` and
/// `active_levels`), for [`TimingModel`](crate::TimingModel) to convert
/// to speed.
pub fn counters(evaluations: u64, active_levels: u64, cycles: u64) -> KernelCounters {
    KernelCounters {
        // 2 operand fetches + truth table + result store per gate.
        global_bytes: evaluations * 4 * SECTOR,
        global_transactions: evaluations * 4,
        alu_ops: evaluations,
        device_syncs: active_levels + cycles,
        cycles,
        ..KernelCounters::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpuSpec, TimingModel};

    #[test]
    fn cost_scales_with_activity() {
        // 50 cycles of an 8-input XOR tree: a quiet run re-evaluates
        // nothing, a busy one a handful of gates on every level.
        let quiet = counters(0, 0, 50);
        let busy = counters(50 * 12, 50 * 3, 50);
        assert!(busy.global_bytes > quiet.global_bytes * 2);
        assert_eq!(quiet.device_syncs, 50, "one sync per cycle boundary");
        let a100 = TimingModel::new(GpuSpec::a100());
        assert!(a100.hz_total(&quiet) > a100.hz_total(&busy));
    }
}
