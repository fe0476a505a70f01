//! Converts per-cycle architectural event counts into estimated simulated
//! cycles per second on a concrete GPU.
//!
//! GEM's steady-state cycle time is dominated by three terms:
//!
//! 1. **Instruction streaming** — the bitstream is re-read from global
//!    memory every simulated cycle, so `bytes / bandwidth` is the floor
//!    (e.g. OpenPiton8's 162 MB bitstream over an A100's ≈1.3 TB/s gives
//!    ≈125 µs, i.e. ≈8 kHz, matching the paper's 7.3 kHz).
//! 2. **Compute** — shared-memory gathers and fold operations, spread
//!    across resident thread blocks; partitions beyond device capacity
//!    execute in extra waves.
//! 3. **Synchronization** — device-wide cooperative-group barriers at
//!    stage and cycle boundaries (microseconds each), plus cheap
//!    block-level barriers.
//!
//! Memory and compute overlap on a GPU, so the model takes their maximum
//! and adds the serial synchronization cost.

use crate::counters::KernelCounters;
use crate::spec::GpuSpec;

/// Timing model for one GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingModel {
    /// The GPU being modeled.
    pub spec: GpuSpec,
}

impl TimingModel {
    /// Creates a model for `spec`.
    pub fn new(spec: GpuSpec) -> Self {
        TimingModel { spec }
    }

    /// Thread-block waves that run `blocks` blocks: as many as are
    /// resident at once make one wave.
    fn waves(&self, blocks: f64) -> f64 {
        (blocks / self.spec.resident_blocks() as f64)
            .ceil()
            .max(1.0)
    }

    /// The two overlapping terms of a cycle, in seconds: term 1 streams
    /// `global_bytes` through global memory, term 2 retires `ops`
    /// shared-memory accesses and fold operations spread over `blocks`
    /// thread blocks, in waves. A cycle costs the larger of the two plus
    /// its synchronization; one partition's cost is the larger of the two
    /// at one block.
    pub fn mem_and_compute_seconds(&self, global_bytes: f64, ops: f64, blocks: f64) -> (f64, f64) {
        let s = &self.spec;
        let t_mem = global_bytes / (s.mem_bandwidth_gbps * 1e9);
        let per_block_thread_ops = ops / blocks / s.threads_per_block as f64;
        // Shared-memory ops retire roughly one per clock per thread.
        let t_compute = self.waves(blocks) * per_block_thread_ops / (s.clock_ghz * 1e9);
        (t_mem, t_compute)
    }

    /// Estimated wall-clock seconds per simulated cycle given *per-cycle*
    /// counters (see [`KernelCounters::per_cycle`]).
    pub fn cycle_seconds(&self, c: &KernelCounters) -> f64 {
        let s = &self.spec;
        let blocks = c.blocks_run.max(1) as f64;
        let ops = (c.shared_accesses + c.alu_ops) as f64;
        let (t_mem, t_compute) = self.mem_and_compute_seconds(c.global_bytes as f64, ops, blocks);
        // Term 3: synchronization. Device-wide barriers are serial;
        // block barriers cost ~30 cycles each and overlap across blocks.
        let block_sync_s =
            (c.block_syncs as f64 / blocks) * self.waves(blocks) * 30.0 / (s.clock_ghz * 1e9);
        let t_sync = c.device_syncs as f64 * s.device_sync_us * 1e-6 + block_sync_s;
        t_mem.max(t_compute) + t_sync
    }

    /// Estimated simulation speed in simulated cycles per second (the
    /// unit of Table II).
    pub fn hz(&self, per_cycle: &KernelCounters) -> f64 {
        1.0 / self.cycle_seconds(per_cycle)
    }

    /// Estimated speed straight from cumulative counters, with no
    /// integer truncation and no `Option`: returns `0.0` when no cycles
    /// ran. This is the guard-free entry point callers should prefer over
    /// `hz(&counters.per_cycle().unwrap())`.
    pub fn hz_total(&self, totals: &KernelCounters) -> f64 {
        if totals.cycles == 0 {
            return 0.0;
        }
        let r = totals.rates();
        let per_cycle = KernelCounters {
            global_bytes: r.global_bytes.round() as u64,
            global_transactions: r.global_transactions.round() as u64,
            shared_accesses: r.shared_accesses.round() as u64,
            alu_ops: r.alu_ops.round() as u64,
            block_syncs: r.block_syncs.round() as u64,
            device_syncs: r.device_syncs.round() as u64,
            blocks_run: r.blocks_run.round() as u64,
            cycles: 1,
        };
        self.hz(&per_cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn per_cycle(bytes: u64, blocks: u64, dev_syncs: u64) -> KernelCounters {
        KernelCounters {
            global_bytes: bytes,
            global_transactions: bytes / 128,
            shared_accesses: blocks * 8192 * 2 * 10,
            alu_ops: blocks * 8191 * 10,
            block_syncs: blocks * 14 * 10,
            device_syncs: dev_syncs,
            blocks_run: blocks,
            cycles: 1,
        }
    }

    #[test]
    fn bandwidth_bound_designs_track_bitstream_size() {
        let m = TimingModel::new(GpuSpec::a100());
        // OpenPiton8-like: 162.4 MB bitstream per cycle.
        let hz = m.hz(&per_cycle(162_400_000, 947, 4));
        assert!(
            (3_000.0..15_000.0).contains(&hz),
            "OpenPiton8-like estimate {hz:.0} Hz (paper: 7285)"
        );
        // NVDLA-like: 11.2 MB.
        let hz = m.hz(&per_cycle(11_200_000, 52, 3));
        assert!(
            (40_000.0..120_000.0).contains(&hz),
            "NVDLA-like estimate {hz:.0} Hz (paper: 65385)"
        );
    }

    #[test]
    fn a100_beats_3090_when_bandwidth_bound() {
        let a = TimingModel::new(GpuSpec::a100());
        let r = TimingModel::new(GpuSpec::rtx3090());
        let c = per_cycle(44_400_000, 143, 3);
        assert!(a.hz(&c) > r.hz(&c));
    }

    #[test]
    fn sync_overhead_caps_tiny_designs() {
        let m = TimingModel::new(GpuSpec::a100());
        let c = per_cycle(1_000, 1, 3);
        // Even a tiny design cannot beat the device-sync floor (~7.5 µs
        // for 3 barriers).
        assert!(m.hz(&c) < 150_000.0);
    }

    #[test]
    fn speed_is_activity_independent() {
        // Full-cycle execution: identical counters regardless of stimulus,
        // so the model trivially yields one speed per design — asserted
        // here as documentation of the paper's "consistent simulation
        // speed for any stimuli".
        let m = TimingModel::new(GpuSpec::a100());
        let c = per_cycle(9_200_000, 39, 3);
        assert_eq!(m.hz(&c), m.hz(&c.clone()));
    }
}
