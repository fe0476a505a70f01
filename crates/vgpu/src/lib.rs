//! A software model of the SIMT machine GEM targets.
//!
//! The paper runs its VLIW interpreter as a CUDA kernel on NVIDIA A100 and
//! RTX 3090 GPUs. This crate substitutes that hardware with an
//! instrumented virtual GPU (see DESIGN.md §3): the [`machine::GemGpu`]
//! executes assembled GEM bitstreams **bit-exactly** — same per-block
//! shared-memory semantics, same once-per-cycle coalesced global reads,
//! same device-wide synchronization points — while counting the
//! architectural events that determine real GPU runtime:
//!
//! * global-memory bytes and 128-byte transactions (instruction streaming
//!   dominates: the bitstream is re-read every simulated cycle),
//! * shared-memory accesses (the local, cheap irregularity of
//!   Observation 2),
//! * fold ALU operations,
//! * block-level and device-level synchronizations.
//!
//! [`timing::TimingModel`] converts those counts into estimated simulated
//! cycles per second for a given [`spec::GpuSpec`] (A100 and RTX 3090
//! presets), which is what Table II reports. [`gl0am`] prices the
//! gate-level baseline the paper compares against (GL0AM) in the same
//! counters: its re-simulation is `gem_sim::EventSim`'s wavefront, so
//! this crate models only the cost, not a third E-AIG interpreter.

pub mod compiled;
pub mod counters;
pub mod gl0am;
pub mod machine;
mod ram;
pub mod spec;
pub mod timing;

pub use compiled::{CompiledCore, CompiledWrite, PackedCore, WRITE_CONST};
pub use counters::{
    CounterBreakdown, KernelCounters, KernelRates, LayerCounters, PartitionCounters,
};
pub use gem_isa::RamBinding;
pub use machine::{DeviceConfig, GemGpu, GpuSnapshot, MachineError};
pub use spec::GpuSpec;
pub use timing::TimingModel;
