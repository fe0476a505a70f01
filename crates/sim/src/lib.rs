//! Baseline and reference simulators for the GEM workspace.
//!
//! The paper compares GEM against a leading commercial event-driven
//! simulator, Verilator (1 and 8 threads), and the GPU gate-level
//! simulator GL0AM. This crate provides the corresponding stand-ins plus
//! the golden reference models used for correctness cross-checks:
//!
//! * [`EaigSim`] — golden-model interpreter over the E-AIG, the ground
//!   truth every other engine is checked against,
//! * [`NetlistSim`] — word-level interpreter over the RTL netlist, used to
//!   verify synthesis,
//! * [`event::EventSim`] — event-driven simulator whose cost scales with
//!   switching activity (the "commercial tool" role),
//! * [`levelized::LevelizedSim`] — full-cycle levelized simulator (the
//!   "Verilator" role),
//! * a gate-level LUT4 cost model on the virtual GPU (the "GL0AM" role)
//!   lives in `gem-vgpu` to avoid a dependency cycle.
//!
//! All engines share the same sequential semantics: synchronous single
//! clock, read-first RAM ports, inputs sampled at the beginning of each
//! cycle, outputs observed after combinational settling.

pub mod event;
pub mod fuzz;
pub mod golden;
pub mod lanes;
pub mod levelized;
pub mod netlist_sim;

pub use event::EventSim;
pub use fuzz::{random_module, FuzzConfig, FuzzRng};
pub use golden::EaigSim;
pub use lanes::{LaneBatch, LaneError, LaneStream, LaneTarget};
pub use levelized::LevelizedSim;
pub use netlist_sim::NetlistSim;
