//! Baseline and reference simulators for the GEM workspace.
//!
//! The paper compares GEM against a leading commercial event-driven
//! simulator, Verilator (1 and 8 threads), and the GPU gate-level
//! simulator GL0AM. Two E-AIG interpreters play those roles and the
//! golden model's:
//!
//! * [`EaigSim`] — full-cycle, level-ordered evaluation of the live
//!   gates: the golden model every other engine is checked against, and
//!   the "Verilator" column (measured at 1 thread, modeled at 8),
//! * [`EventSim`] — event-driven evaluation whose cost scales with
//!   switching activity: the "commercial tool" column, and through its
//!   re-evaluation counts the "GL0AM" column (`gem_vgpu::gl0am` prices
//!   them on the GPU timing model),
//!
//! plus [`NetlistSim`], a word-level interpreter over the RTL netlist used
//! to verify synthesis.
//!
//! The E-AIG interpreters hold one state type (`state.rs`): inputs,
//! flip-flops, RAM banks and registered read data, with one clock edge —
//! synchronous single clock, read-first RAM ports, inputs sampled at the
//! beginning of each cycle, outputs observed after combinational settling.
//! They differ only in evaluation order.

pub mod event;
pub mod fuzz;
pub mod golden;
pub mod netlist_sim;
mod state;

pub use event::EventSim;
pub use fuzz::{random_module, FuzzConfig, FuzzRng};
pub use golden::EaigSim;
pub use netlist_sim::NetlistSim;
