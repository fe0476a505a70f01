//! Synthetic benchmark designs standing in for the paper's evaluation
//! suite (Table I/II: NVDLA, RocketChip, Gemmini, OpenPiton1/8).
//!
//! The original designs require Chisel/Chipyard toolchains and enormous
//! Verilog trees; these generators build parameterized circuits that
//! exercise the same structural features the paper attributes to each
//! (see DESIGN.md §3, substitution 3):
//!
//! * [`nvdla_like`] — a MAC-pipeline accelerator whose buffers are all
//!   *synchronous-read* RAMs, so every memory maps onto native GEM RAM
//!   blocks (the paper's best case: "all RAMs inside it are mapped to
//!   E-AIG RAM blocks").
//! * [`rocket_like`] — a multi-cycle 16-bit CPU with an
//!   *asynchronous-read* register file, exercising the FF + decoder
//!   polyfill path the paper calls out for the other four designs.
//! * [`gemmini_like`] — an N×N weight-stationary systolic array: the
//!   deepest logic (multiply–accumulate chains), driving the most
//!   boomerang layers.
//! * [`openpiton_like`] — N replicated CPU tiles plus a thin interconnect;
//!   at N=8 most tiles idle under single-tile workloads, reproducing the
//!   low-activity regime where event-driven baselines shine.
//!
//! Designs come with named [`Workload`]s of deliberately different
//! switching activity, so event-driven baselines show the paper's
//! per-test speed variation while GEM's full-cycle speed stays constant.

pub mod cpu;
pub mod gemmini;
pub mod nvdla;
pub mod openpiton;
pub mod workload;

pub use cpu::rocket_like;
pub use gemmini::gemmini_like;
pub use nvdla::nvdla_like;
pub use openpiton::openpiton_like;
pub use workload::{Stimulus, Workload, WorkloadSpec};

use gem_netlist::Module;

/// A benchmark design: a module plus its named workloads.
#[derive(Debug)]
pub struct Design {
    /// Short name (Table I/II row label).
    pub name: String,
    /// The RTL.
    pub module: Module,
    /// Named stimuli.
    pub workloads: Vec<Workload>,
}

impl Design {
    /// Looks up a workload by name.
    pub fn workload(&self, name: &str) -> Option<&Workload> {
        self.workloads.iter().find(|w| w.name == name)
    }
}

/// The five evaluation designs at a given scale factor. Scale 1 is the
/// default harness scale (design sizes ≈ 1/15 of the paper's, with the
/// same relative proportions); scale 0 is a tiny smoke-test suite. Panics
/// on a scale [`suite_sizes`] refuses.
pub fn all_designs(scale: u32) -> Vec<Design> {
    let (lanes, rows, tiles) = suite_sizes(scale).unwrap_or_else(|e| panic!("{e}"));
    vec![
        nvdla_like(lanes),
        rocket_like(),
        gemmini_like(rows),
        openpiton_like(1),
        openpiton_like(tiles),
    ]
}

/// NVDLA's lanes, Gemmini's rows and the larger OpenPiton's tiles at
/// `scale`: what [`all_designs`] asks the generators for.
///
/// # Errors
///
/// A size a generator would refuse, named with the generator: NVDLA's
/// lanes past `u32`, or Gemmini's rows outside [`gemmini::ROWS`].
pub fn suite_sizes(scale: u32) -> Result<(u32, u32, u32), String> {
    if scale == 0 {
        return Ok((4, 3, 2));
    }
    let (lanes, rows) = (u64::from(scale) * 48, u64::from(scale) * 12);
    match (u32::try_from(lanes), u32::try_from(rows)) {
        (Err(_), _) => Err(format!("nvdla_like({lanes}): lanes past 2^32")),
        (Ok(lanes), Ok(rows)) if gemmini::ROWS.contains(&rows) => Ok((lanes, rows, 8)),
        _ => Err(format!(
            "gemmini_like({rows}): n must be in {:?}",
            gemmini::ROWS
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    #[test]
    fn a_size_out_of_range_is_refused_not_resized() {
        for scale in [0, 1, 2] {
            suite_sizes(scale).expect("the suite builds");
        }
        let refused = suite_sizes(683).unwrap_err();
        assert_eq!(refused, "gemmini_like(8196): n must be in 1..=8192");
        assert!(catch_unwind(|| openpiton_like(9)).is_err());
        assert!(catch_unwind(|| gemmini_like(0)).is_err());
        assert!(catch_unwind(|| nvdla_like(0)).is_err());
        assert!(suite_sizes(u32::MAX).is_err());
    }
}
