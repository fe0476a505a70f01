//! Synthesis from RTL netlists to extended and-inverter graphs.
//!
//! This crate is the GEM analogue of the paper's two-tool synthesis flow
//! (§III-B, Fig 4): Yosys performed RAM mapping against a fake FPGA target
//! defining the fixed GEM RAM block, and a commercial ASIC synthesizer with
//! a fake library (AND/OR = 1ps, INV = 0ps) performed depth-driven logic
//! synthesis. Both steps are implemented natively here:
//!
//! * [`memory`] — maps word-level memories onto the fixed 13-bit-address ×
//!   32-bit-data RAM block (splitting and banking as needed), and
//!   *polyfills* asynchronous-read memories with flip-flops and decoder
//!   logic, reproducing the inefficiency the paper observes for designs
//!   with register-file-style RAMs;
//! * [`lower`] — bit-blasts word-level cells into the E-AIG with
//!   depth-optimized constructions (prefix adders, balanced reduction
//!   trees, logarithmic barrel shifters), which is exactly the behaviour
//!   the fake 0ps-inverter library extracts from a timing-driven ASIC
//!   synthesizer.
//!
//! # Example
//!
//! ```
//! use gem_netlist::ModuleBuilder;
//! use gem_synth::{synthesize, SynthOptions};
//!
//! let mut b = ModuleBuilder::new("add");
//! let x = b.input("x", 16);
//! let y = b.input("y", 16);
//! let s = b.add(x, y);
//! b.output("s", s);
//! let m = b.finish().expect("valid module");
//!
//! let result = synthesize(&m, &SynthOptions).expect("synthesizable");
//! // A prefix adder keeps the depth logarithmic.
//! assert!(result.eaig.levels().depth <= 12);
//! ```

pub mod lower;
pub mod memory;

use gem_aig::Eaig;
use std::fmt;

/// Synthesis options. There are none: every adder is depth-optimized and
/// every memory whose read ports are all synchronous, with at most one
/// write port, maps to RAM blocks, as the paper's one synthesis does
/// (§III-B). The type stays, fieldless, only because the benchmark ladder
/// names it: it passes `gem_core::CompileOptions::synth` as
/// [`synthesize`]'s second parameter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SynthOptions;

/// Where the bits of a port live in the E-AIG input/output vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortBits {
    /// Port name from the RTL netlist.
    pub name: String,
    /// First bit index in the E-AIG input (or output) list.
    pub lsb_index: usize,
    /// Width in bits; bits are consecutive, LSB first.
    pub width: u32,
}

/// Result of [`synthesize`].
#[derive(Debug, Clone)]
pub struct SynthResult {
    /// The synthesized graph.
    pub eaig: Eaig,
    /// Input port layout (bit positions within the E-AIG inputs).
    pub inputs: Vec<PortBits>,
    /// Output port layout.
    pub outputs: Vec<PortBits>,
    /// Synthesis statistics.
    pub stats: SynthStats,
}

/// Statistics of a synthesis run — the per-design numbers of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SynthStats {
    /// Live AND gates ("#E-AIG Gates" in Table I).
    pub gates: u64,
    /// Logic depth ("#Levels" in Table I).
    pub levels: u32,
    /// Flip-flops, including those created by memory polyfill.
    pub ffs: u64,
    /// Native RAM blocks instantiated.
    pub ram_blocks: u64,
    /// State bits spent polyfilling asynchronous-read memories.
    pub polyfilled_mem_bits: u64,
}

/// Errors from [`synthesize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthError {
    /// A memory has an unsupported shape; the string names it and why.
    UnsupportedMemory(String),
    /// Internal inconsistency (a bug — should not occur on validated
    /// modules).
    Internal(String),
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::UnsupportedMemory(s) => write!(f, "unsupported memory: {s}"),
            SynthError::Internal(s) => write!(f, "internal synthesis error: {s}"),
        }
    }
}

impl std::error::Error for SynthError {}

/// Synthesizes a validated RTL [`gem_netlist::Module`] into an E-AIG.
///
/// Input and output bits are created in port declaration order, LSB first;
/// the returned [`PortBits`] describe the layout.
///
/// # Errors
///
/// Returns [`SynthError::UnsupportedMemory`] for memory shapes outside the
/// supported envelope (see [`memory`]).
pub fn synthesize(m: &gem_netlist::Module, _: &SynthOptions) -> Result<SynthResult, SynthError> {
    lower::Lowerer::new(m).run()
}
