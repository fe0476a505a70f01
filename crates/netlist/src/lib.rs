//! RTL netlist intermediate representation for the GEM flow.
//!
//! This crate is the front end of the GEM compilation pipeline: it defines a
//! word-level, single-clock-domain netlist ([`Module`]) that can represent
//! any synthesizable synchronous design, together with
//!
//! * a convenient programmatic [`builder`] API,
//! * the structural rules every module entering the flow is held to
//!   ([`check`]),
//! * a parser for a synthesizable structural-Verilog subset ([`verilog`]),
//! * VCD waveform reading/writing ([`vcd`]) for stimuli and result dumps,
//! * arbitrary-width two-state values ([`Bits`]).
//!
//! Downstream, `gem-synth` lowers a [`Module`] to the extended
//! and-inverter graph consumed by the rest of the flow.
//!
//! # Example
//!
//! ```
//! use gem_netlist::ModuleBuilder;
//!
//! // An 8-bit accumulator: acc <= acc + in.
//! let mut b = ModuleBuilder::new("accum");
//! let input = b.input("in", 8);
//! let acc = b.dff(8);
//! let sum = b.add(acc, input);
//! b.connect_dff(acc, sum);
//! b.output("acc", acc);
//! let module = b.finish().expect("valid module");
//! assert_eq!(module.cells().len(), 2); // dff + add
//! ```

pub mod builder;
pub mod check;
pub mod module;
pub mod value;
pub mod vcd;
pub mod verilog;

pub use builder::ModuleBuilder;
pub use check::validate;
pub use module::{
    Binary, Cell, CellId, CellKind, MemId, Memory, Module, Net, NetId, Port, PortDir, ReadKind,
    ReadPort, Unary, ValidateError, WritePort,
};
pub use value::Bits;
