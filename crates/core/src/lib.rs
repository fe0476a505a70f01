//! GEM: GPU-accelerated emulator-inspired RTL simulation.
//!
//! This crate is the top of the GEM-RS workspace: it chains the complete
//! compilation flow of the paper —
//!
//! 1. **synthesis** to an extended and-inverter graph (`gem-synth`),
//! 2. **replication-aided, multi-stage partitioning** (`gem-partition`),
//! 3. **width-constrained partition merging** (Algorithm 1),
//! 4. **timing-driven bit placement** onto boomerang layers (`gem-place`),
//! 5. **bitstream generation** in the virtual VLIW ISA (`gem-isa`) —
//!
//! and runs the result on the instrumented virtual GPU (`gem-vgpu`),
//! exposing a waveform-level simulator API.
//!
//! # Example
//!
//! ```
//! use gem_core::{compile, CompileOptions, GemSimulator};
//! use gem_netlist::{Bits, ModuleBuilder};
//!
//! // An 8-bit counter with enable.
//! let mut b = ModuleBuilder::new("counter");
//! let en = b.input("en", 1);
//! let q = b.dff(8);
//! let one = b.lit(1, 8);
//! let inc = b.add(q, one);
//! let next = b.mux(en, inc, q);
//! b.connect_dff(q, next);
//! b.output("q", q);
//! let module = b.finish()?;
//!
//! let compiled = compile(&module, &CompileOptions::small()).expect("compiles");
//! let mut sim = GemSimulator::new(&compiled).expect("loads");
//! sim.set_input("en", Bits::from_u64(1, 1));
//! for expected in 0..5 {
//!     sim.step(); // outputs show the value observed during the cycle
//!     assert_eq!(sim.output("q").to_u64(), expected);
//! }
//! # Ok::<(), gem_netlist::ValidateError>(())
//! ```

pub mod compile;
pub mod package;
pub mod profile;
pub mod replay;
pub mod simulator;
pub mod verify;

pub use compile::{
    compile, compile_verilog, CompileError, CompileOptions, CompileReport, Compiled, IoMap,
    PortIndices,
};
pub use gem_isa::ScheduleCert;
pub use package::{
    cert_from_json, cert_to_json, device_from_json, device_to_json, io_from_json, io_to_json,
    report_from_json, Package, ParsePackageError,
};
pub use profile::{profile, LayerProfile, PartitionProfile, ProfileOptions, ProfileReport};
pub use replay::{replay_lanes, OutputRecorder, StimulusError, VcdStimulus};
pub use simulator::GemSimulator;
pub use verify::{verify, verify_metrics};
