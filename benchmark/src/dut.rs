//! The designs the ladder compiles, and how it brings one up.

use crate::spans::Recorder;
use gem_core::{compile, compile_verilog, CompileOptions, Compiled, GemSimulator, Package};
use gem_netlist::{Bits, Module};
use gem_place::Word;

/// The NVDLA stand-in's inner loop in the Verilog subset: four 8-bit
/// multiply–accumulate lanes feeding a 32-bit accumulator (the text
/// `ext_server` has always served; small on purpose, so the server
/// workload is made of wire and queue time, not engine time).
pub const NVDLA_MAC: &str = "
module nvdla_mac(input clk, input rst, input start,
                 input [31:0] act, input [31:0] wgt,
                 output reg [31:0] acc, output [15:0] p0);
  wire [15:0] m0;
  wire [15:0] m1;
  wire [15:0] m2;
  wire [15:0] m3;
  assign m0 = {8'd0, act[7:0]}   * {8'd0, wgt[7:0]};
  assign m1 = {8'd0, act[15:8]}  * {8'd0, wgt[15:8]};
  assign m2 = {8'd0, act[23:16]} * {8'd0, wgt[23:16]};
  assign m3 = {8'd0, act[31:24]} * {8'd0, wgt[31:24]};
  wire [31:0] sum;
  assign sum = {16'd0, m0} + {16'd0, m1} + {16'd0, m2} + {16'd0, m3};
  assign p0 = m0;
  always @(posedge clk) begin
    if (rst) acc <= 32'd0;
    else if (start) acc <= acc + sum;
  end
endmodule
";

/// RTL in hand, in one of the two forms the compiler accepts.
pub enum Rtl {
    Module(Module),
    Verilog(&'static str),
}

/// A design under test: RTL plus the mapping options it is compiled with.
pub struct Dut {
    pub rtl: Rtl,
    pub opts: CompileOptions,
}

/// The mapping options of the three simulator workloads: the scale the
/// earlier `ext_*` recordings converged on for the 2-core host (the
/// paper's 216 × 8192 would leave every core but 16 empty at this size).
pub fn sim_options() -> CompileOptions {
    CompileOptions {
        target_parts: 16,
        stages: 2,
        core_width: 2048,
        ..Default::default()
    }
}

/// What `gem-server` compiles an `open` without an `opts` object with
/// (`compile_opts` in `crates/server/src/server.rs`); the in-process twin
/// of the served design uses the same so both run one bitstream.
pub fn server_default_options() -> CompileOptions {
    CompileOptions {
        target_parts: 8,
        stages: 1,
        core_width: 2048,
        ..Default::default()
    }
}

impl Dut {
    pub fn compile(&self) -> Compiled {
        match &self.rtl {
            Rtl::Module(m) => compile(m, &self.opts),
            Rtl::Verilog(text) => compile_verilog(text, &self.opts),
        }
        .expect("ladder designs compile")
    }
}

/// One cycle's inputs, in the form the lane count calls for.
pub enum CycleInputs {
    /// `(port, value)` for `set_input`.
    Scalar(Vec<(String, Bits)>),
    /// `(port, one lane word per port bit)` for `set_input_lanes`.
    Packed(Vec<(String, Vec<Word>)>),
}

pub fn apply(sim: &mut GemSimulator, inputs: &CycleInputs) {
    match inputs {
        CycleInputs::Scalar(v) => {
            for (name, bits) in v {
                sim.set_input(name, bits.clone());
            }
        }
        CycleInputs::Packed(v) => {
            for (name, words) in v {
                sim.set_input_lanes(name, words);
            }
        }
    }
}

/// Seconds spent in one bring-up and in its parts.
#[derive(Debug, Clone, Copy)]
pub struct BringUp {
    pub total_s: f64,
    pub compile_s: f64,
    pub package_s: f64,
}

/// The `setup_s` path: RTL in hand → compile → `.gemb` bytes → parsed
/// package → simulator with `lanes` lanes that has completed its first
/// cycle on `first`.
pub fn bring_up(
    dut: &Dut,
    lanes: u32,
    first: &CycleInputs,
    rec: &mut Recorder,
) -> (Compiled, GemSimulator, BringUp) {
    let ((compiled, sim, compile_s, package_s), total_s) = rec.time("core", "bring_up", |rec| {
        let (compiled, compile_s) = rec.time("core", "compile", |_| dut.compile());
        let (package, package_s) = rec.time("core", "package", |_| {
            let bytes = Package::from_compiled(&compiled).to_bytes();
            Package::from_bytes(&bytes).expect("a package parses its own bytes")
        });
        let (sim, _) = rec.time("core", "first_cycle", |_| {
            let mut sim = package.into_simulator().expect("package loads");
            if lanes > 1 {
                sim.set_lanes(lanes).expect("lane count is in range");
            }
            apply(&mut sim, first);
            sim.step();
            sim
        });
        (compiled, sim, compile_s, package_s)
    });
    let times = BringUp {
        total_s,
        compile_s,
        package_s,
    };
    (compiled, sim, times)
}
