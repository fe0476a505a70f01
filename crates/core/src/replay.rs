//! VCD stimulus replay.
//!
//! The paper's execution stage consumes "input stimuli, provided as
//! waveforms or recorded signal patterns (e.g., VCD or FSDB format)".
//! [`VcdStimulus`] parses a VCD dump and matches its variables against
//! the compiled design's input ports by name. [`replay_lanes`] is the one
//! driver: it walks one stimulus per lane in lockstep, one cycle per VCD
//! timestamp (values persist between changes, as in a real waveform), and
//! a single waveform is a lane batch of one. [`OutputRecorder`] keeps what
//! one lane observed and renders it as the output VCD.

use crate::simulator::GemSimulator;
use crate::IoMap;
use gem_netlist::vcd::{ParseVcdError, VarId, VcdDump, VcdWriter};
use gem_netlist::Bits;
use std::collections::HashMap;
use std::fmt;

/// Errors from [`VcdStimulus::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StimulusError {
    /// The VCD text failed to parse.
    Parse(ParseVcdError),
    /// A VCD variable matches an input port but with a different width.
    WidthMismatch {
        /// Port / variable name.
        name: String,
        /// Width in the VCD.
        vcd: u32,
        /// Width of the design port.
        port: u32,
    },
    /// No VCD variable matches any input port.
    NoMatchingInputs,
}

impl fmt::Display for StimulusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StimulusError::Parse(e) => write!(f, "bad stimulus VCD: {e}"),
            StimulusError::WidthMismatch { name, vcd, port } => write!(
                f,
                "stimulus variable {name:?} is {vcd} bits but the port is {port}"
            ),
            StimulusError::NoMatchingInputs => {
                write!(
                    f,
                    "stimulus VCD shares no variable names with the design inputs"
                )
            }
        }
    }
}

impl std::error::Error for StimulusError {}

impl From<ParseVcdError> for StimulusError {
    fn from(e: ParseVcdError) -> Self {
        StimulusError::Parse(e)
    }
}

/// A parsed waveform ready to drive a simulator.
#[derive(Debug, Clone)]
pub struct VcdStimulus {
    /// (time, port name, value) changes in time order.
    changes: Vec<(u64, String, Bits)>,
    /// Distinct timestamps, ascending — one simulated cycle each.
    times: Vec<u64>,
}

impl VcdStimulus {
    /// Parses VCD text and binds its variables to the design's inputs.
    ///
    /// Variables that do not name an input port are ignored (waveform
    /// dumps usually also contain outputs and internals).
    ///
    /// # Errors
    ///
    /// Returns [`StimulusError`] on parse failures, width mismatches, or
    /// when nothing matches.
    pub fn new(vcd_text: &str, io: &IoMap) -> Result<Self, StimulusError> {
        let dump = VcdDump::parse(vcd_text)?;
        let mut bound: HashMap<VarId, String> = HashMap::new();
        for (vi, (name, width)) in dump.vars.iter().enumerate() {
            if let Some(port) = io.input(name) {
                if *width != port.bits.len() as u32 {
                    return Err(StimulusError::WidthMismatch {
                        name: name.clone(),
                        vcd: *width,
                        port: port.bits.len() as u32,
                    });
                }
                bound.insert(VarId(vi as u32), name.clone());
            }
        }
        if bound.is_empty() {
            return Err(StimulusError::NoMatchingInputs);
        }
        let mut changes = Vec::new();
        let mut times = Vec::new();
        for (t, var, value) in &dump.changes {
            if let Some(name) = bound.get(var) {
                changes.push((*t, name.clone(), value.clone()));
                if times.last() != Some(t) {
                    times.push(*t);
                }
            }
        }
        Ok(VcdStimulus { changes, times })
    }

    /// Number of simulated cycles the waveform covers (one per distinct
    /// timestamp with input activity).
    pub fn cycles(&self) -> usize {
        self.times.len()
    }

    /// The input changes belonging to cycle index `k` (the `k`-th
    /// distinct timestamp). Empty past the end of the waveform, so a
    /// stream shorter than its batch holds its last values.
    pub fn changes_at(&self, k: usize) -> &[(u64, String, Bits)] {
        let Some(&t) = self.times.get(k) else {
            return &[];
        };
        let lo = self.changes.partition_point(|c| c.0 < t);
        let hi = self.changes.partition_point(|c| c.0 <= t);
        &self.changes[lo..hi]
    }
}

/// Replays `stims[k]` on lane `k` in lockstep: cycle `t` applies the
/// `t`-th timestamp's changes of every stimulus to its lane, steps once,
/// and hands the outputs to every recorder. Runs as many cycles as the
/// longest stimulus; a shorter one holds its last values, as a waveform
/// that stops changing does. Passing one stimulus for every active lane
/// drives the machine exactly as scalar [`GemSimulator::set_input`] pokes
/// would. Returns the number of cycles run.
///
/// # Panics
///
/// Panics if there are more stimuli than active lanes.
pub fn replay_lanes(
    sim: &mut GemSimulator,
    stims: &[&VcdStimulus],
    recorders: &mut [OutputRecorder],
) -> usize {
    let cycles = stims.iter().map(|s| s.cycles()).max().unwrap_or(0);
    for t in 0..cycles {
        for (lane, stim) in stims.iter().enumerate() {
            for (_, name, v) in stim.changes_at(t) {
                sim.set_input_lane(name, lane as u32, v.clone());
            }
        }
        sim.step();
        for r in recorders.iter_mut() {
            r.record(sim);
        }
    }
    cycles
}

/// The outputs one lane observed, one row per cycle in `io.outputs`
/// order, and the VCD they render to: scope `gem`, one variable per
/// output, timestamp = cycle index.
#[derive(Debug, Clone)]
pub struct OutputRecorder {
    lane: u32,
    /// (name, width) of every output port.
    ports: Vec<(String, u32)>,
    rows: Vec<Vec<Bits>>,
}

impl OutputRecorder {
    /// An empty recording of `lane`'s outputs.
    pub fn new(io: &IoMap, lane: u32) -> Self {
        let ports = io
            .outputs
            .iter()
            .map(|p| (p.name.clone(), p.bits.len() as u32))
            .collect();
        OutputRecorder {
            lane,
            ports,
            rows: Vec::new(),
        }
    }

    /// Appends the outputs the lane observed during the last step and
    /// returns that row.
    pub fn record(&mut self, sim: &GemSimulator) -> &[Bits] {
        let row = self
            .ports
            .iter()
            .map(|(name, _)| sim.output_lane(name, self.lane))
            .collect();
        self.rows.push(row);
        &self.rows[self.rows.len() - 1]
    }

    /// Drops the rows recorded so far.
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// Output port names, in the order of every row.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.ports.iter().map(|(name, _)| name.as_str())
    }

    /// The recorded rows, one per cycle.
    pub fn rows(&self) -> &[Vec<Bits>] {
        &self.rows
    }

    /// Renders the recording as a VCD document.
    pub fn to_vcd(&self) -> String {
        let mut w = VcdWriter::new("gem");
        let vars: Vec<_> = self
            .ports
            .iter()
            .map(|(name, width)| w.add_var(name, *width))
            .collect();
        w.begin();
        for (t, row) in self.rows.iter().enumerate() {
            w.timestamp(t as u64);
            for (var, v) in vars.iter().zip(row) {
                w.change(*var, v);
            }
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompileOptions};
    use gem_netlist::ModuleBuilder;

    /// Replays one stimulus as a lane batch of one; lane 0's rows.
    fn replay(stim: &VcdStimulus, sim: &mut GemSimulator) -> Vec<Vec<Bits>> {
        let mut rec = OutputRecorder::new(sim.io(), 0);
        let cycles = replay_lanes(sim, &[stim], std::slice::from_mut(&mut rec));
        assert_eq!(cycles, rec.rows().len());
        rec.rows().to_vec()
    }

    fn adder_design() -> crate::Compiled {
        let mut b = ModuleBuilder::new("adder");
        let x = b.input("x", 4);
        let y = b.input("y", 4);
        let s = b.add(x, y);
        b.output("s", s);
        let m = b.finish().expect("valid");
        compile(&m, &CompileOptions::small()).expect("compiles")
    }

    fn waveform() -> String {
        let mut w = VcdWriter::new("tb");
        let vx = w.add_var("x", 4);
        let vy = w.add_var("y", 4);
        let vo = w.add_var("other", 2); // unrelated variable: ignored
        w.begin();
        for (t, (x, y)) in [(1u64, 2u64), (3, 4), (7, 8), (15, 1)].iter().enumerate() {
            w.timestamp(t as u64 * 10);
            w.change(vx, &Bits::from_u64(*x, 4));
            w.change(vy, &Bits::from_u64(*y, 4));
            w.change(vo, &Bits::from_u64(t as u64 % 4, 2));
        }
        w.finish()
    }

    #[test]
    fn replays_waveform_cycles() {
        let compiled = adder_design();
        let stim = VcdStimulus::new(&waveform(), &compiled.io).expect("binds");
        assert_eq!(stim.cycles(), 4);
        let mut sim = crate::GemSimulator::new(&compiled).expect("loads");
        let outs = replay(&stim, &mut sim);
        let sums: Vec<u64> = outs.iter().map(|cycle| cycle[0].to_u64()).collect();
        assert_eq!(sums, vec![3, 7, 15, 0 /* 15+1 wraps */]);
    }

    #[test]
    fn time_running_backwards_is_refused() {
        // A cursor walk of this waveform applied x=4 at its second cycle
        // and x=1, y=2 at its first ([3, 6, 12]); a walk by timestamp
        // found nothing at its first cycle ([0, 6, 12]). It is refused
        // before either can run.
        let compiled = adder_design();
        let mut w = VcdWriter::new("tb");
        let vx = w.add_var("x", 4);
        let vy = w.add_var("y", 4);
        w.begin();
        w.timestamp(10);
        w.change(vx, &Bits::from_u64(1, 4));
        w.change(vy, &Bits::from_u64(2, 4));
        w.timestamp(5);
        w.change(vx, &Bits::from_u64(4, 4));
        w.timestamp(20);
        w.change(vy, &Bits::from_u64(8, 4));
        let err = VcdStimulus::new(&w.finish(), &compiled.io).unwrap_err();
        assert_eq!(
            err,
            StimulusError::Parse(ParseVcdError::BackwardsTime {
                line: 10,
                time: 5,
                previous: 10
            })
        );
    }

    #[test]
    fn lanes_replay_in_lockstep_and_short_streams_hold() {
        let compiled = adder_design();
        let long = VcdStimulus::new(&waveform(), &compiled.io).expect("binds");
        let mut w = VcdWriter::new("tb");
        let vx = w.add_var("x", 4);
        let vy = w.add_var("y", 4);
        w.begin();
        w.timestamp(0);
        w.change(vx, &Bits::from_u64(2, 4));
        w.change(vy, &Bits::from_u64(2, 4));
        let short = VcdStimulus::new(&w.finish(), &compiled.io).expect("binds");
        let mut sim = GemSimulator::new(&compiled).expect("loads");
        sim.set_lanes(2).expect("two lanes");
        let mut recs = [
            OutputRecorder::new(&compiled.io, 0),
            OutputRecorder::new(&compiled.io, 1),
        ];
        assert_eq!(replay_lanes(&mut sim, &[&long, &short], &mut recs), 4);
        let sums = |r: &OutputRecorder| r.rows().iter().map(|c| c[0].to_u64()).collect::<Vec<_>>();
        assert_eq!(sums(&recs[0]), [3, 7, 15, 0]);
        assert_eq!(sums(&recs[1]), [4, 4, 4, 4], "exhausted stream holds");
    }

    #[test]
    fn one_stimulus_on_every_lane_is_a_scalar_replay() {
        let compiled = adder_design();
        let stim = VcdStimulus::new(&waveform(), &compiled.io).expect("binds");
        let mut scalar = GemSimulator::new(&compiled).expect("loads");
        let want = replay(&stim, &mut scalar);
        let mut sim = GemSimulator::new(&compiled).expect("loads");
        sim.set_lanes(3).expect("three lanes");
        let mut recs: Vec<_> = (0..3)
            .map(|l| OutputRecorder::new(&compiled.io, l))
            .collect();
        replay_lanes(&mut sim, &[&stim; 3], &mut recs);
        for rec in &recs {
            assert_eq!(rec.rows(), want);
        }
        // Every lane, active or mirrored, reads lane 0's value, as a
        // scalar poke leaves it.
        for lane in 0..GemSimulator::MAX_LANES {
            assert_eq!(sim.output_lane("s", lane), sim.output("s"), "lane {lane}");
        }
    }

    #[test]
    fn recorder_renders_the_output_vcd() {
        let compiled = adder_design();
        let stim = VcdStimulus::new(&waveform(), &compiled.io).expect("binds");
        let mut sim = GemSimulator::new(&compiled).expect("loads");
        let mut rec = OutputRecorder::new(&compiled.io, 0);
        replay_lanes(&mut sim, &[&stim], std::slice::from_mut(&mut rec));
        assert_eq!(rec.names().collect::<Vec<_>>(), ["s"]);
        let text = rec.to_vcd();
        assert!(
            text.starts_with("$timescale 1ns $end\n$scope module gem $end\n$var wire 4 ! s $end\n")
        );
        let dump = VcdDump::parse(&text).expect("parses");
        let rows: Vec<(u64, u64)> = dump
            .changes
            .iter()
            .map(|(t, _, v)| (*t, v.to_u64()))
            .collect();
        assert_eq!(rows, [(0, 3), (1, 7), (2, 15), (3, 0)]);
        rec.clear();
        assert!(rec.rows().is_empty());
    }

    #[test]
    fn changes_at_walks_cycles_in_lockstep() {
        let compiled = adder_design();
        let stim = VcdStimulus::new(&waveform(), &compiled.io).expect("binds");
        // Every cycle of this waveform changes both inputs; the ignored
        // "other" variable never appears.
        for k in 0..stim.cycles() {
            let ch = stim.changes_at(k);
            let mut names: Vec<&str> = ch.iter().map(|(_, n, _)| n.as_str()).collect();
            names.sort_unstable();
            assert_eq!(names, ["x", "y"], "cycle {k}");
        }
        assert_eq!(stim.changes_at(0)[0].2.to_u64(), 1); // x at t=0
        assert!(stim.changes_at(stim.cycles()).is_empty(), "past the end");
    }

    #[test]
    fn values_persist_between_changes() {
        let compiled = adder_design();
        let mut w = VcdWriter::new("tb");
        let vx = w.add_var("x", 4);
        let vy = w.add_var("y", 4);
        w.begin();
        w.timestamp(0);
        w.change(vx, &Bits::from_u64(5, 4));
        w.change(vy, &Bits::from_u64(1, 4));
        w.timestamp(1);
        w.change(vy, &Bits::from_u64(2, 4)); // x holds its value
        let stim = VcdStimulus::new(&w.finish(), &compiled.io).expect("binds");
        let mut sim = crate::GemSimulator::new(&compiled).expect("loads");
        let outs = replay(&stim, &mut sim);
        assert_eq!(outs[1][0].to_u64(), 7);
    }

    #[test]
    fn empty_waveform_replays_zero_cycles() {
        // A VCD that declares matching inputs but contains no value
        // changes: binding succeeds, replay runs nothing, the simulator
        // is untouched.
        let compiled = adder_design();
        let mut w = VcdWriter::new("tb");
        w.add_var("x", 4);
        w.add_var("y", 4);
        let stim = VcdStimulus::new(&w.finish(), &compiled.io).expect("binds");
        assert_eq!(stim.cycles(), 0);
        let mut sim = crate::GemSimulator::new(&compiled).expect("loads");
        let outs = replay(&stim, &mut sim);
        assert!(outs.is_empty());
        assert_eq!(sim.counters().cycles, 0);
    }

    #[test]
    fn clock_only_waveform_advances_cycles() {
        // A waveform that only toggles a clock-like 1-bit input still
        // drives one simulated cycle per timestamp (GEM's clock is
        // implicit; the toggles are just input activity).
        let mut b = ModuleBuilder::new("tick");
        let clk = b.input("clk", 1);
        let q = b.dff(4);
        let one = b.lit(1, 4);
        let inc = b.add(q, one);
        let nxt = b.mux(clk, inc, q);
        b.connect_dff(q, nxt);
        b.output("q", q);
        let m = b.finish().expect("valid");
        let compiled = compile(&m, &CompileOptions::small()).expect("compiles");
        let mut w = VcdWriter::new("tb");
        let vclk = w.add_var("clk", 1);
        w.begin();
        for t in 0..6u64 {
            w.timestamp(t);
            w.change(vclk, &gem_netlist::Bits::from_u64(t % 2, 1));
        }
        let stim = VcdStimulus::new(&w.finish(), &compiled.io).expect("binds");
        assert_eq!(stim.cycles(), 6);
        let mut sim = crate::GemSimulator::new(&compiled).expect("loads");
        let outs = replay(&stim, &mut sim);
        assert_eq!(outs.len(), 6);
        assert_eq!(sim.counters().cycles, 6);
        // clk=1 on odd timestamps: the counter increments on 3 of the 6
        // cycles; the last cycle (t=5, clk=1) observes q after 2 earlier
        // enabled edges.
        assert_eq!(outs[5][0].to_u64(), 2);
    }

    #[test]
    fn dumpoff_block_mid_stream_is_tolerated() {
        let compiled = adder_design();
        // Hand-written VCD with a $dumpoff/$dumpon checkpoint between
        // changes (x values parse as 0).
        let text = "$timescale 1ns $end\n$scope module tb $end\n\
                    $var wire 4 ! x $end\n$var wire 4 \" y $end\n\
                    $upscope $end\n$enddefinitions $end\n\
                    #0\nb0011 !\nb0001 \"\n\
                    #1\n$dumpoff\nbxxxx !\nbxxxx \"\n$end\n\
                    #2\n$dumpon\nb0100 !\nb0010 \"\n$end\n";
        let stim = VcdStimulus::new(text, &compiled.io).expect("binds");
        assert_eq!(stim.cycles(), 3);
        let mut sim = crate::GemSimulator::new(&compiled).expect("loads");
        let outs = replay(&stim, &mut sim);
        let sums: Vec<u64> = outs.iter().map(|c| c[0].to_u64()).collect();
        // 3+1, then the x/x checkpoint cycle (reads as 0+0), then 4+2.
        assert_eq!(sums, vec![4, 0, 6]);
    }

    #[test]
    fn poke_peek_interleaves_with_replay() {
        // Server-driven stimuli mix direct pokes with waveform replay on
        // the same session; values applied either way persist.
        let compiled = adder_design();
        let mut sim = crate::GemSimulator::new(&compiled).expect("loads");
        // Direct poke phase.
        sim.set_input("x", Bits::from_u64(9, 4));
        sim.set_input("y", Bits::from_u64(1, 4));
        sim.step();
        assert_eq!(sim.output("s").to_u64(), 10);
        // Replay phase: the waveform only drives x; y holds the poked 1.
        let mut w = VcdWriter::new("tb");
        let vx = w.add_var("x", 4);
        w.begin();
        w.timestamp(0);
        w.change(vx, &Bits::from_u64(4, 4));
        let stim = VcdStimulus::new(&w.finish(), &compiled.io).expect("binds");
        let outs = replay(&stim, &mut sim);
        assert_eq!(outs[0][0].to_u64(), 5, "poked y persists into replay");
        // Back to pokes: x holds the replayed 4.
        sim.set_input("y", Bits::from_u64(8, 4));
        sim.step();
        assert_eq!(sim.output("s").to_u64(), 12, "replayed x persists");
        assert_eq!(sim.counters().cycles, 3);
    }

    #[test]
    fn width_mismatch_rejected() {
        let compiled = adder_design();
        let mut w = VcdWriter::new("tb");
        let vx = w.add_var("x", 8); // wrong width
        w.begin();
        w.timestamp(0);
        w.change(vx, &Bits::from_u64(1, 8));
        let err = VcdStimulus::new(&w.finish(), &compiled.io).unwrap_err();
        assert!(matches!(err, StimulusError::WidthMismatch { .. }));
    }

    #[test]
    fn unrelated_waveform_rejected() {
        let compiled = adder_design();
        let mut w = VcdWriter::new("tb");
        let v = w.add_var("nothing", 1);
        w.begin();
        w.timestamp(0);
        w.change(v, &Bits::from_u64(0, 1));
        assert_eq!(
            VcdStimulus::new(&w.finish(), &compiled.io).unwrap_err(),
            StimulusError::NoMatchingInputs
        );
    }
}
