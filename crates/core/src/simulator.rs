//! Waveform-level simulator API over the virtual GPU.

use crate::compile::Compiled;
use gem_netlist::Bits;
use gem_place::Word;
use gem_telemetry::{MetricFamily, MetricKind, MetricsSnapshot, Sample};
use gem_vgpu::{CounterBreakdown, GemGpu, GpuSnapshot, KernelCounters, MachineError};

/// Runs a compiled design cycle by cycle.
///
/// GEM is an oblivious full-cycle simulator: every cycle executes the
/// whole design regardless of activity. Inputs are sampled when
/// [`step`](Self::step) is called; outputs read afterwards are the
/// combinational values observed *during* that cycle (before the clock
/// edge), matching the convention of the golden models in `gem-sim`.
///
/// # Example
///
/// ```
/// use gem_core::{compile, CompileOptions, GemSimulator};
/// use gem_netlist::{Bits, ModuleBuilder};
///
/// let mut b = ModuleBuilder::new("xorer");
/// let x = b.input("x", 4);
/// let y = b.input("y", 4);
/// let z = b.xor(x, y);
/// b.output("z", z);
/// let m = b.finish()?;
/// let compiled = compile(&m, &CompileOptions::small()).expect("compiles");
/// let mut sim = GemSimulator::new(&compiled).expect("loads");
/// sim.set_input("x", Bits::from_u64(0b1100, 4));
/// sim.set_input("y", Bits::from_u64(0b1010, 4));
/// sim.step();
/// assert_eq!(sim.output("z").to_u64(), 0b0110);
/// # Ok::<(), gem_netlist::ValidateError>(())
/// ```
#[derive(Debug)]
pub struct GemSimulator {
    gpu: GemGpu,
    io: crate::IoMap,
}

impl GemSimulator {
    /// Loads a compiled design onto the virtual GPU.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError`] if the bitstream fails validation (which
    /// would indicate a compiler bug).
    pub fn new(compiled: &Compiled) -> Result<Self, MachineError> {
        let gpu = GemGpu::load(&compiled.bitstream, compiled.device.clone())?;
        Ok(Self::from_machine(gpu, compiled.io.clone()))
    }

    /// Wraps an already loaded machine — the one way a simulator is
    /// built. A caller that keeps a power-on [`GemGpu`] per design (the
    /// server's compile cache) passes a clone of it: clones share the
    /// lowered program and copy only signal and RAM state.
    pub fn from_machine(gpu: GemGpu, io: crate::IoMap) -> Self {
        GemSimulator { gpu, io }
    }

    /// Sets an input port for the upcoming cycle(s).
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or the width differs.
    pub fn set_input(&mut self, name: &str, v: Bits) {
        let port = self
            .io
            .input(name)
            .unwrap_or_else(|| panic!("no input port named {name:?}"));
        assert_eq!(
            v.width() as usize,
            port.bits.len(),
            "input width mismatch on {name:?}"
        );
        for (i, &g) in port.bits.iter().enumerate() {
            self.gpu.poke(g, v.bit(i as u32));
        }
    }

    /// Executes one simulated clock cycle.
    pub fn step(&mut self) {
        // Parent for the engine's per-stage/per-core spans (trace export).
        let _cycle_span = if gem_telemetry::span::enabled() {
            let mut sp = gem_telemetry::span::span("cycle", "sim");
            sp.arg("cycle", self.gpu.counters().cycles);
            Some(sp)
        } else {
            None
        };
        self.gpu.step_cycle();
    }

    /// Reads an output port (values observed during the last
    /// [`step`](Self::step)).
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn output(&self, name: &str) -> Bits {
        let port = self
            .io
            .output(name)
            .unwrap_or_else(|| panic!("no output port named {name:?}"));
        let mut v = Bits::zeros(port.bits.len() as u32);
        for (i, &g) in port.bits.iter().enumerate() {
            v.set_bit(i as u32, self.gpu.peek(g));
        }
        v
    }

    // --- Lane batching (docs/BATCH.md) -------------------------------

    /// Maximum stimulus lanes one simulator can batch.
    pub const MAX_LANES: u32 = GemGpu::MAX_LANES;

    /// Sets the number of active stimulus lanes. One [`step`](Self::step)
    /// then advances that many independent simulations of the same
    /// compiled design — the bit-lanes of the underlying machine words.
    /// Newly activated lanes start as exact copies of lane 0; scalar
    /// [`set_input`](Self::set_input) broadcasts to every lane and
    /// [`output`](Self::output) reads lane 0, so single-stimulus code is
    /// unaffected.
    ///
    /// # Errors
    ///
    /// [`MachineError::BadLanes`] when `lanes` is outside
    /// `1..=`[`Self::MAX_LANES`].
    pub fn set_lanes(&mut self, lanes: u32) -> Result<(), MachineError> {
        self.gpu.set_lanes(lanes)
    }

    /// Active stimulus lanes (1 = single-stimulus).
    pub fn lanes(&self) -> u32 {
        self.gpu.lanes()
    }

    /// Cycles stepped per lane (index = lane), for every lane that is
    /// active or has stepped. Part of the machine state:
    /// [`restore`](Self::restore) rewinds it with the cycle counter, and
    /// narrowing keeps the deactivated lanes' counts, so the sum over
    /// lanes is always Σ_cycles lanes_active — the invariant the metrics
    /// tests assert.
    pub fn lane_steps(&self) -> &[u64] {
        self.gpu.lane_steps()
    }

    /// Sets an input port for one lane only.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist, the width differs, or `lane`
    /// is not active.
    pub fn set_input_lane(&mut self, name: &str, lane: u32, v: Bits) {
        assert!(
            lane < self.gpu.lanes(),
            "lane {lane} is not active (lanes = {})",
            self.gpu.lanes()
        );
        let port = self
            .io
            .input(name)
            .unwrap_or_else(|| panic!("no input port named {name:?}"));
        assert_eq!(
            v.width() as usize,
            port.bits.len(),
            "input width mismatch on {name:?}"
        );
        for (i, &g) in port.bits.iter().enumerate() {
            self.gpu.poke_lane(g, lane, v.bit(i as u32));
        }
    }

    /// Reads an output port as one lane observed it during the last
    /// [`step`](Self::step).
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or `lane ≥ `[`Self::MAX_LANES`]
    /// (inactive lanes mirror lane 0).
    pub fn output_lane(&self, name: &str, lane: u32) -> Bits {
        assert!(lane < Self::MAX_LANES, "lane {lane} out of range");
        let port = self
            .io
            .output(name)
            .unwrap_or_else(|| panic!("no output port named {name:?}"));
        let mut v = Bits::zeros(port.bits.len() as u32);
        for (i, &g) in port.bits.iter().enumerate() {
            v.set_bit(i as u32, self.gpu.peek_lane(g, lane));
        }
        v
    }

    /// Packed injection path: sets an input port from lane words, one
    /// machine [`Word`] per port bit (bit `k` of `words[i]` is port bit
    /// `i` in lane `k`). This is how a batch driver feeds up to
    /// [`Self::MAX_LANES`] stimulus streams in one call per port
    /// (`docs/BATCH.md` §2).
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or `words` length differs from
    /// the port width.
    pub fn set_input_lanes(&mut self, name: &str, words: &[Word]) {
        let port = self
            .io
            .input(name)
            .unwrap_or_else(|| panic!("no input port named {name:?}"));
        assert_eq!(
            words.len(),
            port.bits.len(),
            "input width mismatch on {name:?}"
        );
        for (&g, &w) in port.bits.iter().zip(words) {
            self.gpu.poke_lanes(g, w);
        }
    }

    /// Architectural event counters accumulated so far (for the timing
    /// model).
    pub fn counters(&self) -> &KernelCounters {
        self.gpu.counters()
    }

    /// Device totals refined per partition and per boomerang layer.
    pub fn breakdown(&self) -> CounterBreakdown {
        self.gpu.breakdown()
    }

    /// A structured snapshot of the current runtime counters (device
    /// scalars plus per-partition and per-layer families), including the
    /// lane families: `gem_sim_lanes_active` and the per-lane
    /// `gem_sim_lane_steps_total` whose sum reconciles with
    /// Σ_cycles lanes_active.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.gpu.metrics_snapshot();
        snap.push_scalar(
            "gem_sim_lanes_active",
            "Stimulus lanes this simulator advances per step",
            MetricKind::Gauge,
            self.gpu.lanes() as f64,
        );
        snap.push(MetricFamily {
            name: "gem_sim_lane_steps_total".to_string(),
            help: "Cycles stepped while each lane was active".to_string(),
            kind: MetricKind::Counter,
            samples: self
                .lane_steps()
                .iter()
                .enumerate()
                .map(|(lane, &steps)| Sample {
                    labels: vec![("lane".to_string(), lane.to_string())],
                    value: steps as f64,
                })
                .collect(),
        });
        snap
    }

    /// The compiled design's port bindings.
    pub fn io(&self) -> &crate::IoMap {
        &self.io
    }

    /// Captures the complete mutable machine state (signals, RAM
    /// contents, counters, per-lane step counts) for later
    /// [`restore`](Self::restore) — the substrate for session
    /// suspend/resume and checkpointing.
    pub fn snapshot(&self) -> GpuSnapshot {
        self.gpu.snapshot()
    }

    /// Restores a [`snapshot`](Self::snapshot) taken from a simulator of
    /// the same compiled design.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::SnapshotMismatch`] when the snapshot's
    /// shape does not match this design; the simulator is left untouched.
    pub fn restore(&mut self, s: &GpuSnapshot) -> Result<(), MachineError> {
        self.gpu.restore(s)
    }

    /// Whether both simulators run one lowered program in memory (see
    /// `GemGpu::shares_program_with`); a test hook.
    #[doc(hidden)]
    pub fn shares_program_with(&self, other: &GemSimulator) -> bool {
        self.gpu.shares_program_with(&other.gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompileOptions, Package};
    use gem_netlist::ModuleBuilder;

    /// Compile-time thread-safety audit: a simulation service moves these
    /// across threads (worker pools own sessions, compile jobs return
    /// `Compiled`, caches share `Package`s). A regression — e.g. an `Rc`
    /// or a non-`Send` trait object sneaking into any of them — fails
    /// this test at compile time.
    fn assert_send<T: Send>() {}
    fn assert_send_static<T: Send + 'static>() {}

    #[test]
    fn simulation_types_are_send() {
        assert_send::<GemSimulator>();
        assert_send::<Compiled>();
        assert_send::<Package>();
        assert_send::<gem_vgpu::GemGpu>();
        assert_send::<gem_vgpu::GpuSnapshot>();
        assert_send::<crate::IoMap>();
        assert_send_static::<GemSimulator>();
        assert_send_static::<Compiled>();
    }

    #[test]
    fn lane_batch_runs_independent_stimuli() {
        // One compiled design, four lanes, four different input streams:
        // each lane must track its own accumulator, and the scalar API
        // must keep reading lane 0.
        let mut b = ModuleBuilder::new("acc");
        let d = b.input("d", 16);
        let q = b.dff(16);
        let nxt = b.add(q, d);
        b.connect_dff(q, nxt);
        b.output("q", q);
        let m = b.finish().expect("valid");
        let c = compile(&m, &CompileOptions::small()).expect("compiles");
        let mut sim = GemSimulator::new(&c).expect("loads");
        sim.set_lanes(4).expect("4 lanes");
        assert_eq!(sim.lanes(), 4);
        // Outputs are read pre-edge (values observed *during* the cycle),
        // so `expect` tracks the registered value entering each cycle.
        let mut expect = [0u64; 4];
        for cyc in 0..12u64 {
            for lane in 0..4u32 {
                let d = (cyc + 1) * u64::from(lane + 1);
                sim.set_input_lane("d", lane, Bits::from_u64(d & 0xFFFF, 16));
            }
            sim.step();
            for lane in 0..4u32 {
                assert_eq!(
                    sim.output_lane("q", lane).to_u64(),
                    expect[lane as usize],
                    "cycle {cyc} lane {lane}"
                );
            }
            assert_eq!(sim.output("q").to_u64(), expect[0], "scalar view = lane 0");
            for lane in 0..4u64 {
                let d = (cyc + 1) * (lane + 1);
                expect[lane as usize] = (expect[lane as usize] + d) & 0xFFFF;
            }
        }
        assert_eq!(sim.lane_steps(), &[12, 12, 12, 12]);
    }

    #[test]
    fn packed_lane_io_round_trips() {
        let mut b = ModuleBuilder::new("xorer");
        let x = b.input("x", 4);
        let y = b.input("y", 4);
        let z = b.xor(x, y);
        b.output("z", z);
        let m = b.finish().expect("valid");
        let c = compile(&m, &CompileOptions::small()).expect("compiles");
        let mut sim = GemSimulator::new(&c).expect("loads");
        sim.set_lanes(64).expect("64 lanes");
        // Port bit i in lane k: x = k's bit pattern, y = rotated.
        let x_words: Vec<Word> = (0..4)
            .map(|i| 0xDEAD_BEEF_0BAD_F00Du64.rotate_left(i))
            .collect();
        let y_words: Vec<Word> = (0..4)
            .map(|i| 0x1234_5678_9ABC_DEF0u64.rotate_right(i))
            .collect();
        sim.set_input_lanes("x", &x_words);
        sim.set_input_lanes("y", &y_words);
        sim.step();
        for lane in 0..64 {
            let z = (0..4).map(|i| ((x_words[i] ^ y_words[i]) >> lane & 1) << i);
            assert_eq!(sim.output_lane("z", lane).to_u64(), z.sum::<u64>());
        }
    }

    #[test]
    fn lane_metrics_reconcile() {
        let mut b = ModuleBuilder::new("t");
        let x = b.input("x", 1);
        b.output("y", x);
        let m = b.finish().expect("valid");
        let c = compile(&m, &CompileOptions::small()).expect("compiles");
        let mut sim = GemSimulator::new(&c).expect("loads");
        for _ in 0..3 {
            sim.step(); // 3 single-lane cycles
        }
        sim.set_lanes(8).expect("8 lanes");
        for _ in 0..5 {
            sim.step(); // 5 eight-lane cycles
        }
        let snap = sim.metrics();
        assert_eq!(snap.family("gem_sim_lanes_active").unwrap().total(), 8.0);
        let fam = snap.family("gem_sim_lane_steps_total").unwrap();
        assert_eq!(fam.samples.len(), 8);
        // Sum reconciliation: Σ lane steps = Σ_cycles lanes_active
        // (3 cycles × 1 lane + 5 cycles × 8 lanes = 43 lane-steps; lane 0
        // stepped all 8 cycles, lanes 1..8 the last 5 each).
        assert_eq!(fam.total(), (3 + 5 * 8) as f64);
        assert_eq!(sim.lane_steps()[0], 8);
        assert_eq!(sim.lane_steps()[7], 5);
        assert!(snap.family("gem_vgpu_lanes").is_some());
    }

    #[test]
    fn bad_lane_count_is_typed_error() {
        let mut b = ModuleBuilder::new("t");
        let x = b.input("x", 1);
        b.output("y", x);
        let m = b.finish().expect("valid");
        let c = compile(&m, &CompileOptions::small()).expect("compiles");
        let mut sim = GemSimulator::new(&c).expect("loads");
        assert!(matches!(
            sim.set_lanes(0),
            Err(gem_vgpu::MachineError::BadLanes(0))
        ));
        assert!(matches!(
            sim.set_lanes(65),
            Err(gem_vgpu::MachineError::BadLanes(65))
        ));
        assert_eq!(sim.lanes(), 1);
    }

    #[test]
    fn snapshot_round_trips_through_simulator() {
        let mut b = ModuleBuilder::new("snap");
        let en = b.input("en", 1);
        let q = b.dff(8);
        let one = b.lit(1, 8);
        let inc = b.add(q, one);
        let nxt = b.mux(en, inc, q);
        b.connect_dff(q, nxt);
        b.output("q", q);
        let m = b.finish().expect("valid");
        let c = compile(&m, &CompileOptions::small()).expect("compiles");
        let mut sim = GemSimulator::new(&c).expect("loads");
        sim.set_input("en", Bits::from_u64(1, 1));
        for _ in 0..5 {
            sim.step();
        }
        let snap = sim.snapshot();
        let q_at_snap = sim.output("q").to_u64();
        for _ in 0..3 {
            sim.step();
        }
        assert_ne!(sim.output("q").to_u64(), q_at_snap);
        sim.restore(&snap).expect("restores");
        sim.step();
        assert_eq!(sim.output("q").to_u64(), q_at_snap + 1);
    }

    /// Σ lane steps must stay Σ_cycles lanes_active across a restore:
    /// the cycles a restore discards are discarded for every lane.
    fn assert_lane_steps_reconcile(sim: &GemSimulator, lane_cycles: u64) {
        assert_eq!(sim.lane_steps()[0], sim.counters().cycles);
        assert_eq!(sim.lane_steps().iter().sum::<u64>(), lane_cycles);
        let fam = sim.metrics();
        let fam = fam.family("gem_sim_lane_steps_total").unwrap();
        assert_eq!(fam.samples.len(), sim.lanes() as usize);
        assert_eq!(fam.total(), lane_cycles as f64);
    }

    #[test]
    fn restore_rewinds_lane_steps_with_the_cycle_counter() {
        let mut b = ModuleBuilder::new("t");
        let x = b.input("x", 1);
        b.output("y", x);
        let m = b.finish().expect("valid");
        let c = compile(&m, &CompileOptions::small()).expect("compiles");
        let run = |sim: &mut GemSimulator, n: u32| (0..n).for_each(|_| sim.step());

        // One lane: 10 steps, snapshot, 5 more, restore → 10 survive.
        let mut sim = GemSimulator::new(&c).expect("loads");
        run(&mut sim, 10);
        let snap = sim.snapshot();
        run(&mut sim, 5);
        sim.restore(&snap).expect("restores");
        assert_eq!(sim.counters().cycles, 10);
        assert_eq!(sim.lane_steps(), &[10]);
        assert_lane_steps_reconcile(&sim, 10);

        // 64 lanes for 4 cycles, snapshot, then 3 one-lane cycles that the
        // restore discards — along with the lane count they ran at.
        let mut sim = GemSimulator::new(&c).expect("loads");
        run(&mut sim, 2);
        sim.set_lanes(64).expect("64 lanes");
        run(&mut sim, 4);
        let snap = sim.snapshot();
        sim.set_lanes(1).expect("1 lane");
        run(&mut sim, 3);
        sim.restore(&snap).expect("restores");
        assert_eq!(sim.lanes(), 64);
        assert_eq!(sim.lane_steps()[63], 4);
        assert_lane_steps_reconcile(&sim, 2 + 4 * 64);
        // And the counts keep reconciling on the resumed run.
        run(&mut sim, 1);
        assert_lane_steps_reconcile(&sim, 2 + 5 * 64);
    }
}
