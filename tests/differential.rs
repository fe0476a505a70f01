//! The differential corpus: random designs ([`gem_sim::random_module`])
//! held, cycle for cycle, along one chain: the RTL netlist ↔ the golden
//! model of its synthesized E-AIG ↔ every lane of GEM on the virtual GPU
//! at every lane count.
//!
//! Each seed's design is compiled once, with 64-bit cores and 4 parts
//! (the widest core that still forces multi-core placements on this
//! corpus; the few designs that need more live state fall back to 256
//! bits), and stepped in lockstep:
//!
//! * 64 stimulus streams, each with its own golden [`EaigSim`], and on
//!   stream 0 the word-level RTL model ([`NetlistSim`], driven by port
//!   name) and [`EventSim`]. Every output bit of the RTL is compared with
//!   golden before any GEM check, so a synthesis fault reads "RTL
//!   diverged from golden" rather than as a GEM lane diverging;
//! * `GemSimulator`s at 1, 4, 32 and 64 lanes, lane `k` of each running
//!   stream `k`. One lane runs the signal-packed kernel, more the
//!   lane-word one; below 7 lanes the RAM phase moves data bit by bit,
//!   from 7 by transpose;
//! * on widen/narrow seeds, a simulator that goes 1 → 64 → 1 lanes at a
//!   third and two thirds of the run, swapping lowered forms twice. Lane
//!   `k` opened at the widening is held to a golden run that followed
//!   stream 0 until then and stream `k` afterwards.
//!
//! Every third stream starts `k / 3` cycles late and holds its reset
//! inputs until then. Every stream draws `cycles` cycles of inputs from
//! its own start and holds the last ones afterwards; the run lasts until
//! the latest stream has drawn all of them.
//!
//! Per seed the suite also asserts that the compile's verify stage found
//! 0 violations, that no logic level between 1 and the depth is empty
//! (so `Levels::depth`, which Table I's `levels` column and
//! `T1.layers_vs_levels` read, counts only occupied levels), and
//! that every simulator's counters reconcile: partition sums equal
//! totals, `gem_sim_lane_steps_total` sums the lanes stepped each cycle
//! (narrowing keeps every lane's count) and `gem_sim_lanes_active` is
//! the lane count. Each test's corpus must contain a multi-core
//! placement.
//!
//! The smokes run in tier-1 `cargo test -q`; the sweeps are ignored:
//!
//! ```text
//! cargo test --release --test differential -- --include-ignored --nocapture
//! ```
//!
//! `--nocapture` prints each test's tally. A failure names the corpus,
//! seed, simulator, lane and cycle, which reproduce the design, the
//! streams and the divergence deterministically.

use gem_core::{compile, CompileOptions, Compiled, GemSimulator};
use gem_netlist::Bits;
use gem_sim::{random_module, EaigSim, EventSim, FuzzConfig, FuzzRng, NetlistSim};

/// The lane counts every seed runs at.
const WIDTHS: [u32; 4] = [1, 4, 32, 64];

/// Stimulus streams: one per lane of the widest machine.
const STREAMS: u32 = GemSimulator::MAX_LANES;

/// Every third stream starts `k / 3` cycles late (per-lane reset skew).
fn skew(k: u32) -> u64 {
    if k.is_multiple_of(3) {
        u64::from(k / 3)
    } else {
        0
    }
}

/// What one test checked, summed over its seeds.
#[derive(Debug, Default)]
struct Tally {
    designs: usize,
    /// Designs that needed the 256-bit fallback.
    fallbacks: usize,
    /// Designs with at least one RAM block, where the RAM phase runs.
    ram_designs: usize,
    /// Cycles run; `EventSim` is compared with golden on each.
    cycles: u64,
    /// Cycles on which every RTL output bit was compared with golden.
    rtl_cycles: u64,
    /// `GemSimulator` lane-cycles compared with golden.
    lane_cycles: u64,
    /// Most partitions any design was placed on.
    widest: usize,
}

impl Tally {
    fn finish(&self, test: &str) {
        println!("{test}: {self:?}");
        assert!(self.rtl_cycles > 0, "{test}: no RTL cycle was compared");
        assert!(
            self.widest > 1,
            "{test}: no design was placed on more than one core"
        );
    }
}

/// One stimulus stream and the inputs it drives now, per input port and
/// per E-AIG input bit.
struct Stream {
    rng: FuzzRng,
    start: u64,
    ports: Vec<Bits>,
    bits: Vec<bool>,
}

impl Stream {
    fn new(seed: u64, k: u32, c: &Compiled) -> Stream {
        Stream {
            rng: FuzzRng::new(seed ^ 0xBA7C_4000 ^ (u64::from(k) << 40)),
            start: skew(k),
            ports: c.eaig_inputs.iter().map(|p| Bits::zeros(p.width)).collect(),
            bits: vec![false; c.eaig.inputs().len()],
        }
    }

    /// Draws new inputs on the stream's `cycles` live cycles and holds
    /// them otherwise. Returns whether it drew.
    fn draw(&mut self, c: &Compiled, cycle: u64, cycles: u64) -> bool {
        if !(self.start..self.start + cycles).contains(&cycle) {
            return false;
        }
        for (p, v) in c.eaig_inputs.iter().zip(&mut self.ports) {
            *v = self.rng.bits(p.width);
            for i in 0..p.width {
                self.bits[p.lsb_index + i as usize] = v.bit(i);
            }
        }
        true
    }

    /// Drives the held inputs into `lane` of `sim`; a one-lane machine
    /// takes them as a broadcast.
    fn poke(&self, sim: &mut GemSimulator, lane: u32, c: &Compiled) {
        for (p, v) in c.eaig_inputs.iter().zip(&self.ports) {
            if sim.lanes() == 1 {
                sim.set_input(&p.name, v.clone());
            } else {
                sim.set_input_lane(&p.name, lane, v.clone());
            }
        }
    }
}

/// Asserts that `who` observed `want`, the golden outputs of its stream,
/// during the last step; `output` reads one of its output ports by name.
fn compare(
    who: std::fmt::Arguments,
    output: impl Fn(&str) -> Bits,
    want: &[bool],
    c: &Compiled,
    at: &str,
    cycle: u64,
) {
    for p in &c.eaig_outputs {
        let got = output(&p.name);
        for i in 0..p.width {
            assert_eq!(
                got.bit(i),
                want[p.lsb_index + i as usize],
                "{at} cycle {cycle}: {who} diverged from golden on {}[{i}]",
                p.name
            );
        }
    }
}

/// [`compare`] for `lane` of `sim`.
fn check(sim: &GemSimulator, lane: u32, want: &[bool], c: &Compiled, at: &str, cycle: u64) {
    let who = format_args!("lane {lane} of the {}-lane sim", sim.lanes());
    compare(who, |p| sim.output_lane(p, lane), want, c, at, cycle);
}

/// Asserts that `sim`'s counters reconcile after `lane_steps` lane-cycles
/// ending at `lanes` lanes.
fn reconcile(sim: &GemSimulator, lane_steps: u64, lanes: u32, at: &str) {
    let bd = sim.breakdown();
    let sum = bd.partition_sum();
    let total = &bd.total;
    assert_eq!(sum.alu_ops, total.alu_ops, "{at}: alu_ops");
    assert_eq!(sum.blocks_run, total.blocks_run, "{at}: blocks_run");
    assert_eq!(
        sum.shared_accesses, total.shared_accesses,
        "{at}: shared_accesses"
    );
    assert_eq!(sum.block_syncs, total.block_syncs, "{at}: block_syncs");
    assert!(
        sum.global_bytes <= total.global_bytes,
        "{at}: partitions attributed more global traffic than the device moved"
    );
    let snap = sim.metrics();
    let family = |name| {
        snap.family(name)
            .unwrap_or_else(|| panic!("{at}: {name} missing"))
    };
    assert_eq!(
        family("gem_sim_lane_steps_total").total(),
        lane_steps as f64,
        "{at}: lane step counters do not reconcile"
    );
    assert_eq!(
        family("gem_sim_lanes_active").total(),
        f64::from(lanes),
        "{at}"
    );
}

/// Compiles and runs one seed of the plain or the RAM-heavy corpus for
/// `cycles` cycles a stream, through the 1 → 64 → 1 run too if `widen`.
fn run_seed(seed: u64, ram: bool, cycles: u64, widen: bool, tally: &mut Tally) {
    let at = format!("{} seed {seed}", if ram { "RAM-heavy" } else { "plain" });
    let at = at.as_str();
    let cfg = if ram {
        FuzzConfig::ram_heavy(seed)
    } else {
        FuzzConfig::for_seed(seed)
    };
    assert!(
        !ram || (cfg.mems >= 1 && cfg.dual_read),
        "{at}: ram_heavy lost its RAMs"
    );
    let m = random_module(seed, &cfg);
    let opts = CompileOptions {
        core_width: 64,
        target_parts: 4,
        ..Default::default()
    };
    let c = compile(&m, &opts).or_else(|_| {
        tally.fallbacks += 1;
        compile(
            &m,
            &CompileOptions {
                core_width: 256,
                ..opts
            },
        )
    });
    let c = c.unwrap_or_else(|e| panic!("{at}: compile failed: {e}"));
    tally.designs += 1;
    tally.ram_designs += usize::from(!c.device.rams.is_empty());
    // A compile that skipped the verifier would silently weaken the
    // whole corpus.
    let verify = c.flow.stage("verify");
    assert_eq!(
        verify.and_then(|st| st.metric("violations")),
        Some(0.0),
        "{at}: compile skipped bitstream verification"
    );
    let levels = c.eaig.levels();
    assert!(
        levels.histogram.iter().skip(1).all(|&gates| gates > 0),
        "{at}: empty logic level in {:?}",
        levels.histogram
    );

    let new_sim = |lanes| {
        let mut sim = GemSimulator::new(&c).unwrap_or_else(|e| panic!("{at}: {e}"));
        sim.set_lanes(lanes)
            .unwrap_or_else(|e| panic!("{at}: set_lanes({lanes}): {e}"));
        sim
    };
    let golden = || EaigSim::new(&c.eaig);
    let mut sims = WIDTHS.map(new_sim);
    let mut gold: Vec<EaigSim> = (0..STREAMS).map(|_| golden()).collect();
    let mut rtl = NetlistSim::new(&m);
    let mut event = EventSim::new(&c.eaig);
    let mut streams: Vec<Stream> = (0..STREAMS).map(|k| Stream::new(seed, k, &c)).collect();
    // The widening sim and, for its lanes 1..64, golden runs forked from
    // stream 0 at the widening.
    let mut widening = widen.then(|| {
        (
            new_sim(1),
            (1..STREAMS).map(|_| golden()).collect::<Vec<_>>(),
        )
    });
    let run = (0..STREAMS).map(skew).max().unwrap_or(0) + cycles;
    let wide = run / 3..2 * run / 3;

    for cycle in 0..run {
        let drew: Vec<bool> = streams
            .iter_mut()
            .map(|s| s.draw(&c, cycle, cycles))
            .collect();
        let want: Vec<Vec<bool>> = gold
            .iter_mut()
            .zip(&streams)
            .map(|(g, s)| g.cycle(&s.bits))
            .collect();
        for (p, v) in c.eaig_inputs.iter().zip(&streams[0].ports) {
            rtl.set_input(&p.name, v.clone());
        }
        rtl.eval();
        compare(
            format_args!("RTL"),
            |p| rtl.output(p),
            &want[0],
            &c,
            at,
            cycle,
        );
        rtl.step();
        tally.rtl_cycles += 1;
        assert_eq!(
            event.cycle(&streams[0].bits),
            want[0],
            "{at} cycle {cycle}: EventSim diverged from golden"
        );
        for sim in &mut sims {
            for lane in (0..sim.lanes()).filter(|&l| drew[l as usize]) {
                streams[lane as usize].poke(sim, lane, &c);
            }
            sim.step();
            for lane in 0..sim.lanes() {
                check(sim, lane, &want[lane as usize], &c, at, cycle);
            }
            tally.lane_cycles += u64::from(sim.lanes());
        }
        if let Some((sim, forks)) = &mut widening {
            if cycle == wide.start {
                sim.set_lanes(STREAMS).expect("widen");
                for lane in 1..STREAMS {
                    streams[lane as usize].poke(sim, lane, &c);
                }
            } else if cycle == wide.end {
                let lane_steps = wide.end + (wide.end - wide.start) * u64::from(STREAMS - 1);
                reconcile(sim, lane_steps, STREAMS, at);
                sim.set_lanes(1).expect("narrow");
                reconcile(sim, lane_steps, 1, at);
            }
            for lane in (0..sim.lanes()).filter(|&l| drew[l as usize]) {
                streams[lane as usize].poke(sim, lane, &c);
            }
            sim.step();
            check(sim, 0, &want[0], &c, at, cycle);
            if cycle < wide.end {
                let widened = wide.contains(&cycle);
                for (lane, fork) in (1..).zip(forks.iter_mut()) {
                    let stream = if widened { lane } else { 0 };
                    let want = fork.cycle(&streams[stream as usize].bits);
                    if widened {
                        check(sim, lane, &want, &c, at, cycle);
                    }
                }
            }
            tally.lane_cycles += u64::from(sim.lanes());
        }
    }

    tally.cycles += run;
    tally.widest = tally.widest.max(sims[0].breakdown().partitions.len());
    for (sim, lanes) in sims.iter().zip(WIDTHS) {
        reconcile(sim, run * u64::from(lanes), lanes, at);
    }
    if let Some((sim, _)) = &widening {
        // Narrowing keeps the widened lanes' counts.
        let widened = (wide.end - wide.start) * u64::from(STREAMS - 1);
        reconcile(sim, run + widened, 1, at);
    }
}

/// Tier-1 smoke: 25 plain designs, six of them also through the
/// 1 → 64 → 1 run.
#[test]
fn fuzz_smoke() {
    let mut tally = Tally::default();
    for seed in 0..25 {
        run_seed(seed, false, 12, seed < 6, &mut tally);
    }
    tally.finish("fuzz_smoke");
}

/// Tier-1 RAM smoke: 15 RAM-heavy designs, every one with a memory and
/// every memory with a second, sync read port. A memory whose first port
/// is sync maps to RAM blocks, so the RAM phase runs; one whose first
/// port is async is polyfilled with flip-flops. Seed 3 also goes
/// 1 → 64 → 1.
#[test]
fn ram_smoke() {
    let mut tally = Tally::default();
    for seed in 0..15 {
        run_seed(seed, true, 10, seed == 3, &mut tally);
    }
    tally.finish("ram_smoke");
    assert!(tally.ram_designs > 0, "ram_smoke mapped no RAM block");
}

/// Full sweep: 220 plain designs × 24 cycles a stream, every seed through
/// the 1 → 64 → 1 run.
#[test]
#[ignore = "full sweep; run with --include-ignored"]
fn fuzz_sweep() {
    let mut tally = Tally::default();
    for seed in 0..220 {
        run_seed(seed, false, 24, true, &mut tally);
    }
    tally.finish("fuzz_sweep");
}

/// The RAM-heavy band of the sweep: 40 designs × 16 cycles a stream.
#[test]
#[ignore = "full sweep; run with --include-ignored"]
fn ram_sweep() {
    let mut tally = Tally::default();
    for seed in 0..40 {
        run_seed(seed, true, 16, true, &mut tally);
    }
    tally.finish("ram_sweep");
    assert!(tally.ram_designs > 0, "ram_sweep mapped no RAM block");
}
