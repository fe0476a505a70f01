//! Event-driven simulation over the E-AIG.
//!
//! This is the stand-in for the paper's (name-withheld) commercial
//! event-driven simulator: "event-based simulators ... are optimized for
//! efficiency by selectively updating only the circuit elements that are
//! actively switching". Its per-cycle cost is proportional to switching
//! activity, so on low-activity workloads it beats full-cycle engines and
//! on high-activity ones it loses — exactly the behaviour Table II relies
//! on. It also reports the *signal events per cycle* metric the paper
//! quotes (8,612 events for OpenPiton1 vs 28,789 for OpenPiton8).
//!
//! Its re-evaluation counts are also GL0AM's cost: GL0AM re-simulates the
//! same levelized wavefront on a GPU, and `gem_vgpu::gl0am::counters`
//! prices [`EventSim::evaluations`] and [`EventSim::active_levels`]. The
//! state a clock edge carries, and the edge itself, live in `state.rs`.

use crate::state::State;
use gem_aig::{Eaig, Lit, Node, NodeId};

/// Levelized event-driven simulator for an [`Eaig`].
///
/// # Example
///
/// ```
/// use gem_aig::Eaig;
/// use gem_sim::EventSim;
///
/// let mut g = Eaig::new();
/// let a = g.input("a");
/// let b = g.input("b");
/// let x = g.and(a, b);
/// g.output("x", x);
///
/// let mut sim = EventSim::new(&g);
/// let out = sim.cycle(&[true, true]);
/// assert!(out[0]);
/// // A quiet cycle produces almost no events.
/// let before = sim.events_total();
/// sim.cycle(&[true, true]);
/// assert_eq!(sim.events_total(), before);
/// ```
#[derive(Debug)]
pub struct EventSim<'a> {
    g: &'a Eaig,
    state: State,
    wave: Wave<'a>,
    cycles: u64,
}

/// Settled node values and, per logic level, the worklist of gates whose
/// fan-ins changed this cycle.
#[derive(Debug)]
struct Wave<'a> {
    vals: Vec<bool>,
    levels: &'a [u32],
    fanouts: Vec<Vec<u32>>,
    dirty: Vec<Vec<u32>>,
    on_list: Vec<bool>,
    events: u64,
    evaluations: u64,
    active_levels: u64,
}

fn read(vals: &[bool], l: Lit) -> bool {
    vals[l.node().0 as usize] ^ l.is_inverted()
}

impl Wave<'_> {
    /// Sets `node` to `v`; a change is an event and schedules the node's
    /// fan-out gates on their levels' worklists.
    fn set(&mut self, node: u32, v: bool) {
        if self.vals[node as usize] == v {
            return;
        }
        self.vals[node as usize] = v;
        self.events += 1;
        for &fo in &self.fanouts[node as usize] {
            if !self.on_list[fo as usize] {
                self.on_list[fo as usize] = true;
                self.dirty[self.levels[fo as usize] as usize].push(fo);
            }
        }
    }

    /// Re-evaluates the scheduled gates level by level until the logic
    /// settles. A gate only schedules gates of deeper levels, so each
    /// level's worklist is complete when its turn comes.
    fn settle(&mut self, g: &Eaig) {
        for level in 1..self.dirty.len() {
            let mut work = std::mem::take(&mut self.dirty[level]);
            self.active_levels += u64::from(!work.is_empty());
            for &node in &work {
                self.on_list[node as usize] = false;
                if let Node::And(a, b) = g.node(NodeId(node)) {
                    self.evaluations += 1;
                    let v = read(&self.vals, a) && read(&self.vals, b);
                    self.set(node, v);
                }
            }
            work.clear();
            self.dirty[level] = work;
        }
    }
}

impl<'a> EventSim<'a> {
    /// Creates a simulator with power-on state.
    pub fn new(g: &'a Eaig) -> Self {
        let levels = g.node_levels();
        let mut fanouts = vec![Vec::new(); g.len()];
        for (i, n) in g.nodes().iter().enumerate() {
            if let Node::And(a, b) = n {
                fanouts[a.node().0 as usize].push(i as u32);
                if a.node() != b.node() {
                    fanouts[b.node().0 as usize].push(i as u32);
                }
            }
        }
        let depth = levels.iter().copied().max().unwrap_or(0) as usize;
        let state = State::new(g);
        // Establish a consistent starting point (all-zero inputs, power-on
        // state) with one full evaluation; event propagation then only has
        // to track deltas.
        let mut vals = vec![false; g.len()];
        for (node, v) in state.sources(g) {
            vals[node.0 as usize] = v;
        }
        for (i, n) in g.nodes().iter().enumerate() {
            if let Node::And(a, b) = *n {
                vals[i] = read(&vals, a) && read(&vals, b);
            }
        }
        EventSim {
            g,
            state,
            wave: Wave {
                vals,
                levels,
                fanouts,
                dirty: vec![Vec::new(); depth + 1],
                on_list: vec![false; g.len()],
                events: 0,
                evaluations: 0,
                active_levels: 0,
            },
            cycles: 0,
        }
    }

    /// Runs one cycle: applies `inputs` (creation order), propagates
    /// events, returns outputs, clocks the state.
    pub fn cycle(&mut self, inputs: &[bool]) -> Vec<bool> {
        self.cycles += 1;
        // Source events: the new inputs, and the flip-flop outputs and RAM
        // read data the previous clock edge changed.
        self.state.set_inputs(inputs);
        for (node, v) in self.state.sources(self.g) {
            self.wave.set(node.0, v);
        }
        self.wave.settle(self.g);
        let vals = &self.wave.vals;
        let outs = self
            .g
            .outputs()
            .iter()
            .map(|&(_, l)| read(vals, l))
            .collect();
        self.state.clock(self.g, |l| read(vals, l));
        outs
    }

    /// Total signal events since construction (the paper's activity
    /// metric): sources and gates whose value changed.
    pub fn events_total(&self) -> u64 {
        self.wave.events
    }

    /// Gate re-evaluations since construction: every gate taken off a
    /// worklist, whether or not its value then changed.
    pub fn evaluations(&self) -> u64 {
        self.wave.evaluations
    }

    /// Logic levels with a non-empty worklist, summed over all cycles.
    pub fn active_levels(&self) -> u64 {
        self.wave.active_levels
    }

    /// Cycles simulated.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Average signal events per cycle.
    pub fn events_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.wave.events as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::EaigSim;
    use crate::FuzzRng;
    use gem_aig::Eaig;

    fn xor_tree() -> Eaig {
        let mut g = Eaig::new();
        let ins: Vec<_> = (0..8).map(|i| g.input(format!("i{i}"))).collect();
        let o = g.xor_many(&ins);
        g.output("o", o);
        g
    }

    #[test]
    fn matches_golden_on_random_stimuli() {
        let g = xor_tree();
        let mut ev = EventSim::new(&g);
        let mut gold = EaigSim::new(&g);
        let mut r = FuzzRng::new(12345);
        for _ in 0..200 {
            let ins: Vec<bool> = (0..8).map(|_| r.chance(1, 2)).collect();
            assert_eq!(ev.cycle(&ins), gold.cycle(&ins));
        }
    }

    #[test]
    fn sequential_matches_golden() {
        let mut g = Eaig::new();
        let en = g.input("en");
        let q0 = g.ff(false);
        let q1 = g.ff(false);
        let nq0 = g.xor(q0, en);
        let carry = g.and(q0, en);
        let nq1 = g.xor(q1, carry);
        g.set_ff_next(q0, nq0);
        g.set_ff_next(q1, nq1);
        g.output("q0", q0);
        g.output("q1", q1);
        let mut ev = EventSim::new(&g);
        let mut gold = EaigSim::new(&g);
        for c in 0..32 {
            let en_v = c % 3 != 0;
            assert_eq!(ev.cycle(&[en_v]), gold.cycle(&[en_v]), "cycle {c}");
        }
    }

    #[test]
    fn quiet_cycles_cost_no_events() {
        let g = xor_tree();
        let mut ev = EventSim::new(&g);
        ev.cycle(&[true; 8]);
        let after_first = (ev.events_total(), ev.evaluations(), ev.active_levels());
        for _ in 0..10 {
            ev.cycle(&[true; 8]);
        }
        assert_eq!(
            (ev.events_total(), ev.evaluations(), ev.active_levels()),
            after_first
        );
    }

    #[test]
    fn activity_scales_events() {
        let g = xor_tree();
        let mut quiet = EventSim::new(&g);
        let mut busy = EventSim::new(&g);
        for c in 0..100 {
            quiet.cycle(&[false; 8]);
            let ins: Vec<bool> = (0..8).map(|i| (c + i) % 2 == 0).collect();
            busy.cycle(&ins);
        }
        assert!(busy.events_per_cycle() > quiet.events_per_cycle() * 2.0);
    }
}
