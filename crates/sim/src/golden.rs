//! Golden-model interpreter over the E-AIG, and the full-cycle
//! ("Verilator") baseline of Table II.
//!
//! Verilator compiles a design into straight-line code that evaluates the
//! whole circuit every cycle. [`EaigSim`] does the same over the E-AIG: a
//! flat array of the live AND gates in level order, one value byte per
//! node, executed unconditionally every cycle. It defines the semantics
//! every other engine is checked against, and `gem_bench::measure_levelized`
//! times its [`cycle`](EaigSim::cycle) for the 1-thread column. The
//! state a clock edge carries, and the edge itself, live in `state.rs`.

use crate::state::State;
use gem_aig::{Eaig, Lit, Node};

/// One AND gate: output node and the two operand literal codes.
#[derive(Debug, Clone, Copy)]
struct Op {
    out: u32,
    a: u32,
    b: u32,
}

/// Value byte of an AND gate that feeds no output, flip-flop or RAM port.
/// [`EaigSim::eval`] never computes such a gate and never reads it.
const DEAD: u8 = 2;

#[inline]
fn read_code(vals: &[u8], code: u32) -> bool {
    (vals[(code >> 1) as usize] ^ (code & 1) as u8) & 1 == 1
}

/// Cycle-accurate reference simulator for an [`Eaig`].
///
/// # Example
///
/// ```
/// use gem_aig::Eaig;
/// use gem_sim::EaigSim;
///
/// let mut g = Eaig::new();
/// let a = g.input("a");
/// let q = g.ff(false);
/// g.set_ff_next(q, a);          // one-cycle delay line
/// g.output("q", q);
///
/// let mut sim = EaigSim::new(&g);
/// sim.set_input(0, true);
/// sim.eval();
/// assert!(!sim.output(0)); // not yet clocked
/// sim.step();
/// sim.eval();
/// assert!(sim.output(0));
/// ```
#[derive(Debug)]
pub struct EaigSim<'a> {
    g: &'a Eaig,
    state: State,
    /// The live AND gates, level by level (node order within a level).
    ops: Vec<Op>,
    /// One value byte per node (0/1, or [`DEAD`]); valid after
    /// [`eval`](Self::eval).
    vals: Vec<u8>,
    evaluated: bool,
}

impl<'a> EaigSim<'a> {
    /// Compiles `g` into level-ordered gates, with all state at its
    /// power-on values.
    pub fn new(g: &'a Eaig) -> Self {
        let live = g.live_nodes();
        let mut vals = vec![0; g.len()];
        let mut ops = Vec::new();
        for (i, n) in g.nodes().iter().enumerate() {
            if let Node::And(a, b) = *n {
                if live[i] {
                    ops.push(Op {
                        out: i as u32,
                        a: a.code(),
                        b: b.code(),
                    });
                } else {
                    vals[i] = DEAD;
                }
            }
        }
        let levels = g.node_levels();
        ops.sort_by_key(|op| levels[op.out as usize]);
        EaigSim {
            g,
            state: State::new(g),
            ops,
            vals,
            evaluated: false,
        }
    }

    /// Sets primary input `idx` (creation order) for the current cycle.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set_input(&mut self, idx: usize, v: bool) {
        self.state.set_input(idx, v);
        self.evaluated = false;
    }

    /// Evaluates the combinational logic for the current cycle.
    pub fn eval(&mut self) {
        for (node, v) in self.state.sources(self.g) {
            self.vals[node.0 as usize] = v as u8;
        }
        for op in &self.ops {
            let v = read_code(&self.vals, op.a) && read_code(&self.vals, op.b);
            self.vals[op.out as usize] = v as u8;
        }
        self.evaluated = true;
    }

    /// Value of a literal (combinational, after [`eval`](Self::eval)).
    ///
    /// # Panics
    ///
    /// Panics if called before `eval` in the current cycle, or if `l` is
    /// an AND gate that feeds no output, flip-flop or RAM port (`eval`
    /// does not compute those).
    pub fn lit(&self, l: Lit) -> bool {
        assert!(self.evaluated, "call eval() before reading values");
        let node = l.node().0;
        assert_ne!(
            self.vals[node as usize], DEAD,
            "node {node} feeds no output, flip-flop or RAM port; eval() does not compute it"
        );
        read_code(&self.vals, l.code())
    }

    /// Value of primary output `idx` (creation order).
    pub fn output(&self, idx: usize) -> bool {
        self.lit(self.g.outputs()[idx].1)
    }

    /// Advances one clock edge (`state.rs`): flip-flops load their
    /// next-state values and RAM blocks perform their (read-first) port
    /// operations.
    ///
    /// Calls [`eval`](Self::eval) internally if inputs changed since the
    /// last evaluation.
    pub fn step(&mut self) {
        if !self.evaluated {
            self.eval();
        }
        self.state
            .clock(self.g, |l| read_code(&self.vals, l.code()));
        self.evaluated = false;
    }

    /// Runs one full cycle: applies `inputs` (creation order), evaluates,
    /// returns all outputs, then clocks.
    pub fn cycle(&mut self, inputs: &[bool]) -> Vec<bool> {
        self.state.set_inputs(inputs);
        self.eval();
        let outs = (0..self.g.outputs().len())
            .map(|i| self.output(i))
            .collect();
        self.step();
        outs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_aig::{Lit, RAM_ADDR_BITS, RAM_DATA_BITS};

    #[test]
    fn combinational_and() {
        let mut g = Eaig::new();
        let a = g.input("a");
        let b = g.input("b");
        let x = g.and(a, b);
        g.output("x", x);
        let mut s = EaigSim::new(&g);
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            s.set_input(0, va);
            s.set_input(1, vb);
            s.eval();
            assert_eq!(s.output(0), va && vb);
        }
    }

    #[test]
    fn toggler_flips_every_cycle() {
        let mut g = Eaig::new();
        let q = g.ff(false);
        g.set_ff_next(q, q.flip());
        g.output("q", q);
        let mut s = EaigSim::new(&g);
        let seq: Vec<bool> = (0..6).map(|_| s.cycle(&[])[0]).collect();
        assert_eq!(seq, [false, true, false, true, false, true]);
    }

    #[test]
    fn ff_init_value_respected() {
        let mut g = Eaig::new();
        let q = g.ff(true);
        g.set_ff_next(q, q);
        g.output("q", q);
        let mut s = EaigSim::new(&g);
        s.eval();
        assert!(s.output(0));
    }

    #[test]
    #[should_panic(expected = "feeds no output")]
    fn reading_a_dead_gate_panics() {
        let mut g = Eaig::new();
        let a = g.input("a");
        let b = g.input("b");
        let dead = g.and(a, b);
        g.output("o", a);
        let mut s = EaigSim::new(&g);
        s.eval();
        assert!(!s.output(0));
        s.lit(dead);
    }

    #[test]
    fn ram_write_then_read() {
        let mut g = Eaig::new();
        let r = g.ram();
        let addr_in = g.input("addr0");
        let we = g.input("we");
        let data0 = g.input("d0");
        let mut ra = [Lit::FALSE; RAM_ADDR_BITS];
        ra[0] = addr_in;
        let mut wd = [Lit::FALSE; RAM_DATA_BITS];
        wd[0] = data0;
        g.set_ram_ports(r, ra, ra, wd, we);
        g.output("q0", g.ram_out(r, 0));

        let mut s = EaigSim::new(&g);
        // Cycle 0: write 1 to address 1.
        let o = s.cycle(&[true, true, true]);
        assert!(!o[0]); // nothing read yet
                        // Cycle 1: read address 1 (no write). Read data appears next cycle.
        let o = s.cycle(&[true, false, false]);
        assert!(!o[0]); // rdata register still holds cycle-0 read (of old 0)

        // Actually cycle 1's *output* reflects the read performed at the
        // end of cycle 0, which captured mem[1] before the write → 0.
        // Cycle 2 reflects the read at end of cycle 1 → the written 1.
        let o = s.cycle(&[true, false, false]);
        assert!(o[0]);
    }

    #[test]
    fn ram_read_first_semantics() {
        let mut g = Eaig::new();
        let r = g.ram();
        let we = g.input("we");
        let d0 = g.input("d0");
        let mut wd = [Lit::FALSE; RAM_DATA_BITS];
        wd[0] = d0;
        // Read and write both at address 0.
        g.set_ram_ports(
            r,
            [Lit::FALSE; RAM_ADDR_BITS],
            [Lit::FALSE; RAM_ADDR_BITS],
            wd,
            we,
        );
        g.output("q0", g.ram_out(r, 0));
        let mut s = EaigSim::new(&g);
        // Cycle 0: write 1 to addr 0 while reading addr 0 → read sees old 0.
        s.cycle(&[true, true]);
        let o = s.cycle(&[false, false]);
        assert!(!o[0], "read-first must capture the pre-write word");
        let o = s.cycle(&[false, false]);
        assert!(o[0], "subsequent read sees the written word");
    }
}
