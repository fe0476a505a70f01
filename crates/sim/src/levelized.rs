//! Full-cycle levelized simulation ("Verilator" stand-in).
//!
//! Verilator compiles the design into straight-line code that evaluates
//! the whole circuit every cycle. [`LevelizedSim`] mimics that: a flat,
//! cache-friendly array of AND operations in level order, executed
//! unconditionally on the calling thread. The paper's 8-thread Verilator
//! column is *modeled* from this measurement and
//! [`num_levels`](LevelizedSim::num_levels) — one barrier per logic
//! level, the ceiling the paper measured ("16-threaded Verilator is only
//! 80%–95% the speed of 8 threads") — in `gem_bench::measure_levelized`.

use gem_aig::{Eaig, Lit, Node, RAM_ADDR_BITS};

/// One compiled AND op: output slot and the two operand literal codes.
#[derive(Debug, Clone, Copy)]
struct Op {
    out: u32,
    a_code: u32,
    b_code: u32,
}

#[inline]
fn read_code(vals: &[u8], code: u32) -> bool {
    (vals[(code >> 1) as usize] ^ (code & 1) as u8) & 1 == 1
}

/// Full-cycle levelized simulator for an [`Eaig`].
///
/// # Example
///
/// ```
/// use gem_aig::Eaig;
/// use gem_sim::LevelizedSim;
///
/// let mut g = Eaig::new();
/// let a = g.input("a");
/// let b = g.input("b");
/// let o = g.or(a, b);
/// g.output("o", o);
/// let mut sim = LevelizedSim::new(&g);
/// assert!(sim.cycle(&[true, false])[0]);
/// ```
#[derive(Debug)]
pub struct LevelizedSim<'a> {
    g: &'a Eaig,
    /// Ops grouped by level (level 1 first).
    levels: Vec<Vec<Op>>,
    /// One value byte per node (0/1).
    vals: Vec<u8>,
    ff: Vec<bool>,
    ram: Vec<Box<[u32]>>,
    ram_rdata: Vec<u32>,
}

impl<'a> LevelizedSim<'a> {
    /// Compiles `g` into level-ordered straight-line ops.
    pub fn new(g: &'a Eaig) -> Self {
        let node_levels = g.node_levels();
        let live = g.live_nodes();
        let depth = node_levels.iter().copied().max().unwrap_or(0) as usize;
        let mut levels: Vec<Vec<Op>> = vec![Vec::new(); depth + 1];
        for (i, n) in g.nodes().iter().enumerate() {
            if !live[i] {
                continue;
            }
            if let Node::And(a, b) = n {
                levels[node_levels[i] as usize].push(Op {
                    out: i as u32,
                    a_code: a.code(),
                    b_code: b.code(),
                });
            }
        }
        levels.retain(|l| !l.is_empty());
        LevelizedSim {
            levels,
            vals: vec![0; g.len()],
            ff: g.ffs().iter().map(|f| f.init).collect(),
            ram: g
                .rams()
                .iter()
                .map(|_| vec![0u32; 1 << RAM_ADDR_BITS].into_boxed_slice())
                .collect(),
            ram_rdata: vec![0; g.rams().len()],
            g,
        }
    }

    fn lit(&self, l: Lit) -> bool {
        read_code(&self.vals, l.code())
    }

    /// Runs one cycle: applies inputs, evaluates everything, returns
    /// outputs, clocks.
    pub fn cycle(&mut self, inputs: &[bool]) -> Vec<bool> {
        // Baseline timelines sit next to the GEM engine's in trace
        // exports, making speed comparisons visual.
        let _span = if gem_telemetry::span::enabled() {
            let mut sp = gem_telemetry::span::span("levelized_cycle", "sim");
            sp.arg("levels", self.levels.len() as u64);
            Some(sp)
        } else {
            None
        };
        // Sources.
        for (i, (_, id)) in self.g.inputs().iter().enumerate() {
            self.vals[id.0 as usize] = inputs[i] as u8;
        }
        for (i, f) in self.g.ffs().iter().enumerate() {
            self.vals[f.out.0 as usize] = self.ff[i] as u8;
        }
        for (ri, r) in self.g.rams().iter().enumerate() {
            let word = self.ram_rdata[ri];
            for (bit, id) in r.out.iter().enumerate() {
                self.vals[id.0 as usize] = ((word >> bit) & 1) as u8;
            }
        }
        for op in self.levels.iter().flatten() {
            let v = read_code(&self.vals, op.a_code) && read_code(&self.vals, op.b_code);
            self.vals[op.out as usize] = v as u8;
        }
        let outs: Vec<bool> = self.g.outputs().iter().map(|(_, l)| self.lit(*l)).collect();
        // Clock edge.
        let new_ff: Vec<bool> = self.g.ffs().iter().map(|f| self.lit(f.next)).collect();
        for (ri, r) in self.g.rams().iter().enumerate() {
            let raddr = self.addr_of(&r.read_addr);
            self.ram_rdata[ri] = self.ram[ri][raddr];
            if self.lit(r.write_en) {
                let waddr = self.addr_of(&r.write_addr);
                let mut w = 0u32;
                for (bit, &l) in r.write_data.iter().enumerate() {
                    if self.lit(l) {
                        w |= 1 << bit;
                    }
                }
                self.ram[ri][waddr] = w;
            }
        }
        self.ff = new_ff;
        outs
    }

    fn addr_of(&self, bits: &[Lit; RAM_ADDR_BITS]) -> usize {
        let mut a = 0usize;
        for (i, &l) in bits.iter().enumerate() {
            if self.lit(l) {
                a |= 1 << i;
            }
        }
        a
    }

    /// Number of compiled levels: what an N-thread levelized run would
    /// pay one barrier each for, every cycle — the overhead the
    /// boomerang executor is designed to crush.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::EaigSim;

    fn random_logic(seed: u64) -> Eaig {
        let mut g = Eaig::new();
        let mut lits: Vec<Lit> = (0..12).map(|i| g.input(format!("i{i}"))).collect();
        let mut x = seed;
        for _ in 0..80 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = lits[(x >> 8) as usize % lits.len()];
            let b = lits[(x >> 24) as usize % lits.len()];
            let l = match (x >> 40) % 3 {
                0 => g.and(a, b),
                1 => g.or(a, b),
                _ => g.xor(a, b),
            };
            lits.push(l);
        }
        let q = g.ff(false);
        let last = *lits.last().expect("nonempty");
        g.set_ff_next(q, last);
        g.output("o", last);
        g.output("q", q);
        g
    }

    #[test]
    fn single_thread_matches_golden() {
        let g = random_logic(7);
        let mut lv = LevelizedSim::new(&g);
        let mut gold = EaigSim::new(&g);
        let mut x = 999u64;
        for _ in 0..50 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let ins: Vec<bool> = (0..12).map(|i| (x >> i) & 1 == 1).collect();
            assert_eq!(lv.cycle(&ins), gold.cycle(&ins));
        }
    }
}
