//! The sequential state every E-AIG interpreter shares.
//!
//! [`State`] holds what a clock edge carries from one cycle to the next —
//! the primary inputs, the flip-flops, the RAM banks and each RAM block's
//! registered read data — and defines the two ends of a cycle once:
//!
//! * [`sources`](State::sources): the values the combinational logic
//!   starts from, in the order every engine applies them (inputs, then
//!   flip-flop outputs, then RAM read-data bits);
//! * [`clock`](State::clock): the edge. Every flip-flop loads its
//!   next-state literal, and every RAM block runs its port *read-first*:
//!   the read captures the addressed word before a simultaneous write to
//!   it, and the captured word is the block's read data next cycle.
//!
//! [`EaigSim`](crate::EaigSim) and [`EventSim`](crate::EventSim) hold one
//! each and differ only in how they settle the logic in between.

use gem_aig::{Eaig, Lit, NodeId, RAM_ADDR_BITS};

/// Inputs, flip-flops and RAM of one simulated [`Eaig`].
#[derive(Debug)]
pub(crate) struct State {
    inputs: Vec<bool>,
    ff: Vec<bool>,
    /// One 8192-word bank per RAM block.
    ram: Vec<Box<[u32]>>,
    /// Registered read data per RAM block.
    ram_rdata: Vec<u32>,
}

impl State {
    /// Power-on state: inputs low, flip-flops at their init values, RAM
    /// and read data zero.
    pub(crate) fn new(g: &Eaig) -> Self {
        State {
            inputs: vec![false; g.inputs().len()],
            ff: g.ffs().iter().map(|f| f.init).collect(),
            ram: g
                .rams()
                .iter()
                .map(|_| vec![0u32; 1 << RAM_ADDR_BITS].into_boxed_slice())
                .collect(),
            ram_rdata: vec![0; g.rams().len()],
        }
    }

    /// Sets primary input `idx` (creation order).
    pub(crate) fn set_input(&mut self, idx: usize, v: bool) {
        self.inputs[idx] = v;
    }

    /// Sets the first `inputs.len()` primary inputs (creation order).
    pub(crate) fn set_inputs(&mut self, inputs: &[bool]) {
        self.inputs[..inputs.len()].copy_from_slice(inputs);
    }

    /// This cycle's source values `(node, value)`: every primary input,
    /// then every flip-flop output, then every RAM read-data bit.
    pub(crate) fn sources<'s>(&'s self, g: &'s Eaig) -> impl Iterator<Item = (NodeId, bool)> + 's {
        let inputs = g.inputs().iter().zip(&self.inputs);
        let ffs = g.ffs().iter().zip(&self.ff);
        let rams = g.rams().iter().zip(&self.ram_rdata).flat_map(|(r, &word)| {
            let bits = r.out.iter().enumerate();
            bits.map(move |(bit, &id)| (id, (word >> bit) & 1 == 1))
        });
        inputs
            .map(|((_, id), &v)| (*id, v))
            .chain(ffs.map(|(f, &v)| (f.out, v)))
            .chain(rams)
    }

    /// The clock edge. `lit` reads a literal's settled value this cycle;
    /// the edge writes only state, never the values `lit` reads, so every
    /// flip-flop and RAM port samples the same settled cycle.
    pub(crate) fn clock(&mut self, g: &Eaig, lit: impl Fn(Lit) -> bool) {
        for (q, f) in self.ff.iter_mut().zip(g.ffs()) {
            *q = lit(f.next);
        }
        let banks = self.ram.iter_mut().zip(&mut self.ram_rdata);
        for (r, (bank, rdata)) in g.rams().iter().zip(banks) {
            // Read-first: capture before the write.
            *rdata = bank[word_of(&r.read_addr, &lit) as usize];
            if lit(r.write_en) {
                bank[word_of(&r.write_addr, &lit) as usize] = word_of(&r.write_data, &lit);
            }
        }
    }
}

/// The word whose bits (LSB first) are the literals' values.
fn word_of(bits: &[Lit], lit: &impl Fn(Lit) -> bool) -> u32 {
    bits.iter()
        .rev()
        .fold(0, |w, &l| w << 1 | u32::from(lit(l)))
}
