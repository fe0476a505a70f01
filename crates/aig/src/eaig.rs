//! The extended and-inverter graph.

use std::collections::HashMap;
use std::fmt;

/// Address width of the fixed GEM RAM block (8192 words).
pub const RAM_ADDR_BITS: usize = 13;
/// Data width of the fixed GEM RAM block.
pub const RAM_DATA_BITS: usize = 32;

/// Identifies a node in an [`Eaig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifies a flip-flop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FfId(pub u32);

/// Identifies a RAM block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RamId(pub u32);

/// An edge literal: a node reference plus an optional free inverter.
///
/// Inverters cost nothing in the E-AIG (the paper's fake library gives INV
/// gates 0ps delay); they are a single bit on the edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Constant false.
    pub const FALSE: Lit = Lit(0);
    /// Constant true.
    pub const TRUE: Lit = Lit(1);

    /// A positive (non-inverted) literal of `node`.
    pub fn from_node(node: NodeId) -> Lit {
        Lit(node.0 << 1)
    }

    /// The referenced node.
    pub fn node(self) -> NodeId {
        NodeId(self.0 >> 1)
    }

    /// True if the edge carries an inverter.
    pub fn is_inverted(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complemented literal.
    #[must_use]
    pub fn flip(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Complements when `inv` is true.
    #[must_use]
    pub fn flip_if(self, inv: bool) -> Lit {
        Lit(self.0 ^ inv as u32)
    }

    /// Raw encoding (`node << 1 | inverted`), useful as a dense map key.
    pub fn code(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}n{}",
            if self.is_inverted() { "!" } else { "" },
            self.node().0
        )
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A node in the graph. Node 0 is always the constant-false node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// Constant false (complemented edges yield true).
    Const0,
    /// Primary input; payload is the input index.
    Input(u32),
    /// Two-input AND gate.
    And(Lit, Lit),
    /// Current-state output of a flip-flop.
    FfOut(FfId),
    /// One bit of a RAM block's registered read data.
    RamOut {
        /// The RAM block.
        ram: RamId,
        /// Data bit index, `0..RAM_DATA_BITS`.
        bit: u8,
    },
}

/// A D flip-flop; clock is implicit and global.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ff {
    /// Next-state function.
    pub next: Lit,
    /// Power-on value.
    pub init: bool,
    /// The node exposing the current state.
    pub out: NodeId,
}

/// A fixed-geometry RAM block: 8192 × 32, one synchronous read port and
/// one write port. Reads are *read-first* (a simultaneous write to the
/// same address returns the old word).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ram {
    /// Write address bits, LSB first.
    pub write_addr: [Lit; RAM_ADDR_BITS],
    /// Write data bits, LSB first.
    pub write_data: [Lit; RAM_DATA_BITS],
    /// Active-high write enable.
    pub write_en: Lit,
    /// Read address bits, LSB first.
    pub read_addr: [Lit; RAM_ADDR_BITS],
    /// Nodes exposing the registered read data, LSB first.
    pub out: [NodeId; RAM_DATA_BITS],
}

/// An extended and-inverter graph.
///
/// Nodes are append-only and AND operands always precede the gate, so node
/// order is a topological order of the combinational logic. Structural
/// hashing and local rewrites (constant folding, `a∧a`, `a∧¬a`) are applied
/// automatically by [`and`](Self::and).
#[derive(Debug, Clone, Default)]
pub struct Eaig {
    nodes: Vec<Node>,
    /// Logic level per node, maintained incrementally on push.
    levels: Vec<u32>,
    ffs: Vec<Ff>,
    rams: Vec<Ram>,
    inputs: Vec<(String, NodeId)>,
    outputs: Vec<(String, Lit)>,
    /// Structural-hashing table: every `And(a, b)` of `nodes` by its
    /// operands. `None` until the first [`and`](Self::and) and again
    /// after [`shrink_to_fit`](Self::shrink_to_fit); rebuilt from
    /// `nodes` when next needed.
    strash: Option<HashMap<(Lit, Lit), NodeId>>,
}

impl Eaig {
    /// An empty graph containing only the constant node.
    pub fn new() -> Self {
        Eaig {
            nodes: vec![Node::Const0],
            levels: vec![0],
            ffs: Vec::new(),
            rams: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            strash: None,
        }
    }

    /// Releases what only construction needs — the structural-hashing
    /// table (most of a large graph's bytes, read by nothing but
    /// [`and`](Self::and)) and the growth slack of every list — once a
    /// graph is built and about to be held for a whole run. Nodes, their
    /// order and their levels are untouched, and the graph can still be
    /// extended: the next `and` rebuilds the table first.
    pub fn shrink_to_fit(&mut self) {
        self.strash = None;
        self.nodes.shrink_to_fit();
        self.levels.shrink_to_fit();
        self.ffs.shrink_to_fit();
        self.rams.shrink_to_fit();
        self.inputs.shrink_to_fit();
        self.outputs.shrink_to_fit();
    }

    fn strash(&mut self) -> &mut HashMap<(Lit, Lit), NodeId> {
        let nodes = &self.nodes;
        self.strash.get_or_insert_with(|| {
            let gates = nodes.iter().zip(0..).filter_map(|(n, id)| match *n {
                Node::And(a, b) => Some(((a, b), NodeId(id))),
                _ => None,
            });
            gates.collect()
        })
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let level = match node {
            Node::And(a, b) => {
                self.levels[a.node().0 as usize].max(self.levels[b.node().0 as usize]) + 1
            }
            _ => 0,
        };
        self.nodes.push(node);
        self.levels.push(level);
        id
    }

    /// Adds a primary input and returns its (positive) literal.
    pub fn input(&mut self, name: impl Into<String>) -> Lit {
        let idx = self.inputs.len() as u32;
        let id = self.push(Node::Input(idx));
        self.inputs.push((name.into(), id));
        Lit::from_node(id)
    }

    /// Registers `lit` as a named primary output.
    pub fn output(&mut self, name: impl Into<String>, lit: Lit) {
        self.outputs.push((name.into(), lit));
    }

    /// AND of two literals, with constant folding, trivial-case rewrites,
    /// and structural hashing.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // Normalize operand order for hashing.
        let (a, b) = if a.code() <= b.code() { (a, b) } else { (b, a) };
        if a == Lit::FALSE {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if a == b {
            return a;
        }
        if a == b.flip() {
            return Lit::FALSE;
        }
        if let Some(&id) = self.strash().get(&(a, b)) {
            return Lit::from_node(id);
        }
        let id = self.push(Node::And(a, b));
        self.strash().insert((a, b), id);
        Lit::from_node(id)
    }

    /// OR via De Morgan (free inverters).
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        self.and(a.flip(), b.flip()).flip()
    }

    /// XOR as two levels of ANDs.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let nand = self.and(a, b).flip();
        let or = self.or(a, b);
        self.and(nand, or)
    }

    /// 2:1 multiplexer `if s { t } else { f }`.
    pub fn mux(&mut self, s: Lit, t: Lit, f: Lit) -> Lit {
        if t == f {
            return t;
        }
        let st = self.and(s, t);
        let sf = self.and(s.flip(), f);
        self.or(st, sf)
    }

    /// Depth-balanced AND over any number of literals.
    ///
    /// Operands are combined lowest-level-first (a Huffman-style reduction
    /// tree), which is the workhorse of GEM's depth-optimized synthesis:
    /// the paper's fake 1ps-AND/0ps-INV library makes timing-driven
    /// synthesis equivalent to this depth minimization.
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::TRUE, Self::and)
    }

    /// Depth-balanced OR.
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::FALSE, Self::or)
    }

    /// Depth-balanced XOR.
    pub fn xor_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::FALSE, Self::xor)
    }

    fn reduce_balanced(
        &mut self,
        lits: &[Lit],
        empty: Lit,
        mut op: impl FnMut(&mut Self, Lit, Lit) -> Lit,
    ) -> Lit {
        match lits.len() {
            0 => return empty,
            1 => return lits[0],
            _ => {}
        }
        // Min-heap on (level, insertion order) — combine the two shallowest
        // operands first to minimize the final depth.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut heap: BinaryHeap<(Reverse<u32>, Reverse<u32>, Lit)> = lits
            .iter()
            .enumerate()
            .map(|(i, &l)| (Reverse(self.level_of(l)), Reverse(i as u32), l))
            .collect();
        let mut order = lits.len() as u32;
        while heap.len() > 1 {
            let (_, _, a) = heap.pop().expect("heap len > 1");
            let (_, _, b) = heap.pop().expect("heap len > 1");
            let r = op(self, a, b);
            heap.push((Reverse(self.level_of(r)), Reverse(order), r));
            order += 1;
        }
        heap.pop().expect("non-empty heap").2
    }

    /// Logic level of the node behind a literal (inverters are free).
    pub fn level_of(&self, l: Lit) -> u32 {
        self.levels[l.node().0 as usize]
    }

    /// Creates a flip-flop with the given power-on value; returns its
    /// state literal. Wire its input later with
    /// [`set_ff_next`](Self::set_ff_next).
    pub fn ff(&mut self, init: bool) -> Lit {
        let id = FfId(self.ffs.len() as u32);
        let out = self.push(Node::FfOut(id));
        self.ffs.push(Ff {
            next: Lit::FALSE,
            init,
            out,
        });
        Lit::from_node(out)
    }

    /// Sets the next-state function of a flip-flop created by
    /// [`ff`](Self::ff).
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a flip-flop output literal.
    pub fn set_ff_next(&mut self, q: Lit, next: Lit) {
        let Node::FfOut(id) = self.nodes[q.node().0 as usize] else {
            panic!("set_ff_next target {q} is not a flip-flop output");
        };
        self.ffs[id.0 as usize].next = next.flip_if(q.is_inverted());
    }

    /// Creates a RAM block with all ports tied low; returns its id. Wire
    /// the ports later with [`set_ram_ports`](Self::set_ram_ports).
    pub fn ram(&mut self) -> RamId {
        let id = RamId(self.rams.len() as u32);
        let mut out = [NodeId(0); RAM_DATA_BITS];
        for (bit, slot) in out.iter_mut().enumerate() {
            *slot = self.push(Node::RamOut {
                ram: id,
                bit: bit as u8,
            });
        }
        self.rams.push(Ram {
            write_addr: [Lit::FALSE; RAM_ADDR_BITS],
            write_data: [Lit::FALSE; RAM_DATA_BITS],
            write_en: Lit::FALSE,
            read_addr: [Lit::FALSE; RAM_ADDR_BITS],
            out,
        });
        id
    }

    /// Wires the ports of a RAM block.
    pub fn set_ram_ports(
        &mut self,
        ram: RamId,
        read_addr: [Lit; RAM_ADDR_BITS],
        write_addr: [Lit; RAM_ADDR_BITS],
        write_data: [Lit; RAM_DATA_BITS],
        write_en: Lit,
    ) {
        let r = &mut self.rams[ram.0 as usize];
        r.read_addr = read_addr;
        r.write_addr = write_addr;
        r.write_data = write_data;
        r.write_en = write_en;
    }

    /// Read-data literal `bit` of a RAM block.
    pub fn ram_out(&self, ram: RamId, bit: usize) -> Lit {
        Lit::from_node(self.rams[ram.0 as usize].out[bit])
    }

    /// All nodes; index with [`NodeId`]. Order is topological for the
    /// combinational logic.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> Node {
        self.nodes[id.0 as usize]
    }

    /// Number of nodes including constants and state outputs.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no gates, inputs or state.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1 && self.ffs.is_empty() && self.rams.is_empty()
    }

    /// Named primary inputs in creation order.
    pub fn inputs(&self) -> &[(String, NodeId)] {
        &self.inputs
    }

    /// Named primary outputs in creation order.
    pub fn outputs(&self) -> &[(String, Lit)] {
        &self.outputs
    }

    /// Flip-flops; index with [`FfId`].
    pub fn ffs(&self) -> &[Ff] {
        &self.ffs
    }

    /// RAM blocks; index with [`RamId`].
    pub fn rams(&self) -> &[Ram] {
        &self.rams
    }

    /// All sink literals that must be computed each cycle: primary
    /// outputs, flip-flop next-states, and every RAM port bit.
    pub fn sinks(&self) -> Vec<Lit> {
        let mut s: Vec<Lit> = self.outputs.iter().map(|(_, l)| *l).collect();
        s.extend(self.ffs.iter().map(|f| f.next));
        for r in &self.rams {
            s.extend(r.read_addr);
            s.extend(r.write_addr);
            s.extend(r.write_data);
            s.push(r.write_en);
        }
        s
    }

    /// Marks the nodes reachable (through AND fan-ins) from the sinks;
    /// returns a bitmap indexed by node id. Source nodes (inputs, FF and
    /// RAM outputs) referenced by a live path are marked live too.
    pub fn live_nodes(&self) -> Vec<bool> {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.sinks().iter().map(|l| l.node()).collect();
        while let Some(n) = stack.pop() {
            if live[n.0 as usize] {
                continue;
            }
            live[n.0 as usize] = true;
            if let Node::And(a, b) = self.nodes[n.0 as usize] {
                stack.push(a.node());
                stack.push(b.node());
            }
        }
        live
    }

    /// Number of live AND gates (the paper's "#E-AIG Gates" metric counts
    /// logic actually needed by the sinks).
    pub fn num_live_ands(&self) -> usize {
        let live = self.live_nodes();
        self.nodes
            .iter()
            .enumerate()
            .filter(|(i, n)| live[*i] && matches!(n, Node::And(..)))
            .count()
    }

    /// Per-node logic level: sources are level 0, an AND is one more than
    /// its deepest fan-in. Indexed by node id.
    pub fn node_levels(&self) -> &[u32] {
        &self.levels
    }

    /// Levelization of the live logic; see [`crate::Levels`].
    pub fn levels(&self) -> crate::Levels {
        crate::Levels::of(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// AND gates in `g`, live or not.
    fn num_ands(g: &Eaig) -> usize {
        g.nodes()
            .iter()
            .filter(|n| matches!(n, Node::And(..)))
            .count()
    }

    #[test]
    fn constant_folding() {
        let mut g = Eaig::new();
        let a = g.input("a");
        assert_eq!(g.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(g.and(a, Lit::TRUE), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, a.flip()), Lit::FALSE);
        assert_eq!(num_ands(&g), 0);
    }

    #[test]
    fn structural_hashing_dedupes() {
        let mut g = Eaig::new();
        let a = g.input("a");
        let b = g.input("b");
        let x = g.and(a, b);
        let y = g.and(b, a);
        assert_eq!(x, y);
        assert_eq!(num_ands(&g), 1);
    }

    /// A released graph is still a graph under construction: an existing
    /// pair returns its gate, a new pair a new one, and the table's
    /// absence is not observable.
    #[test]
    fn structural_hashing_survives_shrink_to_fit() {
        let mut g = Eaig::new();
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("c");
        let ab = g.and(a, b);
        let abc = g.and(ab, c.flip());
        let (nodes, levels) = (g.nodes().to_vec(), g.node_levels().to_vec());
        g.shrink_to_fit();
        assert_eq!((g.nodes(), g.node_levels()), (&nodes[..], &levels[..]));
        assert_eq!(g.and(b, a), ab);
        assert_eq!(g.and(c.flip(), ab), abc);
        assert_eq!(g.len(), nodes.len());
        let ac = g.and(a, c);
        assert_eq!(ac.node(), NodeId(nodes.len() as u32));
        g.shrink_to_fit();
        assert_eq!(g.and(c, a), ac);
        assert_eq!(num_ands(&g), 3);
    }

    #[test]
    fn or_and_xor_shapes() {
        let mut g = Eaig::new();
        let a = g.input("a");
        let b = g.input("b");
        let o = g.or(a, b);
        assert!(o.is_inverted()); // De Morgan form
        let x = g.xor(a, b);
        g.output("x", x);
        // xor = 3 ands
        assert_eq!(num_ands(&g), 3);
    }

    #[test]
    fn mux_identity() {
        let mut g = Eaig::new();
        let s = g.input("s");
        let t = g.input("t");
        assert_eq!(g.mux(s, t, t), t);
    }

    #[test]
    fn ff_two_phase() {
        let mut g = Eaig::new();
        let q = g.ff(true);
        let nq = q.flip();
        g.set_ff_next(q, nq);
        assert_eq!(g.ffs().len(), 1);
        assert!(g.ffs()[0].init);
        assert_eq!(g.ffs()[0].next, nq);
    }

    #[test]
    fn set_ff_next_through_inverted_literal() {
        let mut g = Eaig::new();
        let q = g.ff(false);
        let d = g.input("d");
        // Setting next of !q to d means next of q is !d.
        g.set_ff_next(q.flip(), d);
        assert_eq!(g.ffs()[0].next, d.flip());
    }

    #[test]
    fn ram_creation() {
        let mut g = Eaig::new();
        let r = g.ram();
        let a = g.input("a");
        let mut addr = [Lit::FALSE; RAM_ADDR_BITS];
        addr[0] = a;
        g.set_ram_ports(r, addr, addr, [Lit::FALSE; RAM_DATA_BITS], a);
        assert_eq!(g.rams().len(), 1);
        let out0 = g.ram_out(r, 0);
        assert!(matches!(g.node(out0.node()), Node::RamOut { bit: 0, .. }));
    }

    #[test]
    fn balanced_and_reduces_depth() {
        let mut g = Eaig::new();
        let inputs: Vec<Lit> = (0..16).map(|i| g.input(format!("i{i}"))).collect();
        let out = g.and_many(&inputs);
        g.output("o", out);
        // Balanced tree of 16 leaves has depth 4, linear chain would be 15.
        assert_eq!(g.levels().depth, 4);
    }

    #[test]
    fn balanced_and_prefers_shallow_operands() {
        let mut g = Eaig::new();
        // One deep operand (depth 3) and three shallow ones: balanced
        // reduction keeps total depth at 4 (deep operand combined last
        // would give 4; naive pairing could give 5).
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("c");
        let d = g.input("d");
        let deep1 = g.and(a, b);
        let deep2 = g.and(deep1, c);
        let deep3 = g.and(deep2, d);
        let s1 = g.input("s1");
        let s2 = g.input("s2");
        let s3 = g.input("s3");
        let out = g.and_many(&[deep3, s1, s2, s3]);
        g.output("o", out);
        assert!(g.levels().depth <= 5);
    }

    #[test]
    fn live_nodes_ignores_dangling() {
        let mut g = Eaig::new();
        let a = g.input("a");
        let b = g.input("b");
        let _dead = g.and(a, b);
        let live_gate = g.or(a, b);
        g.output("o", live_gate);
        assert_eq!(num_ands(&g), 2);
        assert_eq!(g.num_live_ands(), 1);
    }

    #[test]
    fn sinks_include_state() {
        let mut g = Eaig::new();
        let a = g.input("a");
        let q = g.ff(false);
        g.set_ff_next(q, a);
        g.output("o", q);
        let sinks = g.sinks();
        assert!(sinks.contains(&a)); // ff next
        assert!(sinks.contains(&q)); // output
    }

    #[test]
    fn lit_code_packs_node_and_inversion() {
        let l = Lit::from_node(NodeId(42)).flip();
        assert_eq!(l.code(), 42 << 1 | 1);
        assert!(l.is_inverted());
        assert_eq!(l.node(), NodeId(42));
    }
}
