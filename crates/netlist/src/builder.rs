//! Ergonomic construction of [`Module`]s.
//!
//! [`ModuleBuilder`] hands out [`NetId`]s as you add operators, then
//! holds the result to the structural rules of [`crate::check`] in
//! [`ModuleBuilder::finish`].

use crate::check::validate;
use crate::module::*;
use crate::value::Bits;
use std::collections::HashMap;

/// Incremental builder for a [`Module`].
///
/// Flip-flops are two-phase so feedback loops can be expressed: create the
/// state net with [`dff`](Self::dff), use it freely, then wire its
/// next-state input with [`connect_dff`](Self::connect_dff).
///
/// # Example
///
/// ```
/// use gem_netlist::ModuleBuilder;
///
/// let mut b = ModuleBuilder::new("toggler");
/// let q = b.dff(1);
/// let nq = b.not(q);
/// b.connect_dff(q, nq);
/// b.output("q", q);
/// let m = b.finish()?;
/// assert_eq!(m.state_bits(), 1);
/// # Ok::<(), gem_netlist::ValidateError>(())
/// ```
#[derive(Debug)]
pub struct ModuleBuilder {
    name: String,
    nets: Vec<Net>,
    ports: Vec<Port>,
    cells: Vec<Cell>,
    memories: Vec<Memory>,
    /// Dffs created by `dff` that still need `connect_dff`.
    pending_dffs: HashMap<NetId, PendingDff>,
}

#[derive(Debug)]
struct PendingDff {
    init: Bits,
    enable: Option<NetId>,
    reset: Option<NetId>,
}

impl ModuleBuilder {
    /// Starts a new module.
    pub fn new(name: impl Into<String>) -> Self {
        ModuleBuilder {
            name: name.into(),
            nets: Vec::new(),
            ports: Vec::new(),
            cells: Vec::new(),
            memories: Vec::new(),
            pending_dffs: HashMap::new(),
        }
    }

    fn add_net(&mut self, width: u32, name: Option<String>) -> NetId {
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net { name, width });
        id
    }

    /// Width of a net under construction.
    pub(crate) fn width(&self, n: NetId) -> u32 {
        self.nets[n.0 as usize].width
    }

    fn push_cell(&mut self, kind: CellKind, out_width: u32) -> NetId {
        let out = self.add_net(out_width, None);
        self.cells.push(Cell { kind, out });
        out
    }

    /// Declares an input port of the given width and returns its net.
    pub fn input(&mut self, name: impl Into<String>, width: u32) -> NetId {
        let name = name.into();
        let net = self.add_net(width, Some(name.clone()));
        self.ports.push(Port {
            name,
            dir: PortDir::Input,
            net,
        });
        net
    }

    /// Declares `net` as an output port.
    pub fn output(&mut self, name: impl Into<String>, net: NetId) {
        self.ports.push(Port {
            name: name.into(),
            dir: PortDir::Output,
            net,
        });
    }

    /// Gives `net` a debug name (useful for waveforms).
    pub fn name_net(&mut self, net: NetId, name: impl Into<String>) {
        self.nets[net.0 as usize].name = Some(name.into());
    }

    /// A constant driver.
    pub fn constant(&mut self, value: Bits) -> NetId {
        let w = value.width();
        self.push_cell(CellKind::Const { value }, w)
    }

    /// A constant from a `u64`.
    pub fn lit(&mut self, value: u64, width: u32) -> NetId {
        self.constant(Bits::from_u64(value, width))
    }

    /// Bitwise NOT.
    pub fn not(&mut self, a: NetId) -> NetId {
        let w = self.width(a);
        self.push_cell(CellKind::Unary { op: Unary::Not, a }, w)
    }

    /// Two's-complement negation.
    pub fn neg(&mut self, a: NetId) -> NetId {
        let w = self.width(a);
        self.push_cell(CellKind::Unary { op: Unary::Neg, a }, w)
    }

    /// AND-reduction to 1 bit.
    pub fn reduce_and(&mut self, a: NetId) -> NetId {
        self.push_cell(
            CellKind::Unary {
                op: Unary::ReduceAnd,
                a,
            },
            1,
        )
    }

    /// OR-reduction to 1 bit.
    pub fn reduce_or(&mut self, a: NetId) -> NetId {
        self.push_cell(
            CellKind::Unary {
                op: Unary::ReduceOr,
                a,
            },
            1,
        )
    }

    /// XOR-reduction to 1 bit.
    pub fn reduce_xor(&mut self, a: NetId) -> NetId {
        self.push_cell(
            CellKind::Unary {
                op: Unary::ReduceXor,
                a,
            },
            1,
        )
    }

    fn binary(&mut self, op: Binary, a: NetId, b: NetId) -> NetId {
        let w = match op {
            Binary::Eq | Binary::Ult => 1,
            _ => self.width(a),
        };
        self.push_cell(CellKind::Binary { op, a, b }, w)
    }

    /// Bitwise AND.
    pub fn and(&mut self, a: NetId, b: NetId) -> NetId {
        self.binary(Binary::And, a, b)
    }

    /// Bitwise OR.
    pub fn or(&mut self, a: NetId, b: NetId) -> NetId {
        self.binary(Binary::Or, a, b)
    }

    /// Bitwise XOR.
    pub fn xor(&mut self, a: NetId, b: NetId) -> NetId {
        self.binary(Binary::Xor, a, b)
    }

    /// Wrapping addition.
    pub fn add(&mut self, a: NetId, b: NetId) -> NetId {
        self.binary(Binary::Add, a, b)
    }

    /// Wrapping subtraction.
    pub fn sub(&mut self, a: NetId, b: NetId) -> NetId {
        self.binary(Binary::Sub, a, b)
    }

    /// Wrapping multiplication.
    pub fn mul(&mut self, a: NetId, b: NetId) -> NetId {
        self.binary(Binary::Mul, a, b)
    }

    /// Equality comparison (1-bit result).
    pub fn eq(&mut self, a: NetId, b: NetId) -> NetId {
        self.binary(Binary::Eq, a, b)
    }

    /// Unsigned less-than (1-bit result).
    pub fn ult(&mut self, a: NetId, b: NetId) -> NetId {
        self.binary(Binary::Ult, a, b)
    }

    /// Variable logical shift left.
    pub fn shl(&mut self, a: NetId, amount: NetId) -> NetId {
        self.binary(Binary::Shl, a, amount)
    }

    /// Variable logical shift right.
    pub fn lshr(&mut self, a: NetId, amount: NetId) -> NetId {
        self.binary(Binary::Lshr, a, amount)
    }

    /// 2:1 multiplexer: `if sel { t } else { f }`.
    pub fn mux(&mut self, sel: NetId, t: NetId, f: NetId) -> NetId {
        let w = self.width(t);
        self.push_cell(CellKind::Mux { sel, t, f }, w)
    }

    /// Extracts bits `[lo, lo+width)`.
    pub fn slice(&mut self, a: NetId, lo: u32, width: u32) -> NetId {
        self.push_cell(CellKind::Slice { a, lo }, width)
    }

    /// Extracts a single bit.
    pub fn bit(&mut self, a: NetId, i: u32) -> NetId {
        self.slice(a, i, 1)
    }

    /// Concatenates nets, first argument in the least-significant position.
    pub fn concat(&mut self, parts: &[NetId]) -> NetId {
        // Saturating: a width past `u32` is one the checker refuses.
        let widths = parts.iter().map(|&p| self.width(p));
        let w = widths.fold(0u32, u32::saturating_add);
        self.push_cell(
            CellKind::Concat {
                parts: parts.to_vec(),
            },
            w,
        )
    }

    /// Zero-extends (or truncates) `a` to `width`.
    pub fn resize(&mut self, a: NetId, width: u32) -> NetId {
        let aw = self.width(a);
        if aw == width {
            a
        } else if aw > width {
            self.slice(a, 0, width)
        } else {
            let pad = self.lit(0, width - aw);
            self.concat(&[a, pad])
        }
    }

    /// Creates a flip-flop bank of the given width initialized to zero and
    /// returns its output (state) net. The next-state input must later be
    /// wired with [`connect_dff`](Self::connect_dff).
    pub fn dff(&mut self, width: u32) -> NetId {
        self.dff_init(Bits::zeros(width))
    }

    /// Like [`dff`](Self::dff) with an explicit power-on value.
    pub fn dff_init(&mut self, init: Bits) -> NetId {
        let q = self.add_net(init.width(), None);
        self.pending_dffs.insert(
            q,
            PendingDff {
                init,
                enable: None,
                reset: None,
            },
        );
        q
    }

    /// Adds an active-high clock-enable to a pending flip-flop.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a pending flip-flop from [`dff`](Self::dff).
    pub fn dff_enable(&mut self, q: NetId, enable: NetId) {
        self.pending_dffs
            .get_mut(&q)
            .expect("dff_enable target must be a pending dff")
            .enable = Some(enable);
    }

    /// Adds an active-high synchronous reset (to the init value) to a
    /// pending flip-flop.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a pending flip-flop from [`dff`](Self::dff).
    pub fn dff_reset(&mut self, q: NetId, reset: NetId) {
        self.pending_dffs
            .get_mut(&q)
            .expect("dff_reset target must be a pending dff")
            .reset = Some(reset);
    }

    /// Wires the next-state input of a flip-flop created by
    /// [`dff`](Self::dff).
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a pending flip-flop or was already connected.
    pub fn connect_dff(&mut self, q: NetId, d: NetId) {
        let pending = self
            .pending_dffs
            .remove(&q)
            .expect("connect_dff target must be an unconnected pending dff");
        self.cells.push(Cell {
            kind: CellKind::Dff {
                d,
                init: pending.init,
                enable: pending.enable,
                reset: pending.reset,
            },
            out: q,
        });
    }

    /// Declares a *forward* net: a net with the given width and no driver
    /// yet, to be driven later with [`drive`](Self::drive). This is the
    /// combinational analogue of the [`dff`](Self::dff)/
    /// [`connect_dff`](Self::connect_dff) two-phase protocol and exists so
    /// frontends can represent reconvergent (and even cyclic) `assign`
    /// networks structurally; a forward net that is never driven shows up
    /// as an undriven net in validation.
    pub fn forward(&mut self, width: u32) -> NetId {
        self.add_net(width, None)
    }

    /// Drives a previously declared [`forward`](Self::forward) net from
    /// `src` through an identity (full-width slice) cell. The widths must
    /// match.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn drive(&mut self, out: NetId, src: NetId) {
        assert_eq!(
            self.width(out),
            self.width(src),
            "drive width mismatch: out {} vs src {}",
            self.width(out),
            self.width(src)
        );
        self.cells.push(Cell {
            kind: CellKind::Slice { a: src, lo: 0 },
            out,
        });
    }

    /// Declares a memory array and returns its id. Ports are added with
    /// [`read_port`](Self::read_port) and [`write_port`](Self::write_port).
    pub fn memory(&mut self, name: impl Into<String>, words: u32, width: u32) -> MemId {
        let id = MemId(self.memories.len() as u32);
        self.memories.push(Memory {
            name: name.into(),
            words,
            width,
            write_ports: Vec::new(),
            read_ports: Vec::new(),
        });
        id
    }

    /// Adds a read port to a memory; returns the data output net.
    pub fn read_port(&mut self, mem: MemId, addr: NetId, kind: ReadKind) -> NetId {
        let width = self.memories[mem.0 as usize].width;
        let data = self.add_net(width, None);
        self.memories[mem.0 as usize]
            .read_ports
            .push(ReadPort { addr, data, kind });
        data
    }

    /// Adds a write port to a memory.
    pub fn write_port(&mut self, mem: MemId, addr: NetId, data: NetId, enable: NetId) {
        self.memories[mem.0 as usize]
            .write_ports
            .push(WritePort { addr, data, enable });
    }

    /// Returns the finished module if [`validate`] passes it.
    ///
    /// # Errors
    ///
    /// The first [`ValidateError`] the checker finds (the rules are
    /// `docs/ANALYZE.md` §1); an unconnected flip-flop is an undriven net.
    pub fn finish(self) -> Result<Module, ValidateError> {
        let module = self.finish_raw();
        validate(&module)?;
        Ok(module)
    }

    /// Returns the module **without validating it**, so that analysis
    /// tooling (`gem-analyze`) can report every finding of the checker
    /// with named nets instead of receiving the first [`ValidateError`].
    /// Every compile entry point runs the same checker, so an unvalidated
    /// module cannot reach synthesis.
    pub fn finish_raw(self) -> Module {
        Module {
            name: self.name,
            nets: self.nets,
            ports: self.ports,
            cells: self.cells,
            memories: self.memories,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_module() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 4);
        let c = b.input("b", 4);
        let s = b.add(a, c);
        b.output("s", s);
        let m = b.finish().unwrap();
        assert_eq!(m.name(), "m");
        assert_eq!(m.ports().len(), 3);
        assert_eq!(m.cells().len(), 1);
    }

    #[test]
    fn dff_feedback_is_not_a_cycle() {
        let mut b = ModuleBuilder::new("m");
        let q = b.dff(1);
        let n = b.not(q);
        b.connect_dff(q, n);
        b.output("q", q);
        assert!(b.finish().is_ok());
    }

    #[test]
    fn pending_dff_is_undriven() {
        let mut b = ModuleBuilder::new("m");
        let q = b.dff(1); // never connected: shows up as an undriven net
        let n = b.not(q);
        let n2 = b.not(n);
        b.output("q", n2);
        match b.finish() {
            Err(ValidateError::UndrivenNet(_)) => {}
            other => panic!("expected undriven, got {other:?}"),
        }
    }

    #[test]
    fn combinational_cycle_detected_with_witness_path() {
        // f -> not -> not -> back into f via drive: a genuine 3-net cycle.
        let mut b = ModuleBuilder::new("m");
        let f = b.forward(1);
        let x = b.not(f);
        let y = b.not(x);
        b.drive(f, y);
        b.output("y", y);
        match b.finish() {
            Err(ValidateError::CombinationalCycle { cycle }) => {
                assert!(cycle.len() >= 3, "cycle too short: {cycle:?}");
                for (i, &n) in cycle.iter().enumerate() {
                    let next = cycle[(i + 1) % cycle.len()];
                    assert!(
                        [f, x, y].contains(&n) && [f, x, y].contains(&next),
                        "cycle {cycle:?} strayed off the loop"
                    );
                }
            }
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn undriven_forward_net_detected() {
        let mut b = ModuleBuilder::new("m");
        let f = b.forward(4);
        let n = b.not(f);
        b.output("y", n);
        match b.finish() {
            Err(ValidateError::UndrivenNet(net)) => assert_eq!(net, f),
            other => panic!("expected undriven, got {other:?}"),
        }
    }

    #[test]
    fn driven_forward_net_is_an_identity() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 4);
        let f = b.forward(4);
        let inv = b.not(a);
        b.drive(f, inv);
        b.output("y", f);
        let m = b.finish().unwrap();
        assert_eq!(m.width(m.port("y").unwrap().net), 4);
    }

    #[test]
    fn width_mismatch_detected() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 4);
        let c = b.input("b", 5);
        // Force mismatched binary by hand.
        let s = b.add(a, c);
        b.output("s", s);
        match b.finish() {
            Err(ValidateError::WidthMismatch { .. }) => {}
            other => panic!("expected width mismatch, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_port_detected() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 1);
        b.output("a", a);
        match b.finish() {
            Err(ValidateError::DuplicatePort(_)) => {}
            other => panic!("expected duplicate port, got {other:?}"),
        }
    }

    #[test]
    fn memory_ports() {
        let mut b = ModuleBuilder::new("m");
        let addr = b.input("addr", 4);
        let data = b.input("data", 8);
        let we = b.input("we", 1);
        let mem = b.memory("ram", 16, 8);
        b.write_port(mem, addr, data, we);
        let q = b.read_port(mem, addr, ReadKind::Sync);
        b.output("q", q);
        let m = b.finish().unwrap();
        assert_eq!(m.memories().len(), 1);
        assert_eq!(m.state_bits(), 16 * 8);
    }

    #[test]
    fn resize_behaviour() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 4);
        let wide = b.resize(a, 8);
        let same = b.resize(a, 4);
        assert_eq!(same, a);
        b.output("w", wide);
        let m = b.finish().unwrap();
        assert_eq!(m.width(m.port("w").unwrap().net), 8);
    }

    #[test]
    fn state_bits_counts_ffs_and_memories() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 8);
        let q = b.dff(8);
        b.connect_dff(q, a);
        b.output("q", q);
        let mem = b.memory("ram", 4, 4);
        let addr = b.input("addr", 2);
        let r = b.read_port(mem, addr, ReadKind::Sync);
        b.output("r", r);
        let m = b.finish().unwrap();
        assert_eq!(m.state_bits(), 8 + 16);
    }
}
