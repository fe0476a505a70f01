//! The word-level netlist data model.
//!
//! A [`Module`] is a flat, single-clock-domain netlist of word-level nets
//! driven by [`Cell`]s, with multi-port [`Memory`] arrays modeled natively
//! (the GEM E-AIG has native RAM blocks, so memories must survive until
//! synthesis rather than being bit-blasted here).

use crate::value::Bits;
use std::fmt;

/// Identifies a net (a named or anonymous word-level signal) in a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// Identifies a cell in a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

/// Identifies a memory array in a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemId(pub u32);

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A word-level signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Optional user-facing name (ports always have one).
    pub name: Option<String>,
    /// Width in bits; validation wants 1 to
    /// [`MAX_NET_BITS`](crate::check::MAX_NET_BITS).
    pub width: u32,
}

/// Direction of a module port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Driven by the environment each cycle.
    Input,
    /// Observed by the environment each cycle.
    Output,
}

/// A top-level port binding a direction and name to a net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name, unique within the module.
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// The net carrying the port value.
    pub net: NetId,
}

/// Unary word-level operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unary {
    /// Bitwise complement; output width equals input width.
    Not,
    /// Two's-complement negation; output width equals input width.
    Neg,
    /// AND-reduction to 1 bit.
    ReduceAnd,
    /// OR-reduction to 1 bit.
    ReduceOr,
    /// XOR-reduction (parity) to 1 bit.
    ReduceXor,
}

/// Binary word-level operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Binary {
    /// Bitwise AND (same widths in and out).
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Wrapping addition (same widths in and out).
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Equality; output is 1 bit.
    Eq,
    /// Unsigned less-than; output is 1 bit.
    Ult,
    /// Logical shift left by a *variable* amount; output width equals the
    /// first operand's width.
    Shl,
    /// Logical shift right by a variable amount.
    Lshr,
}

/// The operation performed by a [`Cell`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellKind {
    /// A constant driver. The output width equals `value.width()`.
    Const {
        /// The constant value.
        value: Bits,
    },
    /// A unary operator.
    Unary {
        /// Operator.
        op: Unary,
        /// Operand net.
        a: NetId,
    },
    /// A binary operator.
    Binary {
        /// Operator.
        op: Binary,
        /// Left operand.
        a: NetId,
        /// Right operand.
        b: NetId,
    },
    /// A 2:1 word multiplexer: `out = if sel { t } else { f }`.
    Mux {
        /// 1-bit select.
        sel: NetId,
        /// Value when `sel` is 1.
        t: NetId,
        /// Value when `sel` is 0.
        f: NetId,
    },
    /// Extracts bits `[lo, lo+out_width)` of `a`.
    Slice {
        /// Source net.
        a: NetId,
        /// Low bit index.
        lo: u32,
    },
    /// Concatenation; `parts[0]` occupies the least-significant bits.
    Concat {
        /// Nets to concatenate, LSB-part first.
        parts: Vec<NetId>,
    },
    /// A posedge-clocked D flip-flop bank with optional enable and
    /// synchronous reset. Every sequential element in the design is one of
    /// these (or a [`Memory`]); the clock is implicit and global.
    Dff {
        /// Next-state input.
        d: NetId,
        /// Power-on value (width must match the output).
        init: Bits,
        /// Optional active-high clock enable.
        enable: Option<NetId>,
        /// Optional synchronous active-high reset to `init`.
        reset: Option<NetId>,
    },
}

/// A cell drives exactly one output net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// The operation.
    pub kind: CellKind,
    /// Output net.
    pub out: NetId,
}

/// Whether a memory read port is registered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadKind {
    /// Data appears the cycle *after* the address is presented (block-RAM
    /// style). Maps natively onto GEM RAM blocks.
    Sync,
    /// Data is a combinational function of the address (register-file
    /// style). The paper notes these can only be polyfilled with FFs and
    /// decoder logic; `gem-synth` does exactly that.
    Async,
}

/// A memory read port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadPort {
    /// Address net (width `ceil(log2(words))`, at least 1).
    pub addr: NetId,
    /// Data output net (width equals the memory width).
    pub data: NetId,
    /// Synchronous or asynchronous read.
    pub kind: ReadKind,
}

/// A memory write port. Writes take effect at the clock edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WritePort {
    /// Address net.
    pub addr: NetId,
    /// Data input net (width equals the memory width).
    pub data: NetId,
    /// Active-high write enable (1 bit).
    pub enable: NetId,
}

/// A word-addressed memory array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Memory {
    /// Name for diagnostics and waveforms.
    pub name: String,
    /// Number of words (need not be a power of two).
    pub words: u32,
    /// Word width in bits.
    pub width: u32,
    /// Write ports.
    pub write_ports: Vec<WritePort>,
    /// Read ports.
    pub read_ports: Vec<ReadPort>,
}

/// A flat single-clock netlist.
///
/// Construct one through [`crate::ModuleBuilder`]; direct mutation is
/// intentionally not exposed so that a `Module` in hand has always passed
/// validation ([`crate::ModuleBuilder::finish`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    pub(crate) name: String,
    pub(crate) nets: Vec<Net>,
    pub(crate) ports: Vec<Port>,
    pub(crate) cells: Vec<Cell>,
    pub(crate) memories: Vec<Memory>,
}

impl Module {
    /// Module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nets, indexable by [`NetId`].
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// Net accessor.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.0 as usize]
    }

    /// Width of a net in bits.
    pub fn width(&self, id: NetId) -> u32 {
        self.net(id).width
    }

    /// All ports in declaration order.
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// Input ports in declaration order.
    pub fn inputs(&self) -> impl Iterator<Item = &Port> {
        self.ports.iter().filter(|p| p.dir == PortDir::Input)
    }

    /// Output ports in declaration order.
    pub fn outputs(&self) -> impl Iterator<Item = &Port> {
        self.ports.iter().filter(|p| p.dir == PortDir::Output)
    }

    /// Finds a port by name.
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// All cells, indexable by [`CellId`].
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Cell accessor.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.0 as usize]
    }

    /// All memories, indexable by [`MemId`].
    pub fn memories(&self) -> &[Memory] {
        &self.memories
    }

    /// Total number of sequential state bits (FF bits plus memory bits).
    pub fn state_bits(&self) -> u64 {
        let ff: u64 = self
            .cells
            .iter()
            .filter(|c| matches!(c.kind, CellKind::Dff { .. }))
            .map(|c| self.width(c.out) as u64)
            .sum();
        let mem: u64 = self
            .memories
            .iter()
            .map(|m| m.words as u64 * m.width as u64)
            .sum();
        ff + mem
    }

    /// Nets read by a cell (its fan-in), in a deterministic order.
    pub fn cell_inputs(&self, cell: &Cell) -> Vec<NetId> {
        match &cell.kind {
            CellKind::Const { .. } => vec![],
            CellKind::Unary { a, .. } => vec![*a],
            CellKind::Binary { a, b, .. } => vec![*a, *b],
            CellKind::Mux { sel, t, f } => vec![*sel, *t, *f],
            CellKind::Slice { a, .. } => vec![*a],
            CellKind::Concat { parts } => parts.clone(),
            CellKind::Dff {
                d, enable, reset, ..
            } => {
                let mut v = vec![*d];
                v.extend(enable.iter().copied());
                v.extend(reset.iter().copied());
                v
            }
        }
    }
}

/// A structural finding of [`crate::check`] — what
/// [`crate::ModuleBuilder::finish`] and [`crate::validate`] return first,
/// and what `gem_analyze` reports in full. Each names the net(s) it is
/// about; the rules are catalogued in `docs/ANALYZE.md` §1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A net has no driver (and is not an input port).
    UndrivenNet(NetId),
    /// A net has more than one driver.
    MultipleDrivers(NetId),
    /// The widths around the cell or memory port at net `at` are
    /// inconsistent; `what` describes the mismatch.
    WidthMismatch {
        /// The cell's output, or the memory port's offending net.
        at: NetId,
        /// The widths involved.
        what: String,
    },
    /// A net narrower than one bit or wider than
    /// [`MAX_NET_BITS`](crate::check::MAX_NET_BITS).
    NetSize(NetId),
    /// A memory with no words, no width, or more than
    /// [`MAX_MEMORY_BITS`](crate::check::MAX_MEMORY_BITS) bits.
    MemorySize(MemId),
    /// Two ports share a name.
    DuplicatePort(String),
    /// The combinational part of the design has a cycle; `cycle` lists the
    /// nets on it in dependency order (each net combinationally depends on
    /// the next, and the last depends on the first).
    CombinationalCycle {
        /// The nets forming the cycle, in dependency order.
        cycle: Vec<NetId>,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use crate::check::{MAX_MEMORY_BITS, MAX_NET_BITS};
        match self {
            ValidateError::UndrivenNet(n) => write!(f, "net {n} has no driver"),
            ValidateError::MultipleDrivers(n) => write!(f, "net {n} has multiple drivers"),
            ValidateError::WidthMismatch { at, what } => {
                write!(f, "width mismatch at {at}: {what}")
            }
            ValidateError::NetSize(n) => {
                write!(f, "net {n} is not 1 to {MAX_NET_BITS} bits wide")
            }
            ValidateError::MemorySize(m) => {
                write!(
                    f,
                    "memory {} does not hold 1 to {MAX_MEMORY_BITS} bits",
                    m.0
                )
            }
            ValidateError::DuplicatePort(s) => write!(f, "duplicate port name {s:?}"),
            ValidateError::CombinationalCycle { cycle } => {
                let path: Vec<String> = cycle
                    .iter()
                    .chain(cycle.first())
                    .map(NetId::to_string)
                    .collect();
                write!(f, "combinational cycle through {}", path.join(" -> "))
            }
        }
    }
}

impl std::error::Error for ValidateError {}
