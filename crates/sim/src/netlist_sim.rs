//! Word-level reference interpreter for RTL netlists.
//!
//! [`NetlistSim`] executes a [`gem_netlist::Module`] directly at word
//! level. Its purpose is to pin down RTL semantics *before* synthesis so
//! that `gem-synth` can be verified by co-simulation against [`crate::EaigSim`].

use gem_netlist::{Binary, Bits, CellKind, Module, NetId, ReadKind, Unary};

/// Cycle-accurate word-level simulator for a [`Module`].
///
/// Semantics match [`crate::EaigSim`]: single implicit clock, inputs
/// sampled per cycle, read-first memories, synchronous read data registered.
///
/// # Example
///
/// ```
/// use gem_netlist::{ModuleBuilder, Bits};
/// use gem_sim::NetlistSim;
///
/// let mut b = ModuleBuilder::new("inc");
/// let x = b.input("x", 8);
/// let one = b.lit(1, 8);
/// let y = b.add(x, one);
/// b.output("y", y);
/// let m = b.finish()?;
///
/// let mut sim = NetlistSim::new(&m);
/// sim.set_input("x", Bits::from_u64(41, 8));
/// sim.eval();
/// assert_eq!(sim.output("y").to_u64(), 42);
/// # Ok::<(), gem_netlist::ValidateError>(())
/// ```
#[derive(Debug)]
pub struct NetlistSim<'a> {
    m: &'a Module,
    /// Current value of every net.
    vals: Vec<Bits>,
    /// Flip-flop state per Dff cell (indexed by cell position).
    ff: Vec<Option<Bits>>,
    /// Memory contents.
    mem: Vec<Vec<Bits>>,
    /// Registered data of synchronous read ports: `mem_rdata[mem][port]`.
    mem_rdata: Vec<Vec<Bits>>,
    /// Evaluation order of combinational cells (topological).
    order: Vec<usize>,
    evaluated: bool,
}

impl<'a> NetlistSim<'a> {
    /// Creates a simulator with zeroed inputs and power-on state.
    pub fn new(m: &'a Module) -> Self {
        let vals: Vec<Bits> = m.nets().iter().map(|n| Bits::zeros(n.width)).collect();
        let ff: Vec<Option<Bits>> = m
            .cells()
            .iter()
            .map(|c| match &c.kind {
                CellKind::Dff { init, .. } => Some(init.clone()),
                _ => None,
            })
            .collect();
        let mem: Vec<Vec<Bits>> = m
            .memories()
            .iter()
            .map(|mm| vec![Bits::zeros(mm.width); mm.words as usize])
            .collect();
        let mem_rdata: Vec<Vec<Bits>> = m
            .memories()
            .iter()
            .map(|mm| vec![Bits::zeros(mm.width); mm.read_ports.len()])
            .collect();
        let order = topo_order(m);
        NetlistSim {
            m,
            vals,
            ff,
            mem,
            mem_rdata,
            order,
            evaluated: false,
        }
    }

    /// Sets the value of an input port.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or the width differs.
    pub fn set_input(&mut self, name: &str, v: Bits) {
        let p = self
            .m
            .port(name)
            .unwrap_or_else(|| panic!("no port named {name:?}"));
        assert_eq!(v.width(), self.m.width(p.net), "input width mismatch");
        self.vals[p.net.0 as usize] = v;
        self.evaluated = false;
    }

    /// Evaluates combinational logic for the current cycle.
    pub fn eval(&mut self) {
        // Seed state-driven nets.
        for (ci, c) in self.m.cells().iter().enumerate() {
            if let Some(state) = &self.ff[ci] {
                self.vals[c.out.0 as usize] = state.clone();
            }
        }
        for (mi, mm) in self.m.memories().iter().enumerate() {
            for (pi, rp) in mm.read_ports.iter().enumerate() {
                if rp.kind == ReadKind::Sync {
                    self.vals[rp.data.0 as usize] = self.mem_rdata[mi][pi].clone();
                }
            }
        }
        // Combinational cells in topological order, interleaved with async
        // read ports (handled via the order list's encoding).
        for &entry in &self.order.clone() {
            self.eval_entry(entry);
        }
        self.evaluated = true;
    }

    fn eval_entry(&mut self, entry: usize) {
        const ASYNC_BASE: usize = 1 << 32;
        if entry >= ASYNC_BASE {
            let packed = entry - ASYNC_BASE;
            let mi = packed >> 8;
            let pi = packed & 0xFF;
            let mm = &self.m.memories()[mi];
            let rp = &mm.read_ports[pi];
            let addr = self.vals[rp.addr.0 as usize].to_u64() as usize;
            let word = if addr < mm.words as usize {
                self.mem[mi][addr].clone()
            } else {
                Bits::zeros(mm.width)
            };
            self.vals[rp.data.0 as usize] = word;
            return;
        }
        let c = &self.m.cells()[entry];
        if matches!(c.kind, CellKind::Dff { .. }) {
            return;
        }
        let v = self.eval_cell(&c.kind, c.out);
        self.vals[c.out.0 as usize] = v;
    }

    fn eval_cell(&self, kind: &CellKind, out: NetId) -> Bits {
        let get = |n: NetId| &self.vals[n.0 as usize];
        let ow = self.m.width(out);
        match kind {
            CellKind::Const { value } => value.clone(),
            CellKind::Unary { op, a } => {
                let av = get(*a);
                match op {
                    Unary::Not => av.not(),
                    Unary::Neg => Bits::zeros(av.width()).sub(av),
                    Unary::ReduceAnd => Bits::from(av.reduce_and()),
                    Unary::ReduceOr => Bits::from(av.reduce_or()),
                    Unary::ReduceXor => Bits::from(av.reduce_xor()),
                }
            }
            CellKind::Binary { op, a, b } => {
                let (av, bv) = (get(*a), get(*b));
                match op {
                    Binary::And => av.and(bv),
                    Binary::Or => av.or(bv),
                    Binary::Xor => av.xor(bv),
                    Binary::Add => av.add(bv),
                    Binary::Sub => av.sub(bv),
                    Binary::Mul => av.mul(bv),
                    Binary::Eq => Bits::from(av == bv),
                    Binary::Ult => Bits::from(av.ult(bv)),
                    Binary::Shl | Binary::Lshr => {
                        // Amounts >= width produce zero.
                        let amt = bv.to_u64();
                        let big = bv.iter().skip(64).any(|b| b) || amt >= av.width() as u64;
                        if big {
                            Bits::zeros(av.width())
                        } else if matches!(op, Binary::Shl) {
                            av.shl(amt as u32)
                        } else {
                            av.lshr(amt as u32)
                        }
                    }
                }
            }
            CellKind::Mux { sel, t, f } => {
                if get(*sel).bit(0) {
                    get(*t).clone()
                } else {
                    get(*f).clone()
                }
            }
            CellKind::Slice { a, lo } => get(*a).slice(*lo, ow),
            CellKind::Concat { parts } => {
                let mut acc = Bits::zeros(0);
                for p in parts {
                    acc = acc.concat(get(*p));
                }
                acc
            }
            CellKind::Dff { .. } => unreachable!("sequential cell in eval_cell"),
        }
    }

    /// Value of an output port (after [`eval`](Self::eval)).
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or `eval` has not run.
    pub fn output(&self, name: &str) -> Bits {
        assert!(self.evaluated, "call eval() before reading outputs");
        let p = self
            .m
            .port(name)
            .unwrap_or_else(|| panic!("no port named {name:?}"));
        self.vals[p.net.0 as usize].clone()
    }

    /// Value of any net (after [`eval`](Self::eval)).
    pub fn net(&self, id: NetId) -> &Bits {
        &self.vals[id.0 as usize]
    }

    /// Advances one clock edge.
    pub fn step(&mut self) {
        if !self.evaluated {
            self.eval();
        }
        // Flip-flops.
        let mut new_ff = self.ff.clone();
        for (ci, c) in self.m.cells().iter().enumerate() {
            if let CellKind::Dff {
                d,
                init,
                enable,
                reset,
            } = &c.kind
            {
                let cur = self.ff[ci].clone().expect("dff has state");
                let dv = self.vals[d.0 as usize].clone();
                let en = enable.is_none_or(|e| self.vals[e.0 as usize].bit(0));
                let rst = reset.is_some_and(|r| self.vals[r.0 as usize].bit(0));
                let next = if rst {
                    init.clone()
                } else if en {
                    dv
                } else {
                    cur
                };
                new_ff[ci] = Some(next);
            }
        }
        // Memories: reads capture pre-write contents (read-first).
        for (mi, mm) in self.m.memories().iter().enumerate() {
            for (pi, rp) in mm.read_ports.iter().enumerate() {
                if rp.kind == ReadKind::Sync {
                    let addr = self.vals[rp.addr.0 as usize].to_u64() as usize;
                    self.mem_rdata[mi][pi] = if addr < mm.words as usize {
                        self.mem[mi][addr].clone()
                    } else {
                        Bits::zeros(mm.width)
                    };
                }
            }
            let writes: Vec<(usize, Bits)> = mm
                .write_ports
                .iter()
                .filter(|wp| self.vals[wp.enable.0 as usize].bit(0))
                .map(|wp| {
                    (
                        self.vals[wp.addr.0 as usize].to_u64() as usize,
                        self.vals[wp.data.0 as usize].clone(),
                    )
                })
                .collect();
            for (addr, data) in writes {
                if addr < mm.words as usize {
                    self.mem[mi][addr] = data;
                }
            }
        }
        self.ff = new_ff;
        self.evaluated = false;
    }

    /// Applies inputs (by port order), evaluates, collects outputs, clocks.
    pub fn cycle(&mut self, inputs: &[(&str, Bits)]) -> Vec<(String, Bits)> {
        for (name, v) in inputs {
            self.set_input(name, v.clone());
        }
        self.eval();
        let outs = self
            .m
            .outputs()
            .map(|p| (p.name.clone(), self.vals[p.net.0 as usize].clone()))
            .collect();
        self.step();
        outs
    }
}

/// Topological order of combinational work items. Plain cell indexes are
/// cells; indexes with bit 32 set encode async read ports
/// (`mem_index << 8 | port_index`).
fn topo_order(m: &Module) -> Vec<usize> {
    const ASYNC_BASE: usize = 1 << 32;
    // net -> producing entry
    let mut producer: Vec<Option<usize>> = vec![None; m.nets().len()];
    for (ci, c) in m.cells().iter().enumerate() {
        if !matches!(c.kind, CellKind::Dff { .. }) {
            producer[c.out.0 as usize] = Some(ci);
        }
    }
    for (mi, mm) in m.memories().iter().enumerate() {
        for (pi, rp) in mm.read_ports.iter().enumerate() {
            if rp.kind == ReadKind::Async {
                producer[rp.data.0 as usize] = Some(ASYNC_BASE + (mi << 8) + pi);
            }
        }
    }
    let entry_deps = |entry: usize| -> Vec<NetId> {
        if entry >= ASYNC_BASE {
            let packed = entry - ASYNC_BASE;
            let (mi, pi) = (packed >> 8, packed & 0xFF);
            vec![m.memories()[mi].read_ports[pi].addr]
        } else {
            m.cell_inputs(&m.cells()[entry])
        }
    };
    let mut order = Vec::new();
    let mut visited: std::collections::HashSet<usize> = std::collections::HashSet::new();
    // DFS from all entries.
    let all_entries: Vec<usize> = producer.iter().flatten().copied().collect();
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for &e in &all_entries {
        if visited.contains(&e) {
            continue;
        }
        stack.push((e, 0));
        while let Some(&mut (entry, ref mut child)) = stack.last_mut() {
            let deps = entry_deps(entry);
            if *child < deps.len() {
                let dep_net = deps[*child];
                *child += 1;
                if let Some(p) = producer[dep_net.0 as usize] {
                    if !visited.contains(&p) && !stack.iter().any(|&(e2, _)| e2 == p) {
                        stack.push((p, 0));
                    }
                }
            } else {
                if visited.insert(entry) {
                    order.push(entry);
                }
                stack.pop();
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_netlist::ModuleBuilder;

    #[test]
    fn adder_counts() {
        let mut b = ModuleBuilder::new("m");
        let x = b.input("x", 8);
        let one = b.lit(1, 8);
        let q = b.dff(8);
        let sum = b.add(q, x);
        let _ = one;
        b.connect_dff(q, sum);
        b.output("q", q);
        let m = b.finish().unwrap();
        let mut s = NetlistSim::new(&m);
        for _ in 0..5 {
            s.cycle(&[("x", Bits::from_u64(3, 8))]);
        }
        s.eval();
        assert_eq!(s.output("q").to_u64(), 15);
    }

    #[test]
    fn enable_and_reset() {
        let mut b = ModuleBuilder::new("m");
        let d = b.input("d", 4);
        let en = b.input("en", 1);
        let rst = b.input("rst", 1);
        let q = b.dff_init(Bits::from_u64(7, 4));
        b.dff_enable(q, en);
        b.dff_reset(q, rst);
        b.connect_dff(q, d);
        b.output("q", q);
        let m = b.finish().unwrap();
        let mut s = NetlistSim::new(&m);
        s.eval();
        assert_eq!(s.output("q").to_u64(), 7); // init
                                               // enable off: hold
        s.cycle(&[
            ("d", Bits::from_u64(3, 4)),
            ("en", Bits::from_u64(0, 1)),
            ("rst", Bits::from_u64(0, 1)),
        ]);
        s.eval();
        assert_eq!(s.output("q").to_u64(), 7);
        // enable on: load
        s.cycle(&[("d", Bits::from_u64(3, 4)), ("en", Bits::from_u64(1, 1))]);
        s.eval();
        assert_eq!(s.output("q").to_u64(), 3);
        // reset wins
        s.cycle(&[("rst", Bits::from_u64(1, 1))]);
        s.eval();
        assert_eq!(s.output("q").to_u64(), 7);
    }

    #[test]
    fn sync_memory_read_first() {
        let mut b = ModuleBuilder::new("m");
        let addr = b.input("addr", 3);
        let data = b.input("data", 8);
        let we = b.input("we", 1);
        let mem = b.memory("ram", 8, 8);
        b.write_port(mem, addr, data, we);
        let q = b.read_port(mem, addr, gem_netlist::ReadKind::Sync);
        b.output("q", q);
        let m = b.finish().unwrap();
        let mut s = NetlistSim::new(&m);
        // write 0xAA at 2 while reading 2
        s.cycle(&[
            ("addr", Bits::from_u64(2, 3)),
            ("data", Bits::from_u64(0xAA, 8)),
            ("we", Bits::from_u64(1, 1)),
        ]);
        s.eval();
        assert_eq!(s.output("q").to_u64(), 0, "read-first returns old word");
        s.cycle(&[("we", Bits::from_u64(0, 1)), ("addr", Bits::from_u64(2, 3))]);
        s.eval();
        assert_eq!(s.output("q").to_u64(), 0xAA);
    }

    #[test]
    fn async_memory_combinational() {
        let mut b = ModuleBuilder::new("m");
        let waddr = b.input("waddr", 3);
        let raddr = b.input("raddr", 3);
        let data = b.input("data", 8);
        let we = b.input("we", 1);
        let mem = b.memory("rf", 8, 8);
        b.write_port(mem, waddr, data, we);
        let q = b.read_port(mem, raddr, gem_netlist::ReadKind::Async);
        b.output("q", q);
        let m = b.finish().unwrap();
        let mut s = NetlistSim::new(&m);
        s.cycle(&[
            ("waddr", Bits::from_u64(5, 3)),
            ("data", Bits::from_u64(0x5A, 8)),
            ("we", Bits::from_u64(1, 1)),
        ]);
        s.set_input("we", Bits::from_u64(0, 1));
        s.set_input("raddr", Bits::from_u64(5, 3));
        s.eval();
        assert_eq!(s.output("q").to_u64(), 0x5A, "async read is same-cycle");
    }

    #[test]
    fn variable_shift_saturates() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 8);
        let sh = b.input("sh", 8);
        let y = b.shl(a, sh);
        b.output("y", y);
        let m = b.finish().unwrap();
        let mut s = NetlistSim::new(&m);
        s.set_input("a", Bits::from_u64(0xFF, 8));
        s.set_input("sh", Bits::from_u64(200, 8));
        s.eval();
        assert_eq!(s.output("y").to_u64(), 0);
    }
}
