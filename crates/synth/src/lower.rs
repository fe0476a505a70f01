//! Bit-blasting of word-level cells into the E-AIG.
//!
//! Depth is the scarce resource in GEM (each boomerang layer absorbs a
//! bounded number of logic levels), so all constructions here are
//! depth-optimized: Sklansky prefix adders, balanced reduction trees,
//! logarithmic barrel shifters.

use crate::memory::{self, MemImpl};
use crate::{PortBits, SynthError, SynthResult, SynthStats};
use gem_aig::{Eaig, Lit};
use gem_netlist::{Binary, CellKind, Module, NetId, Unary};

/// Drives one synthesis run; see [`crate::synthesize`].
pub(crate) struct Lowerer<'a> {
    pub(crate) m: &'a Module,
    pub(crate) g: Eaig,
    /// Bit literals per net, filled as lowering progresses.
    pub(crate) bits: Vec<Option<Vec<Lit>>>,
    pub(crate) mem_impls: Vec<MemImpl>,
    pub(crate) stats: SynthStats,
}

impl<'a> Lowerer<'a> {
    pub(crate) fn new(m: &'a Module) -> Self {
        Lowerer {
            m,
            g: Eaig::new(),
            bits: vec![None; m.nets().len()],
            mem_impls: Vec::new(),
            stats: SynthStats::default(),
        }
    }

    pub(crate) fn run(mut self) -> Result<SynthResult, SynthError> {
        // 1. Primary inputs, in port order, LSB first.
        let mut input_layout = Vec::new();
        for p in self.m.inputs() {
            let w = self.m.width(p.net);
            input_layout.push(PortBits {
                name: p.name.clone(),
                lsb_index: self.g.inputs().len(),
                width: w,
            });
            let lits: Vec<Lit> = (0..w)
                .map(|i| self.g.input(format!("{}[{i}]", p.name)))
                .collect();
            self.bits[p.net.0 as usize] = Some(lits);
        }
        // 2. Flip-flop state nets.
        for c in self.m.cells() {
            if let CellKind::Dff { init, .. } = &c.kind {
                let lits: Vec<Lit> = init.iter().map(|b| self.g.ff(b)).collect();
                self.bits[c.out.0 as usize] = Some(lits);
            }
        }
        // 3. Memory state (RAM blocks or polyfill flip-flops).
        memory::prepass(&mut self)?;
        // 4. Combinational logic in topological order.
        for entry in self.topo_entries() {
            match entry {
                Entry::Cell(ci) => self.lower_cell(ci)?,
                Entry::AsyncRead(mi, pi) => memory::lower_async_read(&mut self, mi, pi)?,
            }
        }
        // 5. Sequential hookup: flip-flop next-states.
        for c in self.m.cells() {
            if let CellKind::Dff {
                d,
                init,
                enable,
                reset,
            } = &c.kind
            {
                let q = self.bits[c.out.0 as usize].clone().expect("dff seeded");
                let dv = self.net_bits(*d)?;
                let en = enable.map(|e| self.bit0(e)).transpose()?;
                let rst = reset.map(|r| self.bit0(r)).transpose()?;
                for (i, &qb) in q.iter().enumerate() {
                    let mut next = dv[i];
                    if let Some(e) = en {
                        next = self.g.mux(e, next, qb);
                    }
                    if let Some(r) = rst {
                        let init_lit = Lit::FALSE.flip_if(init.bit(i as u32));
                        next = self.g.mux(r, init_lit, next);
                    }
                    self.g.set_ff_next(qb, next);
                }
            }
        }
        // 6. Memory port hookup.
        memory::postpass(&mut self)?;
        // 7. Outputs.
        let mut output_layout = Vec::new();
        let output_ports: Vec<(String, NetId)> =
            self.m.outputs().map(|p| (p.name.clone(), p.net)).collect();
        for (name, net) in output_ports {
            let w = self.m.width(net);
            output_layout.push(PortBits {
                name: name.clone(),
                lsb_index: self.g.outputs().len(),
                width: w,
            });
            let lits = self.net_bits(net)?;
            for (i, l) in lits.into_iter().enumerate() {
                self.g.output(format!("{name}[{i}]"), l);
            }
        }
        // 8. Stats.
        let levels = self.g.levels();
        self.stats.gates = levels.gates;
        self.stats.levels = levels.depth;
        self.stats.ffs = self.g.ffs().len() as u64;
        self.stats.ram_blocks = self.g.rams().len() as u64;
        Ok(SynthResult {
            eaig: self.g,
            inputs: input_layout,
            outputs: output_layout,
            stats: self.stats,
        })
    }

    /// Lowered bits of a net; errors if the net has not been lowered yet
    /// (which would indicate a topological-ordering bug).
    pub(crate) fn net_bits(&self, n: NetId) -> Result<Vec<Lit>, SynthError> {
        self.bits[n.0 as usize]
            .clone()
            .ok_or_else(|| SynthError::Internal(format!("net {n} used before lowered")))
    }

    fn bit0(&self, n: NetId) -> Result<Lit, SynthError> {
        Ok(self.net_bits(n)?[0])
    }

    fn lower_cell(&mut self, ci: usize) -> Result<(), SynthError> {
        let cell = self.m.cells()[ci].clone();
        let out_w = self.m.width(cell.out) as usize;
        let lits: Vec<Lit> = match &cell.kind {
            CellKind::Dff { .. } => return Ok(()), // seeded
            CellKind::Const { value } => value.iter().map(|b| Lit::FALSE.flip_if(b)).collect(),
            CellKind::Unary { op, a } => {
                let av = self.net_bits(*a)?;
                match op {
                    Unary::Not => av.iter().map(|l| l.flip()).collect(),
                    Unary::Neg => {
                        let inv: Vec<Lit> = av.iter().map(|l| l.flip()).collect();
                        let zeros = vec![Lit::FALSE; av.len()];
                        let (sum, _) = self.adder(&inv, &zeros, Lit::TRUE);
                        sum
                    }
                    Unary::ReduceAnd => vec![self.g.and_many(&av)],
                    Unary::ReduceOr => vec![self.g.or_many(&av)],
                    Unary::ReduceXor => vec![self.g.xor_many(&av)],
                }
            }
            CellKind::Binary { op, a, b } => {
                let av = self.net_bits(*a)?;
                let bv = self.net_bits(*b)?;
                match op {
                    Binary::And => self.zip2(&av, &bv, |g, x, y| g.and(x, y)),
                    Binary::Or => self.zip2(&av, &bv, |g, x, y| g.or(x, y)),
                    Binary::Xor => self.zip2(&av, &bv, |g, x, y| g.xor(x, y)),
                    Binary::Add => self.adder(&av, &bv, Lit::FALSE).0,
                    Binary::Sub => {
                        let inv: Vec<Lit> = bv.iter().map(|l| l.flip()).collect();
                        self.adder(&av, &inv, Lit::TRUE).0
                    }
                    Binary::Mul => self.multiplier(&av, &bv),
                    Binary::Eq => {
                        let xnors: Vec<Lit> = self
                            .zip2(&av, &bv, |g, x, y| g.xor(x, y))
                            .iter()
                            .map(|l| l.flip())
                            .collect();
                        vec![self.g.and_many(&xnors)]
                    }
                    Binary::Ult => {
                        // a < b  ⇔  no carry out of a + !b + 1.
                        let inv: Vec<Lit> = bv.iter().map(|l| l.flip()).collect();
                        let (_, cout) = self.adder(&av, &inv, Lit::TRUE);
                        vec![cout.flip()]
                    }
                    Binary::Shl => self.shifter(&av, &bv, ShiftDir::Left),
                    Binary::Lshr => self.shifter(&av, &bv, ShiftDir::Right),
                }
            }
            CellKind::Mux { sel, t, f } => {
                let s = self.bit0(*sel)?;
                let tv = self.net_bits(*t)?;
                let fv = self.net_bits(*f)?;
                tv.iter()
                    .zip(&fv)
                    .map(|(&x, &y)| self.g.mux(s, x, y))
                    .collect()
            }
            CellKind::Slice { a, lo } => {
                let av = self.net_bits(*a)?;
                av[*lo as usize..*lo as usize + out_w].to_vec()
            }
            CellKind::Concat { parts } => {
                let mut v = Vec::with_capacity(out_w);
                for p in parts {
                    v.extend(self.net_bits(*p)?);
                }
                v
            }
        };
        debug_assert_eq!(lits.len(), out_w, "lowered width mismatch");
        self.bits[cell.out.0 as usize] = Some(lits);
        Ok(())
    }

    fn zip2(
        &mut self,
        a: &[Lit],
        b: &[Lit],
        mut f: impl FnMut(&mut Eaig, Lit, Lit) -> Lit,
    ) -> Vec<Lit> {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| f(&mut self.g, x, y))
            .collect()
    }

    /// Sklansky prefix adder with carry-in; returns (sum, carry-out).
    pub(crate) fn adder(&mut self, a: &[Lit], b: &[Lit], cin: Lit) -> (Vec<Lit>, Lit) {
        assert_eq!(a.len(), b.len());
        let n = a.len();
        if n == 0 {
            return (vec![], cin);
        }
        // Generate/propagate, with the carry-in folded into bit 0.
        let mut gen: Vec<Lit> = Vec::with_capacity(n);
        let mut pro: Vec<Lit> = Vec::with_capacity(n);
        let mut p_raw: Vec<Lit> = Vec::with_capacity(n);
        for i in 0..n {
            let gi = self.g.and(a[i], b[i]);
            let pi = self.g.xor(a[i], b[i]);
            p_raw.push(pi);
            if i == 0 {
                let pc = self.g.and(pi, cin);
                gen.push(self.g.or(gi, pc));
            } else {
                gen.push(gi);
            }
            pro.push(pi);
        }
        // Sklansky prefix: after round d, (gen[i], pro[i]) covers
        // [i - 2^d + 1, i] groups.
        let mut d = 1;
        while d < n {
            let mut new_gen = gen.clone();
            let mut new_pro = pro.clone();
            for i in 0..n {
                if (i / d) % 2 == 1 {
                    let j = (i / d) * d - 1; // last index of previous block
                    let pg = self.g.and(pro[i], gen[j]);
                    new_gen[i] = self.g.or(gen[i], pg);
                    new_pro[i] = self.g.and(pro[i], pro[j]);
                }
            }
            gen = new_gen;
            pro = new_pro;
            d *= 2;
        }
        // carry into bit i is gen[i-1]; carry into bit 0 is cin.
        let mut sum = Vec::with_capacity(n);
        for i in 0..n {
            let carry_in = if i == 0 { cin } else { gen[i - 1] };
            sum.push(self.g.xor(p_raw[i], carry_in));
        }
        (sum, gen[n - 1])
    }

    /// Wrapping multiplier: partial products summed with a balanced tree.
    fn multiplier(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let n = a.len();
        let mut terms: Vec<Vec<Lit>> = Vec::new();
        for (j, &bj) in b.iter().enumerate() {
            if j >= n {
                break;
            }
            let mut pp = vec![Lit::FALSE; n];
            for i in 0..n - j {
                pp[i + j] = self.g.and(a[i], bj);
            }
            terms.push(pp);
        }
        if terms.is_empty() {
            return vec![Lit::FALSE; n];
        }
        // Balanced pairwise summation.
        while terms.len() > 1 {
            let mut next: Vec<Vec<Lit>> = Vec::with_capacity(terms.len().div_ceil(2));
            let mut it = terms.into_iter();
            while let Some(x) = it.next() {
                match it.next() {
                    Some(y) => next.push(self.adder(&x, &y, Lit::FALSE).0),
                    None => next.push(x),
                }
            }
            terms = next;
        }
        terms.pop().expect("one term left")
    }

    /// Barrel shifter with zero fill; amounts ≥ width produce zero.
    fn shifter(&mut self, a: &[Lit], amount: &[Lit], dir: ShiftDir) -> Vec<Lit> {
        let n = a.len();
        let stages = (usize::BITS - (n - 1).leading_zeros()) as usize; // ceil(log2(n)) for n>1
        let stages = if n <= 1 { 0 } else { stages };
        let mut cur = a.to_vec();
        for (k, &sel) in amount.iter().enumerate().take(stages) {
            let sh = 1usize << k;
            let mut shifted = vec![Lit::FALSE; n];
            for (i, out) in shifted.iter_mut().enumerate() {
                let src = match dir {
                    ShiftDir::Left => i.checked_sub(sh),
                    ShiftDir::Right => {
                        let s = i + sh;
                        (s < n).then_some(s)
                    }
                };
                *out = src.map_or(Lit::FALSE, |s| cur[s]);
            }
            cur = cur
                .iter()
                .zip(&shifted)
                .map(|(&c, &s)| self.g.mux(sel, s, c))
                .collect();
        }
        // Any amount bit ≥ width zeroes the result (including bits beyond
        // the stages we consumed).
        let mut high_bits: Vec<Lit> = amount.iter().copied().skip(stages).collect();
        // Also the consumed bits can sum to >= n when n is not a power of
        // two; handle by comparing amount[0..stages] ≥ n.
        if n.count_ones() != 1 && n > 1 {
            let amt_low: Vec<Lit> = amount.iter().copied().take(stages).collect();
            let ge_n = self.unsigned_ge_const(&amt_low, n as u64);
            high_bits.push(ge_n);
        }
        if high_bits.is_empty() {
            return cur;
        }
        let any_high = self.g.or_many(&high_bits);
        cur.iter()
            .map(|&c| self.g.and(c, any_high.flip()))
            .collect()
    }

    /// `bits >= k` for a constant k (unsigned).
    pub(crate) fn unsigned_ge_const(&mut self, bits: &[Lit], k: u64) -> Lit {
        // bits >= k  ⇔  NOT (bits < k).
        self.unsigned_lt_const(bits, k).flip()
    }

    /// `bits < k` for a constant k (unsigned).
    pub(crate) fn unsigned_lt_const(&mut self, bits: &[Lit], k: u64) -> Lit {
        // If k has set bits above bits.len(), every value fits below k.
        if (k >> bits.len()) != 0 {
            return Lit::TRUE;
        }
        // Scan LSB→MSB; at each bit the comparison of the prefix [0..=i]
        // is: strictly-less if b < kbit, strictly-greater if b > kbit,
        // else whatever the lower bits decided.
        let mut lt = Lit::FALSE;
        for (i, &b) in bits.iter().enumerate() {
            let kbit = (k >> i) & 1 == 1;
            lt = if kbit {
                // b=0 → less; b=1 → keep lower result.
                self.g.or(b.flip(), lt)
            } else {
                // b=1 → greater; b=0 → keep.
                self.g.and(b.flip(), lt)
            };
        }
        lt
    }

    /// `bits == k` for a constant k.
    pub(crate) fn eq_const(&mut self, bits: &[Lit], k: u64) -> Lit {
        if (k >> bits.len()) != 0 {
            return Lit::FALSE;
        }
        let terms: Vec<Lit> = bits
            .iter()
            .enumerate()
            .map(|(i, &b)| b.flip_if((k >> i) & 1 == 0))
            .collect();
        self.g.and_many(&terms)
    }

    /// Topological order over combinational cells and async read ports.
    fn topo_entries(&self) -> Vec<Entry> {
        let m = self.m;
        // producer per net
        let mut producer: Vec<Option<Entry>> = vec![None; m.nets().len()];
        for (ci, c) in m.cells().iter().enumerate() {
            if !matches!(c.kind, CellKind::Dff { .. }) {
                producer[c.out.0 as usize] = Some(Entry::Cell(ci));
            }
        }
        for (mi, mm) in m.memories().iter().enumerate() {
            for (pi, rp) in mm.read_ports.iter().enumerate() {
                if rp.kind == gem_netlist::ReadKind::Async
                    && matches!(self.mem_impls[mi], MemImpl::Polyfill { .. })
                {
                    producer[rp.data.0 as usize] = Some(Entry::AsyncRead(mi, pi));
                }
            }
        }
        let deps = |e: Entry| -> Vec<NetId> {
            match e {
                Entry::Cell(ci) => m.cell_inputs(&m.cells()[ci]),
                Entry::AsyncRead(mi, pi) => vec![m.memories()[mi].read_ports[pi].addr],
            }
        };
        let key = |e: Entry| -> usize {
            match e {
                Entry::Cell(ci) => ci,
                Entry::AsyncRead(mi, pi) => m.cells().len() + (mi << 8) + pi,
            }
        };
        let total = m.cells().len() + (m.memories().len() << 8) + 256;
        let mut state = vec![0u8; total]; // 0 white, 1 gray, 2 black
        let mut order = Vec::new();
        for start_ci in 0..m.cells().len() {
            let start = Entry::Cell(start_ci);
            if state[key(start)] != 0 {
                continue;
            }
            let mut stack: Vec<(Entry, usize)> = vec![(start, 0)];
            state[key(start)] = 1;
            while let Some(&mut (e, ref mut child)) = stack.last_mut() {
                let d = deps(e);
                if *child < d.len() {
                    let dep = d[*child];
                    *child += 1;
                    if let Some(p) = producer[dep.0 as usize] {
                        if state[key(p)] == 0 {
                            state[key(p)] = 1;
                            stack.push((p, 0));
                        }
                    }
                } else {
                    state[key(e)] = 2;
                    order.push(e);
                    stack.pop();
                }
            }
        }
        // Async reads not reachable from any cell (directly feeding an
        // output) still need lowering.
        for (mi, mm) in m.memories().iter().enumerate() {
            for pi in 0..mm.read_ports.len() {
                let e = Entry::AsyncRead(mi, pi);
                if matches!(self.mem_impls[mi], MemImpl::Polyfill { .. })
                    && mm.read_ports[pi].kind == gem_netlist::ReadKind::Async
                    && state[key(e)] == 0
                {
                    order.push(e);
                }
            }
        }
        order
    }
}

#[derive(Debug, Clone, Copy)]
enum ShiftDir {
    Left,
    Right,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    Cell(usize),
    AsyncRead(usize, usize),
}
