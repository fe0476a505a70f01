//! Memory mapping onto GEM's fixed RAM blocks, and polyfill.
//!
//! The E-AIG supports one native RAM shape: 8192 words × 32 bits (13-bit
//! address), one synchronous read port, one write port, read-first. This
//! module adapts arbitrary RTL memories to that shape, mirroring what the
//! paper delegates to Yosys with a fake FPGA target:
//!
//! * wider words are split across column *segments* of 32 bits;
//! * deeper arrays are split across *banks* of 8192 words, with the high
//!   address bits registered to steer a bank-select mux on the read side
//!   and decoded into per-bank write enables;
//! * extra synchronous read ports replicate the whole block array;
//! * memories with *asynchronous* read ports are **polyfilled** with a flip-flop matrix plus write
//!   decoders and read mux trees — the expensive fallback the paper calls
//!   out ("RAMs with asynchronous read ports ... can only be implemented
//!   inefficiently with FFs and decoder logic").
//!
//! Memories with more than one write port are always polyfilled: the
//! native block has a single write port and two simultaneous writes to
//! different addresses cannot be merged into one.

use crate::lower::Lowerer;
use crate::SynthError;
use gem_aig::{Lit, RamId, RAM_ADDR_BITS, RAM_DATA_BITS};
use gem_netlist::ReadKind;

/// How one RTL memory is realized in the E-AIG.
#[derive(Debug, Clone)]
pub(crate) enum MemImpl {
    /// Mapped onto native RAM blocks.
    RamBlocks {
        /// `ports[read_port][bank][segment]` RAM ids.
        ports: Vec<Vec<Vec<RamId>>>,
        /// Registered high read-address bits per read port (FF literals).
        haddr_regs: Vec<Vec<Lit>>,
        /// Registered address-valid flag per read port, present when the
        /// address space can exceed `words`.
        rvalid_regs: Vec<Option<Lit>>,
    },
    /// Polyfilled with flip-flops.
    Polyfill {
        /// `words[word][bit]` state literals.
        words: Vec<Vec<Lit>>,
        /// Registered read data per read port (`None` for async ports).
        sync_out: Vec<Option<Vec<Lit>>>,
    },
}

fn ceil_div(a: u32, b: u32) -> u32 {
    a.div_ceil(b)
}

fn addr_can_overflow(addr_width: u32, words: u32) -> bool {
    addr_width >= 32 || (1u64 << addr_width) > words as u64
}

/// Creates memory state elements and seeds read-data nets where the data
/// is a registered (or register-mux) function of existing literals.
pub(crate) fn prepass(lw: &mut Lowerer<'_>) -> Result<(), SynthError> {
    for mi in 0..lw.m.memories().len() {
        let mm = lw.m.memories()[mi].clone();
        let all_sync = mm.read_ports.iter().all(|r| r.kind == ReadKind::Sync);
        let ram_mapped = all_sync && mm.write_ports.len() <= 1;
        if mm.words == 0 {
            return Err(SynthError::UnsupportedMemory(format!(
                "memory {} has zero words",
                mm.name
            )));
        }
        if ram_mapped {
            let banks = ceil_div(mm.words, 1 << RAM_ADDR_BITS);
            let segs = ceil_div(mm.width, RAM_DATA_BITS as u32);
            let hw = (32 - (banks - 1).leading_zeros()).min(31) as usize; // clog2(banks)
            let hw = if banks == 1 { 0 } else { hw };
            let mut ports = Vec::new();
            let mut haddr_regs = Vec::new();
            let mut rvalid_regs = Vec::new();
            for rp in &mm.read_ports {
                let mut bank_list = Vec::new();
                for _ in 0..banks {
                    let seg_list: Vec<RamId> = (0..segs).map(|_| lw.g.ram()).collect();
                    bank_list.push(seg_list);
                }
                let hregs: Vec<Lit> = (0..hw).map(|_| lw.g.ff(false)).collect();
                let addr_w = lw.m.width(rp.addr);
                let rvalid = addr_can_overflow(addr_w, mm.words).then(|| lw.g.ff(false));
                // Seed the read-data net: bank mux over registered data,
                // gated by the registered valid flag.
                let mut data_bits = Vec::with_capacity(mm.width as usize);
                for bit in 0..mm.width {
                    let seg = (bit / RAM_DATA_BITS as u32) as usize;
                    let b = (bit % RAM_DATA_BITS as u32) as usize;
                    let candidates: Vec<Lit> = (0..banks as usize)
                        .map(|bank| lw.g.ram_out(bank_list[bank][seg], b))
                        .collect();
                    let mut v = mux_tree(lw, &candidates, &hregs);
                    if let Some(val) = rvalid {
                        v = lw.g.and(v, val);
                    }
                    data_bits.push(v);
                }
                lw.bits[rp.data.0 as usize] = Some(data_bits);
                ports.push(bank_list);
                haddr_regs.push(hregs);
                rvalid_regs.push(rvalid);
            }
            lw.stats.ram_blocks += (banks * segs) as u64 * mm.read_ports.len() as u64;
            lw.mem_impls.push(MemImpl::RamBlocks {
                ports,
                haddr_regs,
                rvalid_regs,
            });
        } else {
            // Polyfill: a flip-flop per memory bit.
            let words: Vec<Vec<Lit>> = (0..mm.words)
                .map(|_| (0..mm.width).map(|_| lw.g.ff(false)).collect())
                .collect();
            let mut sync_out = Vec::new();
            for rp in &mm.read_ports {
                if rp.kind == ReadKind::Sync {
                    let regs: Vec<Lit> = (0..mm.width).map(|_| lw.g.ff(false)).collect();
                    lw.bits[rp.data.0 as usize] = Some(regs.clone());
                    sync_out.push(Some(regs));
                } else {
                    sync_out.push(None);
                }
            }
            lw.stats.polyfilled_mem_bits += mm.words as u64 * mm.width as u64;
            lw.mem_impls.push(MemImpl::Polyfill { words, sync_out });
        }
    }
    Ok(())
}

/// Selects one literal out of `candidates` using select bits (LSB first).
/// Missing candidates (index ≥ len) read as constant false.
fn mux_tree(lw: &mut Lowerer<'_>, candidates: &[Lit], sel: &[Lit]) -> Lit {
    fn rec(lw: &mut Lowerer<'_>, c: &[Lit], sel: &[Lit], base: usize, stride: usize) -> Lit {
        if sel.is_empty() {
            return c.get(base).copied().unwrap_or(Lit::FALSE);
        }
        let (head, rest) = (sel[sel.len() - 1], &sel[..sel.len() - 1]);
        let lo = rec(lw, c, rest, base, stride >> 1);
        let hi_base = base + (stride >> 1);
        if hi_base >= c.len() {
            // Entire high half is out of range: select zero when head=1.
            return lw.g.and(lo, head.flip());
        }
        let hi = rec(lw, c, rest, hi_base, stride >> 1);
        lw.g.mux(head, hi, lo)
    }
    if candidates.len() == 1 {
        return candidates[0];
    }
    rec(lw, candidates, sel, 0, 1 << sel.len())
}

/// Lowers an asynchronous read port of a polyfilled memory (called from
/// the topological pass once the address net is available).
pub(crate) fn lower_async_read(
    lw: &mut Lowerer<'_>,
    mi: usize,
    pi: usize,
) -> Result<(), SynthError> {
    let mm = lw.m.memories()[mi].clone();
    let rp = mm.read_ports[pi].clone();
    let addr = lw.net_bits(rp.addr)?;
    let MemImpl::Polyfill { words, .. } = lw.mem_impls[mi].clone() else {
        return Err(SynthError::Internal(
            "async read on a RAM-mapped memory".into(),
        ));
    };
    let data = read_words(lw, &words, &addr, mm.width);
    lw.bits[rp.data.0 as usize] = Some(data);
    Ok(())
}

/// Combinational read of a polyfilled word array: per-bit mux tree over
/// the words, out-of-range addresses read as zero.
fn read_words(lw: &mut Lowerer<'_>, words: &[Vec<Lit>], addr: &[Lit], width: u32) -> Vec<Lit> {
    // Bound the select width: bits above clog2(words) force zero.
    let need = if words.len() <= 1 {
        0
    } else {
        (usize::BITS - (words.len() - 1).leading_zeros()) as usize
    };
    let sel: Vec<Lit> = addr.iter().copied().take(need).collect();
    let extra: Vec<Lit> = addr.iter().copied().skip(need).collect();
    let mut in_range_extra = Lit::TRUE;
    if !extra.is_empty() {
        let any = lw.g.or_many(&extra);
        in_range_extra = any.flip();
    }
    // Non-power-of-two word counts: the mux tree already returns zero for
    // missing high entries (see mux_tree).
    (0..width as usize)
        .map(|bit| {
            let col: Vec<Lit> = words.iter().map(|w| w[bit]).collect();
            let v = mux_tree(lw, &col, &sel);
            lw.g.and(v, in_range_extra)
        })
        .collect()
}

/// Wires all memory sequential inputs once combinational lowering is done.
pub(crate) fn postpass(lw: &mut Lowerer<'_>) -> Result<(), SynthError> {
    for mi in 0..lw.m.memories().len() {
        let mm = lw.m.memories()[mi].clone();
        match lw.mem_impls[mi].clone() {
            MemImpl::RamBlocks {
                ports,
                haddr_regs,
                rvalid_regs,
            } => {
                // Single (possibly absent) write port.
                let (we, waddr, wdata) = match mm.write_ports.first() {
                    Some(wp) => (
                        lw.net_bits(wp.enable)?[0],
                        lw.net_bits(wp.addr)?,
                        lw.net_bits(wp.data)?,
                    ),
                    None => (Lit::FALSE, vec![], vec![]),
                };
                let waddr_w = waddr.len() as u32;
                let we = if waddr_w > 0 && addr_can_overflow(waddr_w, mm.words) {
                    let valid = lw.unsigned_lt_const(&waddr, mm.words as u64);
                    lw.g.and(we, valid)
                } else {
                    we
                };
                let banks = ports[0].len();
                for (p, rp) in mm.read_ports.iter().enumerate() {
                    let raddr = lw.net_bits(rp.addr)?;
                    // Register the high read-address bits.
                    for (k, &hreg) in haddr_regs[p].iter().enumerate() {
                        let src = raddr.get(RAM_ADDR_BITS + k).copied().unwrap_or(Lit::FALSE);
                        lw.g.set_ff_next(hreg, src);
                    }
                    if let Some(valid) = rvalid_regs[p] {
                        let ok = lw.unsigned_lt_const(&raddr, mm.words as u64);
                        lw.g.set_ff_next(valid, ok);
                    }
                    let read_low = pad_addr(&raddr);
                    let write_low = pad_addr(&waddr);
                    for (bank, bank_rams) in ports[p].iter().enumerate().take(banks) {
                        // Per-bank write enable decodes the high address.
                        let whigh: Vec<Lit> = waddr.iter().copied().skip(RAM_ADDR_BITS).collect();
                        let bank_we = if banks == 1 {
                            we
                        } else {
                            let hit = lw.eq_const(&whigh, bank as u64);
                            lw.g.and(we, hit)
                        };
                        for (seg, &ram) in bank_rams.iter().enumerate() {
                            let mut wd = [Lit::FALSE; RAM_DATA_BITS];
                            for (b, slot) in wd.iter_mut().enumerate() {
                                *slot = wdata
                                    .get(seg * RAM_DATA_BITS + b)
                                    .copied()
                                    .unwrap_or(Lit::FALSE);
                            }
                            lw.g.set_ram_ports(ram, read_low, write_low, wd, bank_we);
                        }
                    }
                }
            }
            MemImpl::Polyfill { words, sync_out } => {
                // Gather write-port signals.
                let mut wports = Vec::new();
                for wp in &mm.write_ports {
                    wports.push((
                        lw.net_bits(wp.enable)?[0],
                        lw.net_bits(wp.addr)?,
                        lw.net_bits(wp.data)?,
                    ));
                }
                // Word next-state: ports applied in order, later wins.
                for (w, word_ffs) in words.iter().enumerate() {
                    let mut next: Vec<Lit> = word_ffs.clone();
                    for (we, addr, data) in &wports {
                        let hit = lw.eq_const(addr, w as u64);
                        let sel = lw.g.and(*we, hit);
                        next = next
                            .iter()
                            .zip(data)
                            .map(|(&cur, &d)| lw.g.mux(sel, d, cur))
                            .collect();
                    }
                    for (&ff, &n) in word_ffs.iter().zip(&next) {
                        lw.g.set_ff_next(ff, n);
                    }
                }
                // Synchronous read ports: register the combinational read.
                for (pi, rp) in mm.read_ports.iter().enumerate() {
                    if let Some(regs) = &sync_out[pi] {
                        let addr = lw.net_bits(rp.addr)?;
                        let data = read_words(lw, &words, &addr, mm.width);
                        for (&ff, &d) in regs.iter().zip(&data) {
                            lw.g.set_ff_next(ff, d);
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

fn pad_addr(addr: &[Lit]) -> [Lit; RAM_ADDR_BITS] {
    let mut a = [Lit::FALSE; RAM_ADDR_BITS];
    for (i, slot) in a.iter_mut().enumerate() {
        *slot = addr.get(i).copied().unwrap_or(Lit::FALSE);
    }
    a
}
