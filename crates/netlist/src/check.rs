//! The structural rules of a well-formed netlist, written once.
//!
//! GEM runs every gate every cycle in an order fixed at compile time, so
//! a netlist that is not a well-formed, levelizable DAG has to be stopped
//! before synthesis: nothing at run time will notice. This module is that
//! gate. Its three rule families — [`drivers`], [`widths`], [`loops`] —
//! each return **every** offender as a [`ValidateError`] carrying the
//! net(s) it is about; [`validate`] is "the first finding, if any".
//! `docs/ANALYZE.md` §1 is the catalogue of the rules (`GEM-L001`…`L004`,
//! `L008`, `L009`). Who calls them:
//!
//! * [`ModuleBuilder::finish`](crate::ModuleBuilder::finish) and
//!   [`verilog::parse`](crate::verilog::parse) call [`validate`];
//! * `gem_analyze` maps the families' findings to diagnostics with named
//!   witnesses, and every compile is gated on that report — so `compile`
//!   refuses exactly what `finish` refuses.

use crate::module::{Binary, CellKind, MemId, Module, NetId, ReadKind, Unary, ValidateError};
use std::collections::{HashMap, HashSet};

/// Widest net served, in bits: lowering, the simulators and the waveform
/// writers all allocate per bit of a net, and no design in `crates/designs`
/// has a net within two orders of magnitude of it.
pub const MAX_NET_BITS: u32 = 1 << 16;

/// Largest memory served, in bits: 64 of the E-AIG's 32 KiB RAM blocks
/// (2 MiB a memory; the largest in `crates/designs` is an eighth of one
/// block).
///
/// Together with [`MAX_NET_BITS`] this bounds every *declared* size, which
/// is what lets five lines of text ask for gigabytes. It does **not** bound
/// the total bits of many nets, nor gates (`*` is quadratic in its width, a
/// polyfilled memory costs a flip-flop and a mux tree per bit): the gate
/// budget is ROADMAP item 1(d).
pub const MAX_MEMORY_BITS: u64 = 64 * 32 * 1024 * 8;

/// Validates a [`Module`]: the first finding of [`drivers`], [`widths`]
/// and [`loops`], in that order (the rules are `docs/ANALYZE.md` §1).
///
/// # Errors
///
/// Returns the first [`ValidateError`] found.
pub fn validate(m: &Module) -> Result<(), ValidateError> {
    let families: [fn(&Module) -> Vec<ValidateError>; 3] = [drivers, widths, loops];
    match families.iter().find_map(|f| f(m).into_iter().next()) {
        Some(first) => Err(first),
        None => Ok(()),
    }
}

/// How many drivers each net has (input port, cell output, memory read
/// data), indexed by [`NetId`]; saturating, so no count wraps back to one.
pub fn driver_counts(m: &Module) -> Vec<u32> {
    let mut count = vec![0u32; m.nets.len()];
    let reads = m.memories.iter().flat_map(|mem| &mem.read_ports);
    let driven = (m.inputs().map(|p| p.net))
        .chain(m.cells.iter().map(|c| c.out))
        .chain(reads.map(|rp| rp.data));
    for net in driven {
        let n = &mut count[net.0 as usize];
        *n = n.saturating_add(1);
    }
    count
}

/// Who drives what: every port name is used once (`GEM-L009`) and every
/// net has exactly one driver (`GEM-L002` undriven, `GEM-L003` multiply
/// driven).
pub fn drivers(m: &Module) -> Vec<ValidateError> {
    let mut seen = HashSet::new();
    let duplicates = m.ports.iter().filter(|p| !seen.insert(p.name.as_str()));
    let mut found: Vec<_> = duplicates
        .map(|p| ValidateError::DuplicatePort(p.name.clone()))
        .collect();
    for (i, &n) in driver_counts(m).iter().enumerate() {
        match n {
            0 => found.push(ValidateError::UndrivenNet(NetId(i as u32))),
            1 => {}
            _ => found.push(ValidateError::MultipleDrivers(NetId(i as u32))),
        }
    }
    found
}

/// Declared sizes within what the flow serves (`GEM-L008`: a net of 1 to
/// [`MAX_NET_BITS`] bits, a memory of 1 to [`MAX_MEMORY_BITS`]), then
/// width consistency of every cell and memory port (`GEM-L004`).
pub fn widths(m: &Module) -> Vec<ValidateError> {
    let mut found = Vec::new();
    for (i, n) in m.nets.iter().enumerate() {
        if !(1..=MAX_NET_BITS).contains(&n.width) {
            found.push(ValidateError::NetSize(NetId(i as u32)));
        }
    }
    for (i, mem) in m.memories.iter().enumerate() {
        let bits = u64::from(mem.words) * u64::from(mem.width);
        if !(1..=MAX_MEMORY_BITS).contains(&bits) {
            found.push(ValidateError::MemorySize(MemId(i as u32)));
        }
    }
    let w = |n: NetId| m.width(n);
    let mut bad = |at: NetId, what: String| found.push(ValidateError::WidthMismatch { at, what });
    for c in &m.cells {
        let ow = w(c.out);
        let what = match &c.kind {
            CellKind::Const { value } if value.width() != ow => {
                format!("const width {} vs out {ow}", value.width())
            }
            CellKind::Unary { op, a } => match op {
                Unary::Not | Unary::Neg if w(*a) != ow => {
                    format!("unary in {} vs out {ow}", w(*a))
                }
                Unary::ReduceAnd | Unary::ReduceOr | Unary::ReduceXor if ow != 1 => {
                    format!("reduction out width {ow} != 1")
                }
                _ => continue,
            },
            CellKind::Binary { op, a, b } => match op {
                Binary::Eq | Binary::Ult if w(*a) != w(*b) || ow != 1 => {
                    format!("cmp widths {} vs {} out {ow}", w(*a), w(*b))
                }
                Binary::Eq | Binary::Ult => continue,
                Binary::Shl | Binary::Lshr if w(*a) != ow => {
                    format!("shift in {} vs out {ow}", w(*a))
                }
                Binary::Shl | Binary::Lshr => continue,
                _ if w(*a) != w(*b) || w(*a) != ow => {
                    format!("binary widths {} vs {} out {ow}", w(*a), w(*b))
                }
                _ => continue,
            },
            CellKind::Mux { sel, t, f } if w(*sel) != 1 || w(*t) != w(*f) || w(*t) != ow => {
                format!("mux sel {} t {} f {} out {ow}", w(*sel), w(*t), w(*f))
            }
            // `synth` slices whatever this lets through, so the sum must
            // not wrap back into range.
            CellKind::Slice { a, lo } if lo.checked_add(ow).is_none_or(|hi| hi > w(*a)) => {
                format!("slice [{lo},{lo}+{ow}) of width {}", w(*a))
            }
            CellKind::Concat { parts } => {
                let sum: u64 = parts.iter().map(|&p| u64::from(w(p))).sum();
                if sum == u64::from(ow) {
                    continue;
                }
                format!("concat parts {sum} vs out {ow}")
            }
            CellKind::Dff {
                d,
                init,
                enable,
                reset,
            } => {
                if w(*d) != ow || init.width() != ow {
                    bad(
                        c.out,
                        format!("dff d {} init {} out {ow}", w(*d), init.width()),
                    );
                }
                for (pin, n) in [("enable", enable), ("reset", reset)] {
                    if let Some(n) = n.filter(|&n| w(n) != 1) {
                        bad(c.out, format!("dff {pin} width {}", w(n)));
                    }
                }
                continue;
            }
            _ => continue,
        };
        bad(c.out, what);
    }
    for mem in &m.memories {
        let reads = mem.read_ports.iter().map(|rp| ("read data", rp.data));
        let writes = mem.write_ports.iter().map(|wp| ("write data", wp.data));
        for (port, data) in reads.chain(writes).filter(|&(_, n)| w(n) != mem.width) {
            let what = format!(
                "memory {:?} {port} width {} vs word width {}",
                mem.name,
                w(data),
                mem.width
            );
            bad(data, what);
        }
        for wp in mem.write_ports.iter().filter(|wp| w(wp.enable) != 1) {
            let what = format!(
                "memory {:?} write enable width {} != 1",
                mem.name,
                w(wp.enable)
            );
            bad(wp.enable, what);
        }
    }
    found
}

/// Combinational acyclicity (`GEM-L001`): a coloured depth-first search
/// over cell fan-ins, flip-flop outputs and synchronous read data being
/// sources, an asynchronous read a path from its address to its data.
/// Returns the first cycle found — one loop is enough to make the design
/// unlevelizable, and its finding names every net on it.
pub fn loops(m: &Module) -> Vec<ValidateError> {
    let mut driver: Vec<Option<usize>> = vec![None; m.nets.len()];
    for (i, c) in m.cells.iter().enumerate() {
        if !matches!(c.kind, CellKind::Dff { .. }) {
            driver[c.out.0 as usize] = Some(i);
        }
    }
    let reads = m.memories.iter().flat_map(|mem| &mem.read_ports);
    let async_reads: HashMap<u32, NetId> = reads
        .filter(|rp| rp.kind == ReadKind::Async)
        .map(|rp| (rp.data.0, rp.addr))
        .collect();
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; m.nets.len()];
    for start in 0..m.nets.len() as u32 {
        if color[start as usize] != WHITE {
            continue;
        }
        let mut stack: Vec<(u32, usize)> = vec![(start, 0)];
        color[start as usize] = GRAY;
        while let Some(&mut (net, ref mut child)) = stack.last_mut() {
            let fanins: Vec<NetId> = if let Some(ci) = driver[net as usize] {
                m.cell_inputs(&m.cells[ci])
            } else {
                async_reads.get(&net).copied().into_iter().collect()
            };
            let Some(&next) = fanins.get(*child) else {
                color[net as usize] = BLACK;
                stack.pop();
                continue;
            };
            *child += 1;
            match color[next.0 as usize] {
                WHITE => {
                    color[next.0 as usize] = GRAY;
                    stack.push((next.0, 0));
                }
                GRAY => {
                    // The DFS stack is the current path; the suffix
                    // starting at `next` is the cycle, in dependency
                    // order (each net reads the one after it).
                    let on_path = stack.iter().skip_while(|&&(n, _)| n != next.0);
                    let cycle = on_path.map(|&(n, _)| NetId(n)).collect();
                    return vec![ValidateError::CombinationalCycle { cycle }];
                }
                _ => {}
            }
        }
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verilog::{parse, ParseVerilogError};
    use crate::{ModuleBuilder, ReadKind};

    /// The driver count used to be a `u8`: 257 drivers wrapped to one in
    /// release (accepted) and overflowed in debug (a panic).
    #[test]
    fn a_net_with_257_drivers_is_multiply_driven_not_wrapped_to_one() {
        let assigns = "assign y = a;\n".repeat(257);
        let src = format!("module m(input a, output y);\n{assigns}endmodule");
        match parse(&src) {
            Err(ParseVerilogError::Validate(ValidateError::MultipleDrivers(_))) => {}
            other => panic!("expected multiple drivers, got {other:?}"),
        }
    }

    #[test]
    fn every_offender_is_reported_and_validate_returns_the_first() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 4);
        b.input("a", 4);
        let (f, g) = (b.forward(4), b.forward(4));
        let wide = b.input("wide", 5);
        let x = b.add(a, wide);
        let y = b.mux(a, f, g);
        b.output("x", x);
        b.output("x", y);
        let m = b.finish_raw();
        assert_eq!(
            drivers(&m),
            [
                ValidateError::DuplicatePort("a".into()),
                ValidateError::DuplicatePort("x".into()),
                ValidateError::UndrivenNet(f),
                ValidateError::UndrivenNet(g),
            ]
        );
        let at: Vec<NetId> = (widths(&m).iter())
            .map(|e| match e {
                ValidateError::WidthMismatch { at, .. } => *at,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(at, [x, y]);
        assert_eq!(loops(&m), []);
        assert_eq!(validate(&m), Err(ValidateError::DuplicatePort("a".into())));
    }

    /// `GEM-L008`: a declared size is 1 to the cap, for nets and memories
    /// alike, whichever way the module was built.
    #[test]
    fn declared_sizes_are_bounded_zero_included() {
        let net = |width| {
            let mut b = ModuleBuilder::new("m");
            let a = b.input("a", width);
            b.output("y", a);
            validate(&b.finish_raw())
        };
        assert_eq!(net(0), Err(ValidateError::NetSize(NetId(0))));
        assert_eq!(net(1), Ok(()));
        assert_eq!(net(MAX_NET_BITS), Ok(()));
        assert_eq!(net(MAX_NET_BITS + 1), Err(ValidateError::NetSize(NetId(0))));
        assert_eq!(net(u32::MAX), Err(ValidateError::NetSize(NetId(0))));
        let memory = |words, width| {
            let mut b = ModuleBuilder::new("m");
            let addr = b.input("addr", 1);
            let mem = b.memory("ram", words, width);
            let q = b.read_port(mem, addr, ReadKind::Sync);
            b.output("q", q);
            widths(&b.finish_raw())
        };
        let too_big = [ValidateError::MemorySize(MemId(0))];
        assert_eq!(memory(0, 8), too_big);
        assert_eq!(memory(1 << 21, 8), []);
        assert_eq!(memory((1 << 21) + 1, 8), too_big);
        assert_eq!(memory(u32::MAX, 8), too_big);
    }

    /// A concatenation whose parts do not fit a `u32` saturates in the
    /// builder and is refused here; the sum used to overflow.
    #[test]
    fn a_concatenation_past_u32_is_refused_not_wrapped() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", u32::MAX);
        let y = b.concat(&[a, a]);
        b.output("y", y);
        let found = widths(&b.finish_raw());
        assert!(found.contains(&ValidateError::NetSize(y)), "{found:?}");
        let concat = ValidateError::WidthMismatch {
            at: y,
            what: format!(
                "concat parts {} vs out {}",
                2 * u64::from(u32::MAX),
                u32::MAX
            ),
        };
        assert!(found.contains(&concat), "{found:?}");
    }
}
