//! The netlist lint passes.
//!
//! Each pass walks the [`Module`] independently and reports *every*
//! finding (unlike validation, which stops at the first): the analyzer's
//! job is a complete explanation with witnesses, not a pass/fail bit.

use crate::{Diagnostic, Severity};
use gem_netlist::verilog::SourceLint;
use gem_netlist::{CellKind, Module, NetId, ReadKind, Unary};
use std::collections::HashMap;

/// A net's user-facing label: the source name when the frontend carried
/// one, the `n<id>` fallback otherwise.
fn label(m: &Module, id: NetId) -> String {
    match &m.net(id).name {
        Some(name) => format!("{id} ({name:?})"),
        None => id.to_string(),
    }
}

fn diag(
    d: &mut Vec<Diagnostic>,
    code: &'static str,
    severity: Severity,
    message: String,
    witness: String,
) {
    d.push(Diagnostic {
        code,
        severity,
        message,
        witness,
    });
}

/// Folds frontend findings into the report (`GEM-L005`).
pub fn source_lints(lints: &[SourceLint], d: &mut Vec<Diagnostic>) {
    for l in lints {
        match l {
            SourceLint::WidthTruncation { target, from, to } => diag(
                d,
                "GEM-L005",
                Severity::Warning,
                format!("assignment truncates a {from}-bit value to {to} bits"),
                format!("target {target:?} ({from} -> {to} bits)"),
            ),
        }
    }
}

/// Undriven (`GEM-L002`) and multiply-driven (`GEM-L003`) nets.
pub fn drivers(m: &Module, d: &mut Vec<Diagnostic>) {
    let mut count = vec![0u32; m.nets().len()];
    for p in m.inputs() {
        count[p.net.0 as usize] += 1;
    }
    for c in m.cells() {
        count[c.out.0 as usize] += 1;
    }
    for mem in m.memories() {
        for rp in &mem.read_ports {
            count[rp.data.0 as usize] += 1;
        }
    }
    for (i, &n) in count.iter().enumerate() {
        let id = NetId(i as u32);
        if n == 0 {
            diag(
                d,
                "GEM-L002",
                Severity::Error,
                format!("net {} has no driver", label(m, id)),
                label(m, id),
            );
        } else if n > 1 {
            diag(
                d,
                "GEM-L003",
                Severity::Error,
                format!("net {} has {n} drivers (exactly one allowed)", label(m, id)),
                label(m, id),
            );
        }
    }
}

/// Cell and memory-port width mismatches (`GEM-L004`). Mirrors the
/// width rules `gem_netlist::validate` enforces, but reports every
/// offender instead of the first.
pub fn widths(m: &Module, d: &mut Vec<Diagnostic>) {
    let w = |n: NetId| m.width(n);
    let mut bad = |out: NetId, what: String| {
        diag(
            d,
            "GEM-L004",
            Severity::Error,
            format!("width mismatch at {}: {what}", label(m, out)),
            label(m, out),
        );
    };
    for c in m.cells() {
        let ow = w(c.out);
        match &c.kind {
            CellKind::Const { value } => {
                if value.width() != ow {
                    bad(c.out, format!("const width {} vs out {ow}", value.width()));
                }
            }
            CellKind::Unary { op, a } => match op {
                Unary::Not | Unary::Neg => {
                    if w(*a) != ow {
                        bad(c.out, format!("unary in {} vs out {ow}", w(*a)));
                    }
                }
                _ => {
                    if ow != 1 {
                        bad(c.out, format!("reduction out width {ow} != 1"));
                    }
                }
            },
            CellKind::Binary { op, a, b } => {
                use gem_netlist::Binary as B;
                match op {
                    B::Eq | B::Ult => {
                        if w(*a) != w(*b) || ow != 1 {
                            bad(c.out, format!("cmp widths {} vs {} out {ow}", w(*a), w(*b)));
                        }
                    }
                    B::Shl | B::Lshr => {
                        if w(*a) != ow {
                            bad(c.out, format!("shift in {} vs out {ow}", w(*a)));
                        }
                    }
                    _ => {
                        if w(*a) != w(*b) || w(*a) != ow {
                            bad(
                                c.out,
                                format!("binary widths {} vs {} out {ow}", w(*a), w(*b)),
                            );
                        }
                    }
                }
            }
            CellKind::Mux { sel, t, f } => {
                if w(*sel) != 1 || w(*t) != w(*f) || w(*t) != ow {
                    bad(
                        c.out,
                        format!("mux sel {} t {} f {} out {ow}", w(*sel), w(*t), w(*f)),
                    );
                }
            }
            // Written twice: see `check_widths` in `gem_netlist::validate`.
            CellKind::Slice { a, lo } => {
                if lo.checked_add(ow).is_none_or(|hi| hi > w(*a)) {
                    bad(c.out, format!("slice [{lo},{lo}+{ow}) of width {}", w(*a)));
                }
            }
            CellKind::Concat { parts } => {
                let sum: u32 = parts.iter().map(|&p| w(p)).sum();
                if sum != ow {
                    bad(c.out, format!("concat parts {sum} vs out {ow}"));
                }
            }
            CellKind::Dff {
                d: dn,
                init,
                enable,
                reset,
            } => {
                if w(*dn) != ow || init.width() != ow {
                    bad(
                        c.out,
                        format!("dff d {} init {} out {ow}", w(*dn), init.width()),
                    );
                }
                for (what, n) in [("enable", enable), ("reset", reset)] {
                    if let Some(n) = n {
                        if w(*n) != 1 {
                            bad(c.out, format!("dff {what} width {}", w(*n)));
                        }
                    }
                }
            }
        }
    }
    for mem in m.memories() {
        let port = |d: &mut Vec<Diagnostic>, kind: &str, data: NetId, width: u32| {
            if width != mem.width {
                diag(
                    d,
                    "GEM-L004",
                    Severity::Error,
                    format!(
                        "memory {:?} {kind} width {width} vs word width {}",
                        mem.name, mem.width
                    ),
                    label(m, data),
                );
            }
        };
        for rp in &mem.read_ports {
            port(d, "read data", rp.data, w(rp.data));
        }
        for wp in &mem.write_ports {
            port(d, "write data", wp.data, w(wp.data));
            if w(wp.enable) != 1 {
                diag(
                    d,
                    "GEM-L004",
                    Severity::Error,
                    format!(
                        "memory {:?} write enable width {} != 1",
                        mem.name,
                        w(wp.enable)
                    ),
                    label(m, wp.enable),
                );
            }
        }
    }
}

/// Combinational cycle detection with a named witness path
/// (`GEM-L001`). Reports the first cycle found — one loop is enough to
/// make the design unlevelizable, and its witness names every net on it.
pub fn loops(m: &Module, d: &mut Vec<Diagnostic>) {
    // net -> combinational fan-in (driving cell inputs, or the address
    // of an asynchronous memory read).
    let mut driver: Vec<Option<usize>> = vec![None; m.nets().len()];
    for (i, c) in m.cells().iter().enumerate() {
        if !matches!(c.kind, CellKind::Dff { .. }) {
            driver[c.out.0 as usize] = Some(i);
        }
    }
    let mut async_reads: HashMap<u32, NetId> = HashMap::new();
    for mem in m.memories() {
        for rp in &mem.read_ports {
            if rp.kind == ReadKind::Async {
                async_reads.insert(rp.data.0, rp.addr);
            }
        }
    }
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; m.nets().len()];
    for start in 0..m.nets().len() as u32 {
        if color[start as usize] != WHITE {
            continue;
        }
        let mut stack: Vec<(u32, usize)> = vec![(start, 0)];
        color[start as usize] = GRAY;
        while let Some(&mut (net, ref mut child)) = stack.last_mut() {
            let fanins: Vec<NetId> = if let Some(ci) = driver[net as usize] {
                m.cell_inputs(&m.cells()[ci])
            } else if let Some(&addr) = async_reads.get(&net) {
                vec![addr]
            } else {
                vec![]
            };
            if *child < fanins.len() {
                let next = fanins[*child];
                *child += 1;
                match color[next.0 as usize] {
                    WHITE => {
                        color[next.0 as usize] = GRAY;
                        stack.push((next.0, 0));
                    }
                    GRAY => {
                        let pos = stack
                            .iter()
                            .position(|&(n, _)| n == next.0)
                            .expect("gray net is on the DFS path");
                        let cycle: Vec<String> = stack[pos..]
                            .iter()
                            .map(|&(n, _)| label(m, NetId(n)))
                            .collect();
                        let first = cycle[0].clone();
                        diag(
                            d,
                            "GEM-L001",
                            Severity::Error,
                            format!(
                                "combinational cycle of {} net(s): the design \
                                 cannot be levelized",
                                cycle.len()
                            ),
                            format!("{} -> {first}", cycle.join(" -> ")),
                        );
                        return;
                    }
                    _ => {}
                }
            } else {
                color[net as usize] = BLACK;
                stack.pop();
            }
        }
    }
}

/// Dead cones (`GEM-L006`): cells whose output transitively feeds no
/// primary output and no live state element. Advisory — synthesis
/// prunes these — but a large dead cone usually means a wiring mistake.
pub fn dead_cone(m: &Module, d: &mut Vec<Diagnostic>) {
    let mut live = vec![false; m.nets().len()];
    let mut worklist: Vec<NetId> = m.outputs().map(|p| p.net).collect();
    // net -> driving cell index.
    let mut driver: Vec<Option<usize>> = vec![None; m.nets().len()];
    for (i, c) in m.cells().iter().enumerate() {
        driver[c.out.0 as usize] = Some(i);
    }
    // net -> memory whose read port produces it.
    let mut read_mem: HashMap<u32, usize> = HashMap::new();
    for (mi, mem) in m.memories().iter().enumerate() {
        for rp in &mem.read_ports {
            read_mem.insert(rp.data.0, mi);
        }
    }
    let mut mem_live = vec![false; m.memories().len()];
    while let Some(n) = worklist.pop() {
        if std::mem::replace(&mut live[n.0 as usize], true) {
            continue;
        }
        if let Some(ci) = driver[n.0 as usize] {
            worklist.extend(m.cell_inputs(&m.cells()[ci]));
        }
        if let Some(&mi) = read_mem.get(&n.0) {
            // A live read makes the whole memory live: its write ports
            // (and every read address) feed observable state.
            if !std::mem::replace(&mut mem_live[mi], true) {
                let mem = &m.memories()[mi];
                for rp in &mem.read_ports {
                    worklist.push(rp.addr);
                }
                for wp in &mem.write_ports {
                    worklist.extend([wp.addr, wp.data, wp.enable]);
                }
            }
        }
    }
    let dead: Vec<NetId> = m
        .cells()
        .iter()
        .filter(|c| !live[c.out.0 as usize])
        .map(|c| c.out)
        .collect();
    if dead.is_empty() {
        return;
    }
    let named: Vec<String> = dead.iter().take(4).map(|&n| label(m, n)).collect();
    let more = dead.len().saturating_sub(4);
    let tail = if more > 0 {
        format!(" (+{more} more)")
    } else {
        String::new()
    };
    diag(
        d,
        "GEM-L006",
        Severity::Info,
        format!(
            "{} cell(s) feed no output or live state (dead cone; synthesis \
             will prune them)",
            dead.len()
        ),
        format!("{}{tail}", named.join(", ")),
    );
}

/// Constant-foldable cones (`GEM-L007`): combinational cells whose
/// entire transitive fan-in is constant. Advisory — the E-AIG folds
/// them — but they often indicate disabled or vestigial logic.
pub fn const_cone(m: &Module, d: &mut Vec<Diagnostic>) {
    let mut is_const = vec![false; m.nets().len()];
    // Fixpoint over the (acyclic in well-formed designs) cell list; the
    // iteration bound keeps this terminating even on cyclic input.
    let mut changed = true;
    let mut rounds = 0usize;
    while changed && rounds <= m.cells().len() {
        changed = false;
        rounds += 1;
        for c in m.cells() {
            if is_const[c.out.0 as usize] {
                continue;
            }
            let foldable = match &c.kind {
                CellKind::Const { .. } => true,
                CellKind::Dff { .. } => false,
                _ => {
                    let ins = m.cell_inputs(c);
                    !ins.is_empty() && ins.iter().all(|n| is_const[n.0 as usize])
                }
            };
            if foldable {
                is_const[c.out.0 as usize] = true;
                changed = true;
            }
        }
    }
    // Report non-trivial foldable cells: constant drivers themselves are
    // literals, not findings.
    let foldable: Vec<NetId> = m
        .cells()
        .iter()
        .filter(|c| !matches!(c.kind, CellKind::Const { .. }) && is_const[c.out.0 as usize])
        .map(|c| c.out)
        .collect();
    if foldable.is_empty() {
        return;
    }
    let named: Vec<String> = foldable.iter().take(4).map(|&n| label(m, n)).collect();
    let more = foldable.len().saturating_sub(4);
    let tail = if more > 0 {
        format!(" (+{more} more)")
    } else {
        String::new()
    };
    diag(
        d,
        "GEM-L007",
        Severity::Info,
        format!(
            "{} cell(s) compute a compile-time constant (constant-foldable \
             cone)",
            foldable.len()
        ),
        format!("{}{tail}", named.join(", ")),
    );
}
