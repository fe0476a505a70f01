//! The netlist lint passes.
//!
//! The structural passes (`drivers`, `widths`, `loops`) are the rule
//! families of `gem_netlist::check` — the one checker `validate` also is —
//! reported in full through [`structural`]: the analyzer's job is a
//! complete explanation with witnesses, not a pass/fail bit. The advisory
//! passes ([`dead_cone`], [`const_cone`]) and the frontend's findings
//! ([`source_lints`]) are this crate's own. The catalogue is
//! `docs/ANALYZE.md` §1.

use crate::{Diagnostic, Severity};
use gem_netlist::verilog::SourceLint;
use gem_netlist::{check, CellKind, Module, NetId, ValidateError};
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

/// Reports the findings of one rule family of the structural checker
/// (`gem_netlist::check`, catalogued in `docs/ANALYZE.md` §1) with their
/// codes and source-named witnesses. The rules themselves live there and
/// nowhere else: this only words them.
pub fn structural(m: &Module, findings: Vec<ValidateError>, d: &mut Vec<Diagnostic>) {
    let mut counts = None; // driver counts, fetched once if GEM-L003 asks
    for finding in findings {
        let (code, message, witness) = match finding {
            ValidateError::CombinationalCycle { cycle } => {
                let path: Vec<String> = cycle.iter().map(|&n| label(m, n)).collect();
                let back = path.first().cloned().unwrap_or_default();
                let nets = path.len();
                (
                    "GEM-L001",
                    format!("combinational cycle of {nets} net(s): the design cannot be levelized"),
                    format!("{} -> {back}", path.join(" -> ")),
                )
            }
            ValidateError::UndrivenNet(n) => (
                "GEM-L002",
                format!("net {} has no driver", label(m, n)),
                label(m, n),
            ),
            ValidateError::MultipleDrivers(n) => {
                let drivers = counts.get_or_insert_with(|| check::driver_counts(m))[n.0 as usize];
                let net = label(m, n);
                (
                    "GEM-L003",
                    format!("net {net} has {drivers} drivers (exactly one allowed)"),
                    net,
                )
            }
            ValidateError::WidthMismatch { at, what } => (
                "GEM-L004",
                format!("width mismatch at {}: {what}", label(m, at)),
                label(m, at),
            ),
            ValidateError::NetSize(n) => (
                "GEM-L008",
                format!(
                    "net {} is {} bits wide: a net holds 1 to {} bits",
                    label(m, n),
                    m.width(n),
                    check::MAX_NET_BITS
                ),
                label(m, n),
            ),
            ValidateError::MemorySize(id) => {
                let mem = &m.memories()[id.0 as usize];
                (
                    "GEM-L008",
                    format!(
                        "memory {:?} is {} words of {} bits: a memory holds 1 to {} bits",
                        mem.name,
                        mem.words,
                        mem.width,
                        check::MAX_MEMORY_BITS
                    ),
                    format!("memory {:?}", mem.name),
                )
            }
            ValidateError::DuplicatePort(name) => (
                "GEM-L009",
                format!("port name {name:?} is declared more than once"),
                format!("port {name:?}"),
            ),
        };
        diag(d, code, Severity::Error, message, witness);
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
