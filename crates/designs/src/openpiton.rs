//! A multi-tile CPU design — the "OpenPiton" stand-in.
//!
//! `n` copies of the tiny CPU tile (see [`crate::cpu`]) share a host bus;
//! a tile-select field steers program loads, and a thin XOR ring couples
//! the tiles' result registers. At `n = 8` with a workload that only
//! loads tile 0, the other seven tiles spin on empty (all-zero = NOP)
//! instruction memories — exactly the low-activity regime the paper
//! observes: "the workload of OpenPiton8 does not keep all 8 cores busy",
//! where event-driven baselines catch up with GEM's constant full-cycle
//! speed.

use crate::cpu::{build_tile, program};
use crate::workload::{Workload, WorkloadSpec};
use crate::Design;
use gem_netlist::ModuleBuilder;

/// Builds an `n`-tile design (the paper evaluates 1 and 8); panics on an
/// `n` outside 1..=8, since `tile_sel` is 3 bits.
pub fn openpiton_like(n: u32) -> Design {
    assert!(
        (1..=8).contains(&n),
        "openpiton_like({n}): n must be in 1..=8"
    );
    let mut b = ModuleBuilder::new("openpiton_like");
    let rst = b.input("rst", 1);
    let host_we = b.input("host_we", 1);
    let host_addr = b.input("host_addr", 8);
    let host_data = b.input("host_data", 16);
    let tile_sel = b.input("tile_sel", 3);

    let mut results = Vec::new();
    for t in 0..n {
        let tc = b.lit(u64::from(t), 3);
        let hit = b.eq(tile_sel, tc);
        let tile = build_tile(&mut b, rst, host_we, host_addr, host_data, hit);
        if t == 0 {
            b.output("pc0", tile.pc);
        }
        results.push(tile.result);
    }
    // Thin interconnect: XOR ring over the tile results.
    let mut noc = results[0];
    for r in &results[1..] {
        noc = b.xor(noc, *r);
    }
    b.output("noc", noc);
    b.output("result0", results[0]);
    let module = b.finish().expect("openpiton_like is a valid module");

    // Workloads mirror the paper's OpenPiton tests. Only tile 0 is
    // loaded; with n = 8 the remaining tiles idle on NOPs, which is why
    // the measured events/cycle grow far less than 8× (the paper reports
    // 3.3×).
    let mk = |name: &str, prog_name: &str| Workload {
        name: name.into(),
        spec: WorkloadSpec::ProgramLoad {
            program: program(prog_name),
            tile_select: Some(("tile_sel".into(), 0)),
            held: vec![],
        },
    };
    let workloads = vec![
        mk("ldst_quad2", "mt-memcpy"),
        mk("fp_mt_combo0", "dhrystone"),
        mk("asi_notused_priv", "pmp"),
    ];
    Design {
        name: if n == 1 {
            "OpenPiton1".into()
        } else {
            format!("OpenPiton{n}")
        },
        module,
        workloads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_netlist::Bits;
    use gem_sim::NetlistSim;

    #[test]
    fn tile_counts_scale() {
        let one = openpiton_like(1);
        let eight = openpiton_like(8);
        assert_eq!(one.module.memories().len(), 3);
        assert_eq!(eight.module.memories().len(), 24);
        assert!(eight.module.cells().len() > one.module.cells().len() * 6);
    }

    #[test]
    fn loaded_tile_computes_while_others_idle() {
        let d = openpiton_like(2);
        let mut sim = NetlistSim::new(&d.module);
        let prog = program("dhrystone");
        for (i, &w) in prog.iter().enumerate() {
            sim.set_input("rst", Bits::from_u64(1, 1));
            sim.set_input("host_we", Bits::from_u64(1, 1));
            sim.set_input("tile_sel", Bits::from_u64(0, 3));
            sim.set_input("host_addr", Bits::from_u64(i as u64, 8));
            sim.set_input("host_data", Bits::from_u64(u64::from(w), 16));
            sim.eval();
            sim.step();
        }
        sim.set_input("rst", Bits::from_u64(0, 1));
        sim.set_input("host_we", Bits::from_u64(0, 1));
        for _ in 0..100 {
            sim.eval();
            sim.step();
        }
        sim.eval();
        // Tile 0 ran the program: its r7 is live, so noc == result0 (tile
        // 1 idles with r7 = 0).
        let r0 = sim.output("result0");
        let noc = sim.output("noc");
        assert_ne!(r0.to_u64(), 0, "loaded tile should produce a result");
        assert_eq!(noc, r0, "idle tile must contribute zero");
    }

    #[test]
    fn workload_names_match_paper() {
        let d = openpiton_like(8);
        let names: Vec<&str> = d.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, ["ldst_quad2", "fp_mt_combo0", "asi_notused_priv"]);
    }
}
