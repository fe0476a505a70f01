//! An N×N weight-stationary systolic array — the "Gemmini" stand-in.
//!
//! Each processing element holds a weight register, multiplies the
//! activation flowing in from the left, adds the partial sum flowing down
//! from above, and forwards both. Multipliers chained through the array
//! give this design the deepest combinational logic of the suite, which is
//! why the real Gemmini has the most logic levels (148) and boomerang
//! layers (19) in Table I.

use crate::workload::{Workload, WorkloadSpec};
use crate::Design;
use gem_netlist::{Bits, ModuleBuilder};

/// The `n` [`gemmini_like`] builds: its two buses are `8 n`-bit nets.
pub const ROWS: std::ops::RangeInclusive<u32> = 1..=gem_netlist::check::MAX_NET_BITS / 8;

/// Builds an `n`×`n` systolic array (8-bit operands, 24-bit partial sums);
/// panics on an `n` outside [`ROWS`].
pub fn gemmini_like(n: u32) -> Design {
    assert!(
        ROWS.contains(&n),
        "gemmini_like({n}): n must be in {ROWS:?}"
    );
    let mut b = ModuleBuilder::new("gemmini_like");
    let rst = b.input("rst", 1);
    let load_w = b.input("load_w", 1);
    // One activation byte per row, one weight byte per column.
    let a_bus = b.input("a_bus", 8 * n);
    let w_bus = b.input("w_bus", 8 * n);

    let zero8 = b.lit(0, 8);
    let zero24 = b.lit(0, 24);

    // a[i][j]: activation register entering PE (i, j) from the left.
    // psum[i][j]: partial sum leaving PE (i, j) downward.
    let mut psum_below: Vec<gem_netlist::NetId> = (0..n).map(|_| zero24).collect();
    let mut col_weights: Vec<Vec<gem_netlist::NetId>> = Vec::new();
    // Weight shift chain per column (load_w shifts new weights in).
    for j in 0..n {
        let mut chain = Vec::new();
        let mut src = b.slice(w_bus, 8 * j, 8);
        for _i in 0..n {
            let w = b.dff(8);
            let wn = b.mux(load_w, src, w);
            let wn = b.mux(rst, zero8, wn);
            b.connect_dff(w, wn);
            src = w;
            chain.push(w);
        }
        col_weights.push(chain);
    }
    for i in 0..n {
        // Activation pipeline across the row.
        let mut a_cur = b.slice(a_bus, 8 * i, 8);
        for j in 0..n {
            let a_reg = b.dff(8);
            let an = b.mux(rst, zero8, a_cur);
            b.connect_dff(a_reg, an);
            a_cur = a_reg;
            // MAC: psum_out = psum_in + a * w (combinational through the
            // column — the deep path).
            let a16 = b.resize(a_reg, 16);
            let w16 = b.resize(col_weights[j as usize][i as usize], 16);
            let prod = b.mul(a16, w16);
            let prod24 = b.resize(prod, 24);
            psum_below[j as usize] = b.add(psum_below[j as usize], prod24);
        }
    }
    // Column accumulators.
    let mut folded = b.lit(0, 24);
    for (j, &ps) in psum_below.iter().enumerate() {
        let acc = b.dff(24);
        let nxt = b.add(acc, ps);
        let nxt = b.mux(rst, zero24, nxt);
        b.connect_dff(acc, nxt);
        folded = b.xor(folded, acc);
        if j == 0 {
            b.output("acc0", acc);
        }
    }
    b.output("checksum", folded);
    let module = b.finish().expect("gemmini_like is a valid module");

    let mk = |name: &str, activity: f64, load_w_v: u64, seed: u64| Workload {
        name: name.into(),
        spec: WorkloadSpec::RandomToggle {
            ports: vec!["a_bus".into(), "w_bus".into()],
            activity,
            held: vec![("rst".into(), 0), ("load_w".into(), load_w_v)],
            seed,
            warmup: 64,
        },
    };
    let workloads = vec![
        // Weights streaming every cycle: the whole array switches.
        mk("tiled_matmul_ws_full_C", 0.40, 1, 21),
        // Weight-stationary steady state: only the activation pipeline
        // moves (the low-activity case where event-driven engines gain).
        mk("tiled_matmul_ws_perf", 0.15, 0, 22),
    ];
    Design {
        name: "Gemmini".into(),
        module,
        workloads,
    }
}

/// Reference checksum after `cycles` of a fixed stimulus (pins the
/// design's behaviour for cross-engine tests).
pub fn gemmini_reference_checksum(n: u32, cycles: u64) -> Bits {
    let d = gemmini_like(n);
    let mut sim = gem_sim::NetlistSim::new(&d.module);
    sim.set_input("rst", Bits::from_u64(0, 1));
    sim.set_input("load_w", Bits::from_u64(1, 1));
    for c in 0..cycles {
        let pattern = 0x0123_4567_89AB_CDEFu64.rotate_left(c as u32);
        sim.set_input(
            "a_bus",
            Bits::from_u64(pattern & ((1u64 << (8 * n).min(63)) - 1), 8 * n),
        );
        sim.set_input(
            "w_bus",
            Bits::from_u64((pattern >> 8) & ((1u64 << (8 * n).min(63)) - 1), 8 * n),
        );
        sim.eval();
        sim.step();
    }
    sim.eval();
    sim.output("checksum")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deepest_logic_of_the_suite() {
        let d = gemmini_like(4);
        let synth =
            gem_synth::synthesize(&d.module, &gem_synth::SynthOptions).expect("synthesizable");
        // Chained MACs through 4 rows must be deep.
        assert!(
            synth.stats.levels > 30,
            "expected deep logic, got {} levels",
            synth.stats.levels
        );
    }

    #[test]
    fn checksum_changes_with_input() {
        let quiet = gemmini_reference_checksum(3, 4);
        let busy = gemmini_reference_checksum(3, 12);
        assert_ne!(quiet, busy);
    }

    #[test]
    fn scales_with_n() {
        let small = gemmini_like(2);
        let big = gemmini_like(4);
        assert!(big.module.cells().len() > small.module.cells().len() * 2);
    }
}
