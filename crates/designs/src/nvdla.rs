//! A MAC-pipeline deep-learning accelerator — the "NVDLA" stand-in.
//!
//! Structure: a host-loadable activation buffer and weight buffer (both
//! *synchronous-read*, so they map onto native GEM RAM blocks — the
//! paper's best case), a scanning address generator, a bank of 8-bit
//! multiply–accumulate lanes, and a 32-bit accumulator tree. Workload
//! names mirror the paper's NVDLA tests; they differ in how busy the host
//! streams data (switching activity).

use crate::workload::{Workload, WorkloadSpec};
use crate::Design;
use gem_netlist::{ModuleBuilder, ReadKind};

/// Builds the accelerator with `lanes` 8-bit MAC lanes (gate count grows
/// roughly linearly in `lanes`; no net does); panics on 0 lanes.
pub fn nvdla_like(lanes: u32) -> Design {
    assert!(lanes > 0, "nvdla_like(0): a design needs a lane");
    let mut b = ModuleBuilder::new("nvdla_like");
    let rst = b.input("rst", 1);
    let start = b.input("start", 1);
    let host_we = b.input("host_we", 1);
    let host_sel = b.input("host_sel", 1); // 0 = activations, 1 = weights
    let host_addr = b.input("host_addr", 10);
    let host_data = b.input("host_data", 32);

    let act = b.memory("act_buf", 1024, 32);
    let wgt = b.memory("wgt_buf", 1024, 32);
    let nsel = b.not(host_sel);
    let we_act = b.and(host_we, nsel);
    let we_wgt = b.and(host_we, host_sel);
    b.write_port(act, host_addr, host_data, we_act);
    b.write_port(wgt, host_addr, host_data, we_wgt);

    // Scanning address generator: runs while `start` is held.
    let scan = b.dff(10);
    let one10 = b.lit(1, 10);
    let scan_inc = b.add(scan, one10);
    let scan_run = b.mux(start, scan_inc, scan);
    let zero10 = b.lit(0, 10);
    let scan_n = b.mux(rst, zero10, scan_run);
    b.connect_dff(scan, scan_n);

    let act_word = b.read_port(act, scan, ReadKind::Sync);
    let wgt_word = b.read_port(wgt, scan, ReadKind::Sync);

    // MAC lanes: each lane multiplies a distinct rotated byte pair per
    // cycle (rotation is free wiring but defeats structural hashing, so
    // gate count grows linearly in `lanes`, as in a real lane array).
    let mut products = Vec::new();
    for l in 0..lanes {
        let r = l % 32;
        let a_rot = if r == 0 {
            act_word
        } else {
            let hi = b.slice(act_word, r, 32 - r);
            let lo = b.slice(act_word, 0, r);
            b.concat(&[hi, lo])
        };
        let wr = (l * 7 + 3) % 32;
        let w_rot = if wr == 0 {
            wgt_word
        } else {
            let hi = b.slice(wgt_word, wr, 32 - wr);
            let lo = b.slice(wgt_word, 0, wr);
            b.concat(&[hi, lo])
        };
        let a8 = b.slice(a_rot, 0, 8);
        let w8 = b.slice(w_rot, 0, 8);
        let a16 = b.resize(a8, 16);
        let w16 = b.resize(w8, 16);
        let p = b.mul(a16, w16);
        products.push(b.resize(p, 32));
    }
    // Per-lane accumulators (as in a real MAC cell array), folded into a
    // checksum output.
    let zero32 = b.lit(0, 32);
    let mut fold = zero32;
    for p in &products {
        let acc = b.dff(32);
        let acc_add = b.add(acc, *p);
        let acc_run = b.mux(start, acc_add, acc);
        let acc_n = b.mux(rst, zero32, acc_run);
        b.connect_dff(acc, acc_n);
        fold = b.xor(fold, acc);
    }
    b.output("acc", fold);
    b.output("scan", scan);
    let module = b.finish().expect("nvdla_like is a valid module");

    // Workloads: the paper's five NVDLA tests, modeled as host streams of
    // decreasing burstiness (activity).
    let mk = |name: &str, activity: f64, seed: u64| Workload {
        name: name.into(),
        spec: WorkloadSpec::RandomToggle {
            ports: vec!["host_addr".into(), "host_data".into(), "host_sel".into()],
            activity,
            held: vec![
                ("rst".into(), 0),
                ("start".into(), 1),
                ("host_we".into(), 1),
            ],
            seed,
            // Fill the 1024-word buffers with representative data before
            // measurement so the MAC array sees live operands.
            warmup: 1500,
        },
    };
    let workloads = vec![
        mk("dc6x3x76x270_int8_0", 0.45, 11),
        mk("dc6x3x76x16_int8_0", 0.35, 12),
        mk("img_51x96x4int8_0", 0.25, 13),
        mk("cdp_8x8x32_lrn3_int8_2", 0.12, 14),
        mk("pdpmax_int8_0", 0.06, 15),
    ];
    Design {
        name: "NVDLA".into(),
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
    fn all_memories_are_sync_read() {
        let d = nvdla_like(8);
        for m in d.module.memories() {
            assert!(
                m.read_ports
                    .iter()
                    .all(|p| p.kind == gem_netlist::ReadKind::Sync),
                "memory {} has async read",
                m.name
            );
        }
    }

    #[test]
    fn accumulates_products() {
        let d = nvdla_like(4);
        let mut sim = NetlistSim::new(&d.module);
        // Load act[0]=3 per byte, then wgt[0]=2 per byte, through the
        // host port, then run.
        sim.set_input("rst", Bits::from_u64(0, 1));
        sim.set_input("start", Bits::from_u64(0, 1));
        sim.set_input("host_we", Bits::from_u64(1, 1));
        sim.set_input("host_addr", Bits::from_u64(0, 10));
        for (sel, word) in [(0, 0x03030303), (1, 0x02020202)] {
            sim.set_input("host_sel", Bits::from_u64(sel, 1));
            sim.set_input("host_data", Bits::from_u64(word, 32));
            sim.eval();
            sim.step();
        }
        sim.set_input("host_we", Bits::from_u64(0, 1));
        sim.set_input("host_data", Bits::from_u64(0, 32));
        sim.set_input("start", Bits::from_u64(1, 1));
        let mut last = 0;
        for _ in 0..4 {
            sim.eval();
            last = sim.output("acc").to_u64();
            sim.step();
        }
        // After a few cycles the accumulator has picked up 4 lanes × 3×2
        // at least once (scan wraps through address 0 data).
        assert!(last >= 24, "acc {last}");
    }

    #[test]
    fn five_workloads_with_distinct_activity() {
        let d = nvdla_like(8);
        assert_eq!(d.workloads.len(), 5);
        let names: Vec<&str> = d.workloads.iter().map(|w| w.name.as_str()).collect();
        assert!(names.contains(&"dc6x3x76x270_int8_0"));
    }
}
