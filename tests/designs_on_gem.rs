//! Every benchmark design (smoke scale) must run bit-exactly on the
//! virtual GPU under its own named workloads, checked against the
//! word-level netlist reference — the strongest end-to-end statement the
//! workspace makes.

use gem_core::{compile, CompileOptions, GemSimulator};
use gem_sim::NetlistSim;

#[test]
fn all_designs_run_correctly_on_the_virtual_gpu() {
    for design in gem_designs::all_designs(0) {
        let opts = CompileOptions {
            core_width: 1024,
            target_parts: 4,
            stages: if design.name.starts_with("OpenPiton") {
                2
            } else {
                1
            },
            ..Default::default()
        };
        let compiled = compile(&design.module, &opts)
            .unwrap_or_else(|e| panic!("{} failed to compile: {e}", design.name));
        let workload = &design.workloads[0];
        let widths = |n: &str| {
            design
                .module
                .port(n)
                .map(|p| design.module.width(p.net))
                .unwrap_or(1)
        };
        let mut stim = workload.stimulus(&widths);
        let mut gem = GemSimulator::new(&compiled).expect("loads");
        let mut rtl = NetlistSim::new(&design.module);
        let cycles = stim.warmup_cycles() + 40;
        for cycle in 0..cycles {
            for (name, v) in stim.next_inputs() {
                rtl.set_input(&name, v.clone());
                gem.set_input(&name, v);
            }
            rtl.eval();
            gem.step();
            for p in design.module.outputs() {
                assert_eq!(
                    gem.output(&p.name),
                    rtl.output(&p.name),
                    "{} / {} cycle {cycle}: output {} diverged",
                    design.name,
                    workload.name,
                    p.name
                );
            }
            rtl.step();
        }
    }
}
