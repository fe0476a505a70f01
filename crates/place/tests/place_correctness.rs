//! End-to-end placement correctness: synthesize RTL → partition → place,
//! then co-simulate each CoreProgram against the golden E-AIG simulator.

use gem_aig::{Eaig, Lit};
use gem_netlist::ModuleBuilder;
use gem_partition::{partition, PartitionOptions, Partitioning};
use gem_place::{place_partition, PlaceOptions};
use gem_sim::EaigSim;
use gem_synth::{synthesize, SynthOptions};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Places every partition and checks its outputs against the golden model
/// over `cycles` random cycles.
fn check_placement(g: &Eaig, parts: &Partitioning, opts: &PlaceOptions, cycles: usize, seed: u64) {
    let programs: Vec<Vec<_>> = parts
        .stages
        .iter()
        .map(|s| {
            s.partitions
                .iter()
                .map(|p| place_partition(g, p, opts).expect("mappable").0)
                .collect()
        })
        .collect();
    let mut gold = EaigSim::new(g);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n_inputs = g.inputs().len();
    for cycle in 0..cycles {
        for i in 0..n_inputs {
            gold.set_input(i, rng.gen_bool(0.5));
        }
        gold.eval();
        for (si, stage_programs) in programs.iter().enumerate() {
            for (pi, prog) in stage_programs.iter().enumerate() {
                let outs = prog.evaluate(|node| gold.lit(Lit::from_node(node)));
                let sinks = &parts.stages[si].partitions[pi].sinks;
                for (k, &sink) in sinks.iter().enumerate() {
                    assert_eq!(
                        outs[k],
                        gold.lit(sink),
                        "cycle {cycle}, stage {si}, partition {pi}, sink {sink}"
                    );
                }
            }
        }
        gold.step();
    }
}

fn small_opts(width: u32) -> PlaceOptions {
    PlaceOptions {
        core_width: width,
        ..Default::default()
    }
}

/// A random sequential mixer circuit.
fn random_circuit(n_inputs: usize, gates: usize, seed: u64) -> Eaig {
    let mut g = Eaig::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut lits: Vec<Lit> = (0..n_inputs).map(|i| g.input(format!("i{i}"))).collect();
    let ffs: Vec<Lit> = (0..4).map(|_| g.ff(false)).collect();
    lits.extend(ffs.iter().copied());
    for _ in 0..gates {
        let a = lits[rng.gen_range(0..lits.len())];
        let b = lits[rng.gen_range(0..lits.len())];
        let l = match rng.gen_range(0..3) {
            0 => g.and(a, b),
            1 => g.or(a, b),
            _ => g.xor(a, b),
        };
        lits.push(l);
    }
    for (k, &q) in ffs.iter().enumerate() {
        let src = lits[lits.len() - 1 - k];
        g.set_ff_next(q, src);
    }
    let last = *lits.last().expect("nonempty");
    g.output("o", last);
    g
}

#[test]
fn combinational_placement_matches_golden() {
    let g = random_circuit(8, 60, 11);
    let parts = partition(&g, &PartitionOptions::default());
    check_placement(&g, &parts, &small_opts(256), 40, 1);
}

#[test]
fn multi_partition_placement_matches_golden() {
    let g = random_circuit(12, 150, 22);
    let parts = partition(
        &g,
        &PartitionOptions {
            target_parts: 4,
            ..Default::default()
        },
    );
    check_placement(&g, &parts, &small_opts(256), 30, 2);
}

#[test]
fn two_stage_placement_matches_golden() {
    let g = random_circuit(12, 200, 33);
    let parts = partition(
        &g,
        &PartitionOptions {
            target_parts: 4,
            stages: 2,
            ..Default::default()
        },
    );
    assert_eq!(parts.stages.len(), 2);
    check_placement(&g, &parts, &small_opts(512), 30, 3);
}

#[test]
fn synthesized_alu_places_correctly() {
    let mut b = ModuleBuilder::new("alu");
    let x = b.input("x", 8);
    let y = b.input("y", 8);
    let op = b.input("op", 1);
    let s = b.add(x, y);
    let d = b.sub(x, y);
    let r = b.mux(op, d, s);
    let acc = b.dff(8);
    let nxt = b.xor(acc, r);
    b.connect_dff(acc, nxt);
    b.output("r", r);
    b.output("acc", acc);
    let m = b.finish().unwrap();
    let synth = synthesize(&m, &SynthOptions::default()).unwrap();
    let parts = partition(
        &synth.eaig,
        &PartitionOptions {
            target_parts: 3,
            ..Default::default()
        },
    );
    check_placement(&synth.eaig, &parts, &small_opts(512), 50, 4);
}

#[test]
fn boomerang_layers_fewer_than_levels() {
    // Deep narrow logic: a 64-input XOR tree plus a long chain. With 13
    // levels absorbed per layer the layer count must be far below depth.
    let mut g = Eaig::new();
    let ins: Vec<Lit> = (0..32).map(|i| g.input(format!("i{i}"))).collect();
    let mut cur = g.xor_many(&ins);
    for k in 0..40 {
        cur = g.xor(cur, ins[k % ins.len()]);
    }
    g.output("o", cur);
    let parts = partition(
        &g,
        &PartitionOptions {
            target_parts: 1,
            ..Default::default()
        },
    );
    let p = &parts.stages[0].partitions[0];
    let (prog, stats) = place_partition(&g, p, &PlaceOptions::default()).unwrap();
    assert!(stats.depth >= 40, "depth {}", stats.depth);
    assert!(
        (prog.layers.len() as u32) * 4 < stats.depth,
        "{} layers for depth {}",
        prog.layers.len(),
        stats.depth
    );
    check_placement(&g, &parts, &PlaceOptions::default(), 20, 5);
}

#[test]
fn timing_driven_uses_no_more_layers_than_fifo() {
    let g = random_circuit(16, 400, 44);
    let parts = partition(
        &g,
        &PartitionOptions {
            target_parts: 1,
            ..Default::default()
        },
    );
    let p = &parts.stages[0].partitions[0];
    let (td, _) = place_partition(
        &g,
        p,
        &PlaceOptions {
            core_width: 1024,
            ..Default::default()
        },
    )
    .unwrap();
    let (fifo, _) = place_partition(
        &g,
        p,
        &PlaceOptions {
            core_width: 1024,
            timing_driven: false,
        },
    )
    .unwrap();
    assert!(
        td.layers.len() <= fifo.layers.len(),
        "timing-driven {} vs fifo {}",
        td.layers.len(),
        fifo.layers.len()
    );
}

#[test]
fn unmappable_partition_reports_error() {
    // 64 independent outputs cannot fit in a 16-bit-wide core.
    let mut g = Eaig::new();
    for i in 0..64 {
        let a = g.input(format!("a{i}"));
        let b = g.input(format!("b{i}"));
        let x = g.xor(a, b);
        g.output(format!("o{i}"), x);
    }
    let parts = partition(
        &g,
        &PartitionOptions {
            target_parts: 1,
            ..Default::default()
        },
    );
    let p = &parts.stages[0].partitions[0];
    let r = place_partition(&g, p, &small_opts(16));
    assert!(r.is_err());
}

#[test]
fn pass_through_sinks_work() {
    // FF next = input (no gates at all).
    let mut g = Eaig::new();
    let a = g.input("a");
    let q = g.ff(false);
    g.set_ff_next(q, a.flip());
    g.output("o", q);
    let parts = partition(&g, &PartitionOptions::default());
    check_placement(&g, &parts, &small_opts(64), 10, 6);
}
