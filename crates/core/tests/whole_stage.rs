//! A stage that fits one core is mapped whole, where merging ends.
//!
//! The compiler offers every stage of its plan, whole, to the merge's
//! oracle before it splits the stage, and maps a stage the oracle takes
//! as that one partition. That is the greedy merge's fixed point when the
//! oracle is monotone under cone growth: every part of a split is a
//! sub-cone of the whole. Placement is not proven monotone, so this
//! suite runs the path the compiler took before — split every stage
//! until every part places, merge with the compiler's oracle, place what
//! no merge touched — over the fuzz corpus at three core widths and
//! three part/stage goals, and over `examples/designs`, and holds the
//! compiler to it: wherever that path ends with one partition in a
//! stage, the compile's stage is that partition with that program, byte
//! for byte; the compile never has more parts; and the stages that
//! differ are counted.

use gem_aig::Eaig;
use gem_core::{compile, compile_verilog, CompileOptions, Compiled};
use gem_partition::merge::{estimate_width, merge_partitions_with};
use gem_partition::repcut::Region;
use gem_partition::{partition, Partition, PartitionOptions, Partitioning};
use gem_place::{place_partition, CoreProgram, PlaceOptions};
use gem_sim::fuzz::{random_module, FuzzConfig};

/// One stage of a mapping: its partitions with their programs.
type MappedStage = Vec<(Partition, CoreProgram)>;

/// The compiler's retry schedule with every stage split: the part goal
/// doubles, and a stage is added after every second failure, until every
/// partition places. `None` if eight attempts do not get there.
fn split_until_placed(
    g: &Eaig,
    opts: &CompileOptions,
    place: &PlaceOptions,
) -> Option<Partitioning> {
    let (mut parts, mut stages) = (opts.target_parts, opts.stages);
    for attempt in 0..8 {
        let popts = PartitionOptions {
            target_parts: parts,
            stages,
            seed: opts.seed,
        };
        let cand = partition(g, &popts);
        let all_place = cand
            .stages
            .iter()
            .flat_map(|s| &s.partitions)
            .all(|p| place_partition(g, p, place).is_ok());
        if all_place {
            return Some(cand);
        }
        parts *= 2;
        if attempt % 2 == 1 {
            stages = (stages + 1).min(CompileOptions::MAX_STAGES);
        }
    }
    None
}

/// The mapping by splitting every stage and merging it back: merge with
/// the compiler's oracle (the width estimate, then placement), then place
/// the partitions no merge touched.
fn split_and_merge(g: &Eaig, opts: &CompileOptions) -> Option<Vec<MappedStage>> {
    let place = PlaceOptions {
        core_width: opts.core_width,
        timing_driven: opts.timing_driven,
    };
    let oracle = |p: &Partition| {
        if estimate_width(g, p) > opts.core_width as usize {
            return None;
        }
        place_partition(g, p, &place).ok().map(|(prog, _)| prog)
    };
    let partitioning = split_until_placed(g, opts, &place)?;
    let mut stop = vec![false; g.len()];
    let mut mapped = Vec::new();
    for stage in &partitioning.stages {
        let region = Region {
            sinks: stage
                .partitions
                .iter()
                .flat_map(|p| p.sinks.iter().copied())
                .collect(),
            stop: stop.clone(),
        };
        let (merged, programs, _) = merge_partitions_with(g, &region, stage, oracle);
        for l in &merged.cut_lits {
            stop[l.node().0 as usize] = true;
        }
        let place_untouched = |(p, prog): (Partition, Option<CoreProgram>)| {
            let prog = prog.unwrap_or_else(|| {
                place_partition(g, &p, &place)
                    .expect("placed before merging")
                    .0
            });
            (p, prog)
        };
        mapped.push(
            merged
                .partitions
                .into_iter()
                .zip(programs)
                .map(place_untouched)
                .collect(),
        );
    }
    Some(mapped)
}

/// The compile's mapping in the same form.
fn mapped(c: &Compiled) -> Vec<MappedStage> {
    let stages = c.partitioning.stages.iter().zip(&c.programs);
    stages
        .map(|(s, progs)| {
            s.partitions
                .iter()
                .cloned()
                .zip(progs.iter().cloned())
                .collect()
        })
        .collect()
}

/// What the comparison adds up to over a corpus.
#[derive(Debug, Default)]
struct Tally {
    /// Compiles compared.
    compiles: usize,
    /// Stages the compile mapped whole.
    whole: usize,
    /// Stages the split-and-merge path ended with one partition in.
    merged_whole: usize,
    /// Stages that differ from the split-and-merge path's.
    differ: usize,
    /// Stages compared.
    stages: usize,
}

impl Tally {
    /// Compiles `compiled` (or its failure) against the split-and-merge
    /// path on its own graph.
    fn compare(
        &mut self,
        what: &str,
        compiled: Result<Compiled, String>,
        g: Option<&Eaig>,
        opts: &CompileOptions,
    ) {
        let c = match compiled {
            Ok(c) => c,
            Err(e) => {
                // A compile that fails must fail on the old path too.
                if let Some(g) = g {
                    assert!(split_and_merge(g, opts).is_none(), "{what}: {e}");
                }
                return;
            }
        };
        let reference = split_and_merge(&c.eaig, opts);
        let ours = mapped(&c);
        self.compiles += 1;
        let partition = c.flow.stage("partition").expect("partition stage ran");
        let whole = partition
            .metric("whole_stages")
            .expect("whole stages counted") as usize;
        self.whole += whole;
        if whole == ours.len() {
            let merge = c.flow.stage("merge").expect("merge stage ran");
            assert_eq!(partition.metric("bisections"), Some(0.0), "{what}");
            assert_eq!(merge.metric("oracle_calls"), Some(0.0), "{what}");
        }
        let Some(reference) = reference else {
            // Only a stage mapped whole can get a compile past a split
            // whose parts do not all place.
            assert!(whole > 0, "{what}: maps where splitting does not");
            self.differ += ours.len();
            self.stages += ours.len();
            return;
        };
        let parts = |m: &[MappedStage]| m.iter().map(Vec::len).max().unwrap_or(0);
        assert!(
            parts(&ours) <= parts(&reference),
            "{what}: more parts than merging"
        );
        if ours.len() != reference.len() {
            self.differ += ours.len().max(reference.len());
            self.stages += ours.len().max(reference.len());
            return;
        }
        for (s, (ours, theirs)) in ours.iter().zip(&reference).enumerate() {
            self.stages += 1;
            if theirs.len() == 1 {
                self.merged_whole += 1;
                assert!(
                    ours == theirs,
                    "{what}, stage {s}: not the partition merging ends at"
                );
            }
            self.differ += usize::from(ours != theirs);
        }
    }
}

fn fuzz_corpus(seeds: std::ops::Range<u64>) -> Tally {
    let mut tally = Tally::default();
    for seed in seeds {
        let m = random_module(seed, &FuzzConfig::for_seed(seed));
        let synth =
            gem_synth::synthesize(&m, &Default::default()).expect("fuzz designs synthesize");
        for core_width in [64, 128, 256] {
            for (target_parts, stages) in [(8, 1), (8, 2), (16, 2)] {
                let opts = CompileOptions {
                    target_parts,
                    stages,
                    core_width,
                    ..Default::default()
                };
                let what = format!(
                    "seed {seed}, width {core_width}, {target_parts} parts, {stages} stages"
                );
                let compiled = compile(&m, &opts).map_err(|e| e.to_string());
                tally.compare(&what, compiled, Some(&synth.eaig), &opts);
            }
        }
    }
    tally
}

fn example_designs() -> Tally {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/designs");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/designs exists")
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "v"))
        .collect();
    paths.sort();
    let mut tally = Tally::default();
    for path in &paths {
        let text = std::fs::read_to_string(path).expect("readable design");
        for core_width in [64, 128, 256] {
            for (target_parts, stages) in [(4, 1), (8, 1), (8, 2), (16, 2)] {
                let opts = CompileOptions {
                    target_parts,
                    stages,
                    core_width,
                    ..Default::default()
                };
                let what = format!(
                    "{}, width {core_width}, {target_parts} parts, {stages} stages",
                    path.display()
                );
                let compiled = compile_verilog(&text, &opts).map_err(|e| e.to_string());
                tally.compare(&what, compiled, None, &opts);
            }
        }
    }
    tally
}

fn assert_fixed_point(tally: &Tally, min_compiles: usize) {
    eprintln!("{tally:?}");
    assert!(tally.compiles >= min_compiles, "{tally:?}");
    assert!(tally.whole > 0 && tally.merged_whole > 0, "{tally:?}");
    assert!(tally.differ * 100 <= tally.stages, "{tally:?}");
}

#[test]
fn a_stage_that_fits_one_core_is_where_merging_ends() {
    assert_fixed_point(&fuzz_corpus(0..48), 400);
}

#[test]
fn example_designs_map_whole_where_merging_ends() {
    assert_fixed_point(&example_designs(), 30);
}

#[test]
#[ignore = "400 fuzz designs; run in release"]
fn a_stage_that_fits_one_core_is_where_merging_ends_sweep() {
    assert_fixed_point(&fuzz_corpus(0..400), 3_000);
}
