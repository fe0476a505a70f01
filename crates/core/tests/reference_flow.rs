//! The compile held to the mapping flow it replaced.
//!
//! The paper's flow splits every stage until every part places, then
//! greedily merges each stage back under the compiler's oracle (the width
//! estimate, then placement). The compiler takes two shortcuts that rest
//! on the oracle being monotone under cone growth, which placement is not
//! proven to be:
//!
//! - *Refusals are remembered.* The merge never asks again about two
//!   partition slots refused once, even after either grew. The reference
//!   is a copy of the merge as it was before, which forgot a refusal
//!   whenever either partition grew; the remembering merge must have no
//!   more parts and no more layers, merge almost every stage the same way
//!   and ask fewer questions.
//! - *Whole stage first.* A stage the oracle accepts as one partition is
//!   mapped so, unsplit: that is where greedy merging ends. Wherever the
//!   remembering merge ends with one partition in a stage, the compile's
//!   stage must be that partition with that program, byte for byte; the
//!   compile never has more parts, fails only where splitting fails too,
//!   and almost every stage is the same.
//!
//! One pass over the fuzz corpus (three core widths, three part/stage
//! goals) and over `examples/designs` runs the chain forgetful merge →
//! remembering merge → compile on every configuration.

use gem_aig::{Eaig, Lit};
use gem_core::{compile, compile_verilog, CompileError, CompileOptions, Compiled};
use gem_partition::merge::{estimate_width, merge_with_payloads};
use gem_partition::repcut::Region;
use gem_partition::{partition, Partition, PartitionOptions, Partitioning, Stage};
use gem_place::{place_partition, CoreProgram, PlaceOptions};
use gem_sim::fuzz::{random_module, FuzzConfig};
use std::collections::HashSet;

/// One stage of a mapping: its partitions with their programs.
type MappedStage = Vec<(Partition, CoreProgram)>;

/// The compiler's oracle: `p`'s program, unless [`estimate_width`] puts
/// it over the core or it fails to place.
fn oracle(g: &Eaig, p: &Partition, place: &PlaceOptions) -> Option<CoreProgram> {
    if estimate_width(g, p) > place.core_width as usize {
        return None;
    }
    place_partition(g, p, place).ok().map(|(prog, _)| prog)
}

/// The compiler's retry schedule with every stage split: the part goal
/// doubles, and a stage is added after every second failure, until every
/// partition places. Returns the partitioning with every partition's
/// program, or `None` if eight attempts do not get there.
fn split_until_placed(
    g: &Eaig,
    opts: &CompileOptions,
    place: &PlaceOptions,
) -> Option<(Partitioning, Vec<Vec<CoreProgram>>)> {
    let (mut parts, mut stages) = (opts.target_parts, opts.stages);
    for attempt in 0..8 {
        let popts = PartitionOptions {
            target_parts: parts,
            stages,
            seed: opts.seed,
        };
        let cand = partition(g, &popts);
        let programs: Option<Vec<Vec<CoreProgram>>> = cand
            .stages
            .iter()
            .map(|s| {
                let placed = s.partitions.iter().map(|p| place_partition(g, p, place));
                placed.map(|r| r.ok().map(|(prog, _)| prog)).collect()
            })
            .collect();
        if let Some(programs) = programs {
            return Some((cand, programs));
        }
        parts *= 2;
        if attempt % 2 == 1 {
            stages = (stages + 1).min(CompileOptions::MAX_STAGES);
        }
    }
    None
}

fn sorted_union<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
    let mut union = [a, b].concat();
    union.sort_unstable();
    union.dedup();
    union
}

/// The merge before refusals were remembered across growth: a refused
/// pair is keyed on ids that change whenever either partition grows, so
/// a grown partition asks again about every candidate that refused it.
/// Every partition comes with its program (`programs[i]` is
/// `stage.partitions[i]`'s) and leaves with the one `accept` built for
/// it, or its own if no merge touched it. Returns the merged stage and
/// the oracle calls made.
fn forgetful_merge(
    g: &Eaig,
    stage: &Stage,
    programs: Vec<CoreProgram>,
    mut accept: impl FnMut(&Partition) -> Option<CoreProgram>,
) -> (MappedStage, usize) {
    let mut parts: Vec<Option<(Partition, CoreProgram, usize)>> = stage
        .partitions
        .iter()
        .cloned()
        .zip(programs)
        .enumerate()
        .map(|(id, (p, prog))| Some((p, prog, id)))
        .collect();
    let mut calls = 0;
    let mut next_id = parts.len();
    let mut rejected: HashSet<(usize, usize)> = HashSet::new();
    let mut member = vec![false; g.len()];
    for pi in 0..parts.len() {
        if parts[pi].is_none() {
            continue;
        }
        loop {
            let &(ref p, _, p_id) = parts[pi].as_ref().expect("present");
            for n in p.nodes.iter().chain(&p.sources) {
                member[n.0 as usize] = true;
            }
            let mut candidates: Vec<(usize, usize)> = Vec::new();
            for (qi, q) in parts.iter().enumerate() {
                let Some((q, ..)) = q else { continue };
                if qi != pi {
                    let overlap = q.nodes.iter().chain(&q.sources);
                    candidates.push((overlap.filter(|n| member[n.0 as usize]).count(), qi));
                }
            }
            for n in p.nodes.iter().chain(&p.sources) {
                member[n.0 as usize] = false;
            }
            candidates.sort_unstable_by(|a, b| b.cmp(a));
            let mut committed = None;
            for (_, qi) in candidates {
                let &(ref q, _, q_id) = parts[qi].as_ref().expect("candidate present");
                let pair = (p_id.min(q_id), p_id.max(q_id));
                if rejected.contains(&pair) {
                    continue;
                }
                let merged = Partition {
                    sinks: sorted_union(&p.sinks, &q.sinks),
                    nodes: sorted_union(&p.nodes, &q.nodes),
                    sources: sorted_union(&p.sources, &q.sources),
                };
                calls += 1;
                if let Some(prog) = accept(&merged) {
                    committed = Some((qi, merged, prog));
                    break;
                }
                rejected.insert(pair);
            }
            let Some((qi, merged, prog)) = committed else {
                break;
            };
            parts[pi] = Some((merged, prog, next_id));
            parts[qi] = None;
            next_id += 1;
        }
    }
    let merged = parts.into_iter().flatten().map(|(p, prog, _)| (p, prog));
    (merged.collect(), calls)
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

/// The most partitions in a stage, and the most layers on a core.
fn parts_and_layers(m: &[MappedStage]) -> (usize, usize) {
    let parts = m.iter().map(Vec::len).max().unwrap_or(0);
    let layers = m.iter().flatten().map(|(_, prog)| prog.layers.len());
    (parts, layers.max().unwrap_or(0))
}

/// What the chain adds up to over a corpus. `[forgetful, remembering]`
/// pairs compare the two merges.
#[derive(Debug, Default)]
struct Tally {
    /// Compiles compared.
    compiles: usize,
    /// Stages compared with the remembering merge's.
    stages: usize,
    /// Stages the compile mapped whole.
    whole: usize,
    /// Stages the remembering merge ended with one partition in.
    merged_whole: usize,
    /// Stages of the compile that differ from the remembering merge's.
    differ: usize,
    /// Stages merged both ways.
    merged: usize,
    /// Stages the two merges ended with different partitions in.
    merges_differ: usize,
    /// Σ over reference mappings of the most partitions in a stage.
    parts: [usize; 2],
    /// Σ over reference mappings of the most layers on a core.
    layers: [usize; 2],
    /// Σ oracle calls.
    oracle_calls: [usize; 2],
}

impl Tally {
    /// Splits every stage of `g` until every part places and merges each
    /// stage back both ways, the stop set of each stage's region
    /// accumulated from the cut literals of the stages before it. Counts
    /// the two merges against each other and returns the remembering
    /// one's mapping, or `None` if no split places.
    fn reference(&mut self, g: &Eaig, opts: &CompileOptions) -> Option<Vec<MappedStage>> {
        let place = PlaceOptions {
            core_width: opts.core_width,
            timing_driven: opts.timing_driven,
        };
        let (partitioning, programs) = split_until_placed(g, opts, &place)?;
        let mut stop = vec![false; g.len()];
        let mut ends = [Vec::new(), Vec::new()];
        for (stage, programs) in partitioning.stages.iter().zip(programs) {
            let region = Region {
                sinks: stage
                    .partitions
                    .iter()
                    .flat_map(|p| p.sinks.iter().copied())
                    .collect(),
                stop: stop.clone(),
            };
            let accept = |p: &Partition| oracle(g, p, &place);
            let (forgetful, calls) = forgetful_merge(g, stage, programs.clone(), accept);
            self.oracle_calls[0] += calls;
            let (merged, programs, stats) =
                merge_with_payloads(g, &region, stage.clone(), programs, accept);
            self.oracle_calls[1] += stats.oracle_calls;
            let remembering: MappedStage = merged.partitions.into_iter().zip(programs).collect();
            let sinks = |m: &MappedStage| -> Vec<Vec<Lit>> {
                m.iter().map(|(p, _)| p.sinks.clone()).collect()
            };
            self.merged += 1;
            self.merges_differ += usize::from(sinks(&forgetful) != sinks(&remembering));
            ends[0].push(forgetful);
            ends[1].push(remembering);
            for l in &stage.cut_lits {
                stop[l.node().0 as usize] = true;
            }
        }
        for (side, end) in ends.iter().enumerate() {
            let (parts, layers) = parts_and_layers(end);
            self.parts[side] += parts;
            self.layers[side] += layers;
        }
        let [_, remembering] = ends;
        Some(remembering)
    }

    /// Runs the reference flow on `g` and holds `compiled`, the compile
    /// of the design `g` was synthesized from, to it.
    fn compare(
        &mut self,
        what: &str,
        g: &Eaig,
        compiled: Result<Compiled, CompileError>,
        opts: &CompileOptions,
    ) {
        let reference = self.reference(g, opts);
        let c = match compiled {
            Ok(c) => c,
            Err(e) => {
                // A compile that fails must fail on the reference path too.
                assert!(reference.is_none(), "{what}: {e}");
                return;
            }
        };
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
        assert!(
            parts_and_layers(&ours).0 <= parts_and_layers(&reference).0,
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

    /// The bars both shortcuts are held to; a failure names every bar
    /// that does not hold.
    fn assert_bars(&self, min_compiles: usize, min_merged: usize) {
        eprintln!("{self:?}");
        let bars = [
            ("enough compiles", self.compiles >= min_compiles),
            ("enough stages merged", self.merged >= min_merged),
            // Whole stage first.
            (
                "stages mapped whole",
                self.whole > 0 && self.merged_whole > 0,
            ),
            ("≤ 1 % of stages differ", self.differ * 100 <= self.stages),
            // Refusals are remembered.
            ("no more Σ parts", self.parts[1] <= self.parts[0]),
            ("no more Σ layers", self.layers[1] <= self.layers[0]),
            (
                "≤ 1 % of merges differ",
                self.merges_differ * 100 <= self.merged,
            ),
            (
                "fewer oracle calls",
                self.oracle_calls[1] < self.oracle_calls[0],
            ),
        ];
        let failed: Vec<_> = bars.iter().filter(|(_, held)| !held).collect();
        assert!(failed.is_empty(), "{failed:?} in {self:?}");
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
                tally.compare(&what, &synth.eaig, compile(&m, &opts), &opts);
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
        let m = gem_netlist::verilog::parse(&text).expect("example designs parse");
        let synth = gem_synth::synthesize(&m, &Default::default()).expect("synthesizes");
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
                let compiled = compile_verilog(&text, &opts);
                tally.compare(&what, &synth.eaig, compiled, &opts);
            }
        }
    }
    tally
}

#[test]
fn the_compile_matches_the_reference_flow() {
    fuzz_corpus(0..48).assert_bars(400, 600);
}

#[test]
fn example_designs_match_the_reference_flow() {
    example_designs().assert_bars(30, 30);
}

#[test]
#[ignore = "400 fuzz designs; run in release"]
fn the_compile_matches_the_reference_flow_sweep() {
    fuzz_corpus(0..400).assert_bars(3_000, 5_000);
}
