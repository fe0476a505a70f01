//! Merge's remembered refusals held to the merge that forgot them.
//!
//! `merge_partitions_with` treats its oracle as monotone under cone
//! growth: a refusal of two slots outlives their growth, and a slot that
//! absorbs another inherits its refusals. `estimate_width` is monotone by
//! construction (`merge.rs`' tests check it on every pair they build);
//! placement is not. This suite runs the compiler's real oracle —
//! `estimate_width`, then `place_partition_counted` — through the merge
//! and through a copy of the merge as it was before, which forgot a
//! refusal whenever either partition grew, over the fuzz corpus at three
//! core widths and three part/stage goals, and holds the new merge to no
//! more parts, no more layers, almost always the same stages, and fewer
//! questions.

use gem_aig::{Eaig, Lit};
use gem_partition::merge::{estimate_width, merge_partitions_with};
use gem_partition::repcut::Region;
use gem_partition::{partition, Partition, PartitionOptions, Partitioning, Stage};
use gem_place::{place_partition_counted, CoreProgram, PlaceOptions};
use gem_sim::fuzz::{random_module, FuzzConfig};
use std::collections::HashSet;

fn sorted_union<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
    let mut union = [a, b].concat();
    union.sort_unstable();
    union.dedup();
    union
}

/// The merge before refusals were remembered across growth: a refused
/// pair is keyed on ids that change whenever either partition grows, so
/// a grown partition asks again about every candidate that refused it.
/// Returns the merged partitions with their payloads, and the oracle
/// calls made.
fn forgetful_merge<T>(
    g: &Eaig,
    stage: &Stage,
    mut accept: impl FnMut(&Partition) -> Option<T>,
) -> (Vec<(Partition, Option<T>)>, usize) {
    let mut parts: Vec<Option<(Partition, Option<T>, usize)>> = stage
        .partitions
        .iter()
        .cloned()
        .enumerate()
        .map(|(id, p)| Some((p, None, id)))
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
                if let Some(payload) = accept(&merged) {
                    committed = Some((qi, merged, payload));
                    break;
                }
                rejected.insert(pair);
            }
            let Some((qi, merged, payload)) = committed else {
                break;
            };
            parts[pi] = Some((merged, Some(payload), next_id));
            parts[qi] = None;
            next_id += 1;
        }
    }
    let merged = parts
        .into_iter()
        .flatten()
        .map(|(p, payload, _)| (p, payload));
    (merged.collect(), calls)
}

/// What one side of the comparison adds up to over the corpus.
#[derive(Debug, Default)]
struct Totals {
    /// Σ over compiles of the most partitions in a stage.
    parts: usize,
    /// Σ over compiles of the most layers on a core.
    max_layers: usize,
    /// Σ oracle calls.
    oracle_calls: usize,
}

/// The partitioning `compile` would hand the merge: the part goal
/// doubles, and a stage is added after every second failure, until every
/// partition places. `None` if eight attempts do not get there.
fn mappable_partitioning(
    g: &Eaig,
    (mut parts, mut stages): (usize, usize),
    opts: &PlaceOptions,
) -> Option<Partitioning> {
    for attempt in 0..8 {
        let popts = PartitionOptions {
            target_parts: parts,
            stages,
            ..Default::default()
        };
        let cand = partition(g, &popts);
        let all_place = cand
            .stages
            .iter()
            .flat_map(|s| &s.partitions)
            .all(|p| place_partition_counted(g, p, opts).0.is_ok());
        if all_place {
            return Some(cand);
        }
        parts *= 2;
        if attempt % 2 == 1 {
            stages = (stages + 1).min(4);
        }
    }
    None
}

/// The layers of the deepest core of a merged stage: an accepted
/// candidate brings its placement, a partition no merge touched is
/// placed.
fn max_layers(g: &Eaig, merged: &[(Partition, Option<CoreProgram>)], opts: &PlaceOptions) -> usize {
    let layers = |(p, prog): &(Partition, Option<CoreProgram>)| match prog {
        Some(prog) => prog.layers.len(),
        None => place_partition_counted(g, p, opts)
            .0
            .expect("placed before merging")
            .layers
            .len(),
    };
    merged.iter().map(layers).max().unwrap_or(0)
}

/// Merges every stage of the fuzz designs `seeds` both ways. Returns the
/// reference's totals, the merge's, the stages merged and how many of
/// them came out different.
fn compare(seeds: std::ops::Range<u64>) -> (Totals, Totals, usize, usize) {
    let (mut forgetful, mut remembering) = (Totals::default(), Totals::default());
    let (mut stages_merged, mut stages_differ) = (0, 0);
    for seed in seeds {
        let m = random_module(seed, &FuzzConfig::for_seed(seed));
        let g = gem_synth::synthesize(&m, &gem_synth::SynthOptions::default())
            .expect("fuzz designs synthesize")
            .eaig;
        for core_width in [64, 128, 256] {
            let opts = PlaceOptions {
                core_width,
                timing_driven: true,
            };
            let oracle = |p: &Partition| {
                if estimate_width(&g, p) > core_width as usize {
                    return None;
                }
                place_partition_counted(&g, p, &opts).0.ok()
            };
            for goals in [(8, 1), (8, 2), (16, 2)] {
                let Some(partitioning) = mappable_partitioning(&g, goals, &opts) else {
                    continue;
                };
                let mut stop = vec![false; g.len()];
                let (mut parts, mut layers) = ([0, 0], [0, 0]);
                for stage in &partitioning.stages {
                    let region = Region {
                        sinks: stage
                            .partitions
                            .iter()
                            .flat_map(|p| p.sinks.iter().copied())
                            .collect(),
                        stop: stop.clone(),
                    };
                    let (reference, calls) = forgetful_merge(&g, stage, oracle);
                    forgetful.oracle_calls += calls;
                    let (merged, programs, stats) =
                        merge_partitions_with(&g, &region, stage, oracle);
                    remembering.oracle_calls += stats.oracle_calls;
                    let merged: Vec<_> = merged.partitions.into_iter().zip(programs).collect();
                    stages_merged += 1;
                    let sinks = |m: &[(Partition, Option<CoreProgram>)]| -> Vec<Vec<Lit>> {
                        m.iter().map(|(p, _)| p.sinks.clone()).collect()
                    };
                    stages_differ += usize::from(sinks(&reference) != sinks(&merged));
                    for (side, m) in [&reference, &merged].into_iter().enumerate() {
                        parts[side] = parts[side].max(m.len());
                        layers[side] = layers[side].max(max_layers(&g, m, &opts));
                    }
                    for l in &stage.cut_lits {
                        stop[l.node().0 as usize] = true;
                    }
                }
                forgetful.parts += parts[0];
                forgetful.max_layers += layers[0];
                remembering.parts += parts[1];
                remembering.max_layers += layers[1];
            }
        }
    }
    (forgetful, remembering, stages_merged, stages_differ)
}

fn assert_no_worse(seeds: std::ops::Range<u64>, min_stages: usize) {
    let (forgetful, remembering, stages, differ) = compare(seeds);
    let what = format!(
        "forgetful {forgetful:?}, remembering {remembering:?}, {differ} of {stages} stages differ"
    );
    eprintln!("{what}");
    assert!(stages >= min_stages, "{what}");
    assert!(remembering.parts <= forgetful.parts, "{what}");
    assert!(remembering.max_layers <= forgetful.max_layers, "{what}");
    assert!(differ * 100 <= stages, "{what}");
    assert!(remembering.oracle_calls < forgetful.oracle_calls, "{what}");
}

#[test]
fn remembered_refusals_cost_no_parts_or_layers() {
    assert_no_worse(0..48, 600);
}

#[test]
#[ignore = "400 fuzz designs; run in release"]
fn remembered_refusals_cost_no_parts_or_layers_sweep() {
    assert_no_worse(0..400, 5_000);
}
