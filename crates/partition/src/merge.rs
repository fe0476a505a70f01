//! Width-constrained partition merging — Algorithm 1 of the paper.
//!
//! The boomerang executor bounds a partition's *width* (8192 live bits),
//! not its total size, and "it is difficult to modify a hypergraph
//! partitioner's objective to logic widths as this metric does not have
//! nice additive property". GEM therefore partitions excessively and then
//! greedily merges partitions back together, trying candidates in
//! large-overlap-first order and committing a merge whenever the result is
//! still mappable. The paper guarantees ≥ 50 % effective bit utilization
//! this way.

use crate::repcut::{extract_cone, sorted_union, Region};
use crate::{NodeScratch, Partition, Stage};
use gem_aig::{Eaig, Node};

/// Estimates the peak number of simultaneously-live bits when evaluating a
/// partition level by level: partition sources and computed values are
/// live from their defining level until their last use (sinks stay live to
/// the end).
///
/// A cheap filter ahead of the authoritative test, which is placement
/// itself (`gem_place::place_partition`): a partition over the width by
/// this estimate is not worth placing, but most merge candidates under it
/// still fail to place (DESIGN.md §4 has the ladder's counts), because the
/// boomerang layers hold values longer than a level-by-level sweep does.
pub fn estimate_width(g: &Eaig, p: &Partition) -> usize {
    estimate_width_in(g, p, &mut NodeScratch::new(g))
}

/// [`estimate_width`] with its per-node table borrowed from `scratch`.
pub fn estimate_width_in(g: &Eaig, p: &Partition, scratch: &mut NodeScratch) -> usize {
    const OUTSIDE: u32 = NodeScratch::UNSET;
    let node_levels = g.node_levels();
    let depth = p
        .nodes
        .iter()
        .map(|n| node_levels[n.0 as usize])
        .max()
        .unwrap_or(0);
    // Last-use level per signal of the partition, indexed by node id;
    // the defining level is 0 for a source and the node's own otherwise.
    // (`sources` and `nodes` name each signal once: see `extract_cone`.)
    let mut delta = vec![0i64; depth as usize + 3];
    scratch.for_partition(p, |last_use| {
        for n in p.sources.iter().chain(&p.nodes) {
            last_use[n.0 as usize] = 0;
        }
        for &n in &p.nodes {
            if let Node::And(a, b) = g.node(n) {
                let ul = node_levels[n.0 as usize];
                for x in [a.node(), b.node()] {
                    let last = &mut last_use[x.0 as usize];
                    if *last != OUTSIDE {
                        *last = (*last).max(ul);
                    }
                }
            }
        }
        // Sinks live to the end.
        for s in &p.sinks {
            let last = &mut last_use[s.node().0 as usize];
            if *last != OUTSIDE {
                *last = depth + 1;
            }
        }
        // Sweep: +1 at (def+1), -1 after last use. Live span is (def, last].
        let gates = p.nodes.iter().map(|n| (n, node_levels[n.0 as usize]));
        for (n, def) in gates.chain(p.sources.iter().map(|n| (n, 0))) {
            let last = last_use[n.0 as usize];
            if last > def {
                delta[def as usize + 1] += 1;
                delta[last as usize + 1] -= 1;
            }
        }
    });
    let mut live = 0i64;
    let mut peak = 0i64;
    for d in delta {
        live += d;
        peak = peak.max(live);
    }
    peak as usize
}

/// The cone of `p`'s and `q`'s sinks together, from the two cones: under
/// one stop set a node is in the cone of `S₁ ∪ S₂` exactly when it is in
/// the cone of `S₁` or of `S₂`, and whether it is a source or a gate
/// depends on the node alone.
fn union_cone(p: &Partition, q: &Partition) -> Partition {
    let mut sinks = p.sinks.clone();
    sinks.extend(q.sinks.iter().copied());
    sinks.sort_unstable();
    sinks.dedup();
    Partition {
        sinks,
        nodes: sorted_union(&p.nodes, &q.nodes),
        sources: sorted_union(&p.sources, &q.sources),
    }
}

/// Statistics of a merging run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Partitions before merging.
    pub before: usize,
    /// Partitions after merging.
    pub after: usize,
    /// Merges committed.
    pub merges: usize,
    /// Candidates put to the oracle. A work count: it may fall, never
    /// rise, as refusals are remembered better.
    pub oracle_calls: usize,
    /// Candidates refused from memory, without the oracle: the two
    /// partitions, or partitions each of them has since absorbed, were
    /// refused together before.
    pub repeats_skipped: usize,
}

/// Algorithm 1: greedily merges a stage's partitions, trying candidates in
/// descending node-overlap order and committing whenever `mappable`
/// accepts the merged partition. [`merge_with_payloads`] on a copy of
/// `stage`, with a `bool` oracle and no payloads.
pub fn merge_partitions(
    g: &Eaig,
    region: &Region,
    stage: &Stage,
    mappable: &dyn Fn(&Partition) -> bool,
) -> (Stage, MergeStats) {
    let units = vec![(); stage.partitions.len()];
    let (merged, _, stats) = merge_with_payloads(g, region, stage.clone(), units, |p| {
        mappable(p).then_some(())
    });
    (merged, stats)
}

/// Algorithm 1 with an oracle that hands back what it built to find its
/// answer (a placement, say): `Some(payload)` accepts the merged
/// partition. Takes the stage and its payloads by value, one payload a
/// partition (`payloads[i]` is `stage.partitions[i]`'s), and returns the
/// merged stage with one payload a partition: the payload of the call
/// that accepted exactly it, or its own if no merge touched it. A
/// payload is dropped when a later merge supersedes its partition, and
/// nothing the stage holds is copied.
///
/// Every partition of `stage` must be the cone ([`extract_cone`]) of its
/// sinks in `region`, the region the stage was partitioned from. A
/// merged cone is then the union of its halves' (DESIGN.md §4), and
/// `region` is read only by a debug check of that.
///
/// `accept` is treated as monotone under cone growth: a slot's partition
/// only grows, so two slots refused once stay refused, and a slot that
/// absorbs another inherits its refusals. [`estimate_width`] is monotone;
/// placement is not proven to be (DESIGN.md §4 measures it).
pub fn merge_with_payloads<T>(
    g: &Eaig,
    region: &Region,
    stage: Stage,
    payloads: Vec<T>,
    mut accept: impl FnMut(&Partition) -> Option<T>,
) -> (Stage, Vec<T>, MergeStats) {
    let len = stage.partitions.len();
    assert_eq!(payloads.len(), len, "one payload a partition");
    let mut parts: Vec<Option<(Partition, T)>> = stage
        .partitions
        .into_iter()
        .zip(payloads)
        .map(Some)
        .collect();
    let mut stats = MergeStats {
        before: len,
        ..Default::default()
    };
    // Symmetric: `refused[a * len + b]` once slots `a` and `b` were refused.
    let mut refused = vec![false; len * len];
    let mut member = vec![false; g.len()];
    // Line 2: for each partition p.
    for pi in 0..len {
        if parts[pi].is_none() {
            continue;
        }
        loop {
            let (p, _) = parts[pi].as_ref().expect("present");
            // Line 3: sort the other partitions by overlap with p, less
            // those refused with it already.
            for n in p.nodes.iter().chain(&p.sources) {
                member[n.0 as usize] = true;
            }
            let mut candidates: Vec<(usize, usize)> = Vec::new(); // (overlap, qi)
            for (qi, q) in parts.iter().enumerate() {
                let Some((q, _)) = q else { continue };
                if qi == pi {
                    continue;
                }
                if refused[pi * len + qi] {
                    stats.repeats_skipped += 1;
                    continue;
                }
                let overlap = q
                    .nodes
                    .iter()
                    .chain(q.sources.iter())
                    .filter(|n| member[n.0 as usize])
                    .count();
                candidates.push((overlap, qi));
            }
            for n in p.nodes.iter().chain(&p.sources) {
                member[n.0 as usize] = false;
            }
            candidates.sort_unstable_by(|a, b| b.cmp(a));
            // Lines 4-5: try merging large-to-small overlap; commit the
            // first mappable merge, then rescan (overlaps changed).
            let mut committed = None;
            for (_, qi) in candidates {
                let (q, _) = parts[qi].as_ref().expect("candidate present");
                let merged = union_cone(p, q);
                debug_assert_eq!(merged, extract_cone(g, region, &merged.sinks));
                stats.oracle_calls += 1;
                if let Some(payload) = accept(&merged) {
                    committed = Some((qi, merged, payload));
                    break;
                }
                refused[pi * len + qi] = true;
                refused[qi * len + pi] = true;
            }
            let Some((qi, merged, payload)) = committed else {
                break;
            };
            // `pi` now contains `qi`: whatever refused `qi` refuses it.
            for r in 0..len {
                refused[pi * len + r] |= refused[qi * len + r];
                refused[r * len + pi] |= refused[r * len + qi];
            }
            parts[pi] = Some((merged, payload));
            parts[qi] = None;
            stats.merges += 1;
        }
    }
    let (partitions, payloads): (Vec<Partition>, Vec<T>) = parts.into_iter().flatten().unzip();
    stats.after = partitions.len();
    let merged = Stage {
        partitions,
        cut_lits: stage.cut_lits,
    };
    (merged, payloads, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repcut::partition_region;
    use crate::PartitionOptions;
    use gem_aig::{Eaig, Lit};

    fn chains(n: usize, depth: usize) -> Eaig {
        let mut g = Eaig::new();
        for c in 0..n {
            let mut cur = g.input(format!("i{c}"));
            for k in 0..depth {
                let e = g.input(format!("x{c}_{k}"));
                cur = g.xor(cur, e);
            }
            g.output(format!("o{c}"), cur);
        }
        g
    }

    #[test]
    fn width_estimate_counts_sources_and_live_values() {
        let mut g = Eaig::new();
        let a = g.input("a");
        let b = g.input("b");
        let x = g.and(a, b);
        g.output("o", x);
        let region = Region::whole(&g);
        let p = extract_cone(&g, &region, &[x]);
        let w = estimate_width(&g, &p);
        assert!((2..=3).contains(&w), "width {w}");
    }

    #[test]
    fn merging_reduces_partition_count() {
        let g = chains(16, 4);
        let region = Region::whole(&g);
        let parts = partition_region(&g, &region, 16, &PartitionOptions::default());
        let stage = Stage {
            partitions: parts,
            cut_lits: vec![],
        };
        let (merged, stats) =
            merge_partitions(&g, &region, &stage, &|p| estimate_width(&g, p) <= 64);
        assert!(stats.after < stats.before);
        assert_eq!(stats.before - stats.merges, stats.after);
        // All sinks still covered.
        let covered: usize = merged.partitions.iter().map(|p| p.sinks.len()).sum();
        assert_eq!(covered, g.sinks().len());
    }

    #[test]
    fn merging_respects_mappability() {
        let g = chains(8, 4);
        let region = Region::whole(&g);
        let parts = partition_region(&g, &region, 8, &PartitionOptions::default());
        let stage = Stage {
            partitions: parts,
            cut_lits: vec![],
        };
        let limit = 16;
        let (merged, _) =
            merge_partitions(&g, &region, &stage, &|p| estimate_width(&g, p) <= limit);
        for p in &merged.partitions {
            assert!(estimate_width(&g, p) <= limit);
        }
    }

    #[test]
    fn nothing_merges_when_everything_is_at_capacity() {
        let g = chains(4, 8);
        let region = Region::whole(&g);
        let parts = partition_region(&g, &region, 4, &PartitionOptions::default());
        let stage = Stage {
            partitions: parts.clone(),
            cut_lits: vec![],
        };
        let (merged, stats) = merge_partitions(&g, &region, &stage, &|_| false);
        assert_eq!(stats.merges, 0);
        assert_eq!(merged.partitions.len(), parts.len());
    }

    #[test]
    fn utilization_after_merge_is_reasonable() {
        // Many tiny partitions, capacity 128: after merging, most
        // partitions should use >50% of the width budget (paper's claim).
        let g = chains(32, 2);
        let region = Region::whole(&g);
        let parts = partition_region(&g, &region, 32, &PartitionOptions::default());
        let stage = Stage {
            partitions: parts,
            cut_lits: vec![],
        };
        let cap = 128;
        let (merged, _) = merge_partitions(&g, &region, &stage, &|p| estimate_width(&g, p) <= cap);
        let utilized = merged
            .partitions
            .iter()
            .filter(|p| estimate_width(&g, p) * 2 >= cap)
            .count();
        assert!(
            utilized * 2 >= merged.partitions.len(),
            "{utilized}/{} partitions above 50% utilization",
            merged.partitions.len()
        );
        let _ = Lit::FALSE;
    }

    /// 16 chains in 16 partitions: the stage the payload tests merge.
    fn sixteen_chains() -> (Eaig, Region, Stage) {
        let g = chains(16, 4);
        let region = Region::whole(&g);
        let partitions = partition_region(&g, &region, 16, &PartitionOptions::default());
        let stage = Stage {
            partitions,
            cut_lits: vec![],
        };
        (g, region, stage)
    }

    #[test]
    fn payloads_belong_to_the_partitions_they_come_back_with() {
        let (g, region, stage) = sixteen_chains();
        // A few chains fit one core, and one partition merges with nothing.
        let loner = stage.partitions[5].sinks[0];
        let fits = |p: &Partition| estimate_width(&g, p) <= 16 && !p.sinks.contains(&loner);
        let own = stage.partitions.iter().map(|p| (p.sinks.clone(), false));
        let mut calls = 0usize;
        let (merged, payloads, stats) =
            merge_with_payloads(&g, &region, stage.clone(), own.collect(), |p| {
                calls += 1;
                fits(p).then(|| (p.sinks.clone(), true))
            });
        assert_eq!(stats.oracle_calls, calls);
        assert_eq!(payloads.len(), merged.partitions.len());
        assert!(stats.merges > 0 && stats.after > 1, "{stats:?}");
        // Every partition comes back with a payload that is its own: the
        // oracle's for a merged one, the one it came with otherwise.
        for (p, (sinks, built)) in merged.partitions.iter().zip(&payloads) {
            assert_eq!(sinks, &p.sinks);
            assert_eq!(*built, !stage.partitions.contains(p));
        }
        assert!(payloads.iter().any(|(_, built)| !built), "the loner merged");
        // The bool form is the same algorithm without the payloads.
        let (plain, plain_stats) = merge_partitions(&g, &region, &stage, &fits);
        assert_eq!((plain, plain_stats), (merged, stats));
    }

    #[test]
    fn a_stage_nothing_merges_in_keeps_its_payloads() {
        let (g, region, stage) = sixteen_chains();
        let (merged, payloads, stats) =
            merge_with_payloads(&g, &region, stage.clone(), (0..16).collect(), |_| None);
        assert_eq!(merged, stage);
        assert_eq!(payloads, (0..16).collect::<Vec<_>>());
        // 16 partitions meet pairwise once, not once from each side.
        assert_eq!(stats.oracle_calls, 16 * 15 / 2);
        assert_eq!(stats.repeats_skipped, 16 * 15 / 2);
    }

    #[test]
    fn nothing_containing_a_refused_sink_set_is_asked() {
        let (g, region, stage) = sixteen_chains();
        let mut refused: Vec<Vec<Lit>> = Vec::new();
        let mut calls = 0usize;
        let limit = 16;
        let units = vec![(); stage.partitions.len()];
        let (_, _, stats) = merge_with_payloads(&g, &region, stage, units, |p| {
            calls += 1;
            for r in &refused {
                let contains = r.iter().all(|s| p.sinks.contains(s));
                assert!(!contains, "asked about {:?} ⊇ refused {r:?}", p.sinks);
            }
            let fits = estimate_width(&g, p) <= limit;
            if !fits {
                refused.push(p.sinks.clone());
            }
            fits.then_some(())
        });
        assert!(stats.merges > 0 && stats.repeats_skipped > 0, "{stats:?}");
        assert_eq!(calls, stats.oracle_calls);
    }

    /// [`estimate_width`] as it was before it ran on dense arrays.
    fn estimate_width_by_hashmap(g: &Eaig, p: &Partition) -> usize {
        let node_levels = g.node_levels();
        let depth = p
            .nodes
            .iter()
            .map(|n| node_levels[n.0 as usize])
            .max()
            .unwrap_or(0) as usize;
        let mut in_part = std::collections::HashMap::new();
        for &s in &p.sources {
            in_part.insert(s.0, (0usize, 0usize));
        }
        for &n in &p.nodes {
            in_part.insert(n.0, (node_levels[n.0 as usize] as usize, 0usize));
        }
        for &n in &p.nodes {
            if let Node::And(a, b) = g.node(n) {
                let ul = node_levels[n.0 as usize] as usize;
                for x in [a.node(), b.node()] {
                    if let Some(e) = in_part.get_mut(&x.0) {
                        e.1 = e.1.max(ul);
                    }
                }
            }
        }
        for s in &p.sinks {
            if let Some(e) = in_part.get_mut(&s.node().0) {
                e.1 = depth + 1;
            }
        }
        let mut delta = vec![0i64; depth + 3];
        for &(d, u) in in_part.values() {
            if u > d {
                delta[d + 1] += 1;
                delta[u + 1] -= 1;
            }
        }
        let mut live = 0i64;
        let mut peak = 0i64;
        for d in delta {
            live += d;
            peak = peak.max(live);
        }
        peak as usize
    }

    #[test]
    fn width_estimate_is_unchanged_on_the_fuzz_corpus() {
        use gem_sim::fuzz::{random_module, FuzzConfig};
        let mut checked = 0usize;
        for seed in 0..48u64 {
            let m = random_module(seed, &FuzzConfig::for_seed(seed));
            let g = gem_synth::synthesize(&m, &gem_synth::SynthOptions)
                .expect("fuzz designs synthesize")
                .eaig;
            for (target_parts, stages) in [(1, 1), (3, 1), (4, 2)] {
                let parts = crate::partition(
                    &g,
                    &PartitionOptions {
                        target_parts,
                        stages,
                        ..Default::default()
                    },
                );
                for p in parts.stages.iter().flat_map(|s| &s.partitions) {
                    assert_eq!(
                        estimate_width(&g, p),
                        estimate_width_by_hashmap(&g, p),
                        "seed {seed}, {target_parts} parts, {stages} stages"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 100, "only {checked} partitions");
    }

    /// Holds [`union_cone`] to [`extract_cone`] on every pair of
    /// partitions of every stage of the first `seeds` fuzz designs, under
    /// the stage's stop set (the cut literals of the stages before it, as
    /// the compiler builds it), and checks each partition is the cone of
    /// its sinks there. Compared explicitly: the merge's `debug_assert`
    /// is off in release. Also holds [`estimate_width`] monotone under
    /// cone growth, the half of the merge oracle whose refusals are
    /// remembered by proof: a union is at least as wide as either half.
    /// And holds it to the two counts the whole-stage check refuses by
    /// before estimating: a partition is at least as wide as its sink
    /// nodes and its sources are many. Returns the pairs checked.
    fn union_cone_is_extract_cone(seeds: u64) -> usize {
        use gem_sim::fuzz::{random_module, FuzzConfig};
        let mut checked = 0usize;
        for seed in 0..seeds {
            let m = random_module(seed, &FuzzConfig::for_seed(seed));
            let g = gem_synth::synthesize(&m, &gem_synth::SynthOptions)
                .expect("fuzz designs synthesize")
                .eaig;
            for (target_parts, stages) in [(3, 1), (4, 2), (8, 2)] {
                let parts = crate::partition(
                    &g,
                    &PartitionOptions {
                        target_parts,
                        stages,
                        ..Default::default()
                    },
                );
                let mut region = Region::whole(&g);
                for stage in &parts.stages {
                    let what = format!("seed {seed}, {target_parts} parts, {stages} stages");
                    for (i, p) in stage.partitions.iter().enumerate() {
                        assert_eq!(p, &extract_cone(&g, &region, &p.sinks), "{what}");
                        let mut sink_nodes: Vec<_> = p.sinks.iter().map(|l| l.node()).collect();
                        sink_nodes.sort_unstable();
                        sink_nodes.dedup();
                        let width = estimate_width(&g, p);
                        assert!(
                            width >= sink_nodes.len() && width >= p.sources.len(),
                            "{what}"
                        );
                        for q in &stage.partitions[i + 1..] {
                            let union = union_cone(p, q);
                            let cone = extract_cone(&g, &region, &union.sinks);
                            assert_eq!(union, cone, "{what}");
                            let halves = estimate_width(&g, p).max(estimate_width(&g, q));
                            assert!(estimate_width(&g, &union) >= halves, "{what}");
                            checked += 1;
                        }
                    }
                    for l in &stage.cut_lits {
                        region.stop[l.node().0 as usize] = true;
                    }
                }
            }
        }
        checked
    }

    #[test]
    fn a_merged_cone_is_the_union_of_its_halves() {
        let checked = union_cone_is_extract_cone(48);
        assert!(checked > 500, "only {checked} pairs");
    }

    #[test]
    #[ignore = "400 fuzz designs; run in release"]
    fn a_merged_cone_is_the_union_of_its_halves_sweep() {
        let checked = union_cone_is_extract_cone(400);
        assert!(checked > 4000, "only {checked} pairs");
    }
}
