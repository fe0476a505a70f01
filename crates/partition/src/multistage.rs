//! GEM's multi-stage extension of RepCut (paper §III-C, Fig 5).
//!
//! Replication cost grows super-linearly with partition count: RepCut
//! reports 1.30 % at 8 partitions and 10.95 % at 48, and the paper
//! measures over 200 % at the 216 partitions a modern GPU needs. The fix:
//! cut the circuit at one or more middle logic levels, treat the crossing
//! signals as endpoints of the earlier stage, and run RepCut per stage.
//! Each extra stage costs one device-wide synchronization per cycle and
//! buys a dramatic replication reduction.

use crate::repcut::{extract_cone, Region, SinkHypergraph};
use crate::{Partition, PartitionCounts, PartitionOptions, Partitioning, Stage, SINK_SET_CAP};
use gem_aig::{Eaig, Lit, Node};
use std::collections::HashMap;

/// [`crate::partition`] in the form a retry loop keeps between calls.
///
/// What a call computes before it knows the part goal — the cut levels,
/// crossing sets and regions of every stage and each region's sink
/// hypergraph — is built once per stage count and reused by the next call
/// with the same count. Each sink hypergraph also keeps the
/// bisections it has made, so a call that asks for one again (the same
/// vertices, fraction, balance and seed) takes it instead of re-running FM.
/// Neither changes a result: [`Partitioner::partition`] returns exactly
/// what [`crate::partition`] returns for the same options.
///
/// [`Partitioner::partition_whole_first`] also asks, once per stage
/// count, whether each stage fits one core whole, and keeps the answer's
/// payload (a placement, say) of each stage that does.
#[derive(Debug)]
pub struct Partitioner<'g, T = ()> {
    g: &'g Eaig,
    original_gates: usize,
    /// The plan of the last call, with its stage count.
    plan: Option<(usize, StagePlan)>,
    /// Per stage of `plan`: the payload its whole region was accepted
    /// with, or `None` for a stage that is partitioned.
    whole: Vec<Option<T>>,
    counts: PartitionCounts,
}

impl<'g, T> Partitioner<'g, T> {
    /// A partitioner for `g` with nothing built yet.
    pub fn new(g: &'g Eaig) -> Self {
        Partitioner {
            g,
            original_gates: g.num_live_ands(),
            plan: None,
            whole: Vec::new(),
            counts: PartitionCounts::default(),
        }
    }

    /// Partitions `g` into [`PartitionOptions::stages`] pipeline stages of
    /// [`PartitionOptions::target_parts`] partitions each. A stage that an
    /// earlier [`Partitioner::partition_whole_first`] call with the same
    /// stage count mapped whole stays whole.
    pub fn partition(&mut self, opts: &PartitionOptions) -> Partitioning {
        self.partition_inner(opts, |plan| plan.segments.iter().map(|_| None).collect())
    }

    /// [`Partitioner::partition`], except that a stage whose whole region
    /// `accept` takes is that one partition, with no sink hypergraph
    /// built and no FM run for it. `accept` is asked once per stage, by
    /// the call that builds the stage count's plan, about the partition
    /// the greedy merge of any split of the stage grows towards: the
    /// region's cone, its sinks sorted and deduplicated as merged
    /// partitions carry them (or in sink order, as the one partition of a
    /// stage that is not split carries them). The stages it accepts stay
    /// whole on every later call with the same stage count; their
    /// payloads are [`Partitioner::whole`].
    ///
    /// `accept` must refuse every partition that [`crate::merge::estimate_width`]
    /// puts above `width`. A stage with more sink nodes than `width` is
    /// refused without building its cone: the estimate counts every sink
    /// live at the last level.
    pub fn partition_whole_first(
        &mut self,
        opts: &PartitionOptions,
        width: usize,
        accept: impl FnMut(&Partition) -> Option<T>,
    ) -> Partitioning {
        let g = self.g;
        self.partition_inner(opts, |plan| plan.map_whole(g, opts, width, accept))
    }

    /// Partitions with the plan for `opts`' stage count, built first if
    /// the last call's was for another count; `map_whole` decides which
    /// stages of a new plan are mapped whole, and with what payloads.
    fn partition_inner(
        &mut self,
        opts: &PartitionOptions,
        map_whole: impl FnOnce(&mut StagePlan) -> Vec<Option<T>>,
    ) -> Partitioning {
        let stages = opts.stages.max(1);
        if self.plan.as_ref().is_none_or(|(k, _)| *k != stages) {
            self.plan = None; // the old plan goes before the new one is built
            self.whole.clear();
            let mut plan = if stages == 1 {
                StagePlan::whole(self.g)
            } else {
                StagePlan::with_cuts(self.g, &even_cut_levels(self.g, stages))
            };
            self.whole = map_whole(&mut plan);
            self.plan = Some((stages, plan));
        }
        let (_, plan) = self.plan.as_mut().expect("built above");
        Partitioning {
            stages: plan.partition(self.g, opts, &mut self.counts),
            original_gates: self.original_gates,
        }
    }

    /// Per stage of the last call: the payload its whole region was
    /// accepted with ([`Partitioner::partition_whole_first`]), or `None`
    /// for a stage that was partitioned.
    pub fn whole(&self) -> &[Option<T>] {
        &self.whole
    }

    /// [`Partitioner::whole`], given up with the partitioner.
    pub fn into_whole(self) -> Vec<Option<T>> {
        self.whole
    }

    /// The work done by every call so far.
    pub fn counts(&self) -> PartitionCounts {
        self.counts
    }
}

/// Cut levels for `stages` stages, evenly across the live depth.
pub(crate) fn even_cut_levels(g: &Eaig, stages: usize) -> Vec<u32> {
    let depth = g.levels().depth;
    (1..stages)
        .map(|k| (depth as u64 * k as u64 / stages as u64) as u32)
        .filter(|&l| l > 0 && l < depth)
        .collect()
}

/// The stages of one partitioning before the part goal is known.
#[derive(Debug)]
pub(crate) struct StagePlan {
    pub(crate) segments: Vec<Segment>,
    /// Sum of the segments' `gates` (at least 1).
    total_gates: usize,
}

/// One stage: its region, the cut literals it publishes, its share of the
/// gates (its part goal is that share of the whole goal), and either its
/// sink hypergraph, built the first time the stage is split, or the one
/// partition it is mapped as whole.
#[derive(Debug)]
pub(crate) struct Segment {
    region: Region,
    cut_lits: Vec<Lit>,
    gates: usize,
    sinks: Option<SinkHypergraph>,
    whole: Option<Partition>,
}

impl Segment {
    fn new(region: Region, cut_lits: Vec<Lit>, gates: usize) -> Self {
        Segment {
            region,
            cut_lits,
            gates,
            sinks: None,
            whole: None,
        }
    }

    /// The segment's part goal: its share of the gates, `total_gates`,
    /// of [`PartitionOptions::target_parts`] (at least 1).
    fn share(&self, opts: &PartitionOptions, total_gates: usize) -> usize {
        ((opts.target_parts * self.gates) / total_gates).max(1)
    }

    /// The region split into (at most) `share` partitions; the sink
    /// hypergraph is built by the first split.
    fn split(
        &mut self,
        g: &Eaig,
        share: usize,
        opts: &PartitionOptions,
        counts: &mut PartitionCounts,
    ) -> Vec<Partition> {
        let region = &self.region;
        let sinks = self
            .sinks
            .get_or_insert_with(|| SinkHypergraph::build(g, region, SINK_SET_CAP, counts));
        sinks.partition(g, region, share, opts, counts)
    }

    /// The sink hypergraph, built on first use.
    #[cfg(test)]
    pub(crate) fn hypergraph(
        &mut self,
        g: &Eaig,
        counts: &mut PartitionCounts,
    ) -> &mut SinkHypergraph {
        self.sinks
            .get_or_insert_with(|| SinkHypergraph::build(g, &self.region, SINK_SET_CAP, counts))
    }

    /// The region as one partition, as the path through FM and merge
    /// ends there at a part goal of `share`: FM splits the sinks whenever
    /// it has two parts to fill and two sink nodes to fill them with, and
    /// a merge of the split sorts and deduplicates them; otherwise FM
    /// keeps them in sink order, grouped by node. `None` when the region
    /// has no sinks (it has no partition) or more sink nodes than
    /// `width`.
    fn whole_partition(&self, g: &Eaig, share: usize, width: usize) -> Option<Partition> {
        let mut sinks = self.region.sinks.clone();
        sinks.sort_unstable();
        sinks.dedup();
        // Sorted by literal is grouped by node.
        let nodes = sinks.chunk_by(|a, b| a.node() == b.node()).count();
        if nodes == 0 || nodes > width {
            return None;
        }
        if share <= 1 || nodes == 1 {
            // FM's one part: the sinks in order, grouped by node, nodes in
            // the order they first appear (a sorted region's order).
            let mut rank = HashMap::new();
            for l in &self.region.sinks {
                let next = rank.len();
                rank.entry(l.node()).or_insert(next);
            }
            sinks.clone_from(&self.region.sinks);
            sinks.sort_by_key(|l| rank[&l.node()]);
        }
        // The estimate also counts every source live at the first level.
        let cone = extract_cone(g, &self.region, &sinks);
        (cone.sources.len() <= width).then_some(cone)
    }
}

impl StagePlan {
    /// Single-stage RepCut: the whole graph is one segment that takes the
    /// whole part goal.
    pub(crate) fn whole(g: &Eaig) -> Self {
        StagePlan {
            segments: vec![Segment::new(Region::whole(g), Vec::new(), 1)],
            total_gates: 1,
        }
    }

    /// GEM's multi-stage plan: one segment between consecutive cut levels.
    pub(crate) fn with_cuts(g: &Eaig, cut_levels: &[u32]) -> Self {
        let node_levels = g.node_levels();
        let live = g.live_nodes();
        let mut cut_levels: Vec<u32> = cut_levels.to_vec();
        cut_levels.sort_unstable();
        cut_levels.dedup();
        let nstages = cut_levels.len() + 1;

        // Cut sets: for boundary k (level L), the AND nodes at level ≤ L with a
        // live consumer at level > L (consumers in later segments read them).
        // A node can cross several boundaries; it is published at the first
        // boundary above its level and re-used afterwards (stops accumulate).
        let mut crossing: Vec<Vec<Lit>> = vec![Vec::new(); cut_levels.len()];
        for (i, n) in g.nodes().iter().enumerate() {
            if let Node::And(a, b) = n {
                if !live[i] {
                    continue;
                }
                for x in [a, b] {
                    let src = x.node().0 as usize;
                    if !matches!(g.node(x.node()), Node::And(..)) {
                        continue; // global sources never need publishing
                    }
                    let src_level = node_levels[src];
                    let use_level = node_levels[i];
                    // Boundaries strictly between src_level and use_level.
                    for (bi, &bl) in cut_levels.iter().enumerate() {
                        if src_level <= bl && use_level > bl {
                            crossing[bi].push(Lit::from_node(x.node()));
                        }
                    }
                }
            }
        }
        // A node may cross several boundaries; publish it only at the first
        // one (later segments read the already-published value).
        let mut published = vec![false; g.len()];
        for c in crossing.iter_mut() {
            c.sort_unstable();
            c.dedup();
            c.retain(|l| !published[l.node().0 as usize]);
            for l in c.iter() {
                published[l.node().0 as usize] = true;
            }
        }

        // Segment s covers levels (cut[s-1], cut[s]]; its sinks are the
        // boundary-s crossing signals plus any real sinks whose node level
        // falls inside the segment.
        let real_sinks = g.sinks();
        let seg_upper = |s: usize| -> u32 {
            if s < cut_levels.len() {
                cut_levels[s]
            } else {
                u32::MAX
            }
        };
        let seg_lower = |s: usize| -> u32 {
            if s == 0 {
                0
            } else {
                cut_levels[s - 1]
            }
        };

        // Gate totals per segment for proportional part allocation.
        let mut seg_gates = vec![0usize; nstages];
        for (i, n) in g.nodes().iter().enumerate() {
            if live[i] && matches!(n, Node::And(..)) {
                let l = node_levels[i];
                let s = cut_levels.iter().take_while(|&&b| b < l).count();
                seg_gates[s] += 1;
            }
        }
        let total_gates: usize = seg_gates.iter().sum::<usize>().max(1);

        // Stop sets accumulate: segment s stops at everything published by
        // earlier boundaries.
        let mut stop = vec![false; g.len()];
        let mut segments = Vec::with_capacity(nstages);
        let mut crossing = crossing.into_iter();
        for (s, gates) in seg_gates.into_iter().enumerate() {
            let cut_lits = crossing.next().unwrap_or_default();
            let mut sinks = cut_lits.clone();
            // Real sinks whose driving node lives in this segment.
            for &rs in &real_sinks {
                let l = node_levels[rs.node().0 as usize];
                if l > seg_lower(s) && l <= seg_upper(s) || (s == 0 && l == 0) {
                    sinks.push(rs);
                }
            }
            sinks.sort_unstable();
            sinks.dedup();
            let region = Region {
                sinks,
                stop: stop.clone(),
            };
            // Later segments stop at this boundary's published nodes.
            for l in &cut_lits {
                stop[l.node().0 as usize] = true;
            }
            segments.push(Segment::new(region, cut_lits, gates));
        }
        StagePlan {
            segments,
            total_gates,
        }
    }

    /// Asks `accept` about every segment's whole region
    /// ([`Segment::whole_partition`]) and keeps each one it takes as the
    /// segment's one partition. Returns the payloads, one per segment.
    fn map_whole<T>(
        &mut self,
        g: &Eaig,
        opts: &PartitionOptions,
        width: usize,
        mut accept: impl FnMut(&Partition) -> Option<T>,
    ) -> Vec<Option<T>> {
        let total = self.total_gates;
        self.segments
            .iter_mut()
            .map(|seg| {
                let whole = seg.whole_partition(g, seg.share(opts, total), width)?;
                let payload = accept(&whole)?;
                seg.whole = Some(whole);
                Some(payload)
            })
            .collect()
    }

    /// Partitions every segment into its share of
    /// [`PartitionOptions::target_parts`], except those mapped whole.
    pub(crate) fn partition(
        &mut self,
        g: &Eaig,
        opts: &PartitionOptions,
        counts: &mut PartitionCounts,
    ) -> Vec<Stage> {
        let total = self.total_gates;
        self.segments
            .iter_mut()
            .map(|seg| Stage {
                partitions: match &seg.whole {
                    Some(whole) => vec![whole.clone()],
                    None => seg.split(g, seg.share(opts, total), opts, counts),
                },
                cut_lits: seg.cut_lits.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_aig::Lit;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// A deep circuit with heavy sharing near the inputs: single-stage
    /// partitioning replicates the shared base into every partition, while
    /// a two-stage cut publishes it once.
    fn shared_base_circuit(sinks: usize) -> Eaig {
        let mut g = Eaig::new();
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let inputs: Vec<Lit> = (0..32).map(|i| g.input(format!("i{i}"))).collect();
        // Shared base: a layered random mesh everything depends on.
        let mut layer = inputs.clone();
        for _ in 0..6 {
            let mut next = Vec::new();
            for k in 0..layer.len() {
                let a = layer[k];
                let b = layer[rng.gen_range(0..layer.len())];
                next.push(g.xor(a, b));
            }
            layer = next;
        }
        // Per-sink private towers on top of random base taps.
        for si in 0..sinks {
            let mut cur = layer[rng.gen_range(0..layer.len())];
            for _ in 0..8 {
                let t = layer[rng.gen_range(0..layer.len())];
                cur = g.and(cur, t.flip());
                let e = g.input(format!("p{si}_{}", rng.gen_range(0..1 << 30)));
                cur = g.xor(cur, e);
            }
            let q = g.ff(false);
            g.set_ff_next(q, cur);
            g.output(format!("o{si}"), q);
        }
        g
    }

    #[test]
    fn multistage_reduces_replication() {
        let g = shared_base_circuit(24);
        let opts1 = PartitionOptions {
            target_parts: 12,
            stages: 1,
            ..Default::default()
        };
        let opts2 = PartitionOptions {
            target_parts: 12,
            stages: 2,
            ..Default::default()
        };
        let single = crate::partition(&g, &opts1);
        let multi = crate::partition(&g, &opts2);
        assert!(
            multi.replication_cost() < single.replication_cost(),
            "2-stage {:.3} should beat 1-stage {:.3}",
            multi.replication_cost(),
            single.replication_cost()
        );
    }

    #[test]
    fn all_sinks_covered_exactly_once_across_stages() {
        let g = shared_base_circuit(10);
        let opts = PartitionOptions {
            target_parts: 8,
            stages: 2,
            ..Default::default()
        };
        let p = crate::partition(&g, &opts);
        let mut covered: Vec<Lit> = p
            .stages
            .iter()
            .flat_map(|s| s.partitions.iter().flat_map(|pt| pt.sinks.iter().copied()))
            .collect();
        covered.sort_unstable();
        covered.dedup_by_key(|l| l.node()); // cut lits may duplicate polarity
        let mut expected: Vec<Lit> = g.sinks();
        // Expected = real sinks ∪ cut lits.
        for s in &p.stages {
            expected.extend(s.cut_lits.iter().copied());
        }
        expected.sort_unstable();
        expected.dedup_by_key(|l| l.node());
        let covered_nodes: std::collections::HashSet<u32> =
            covered.iter().map(|l| l.node().0).collect();
        for e in expected {
            assert!(
                covered_nodes.contains(&e.node().0),
                "sink {e} not covered by any partition"
            );
        }
    }

    #[test]
    fn stage2_partitions_stop_at_cut() {
        let g = shared_base_circuit(10);
        let opts = PartitionOptions {
            target_parts: 8,
            stages: 2,
            ..Default::default()
        };
        let p = crate::partition(&g, &opts);
        assert_eq!(p.stages.len(), 2);
        let cut_nodes: std::collections::HashSet<u32> =
            p.stages[0].cut_lits.iter().map(|l| l.node().0).collect();
        for part in &p.stages[1].partitions {
            for n in &part.nodes {
                assert!(
                    !cut_nodes.contains(&n.0),
                    "stage-2 partition recomputes published node n{}",
                    n.0
                );
            }
        }
    }

    #[test]
    fn single_stage_has_no_cut_lits() {
        let g = shared_base_circuit(4);
        let p = crate::partition(&g, &PartitionOptions::default());
        assert_eq!(p.stages.len(), 1);
        assert!(p.stages[0].cut_lits.is_empty());
    }

    /// An oracle that takes every partition, counting its calls.
    fn take_all(calls: &mut usize) -> impl FnMut(&Partition) -> Option<Vec<Lit>> + '_ {
        |p| {
            *calls += 1;
            Some(p.sinks.clone())
        }
    }

    #[test]
    fn a_stage_taken_whole_is_where_merging_its_split_ends() {
        let g = shared_base_circuit(10);
        for stages in [1, 2] {
            let opts = PartitionOptions {
                target_parts: 8,
                stages,
                ..Default::default()
            };
            let mut calls = 0;
            let mut whole = Partitioner::new(&g);
            let p = whole.partition_whole_first(&opts, usize::MAX, take_all(&mut calls));
            assert_eq!(calls, stages, "one question per stage");
            assert_eq!(whole.counts(), PartitionCounts::default(), "nothing split");
            // Merging the split with an oracle that takes everything ends
            // at the same partition, stage by stage.
            let split = crate::partition(&g, &opts);
            let mut stop = vec![false; g.len()];
            for ((ours, theirs), payload) in p.stages.iter().zip(&split.stages).zip(whole.whole()) {
                let region = Region {
                    sinks: theirs
                        .partitions
                        .iter()
                        .flat_map(|q| q.sinks.clone())
                        .collect(),
                    stop: stop.clone(),
                };
                let (merged, _) = crate::merge::merge_partitions(&g, &region, theirs, &|_| true);
                assert_eq!(ours, &merged);
                assert_eq!(payload.as_ref(), Some(&ours.partitions[0].sinks));
                for l in &theirs.cut_lits {
                    stop[l.node().0 as usize] = true;
                }
            }
            assert_eq!(p.replication_cost(), 0.0);
        }
    }

    #[test]
    fn an_unsplit_stage_keeps_its_sinks_in_sink_order() {
        // One part asked for: FM does not split, and the whole stage is
        // the partition it returns, sinks in the graph's order.
        let mut g = shared_base_circuit(6);
        let sinks = g.sinks();
        g.output("again", sinks[0]);
        let opts = PartitionOptions {
            target_parts: 1,
            ..Default::default()
        };
        let mut calls = 0;
        let mut whole = Partitioner::new(&g);
        let p = whole.partition_whole_first(&opts, usize::MAX, take_all(&mut calls));
        assert!(!g.sinks().is_sorted());
        assert_eq!(p, crate::partition(&g, &opts));
    }

    #[test]
    fn a_refused_stage_is_split_as_before_and_asked_once() {
        let g = shared_base_circuit(10);
        let mut calls = 0;
        let mut whole = Partitioner::new(&g);
        let mut split = Partitioner::<()>::new(&g);
        for (target_parts, stages, asked) in [(4, 1, 1), (8, 1, 0), (8, 2, 2), (16, 2, 0)] {
            let opts = PartitionOptions {
                target_parts,
                stages,
                ..Default::default()
            };
            let before = calls;
            let p = whole.partition_whole_first(&opts, usize::MAX, |_| {
                calls += 1;
                None::<()>
            });
            assert_eq!(
                calls - before,
                asked,
                "{target_parts} parts, {stages} stages"
            );
            assert_eq!(p, split.partition(&opts));
            assert!(whole.whole().iter().all(Option::is_none));
        }
        assert_eq!(whole.counts(), split.counts());
        // More sink nodes than the width: refused without asking.
        let mut narrow = Partitioner::new(&g);
        let opts = PartitionOptions::default();
        let p = narrow.partition_whole_first(&opts, g.sinks().len() - 1, |_| -> Option<()> {
            panic!("asked about a stage wider than the core")
        });
        assert_eq!(p, crate::partition(&g, &opts));
    }
}
