//! RepCut-style replication-aided partitioning of one stage.
//!
//! Each sink (flip-flop next-state, RAM port bit, primary output, or
//! stage-boundary signal) becomes a hypergraph vertex. Every AND node
//! contributes a hyperedge connecting the sinks whose fan-in cones contain
//! it; cutting that hyperedge k ways costs k−1 duplicates of the node.
//! Nodes with identical sink sets collapse into one weighted hyperedge.
//! Partitioning the sink hypergraph with a min-cut objective therefore
//! minimizes replicated logic directly.

use crate::hypergraph::{BisectionMemo, Hypergraph};
use crate::{Partition, PartitionCounts, PartitionOptions, BALANCE};
use gem_aig::{Eaig, Lit, Node, NodeId};
use std::collections::HashMap;

/// A sub-circuit to partition: its sinks and the boundary at which cones
/// stop (nodes marked in `stop` are treated as sources).
#[derive(Debug, Clone)]
pub struct Region {
    /// Sink literals (the stage's outputs).
    pub sinks: Vec<Lit>,
    /// Per-node boundary flag: `true` = do not traverse into this node's
    /// fan-in (it is computed by an earlier stage or is a global source).
    pub stop: Vec<bool>,
}

impl Region {
    /// A region covering the whole graph (single-stage partitioning).
    pub fn whole(g: &Eaig) -> Self {
        Region {
            sinks: g.sinks(),
            stop: vec![false; g.len()],
        }
    }
}

/// A region's sink hypergraph with the sinks behind each vertex. It
/// depends on the region and the sink-set cap alone, so a retry that asks
/// the same region for more parts partitions it again without rebuilding
/// it, and takes every bisection it asks for twice from its memo.
#[derive(Debug)]
pub(crate) struct SinkHypergraph {
    /// Sink literals per vertex.
    vertex_lits: Vec<Vec<Lit>>,
    pub(crate) h: Hypergraph,
    memo: BisectionMemo,
}

impl SinkHypergraph {
    /// Builds the sink hypergraph of `region`.
    pub(crate) fn build(
        g: &Eaig,
        region: &Region,
        sink_set_cap: usize,
        counts: &mut PartitionCounts,
    ) -> SinkHypergraph {
        counts.hypergraphs_built += 1;
        // Unique sink vertices by node (several sink literals on one node share
        // a cone and must not be separated), numbered in sink order.
        const NO_VERTEX: u32 = u32::MAX;
        let mut vertex_at: Vec<u32> = vec![NO_VERTEX; g.len()];
        let mut vertex_lits: Vec<Vec<Lit>> = Vec::new();
        for &s in &region.sinks {
            let at = &mut vertex_at[s.node().0 as usize];
            if *at == NO_VERTEX {
                *at = vertex_lits.len() as u32;
                vertex_lits.push(Vec::new());
            }
            vertex_lits[*at as usize].push(s);
        }
        let nv = vertex_lits.len();
        if nv == 0 {
            return SinkHypergraph {
                vertex_lits,
                h: Hypergraph::default(),
                memo: BisectionMemo::default(),
            };
        }

        // Which AND nodes belong to this region (reachable from sinks without
        // crossing the stop boundary)?
        let in_region = region_nodes(g, region);

        // Consumers (fanout AND nodes inside the region), in ascending
        // order, as one CSR table: node `i`'s are
        // `fanout[fanout_at[i]..fanout_at[i + 1]]`.
        let operands = |i: usize| match g.nodes()[i] {
            Node::And(a, b) if in_region[i] => {
                let (a, b) = (a.node().0 as usize, b.node().0 as usize);
                Some((a, (a != b).then_some(b)))
            }
            _ => None,
        };
        let mut fanout_at = vec![0u32; g.len() + 1];
        for i in 0..g.len() {
            if let Some((a, b)) = operands(i) {
                fanout_at[a + 1] += 1;
                if let Some(b) = b {
                    fanout_at[b + 1] += 1;
                }
            }
        }
        for i in 0..g.len() {
            fanout_at[i + 1] += fanout_at[i];
        }
        let mut fanout = vec![0u32; fanout_at[g.len()] as usize];
        let mut next = fanout_at.clone();
        for i in 0..g.len() {
            if let Some((a, b)) = operands(i) {
                for n in std::iter::once(a).chain(b) {
                    fanout[next[n] as usize] = i as u32;
                    next[n] += 1;
                }
            }
        }
        drop(next);

        // Sink sets per node, reverse-topological, with hash-consing.
        // `set_of[node]`: index into `sets`, or SET_UNIVERSAL / SET_NONE.
        const SET_NONE: u32 = u32::MAX;
        const SET_UNIVERSAL: u32 = u32::MAX - 1;
        let mut sets: Vec<Vec<u32>> = Vec::new();
        let mut interner: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut set_of: Vec<u32> = vec![SET_NONE; g.len()];
        let (mut acc, mut union) = (Vec::new(), Vec::new());
        // Reverse topological = descending node id (construction order).
        for i in (0..g.len()).rev() {
            let vertex = vertex_at[i];
            if !in_region[i] && vertex == NO_VERTEX {
                continue;
            }
            let fans = &fanout[fanout_at[i] as usize..fanout_at[i + 1] as usize];
            // A node that is no sink and all of whose consumers with a set
            // carry one and the same set carries that set: no union, no
            // lookup.
            if vertex == NO_VERTEX {
                let mut ids = (fans.iter().map(|&f| set_of[f as usize])).filter(|&s| s != SET_NONE);
                if let Some(first) = ids.next() {
                    if first != SET_UNIVERSAL && ids.all(|sid| sid == first) {
                        set_of[i] = first;
                        continue;
                    }
                }
            }
            acc.clear();
            if vertex != NO_VERTEX {
                acc.push(vertex);
            }
            let mut universal = false;
            for &f in fans {
                match set_of[f as usize] {
                    SET_NONE => {}
                    SET_UNIVERSAL => {
                        universal = true;
                        break;
                    }
                    sid => {
                        sorted_union_into(&acc, &sets[sid as usize], &mut union);
                        std::mem::swap(&mut acc, &mut union);
                        if acc.len() > sink_set_cap {
                            universal = true;
                            break;
                        }
                    }
                }
            }
            set_of[i] = if universal {
                SET_UNIVERSAL
            } else if acc.is_empty() {
                SET_NONE
            } else if let Some(&id) = interner.get(&acc[..]) {
                id
            } else {
                let id = sets.len() as u32;
                interner.insert(acc.clone(), id);
                sets.push(acc.clone());
                id
            };
        }
        drop((fanout, fanout_at));

        // Vertex weights: 1 + number of AND nodes exclusive to the sink.
        let mut weights = vec![1u64; nv];
        // Hyperedge weights: count of AND nodes per distinct (multi-sink) set.
        let mut edge_count: HashMap<u32, u64> = HashMap::new();
        for (i, n) in g.nodes().iter().enumerate() {
            if !in_region[i] || !matches!(n, Node::And(..)) {
                continue;
            }
            match set_of[i] {
                SET_NONE | SET_UNIVERSAL => {}
                sid => {
                    let s = &sets[sid as usize];
                    if s.len() == 1 {
                        weights[s[0] as usize] += 1;
                    } else {
                        *edge_count.entry(sid).or_insert(0) += 1;
                    }
                }
            }
        }
        let mut h = Hypergraph::new(weights);
        let mut edges: Vec<(u32, u64)> = edge_count.into_iter().collect();
        edges.sort_unstable(); // deterministic hyperedge order
        for (sid, w) in edges {
            h.add_edge(w, sets[sid as usize].clone());
        }
        SinkHypergraph {
            vertex_lits,
            h,
            memo: BisectionMemo::default(),
        }
    }

    /// Partitions the region this was built from into (at most) `parts`
    /// partitions.
    pub(crate) fn partition(
        &mut self,
        g: &Eaig,
        region: &Region,
        parts: usize,
        opts: &PartitionOptions,
        counts: &mut PartitionCounts,
    ) -> Vec<Partition> {
        let nv = self.vertex_lits.len();
        if nv == 0 {
            return Vec::new();
        }
        let parts = parts.min(nv).max(1);
        let assignment =
            self.h
                .partition_kway_memo(parts, BALANCE, opts.seed, &mut self.memo, counts);

        // Materialize partitions: per part, collect sinks and the cone.
        let mut part_sinks: Vec<Vec<Lit>> = vec![Vec::new(); parts];
        for (vid, lits) in self.vertex_lits.iter().enumerate() {
            part_sinks[assignment[vid] as usize].extend(lits.iter().copied());
        }
        part_sinks
            .into_iter()
            .filter(|s| !s.is_empty())
            .map(|sinks| extract_cone(g, region, &sinks))
            .collect()
    }
}

/// Marks the AND nodes belonging to a region (reachable backward from the
/// sinks, not crossing the stop boundary).
pub fn region_nodes(g: &Eaig, region: &Region) -> Vec<bool> {
    let mut mark = vec![false; g.len()];
    let mut stack: Vec<NodeId> = region
        .sinks
        .iter()
        .map(|l| l.node())
        .filter(|n| !region.stop[n.0 as usize])
        .collect();
    while let Some(n) = stack.pop() {
        let i = n.0 as usize;
        if mark[i] {
            continue;
        }
        if !matches!(g.node(n), Node::And(..)) {
            continue;
        }
        mark[i] = true;
        if let Node::And(a, b) = g.node(n) {
            for x in [a.node(), b.node()] {
                if !region.stop[x.0 as usize] && !mark[x.0 as usize] {
                    stack.push(x);
                }
            }
        }
    }
    mark
}

/// Builds a [`Partition`] as the full fan-in cone of `sinks`, stopping at
/// the region boundary.
pub fn extract_cone(g: &Eaig, region: &Region, sinks: &[Lit]) -> Partition {
    let mut in_cone = vec![false; g.len()];
    let mut sources = Vec::new();
    let mut src_seen = vec![false; g.len()];
    let mut stack: Vec<NodeId> = sinks.iter().map(|l| l.node()).collect();
    let mut nodes = Vec::new();
    while let Some(n) = stack.pop() {
        let i = n.0 as usize;
        if in_cone[i] || src_seen[i] {
            continue;
        }
        let is_and = matches!(g.node(n), Node::And(..));
        if region.stop[i] || !is_and {
            // Boundary or global source.
            if !src_seen[i] {
                src_seen[i] = true;
                sources.push(n);
            }
            continue;
        }
        in_cone[i] = true;
        nodes.push(n);
        if let Node::And(a, b) = g.node(n) {
            stack.push(a.node());
            stack.push(b.node());
        }
    }
    nodes.sort_unstable();
    sources.sort_unstable();
    Partition {
        sinks: sinks.to_vec(),
        nodes,
        sources,
    }
}

/// The union of two ascending lists without duplicates, ascending.
pub(crate) fn sorted_union<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
    let mut union = Vec::with_capacity(a.len() + b.len());
    sorted_union_into(a, b, &mut union);
    union
}

/// [`sorted_union`] into `union`, which is cleared first.
fn sorted_union_into<T: Ord + Copy>(a: &[T], b: &[T], union: &mut Vec<T>) {
    union.clear();
    let (mut x, mut y) = (0, 0);
    while x < a.len() && y < b.len() {
        match a[x].cmp(&b[y]) {
            std::cmp::Ordering::Less => {
                union.push(a[x]);
                x += 1;
            }
            std::cmp::Ordering::Greater => {
                union.push(b[y]);
                y += 1;
            }
            std::cmp::Ordering::Equal => {
                union.push(a[x]);
                x += 1;
                y += 1;
            }
        }
    }
    union.extend_from_slice(&a[x..]);
    union.extend_from_slice(&b[y..]);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{PartitionOptions, SINK_SET_CAP};

    /// Partitions a region into (at most) `parts` partitions, through a
    /// sink hypergraph of its own.
    pub(crate) fn partition_region(
        g: &Eaig,
        region: &Region,
        parts: usize,
        opts: &PartitionOptions,
    ) -> Vec<Partition> {
        let mut counts = PartitionCounts::default();
        SinkHypergraph::build(g, region, SINK_SET_CAP, &mut counts).partition(
            g,
            region,
            parts,
            opts,
            &mut counts,
        )
    }

    /// `n` independent XOR-accumulator chains — perfectly partitionable.
    fn independent_chains(n: usize, depth: usize) -> Eaig {
        let mut g = Eaig::new();
        for c in 0..n {
            let mut cur = g.input(format!("i{c}"));
            let extra: Vec<Lit> = (0..depth).map(|k| g.input(format!("x{c}_{k}"))).collect();
            for e in extra {
                cur = g.xor(cur, e);
            }
            let q = g.ff(false);
            let nx = g.xor(q, cur);
            g.set_ff_next(q, nx);
            g.output(format!("o{c}"), q);
        }
        g
    }

    #[test]
    fn independent_logic_partitions_without_replication() {
        let g = independent_chains(8, 6);
        let region = Region::whole(&g);
        let parts = partition_region(&g, &region, 4, &PartitionOptions::default());
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(|p| p.size()).sum();
        assert_eq!(total, g.num_live_ands(), "no node should be duplicated");
    }

    #[test]
    fn shared_logic_gets_replicated() {
        let mut g = Eaig::new();
        // One shared cone feeding two sinks.
        let a = g.input("a");
        let b = g.input("b");
        let shared = g.xor(a, b); // 3 gates
        for i in 0..2 {
            let extra = g.input(format!("e{i}"));
            let s = g.and(shared, extra);
            g.output(format!("o{i}"), s);
        }
        let region = Region::whole(&g);
        let parts = partition_region(&g, &region, 2, &PartitionOptions::default());
        assert_eq!(parts.len(), 2);
        let total: usize = parts.iter().map(|p| p.size()).sum();
        // 3 shared gates duplicated + 2 private = 3*2 + 2.
        assert_eq!(total, 8);
    }

    #[test]
    fn cone_extraction_stops_at_sources() {
        let mut g = Eaig::new();
        let a = g.input("a");
        let q = g.ff(false);
        let x = g.and(a, q);
        g.set_ff_next(q, x);
        g.output("o", x);
        let region = Region::whole(&g);
        let p = extract_cone(&g, &region, &[x]);
        assert_eq!(p.nodes.len(), 1);
        assert_eq!(p.sources.len(), 2); // input a + ff out
    }

    #[test]
    fn stop_boundary_respected() {
        let mut g = Eaig::new();
        let a = g.input("a");
        let b = g.input("b");
        let mid = g.and(a, b);
        let c = g.input("c");
        let top = g.and(mid, c);
        g.output("o", top);
        let mut region = Region::whole(&g);
        region.stop[mid.node().0 as usize] = true;
        let p = extract_cone(&g, &region, &[top]);
        assert_eq!(p.nodes, vec![top.node()]);
        assert!(p.sources.contains(&mid.node()));
    }

    #[test]
    fn more_parts_than_sinks_collapses() {
        let g = independent_chains(2, 1);
        let region = Region::whole(&g);
        let parts = partition_region(&g, &region, 16, &PartitionOptions::default());
        assert!(parts.len() <= 4, "got {} parts", parts.len());
        // All sinks still covered exactly once.
        let covered: usize = parts.iter().map(|p| p.sinks.len()).sum();
        assert_eq!(covered, g.sinks().len());
    }

    #[test]
    fn sink_set_cap_does_not_break_partitioning() {
        let g = independent_chains(6, 4);
        let region = Region::whole(&g);
        let counts = &mut PartitionCounts::default();
        // A cap of 1 forces universal classification aggressively.
        let parts = SinkHypergraph::build(&g, &region, 1, counts).partition(
            &g,
            &region,
            3,
            &PartitionOptions::default(),
            counts,
        );
        let covered: usize = parts.iter().map(|p| p.sinks.len()).sum();
        assert_eq!(covered, g.sinks().len());
    }
}
