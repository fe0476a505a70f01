//! A from-scratch hypergraph partitioner (Fiduccia–Mattheyses bisection
//! with recursive k-way splitting).
//!
//! The paper reuses RepCut's formulation, which in turn drives a standard
//! hypergraph partitioner; since no external partitioner is available
//! here, this module implements one. Quality does not need to be
//! state-of-the-art — replication cost trends (Fig 5) dominate the story —
//! but cut sizes should be sane, so FM runs with balance constraints and
//! multiple random restarts, and keeps its gains in an indexed max-heap
//! (`GainHeap`: one entry per vertex that may still move).

use crate::PartitionCounts;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// A hypergraph with weighted vertices and weighted hyperedges.
#[derive(Debug, Clone, Default)]
pub struct Hypergraph {
    /// Vertex weights.
    pub vertex_weights: Vec<u64>,
    /// Hyperedges: (weight, pin list). Pins are vertex indexes.
    pub edges: Vec<(u64, Vec<u32>)>,
    /// For each vertex, the edges it pins.
    incidence: Vec<Vec<u32>>,
}

/// Bisections already computed on one hypergraph, keyed by everything a
/// bisection depends on: the vertex subset, the target fraction, the
/// balance and the seed. A k-way split and a 2k-way split of the same
/// hypergraph (k even) bisect the whole vertex set at 0.5 with the same
/// seed, so the second asks for a side vector the first already has.
#[derive(Debug, Default)]
pub(crate) struct BisectionMemo {
    /// `(frac bits, balance bits, seed, vertex subset)` → sides.
    sides: HashMap<(u64, u64, u64, Vec<u32>), Vec<bool>>,
}

/// FM's gain structure: an indexed max-heap holding at most one entry per
/// vertex, keyed `(gain, vertex)` — the largest gain pops first, the
/// highest vertex id among equal gains.
#[derive(Debug, Default)]
struct GainHeap {
    /// Heap-ordered `(gain, vertex)` keys.
    keys: Vec<(i64, u32)>,
    /// Each vertex's index in `keys`, or [`GainHeap::OUT`].
    pos: Vec<u32>,
}

impl GainHeap {
    const OUT: u32 = u32::MAX;

    /// Refills the heap with every vertex at its gain.
    fn fill(&mut self, gain: &[i64]) {
        self.keys.clear();
        self.keys
            .extend(gain.iter().enumerate().map(|(v, &g)| (g, v as u32)));
        self.pos.clear();
        self.pos.extend(0..gain.len() as u32);
        for i in (0..self.keys.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    /// Removes and returns the vertex with the largest `(gain, vertex)`.
    fn pop(&mut self) -> Option<u32> {
        let top = self.keys.first()?.1;
        let last = self.keys.pop().expect("non-empty");
        self.pos[top as usize] = Self::OUT;
        if !self.keys.is_empty() {
            self.keys[0] = last;
            self.pos[last.1 as usize] = 0;
            self.sift_down(0);
        }
        Some(top)
    }

    /// Sets `v`'s gain, inserting it if it is out of the heap.
    fn set(&mut self, v: u32, gain: i64) {
        let i = self.pos[v as usize];
        if i == Self::OUT {
            self.keys.push((gain, v));
            self.sift_up(self.keys.len() - 1);
        } else {
            let i = i as usize;
            let old = std::mem::replace(&mut self.keys[i].0, gain);
            if gain > old {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let key = self.keys[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.keys[parent] >= key {
                break;
            }
            self.keys[i] = self.keys[parent];
            self.pos[self.keys[i].1 as usize] = i as u32;
            i = parent;
        }
        self.keys[i] = key;
        self.pos[key.1 as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let key = self.keys[i];
        let n = self.keys.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && self.keys[child + 1] > self.keys[child] {
                child += 1;
            }
            if self.keys[child] <= key {
                break;
            }
            self.keys[i] = self.keys[child];
            self.pos[self.keys[i].1 as usize] = i as u32;
            i = child;
        }
        self.keys[i] = key;
        self.pos[key.1 as usize] = i as u32;
    }
}

/// An edge's pins on each side of a bisection: how many, and the XOR of
/// their ids — which is the pin itself when there is one.
#[derive(Debug, Clone, Copy, Default)]
struct SidePins {
    count: [u32; 2],
    xor: [u32; 2],
}

impl Hypergraph {
    /// Creates a hypergraph with `n` vertices of the given weights.
    pub fn new(vertex_weights: Vec<u64>) -> Self {
        let n = vertex_weights.len();
        Hypergraph {
            vertex_weights,
            edges: Vec::new(),
            incidence: vec![Vec::new(); n],
        }
    }

    /// Adds a hyperedge over `pins` with the given weight. Single-pin and
    /// empty edges are ignored (they can never be cut).
    pub fn add_edge(&mut self, weight: u64, pins: Vec<u32>) {
        if pins.len() < 2 {
            return;
        }
        let id = self.edges.len() as u32;
        for &p in &pins {
            self.incidence[p as usize].push(id);
        }
        self.edges.push((weight, pins));
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertex_weights.len()
    }

    /// True if there are no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertex_weights.is_empty()
    }

    /// Total vertex weight.
    pub fn total_weight(&self) -> u64 {
        self.vertex_weights.iter().sum()
    }

    /// Weighted cut of a bisection (`side[v]` ∈ {false, true}).
    pub fn cut(&self, side: &[bool]) -> u64 {
        self.edges
            .iter()
            .filter(|(_, pins)| {
                let first = side[pins[0] as usize];
                pins.iter().any(|&p| side[p as usize] != first)
            })
            .map(|(w, _)| *w)
            .sum()
    }

    /// Bisects the vertices targeting `target_frac` of the weight on side
    /// `false`, within ± `balance` of the total. Returns the side
    /// assignment. Runs FM from several random initial solutions and keeps
    /// the best.
    pub fn bisect(&self, target_frac: f64, balance: f64, seed: u64) -> Vec<bool> {
        self.bisect_with(target_frac, seed, |h, side| {
            h.fm_refine(side, target_frac, balance, &mut 0)
        })
    }

    /// [`Hypergraph::bisect`] with the refinement supplied: `refine`
    /// improves a side vector in place and returns its cut.
    fn bisect_with(
        &self,
        target_frac: f64,
        seed: u64,
        mut refine: impl FnMut(&Hypergraph, &mut [bool]) -> u64,
    ) -> Vec<bool> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut best: Option<(u64, Vec<bool>)> = None;
        let restarts = if self.len() > 20_000 { 2 } else { 4 };
        for _ in 0..restarts {
            let mut side = self.initial_split(target_frac, &mut rng);
            let cut = refine(self, &mut side);
            if best.as_ref().is_none_or(|(c, _)| cut < *c) {
                best = Some((cut, side));
            }
        }
        best.expect("at least one restart").1
    }

    /// Greedy BFS growth from a random seed until the target weight is
    /// reached; unreached vertices go to side `true`.
    fn initial_split(&self, target_frac: f64, rng: &mut ChaCha8Rng) -> Vec<bool> {
        let n = self.len();
        let total = self.total_weight();
        let target = (total as f64 * target_frac) as u64;
        let mut side = vec![true; n];
        let mut weight = 0u64;
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(rng);
        let mut queue = std::collections::VecDeque::new();
        let mut seen = vec![false; n];
        // An edge scanned once has every pin seen: scanning it again
        // would find nothing.
        let mut scanned = vec![false; self.edges.len()];
        let mut oi = 0;
        while weight < target && oi < n {
            // Find an unseen seed.
            while oi < n && seen[order[oi] as usize] {
                oi += 1;
            }
            if oi >= n {
                break;
            }
            queue.push_back(order[oi]);
            seen[order[oi] as usize] = true;
            while let Some(v) = queue.pop_front() {
                if weight >= target {
                    break;
                }
                let wv = self.vertex_weights[v as usize];
                if weight > 0 && weight + wv > target + (target / 10) {
                    continue; // would badly overshoot; leave on the other side
                }
                side[v as usize] = false;
                weight += wv;
                for &e in &self.incidence[v as usize] {
                    if std::mem::replace(&mut scanned[e as usize], true) {
                        continue;
                    }
                    for &u in &self.edges[e as usize].1 {
                        if !seen[u as usize] {
                            seen[u as usize] = true;
                            queue.push_back(u);
                        }
                    }
                }
            }
        }
        side
    }

    /// Each edge's pins on each side under `side`.
    fn side_pins(&self, side: &[bool]) -> Vec<SidePins> {
        self.edges
            .iter()
            .map(|(_, pins)| {
                let mut sp = SidePins::default();
                for &p in pins {
                    let s = side[p as usize] as usize;
                    sp.count[s] += 1;
                    sp.xor[s] ^= p;
                }
                sp
            })
            .collect()
    }

    /// Initial FM gain of every vertex under `sp`.
    fn initial_gains(&self, side: &[bool], sp: &[SidePins]) -> Vec<i64> {
        let mut gain = vec![0i64; self.len()];
        for ((w, pins), sp) in self.edges.iter().zip(sp) {
            for &p in pins {
                let from = side[p as usize] as usize;
                let to = 1 - from;
                if sp.count[from] == 1 {
                    gain[p as usize] += *w as i64;
                }
                if sp.count[to] == 0 {
                    gain[p as usize] -= *w as i64;
                }
            }
        }
        gain
    }

    /// One-sided FM refinement (a few passes). Returns the final cut and
    /// adds the number of gain changes it applied to `updates`.
    ///
    /// Each pass moves the unlocked vertex with the largest
    /// `(gain, vertex)` whose move keeps the balance. A vertex refused for
    /// balance leaves the heap until its gain next changes; a move re-keys
    /// (or re-inserts) each unlocked pin whose gain it changed, once, after
    /// all of its edges are counted.
    fn fm_refine(
        &self,
        side: &mut [bool],
        target_frac: f64,
        balance: f64,
        updates: &mut u64,
    ) -> u64 {
        let n = self.len();
        let total = self.total_weight() as f64;
        let target_a = total * target_frac;
        let slack = total * balance + 1.0;
        let mut cur_cut = self.cut(side) as i64;
        let mut heap = GainHeap::default();
        let mut touched: Vec<u32> = Vec::new();
        let mut is_touched = vec![false; n];
        let mut changes = 0u64;
        for _pass in 0..3 {
            let mut sp = self.side_pins(side);
            let mut gain = self.initial_gains(side, &sp);
            let mut locked = vec![false; n];
            heap.fill(&gain);
            let mut weight_a: f64 = (0..n)
                .filter(|&v| !side[v])
                .map(|v| self.vertex_weights[v] as f64)
                .sum();
            // Sequence of tentative moves; remember best prefix.
            let mut moves: Vec<u32> = Vec::new();
            let mut cut_now = cur_cut;
            let mut best_cut = cur_cut;
            let mut best_len = 0usize;
            let mut best_dev = (weight_a - target_a).abs();
            while let Some(v) = heap.pop() {
                let v_us = v as usize;
                let w = self.vertex_weights[v_us] as f64;
                let new_weight_a = if side[v_us] {
                    weight_a + w
                } else {
                    weight_a - w
                };
                if (new_weight_a - target_a).abs() > slack {
                    continue; // would break balance; out until touched
                }
                // Commit tentative move.
                locked[v_us] = true;
                let from = side[v_us] as usize;
                let to = 1 - from;
                cut_now -= gain[v_us];
                let mut touch = |u: u32, delta: i64| {
                    if locked[u as usize] {
                        return;
                    }
                    gain[u as usize] += delta;
                    changes += 1;
                    if !is_touched[u as usize] {
                        is_touched[u as usize] = true;
                        touched.push(u);
                    }
                };
                // Standard FM gain updates. An edge with one pin on a side
                // names it in `xor`: that pin's gain is the one that moves.
                for &e in &self.incidence[v_us] {
                    let (w_e, pins) = &self.edges[e as usize];
                    let w_e = *w_e as i64;
                    let c = &mut sp[e as usize];
                    match c.count[to] {
                        0 => pins.iter().for_each(|&u| touch(u, w_e)),
                        1 => touch(c.xor[to], -w_e),
                        _ => {}
                    }
                    c.count[from] -= 1;
                    c.count[to] += 1;
                    c.xor[from] ^= v;
                    c.xor[to] ^= v;
                    match c.count[from] {
                        0 => pins.iter().for_each(|&u| touch(u, -w_e)),
                        1 => touch(c.xor[from], w_e),
                        _ => {}
                    }
                }
                for u in touched.drain(..) {
                    is_touched[u as usize] = false;
                    heap.set(u, gain[u as usize]);
                }
                side[v_us] = !side[v_us];
                weight_a = new_weight_a;
                moves.push(v);
                let dev = (weight_a - target_a).abs();
                if cut_now < best_cut || (cut_now == best_cut && dev < best_dev) {
                    best_cut = cut_now;
                    best_len = moves.len();
                    best_dev = dev;
                }
            }
            // Roll back past the best prefix.
            for &v in &moves[best_len..] {
                side[v as usize] = !side[v as usize];
            }
            if best_cut >= cur_cut {
                cur_cut = best_cut;
                break; // no improvement this pass
            }
            cur_cut = best_cut;
        }
        *updates += changes;
        cur_cut.max(0) as u64
    }

    /// Recursive bisection into `k` parts; returns a part id per vertex.
    /// Takes each bisection from `memo` when it is there and records it
    /// there when it is not.
    pub(crate) fn partition_kway_memo(
        &self,
        k: usize,
        balance: f64,
        seed: u64,
        memo: &mut BisectionMemo,
        counts: &mut PartitionCounts,
    ) -> Vec<u32> {
        self.kway_by(k, seed, |verts, frac, s| {
            let key = (frac.to_bits(), balance.to_bits(), s, verts.to_vec());
            if let Some(side) = memo.sides.get(&key) {
                counts.bisections_reused += 1;
                return side.clone();
            }
            counts.bisections += 1;
            let side = self.subgraph(verts).bisect_with(frac, s, |h, side| {
                h.fm_refine(side, frac, balance, &mut counts.fm_gain_updates)
            });
            memo.sides.insert(key, side.clone());
            side
        })
    }

    /// The recursion of [`Hypergraph::partition_kway_memo`] with the
    /// bisection supplied: `bisect(verts, frac, seed)` returns the side of
    /// each of `verts` in a bisection of the subgraph they induce.
    fn kway_by(
        &self,
        k: usize,
        seed: u64,
        mut bisect: impl FnMut(&[u32], f64, u64) -> Vec<bool>,
    ) -> Vec<u32> {
        let n = self.len();
        let mut assignment = vec![0u32; n];
        if k <= 1 || n == 0 {
            return assignment;
        }
        // Work queue of (vertex subset, part id range).
        let mut work: Vec<(Vec<u32>, usize, usize, u64)> =
            vec![((0..n as u32).collect(), 0, k, seed)];
        while let Some((verts, part_lo, parts, s)) = work.pop() {
            if parts == 1 || verts.len() <= 1 {
                for &v in &verts {
                    assignment[v as usize] = part_lo as u32;
                }
                if verts.len() > 1 && parts > 1 {
                    // Degenerate: spread single-vertex leftovers round-robin.
                    for (i, &v) in verts.iter().enumerate() {
                        assignment[v as usize] = (part_lo + i % parts) as u32;
                    }
                }
                continue;
            }
            let left_parts = parts / 2;
            let frac = left_parts as f64 / parts as f64;
            let side = bisect(&verts, frac, s);
            let mut left = Vec::new();
            let mut right = Vec::new();
            for (i, &v) in verts.iter().enumerate() {
                if !side[i] {
                    left.push(v);
                } else {
                    right.push(v);
                }
            }
            // Guard against empty halves (tiny inputs): fall back to a
            // round-robin split.
            if left.is_empty() || right.is_empty() {
                left.clear();
                right.clear();
                for (i, &v) in verts.iter().enumerate() {
                    if i % 2 == 0 {
                        left.push(v)
                    } else {
                        right.push(v)
                    }
                }
            }
            work.push((
                left,
                part_lo,
                left_parts,
                s.wrapping_mul(0x9E3779B97F4A7C15),
            ));
            work.push((
                right,
                part_lo + left_parts,
                parts - left_parts,
                s.wrapping_add(0x9E3779B97F4A7C15),
            ));
        }
        assignment
    }

    /// Induced subgraph over `verts` (edges restricted to kept pins).
    fn subgraph(&self, verts: &[u32]) -> Hypergraph {
        let mut remap = vec![u32::MAX; self.len()];
        for (i, &v) in verts.iter().enumerate() {
            remap[v as usize] = i as u32;
        }
        let mut sub = Hypergraph::new(
            verts
                .iter()
                .map(|&v| self.vertex_weights[v as usize])
                .collect(),
        );
        for (w, pins) in &self.edges {
            let kept: Vec<u32> = pins
                .iter()
                .filter_map(|&p| {
                    let r = remap[p as usize];
                    (r != u32::MAX).then_some(r)
                })
                .collect();
            sub.add_edge(*w, kept);
        }
        sub
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    impl Hypergraph {
        /// [`Hypergraph::partition_kway_memo`] with a memo of its own.
        fn partition_kway(&self, k: usize, balance: f64, seed: u64) -> Vec<u32> {
            let mut memo = BisectionMemo::default();
            let mut counts = PartitionCounts::default();
            self.partition_kway_memo(k, balance, seed, &mut memo, &mut counts)
        }
    }

    /// Two 10-vertex cliques joined by one light edge: the obvious
    /// bisection cuts only the bridge.
    fn two_cliques() -> Hypergraph {
        let mut h = Hypergraph::new(vec![1; 20]);
        for c in 0..2u32 {
            let base = c * 10;
            for i in 0..10 {
                for j in (i + 1)..10 {
                    h.add_edge(10, vec![base + i, base + j]);
                }
            }
        }
        h.add_edge(1, vec![0, 10]);
        h
    }

    #[test]
    fn bisect_finds_the_bridge() {
        let h = two_cliques();
        let side = h.bisect(0.5, 0.1, 42);
        assert_eq!(h.cut(&side), 1);
        let a = side.iter().filter(|&&s| !s).count();
        assert_eq!(a, 10);
    }

    #[test]
    fn kway_respects_part_count() {
        let h = two_cliques();
        let parts = h.partition_kway(4, 0.2, 7);
        let distinct: std::collections::HashSet<u32> = parts.iter().copied().collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn cut_metric() {
        let mut h = Hypergraph::new(vec![1; 4]);
        h.add_edge(5, vec![0, 1]);
        h.add_edge(3, vec![2, 3]);
        h.add_edge(7, vec![1, 2]);
        let side = vec![false, false, true, true];
        assert_eq!(h.cut(&side), 7);
    }

    #[test]
    fn balance_respected() {
        // 100 vertices, no edges: bisection must still split by weight.
        let h = Hypergraph::new(vec![1; 100]);
        let side = h.bisect(0.5, 0.05, 3);
        let a = side.iter().filter(|&&s| !s).count();
        assert!((45..=55).contains(&a), "split {a}/100 out of balance");
    }

    #[test]
    fn weighted_vertices_balance_by_weight() {
        // One heavy vertex (weight 50) + 50 light: the heavy one should sit
        // alone-ish on its side.
        let mut w = vec![1u64; 50];
        w.push(50);
        let h = Hypergraph::new(w);
        let side = h.bisect(0.5, 0.1, 9);
        let heavy_side = side[50];
        let same: u64 = (0..50).filter(|&v| side[v] == heavy_side).count() as u64;
        assert!(same <= 10, "heavy vertex grouped with {same} light ones");
    }

    #[test]
    fn single_pin_edges_ignored() {
        let mut h = Hypergraph::new(vec![1; 3]);
        h.add_edge(5, vec![1]);
        h.add_edge(5, vec![]);
        assert_eq!(h.edges.len(), 0);
    }

    #[test]
    fn empty_and_k1() {
        let h = Hypergraph::new(vec![]);
        assert!(h.is_empty());
        assert!(h.partition_kway(4, 0.1, 0).is_empty());
        let h2 = Hypergraph::new(vec![1, 1]);
        assert_eq!(h2.partition_kway(1, 0.1, 0), vec![0, 0]);
    }

    #[test]
    fn a_memo_hit_is_the_bisection_it_replaces() {
        // 8 and 16 parts both bisect the whole set at 0.5 with one seed,
        // and so do their halves down to the 8-way leaves.
        let h = random_hypergraph(&mut ChaCha8Rng::seed_from_u64(5), 64);
        let mut memo = BisectionMemo::default();
        let mut counts = PartitionCounts::default();
        let eight = h.partition_kway_memo(8, 0.1, 3, &mut memo, &mut counts);
        assert_eq!((counts.bisections, counts.bisections_reused), (7, 0));
        assert!(counts.fm_gain_updates > 0);
        let sixteen = h.partition_kway_memo(16, 0.1, 3, &mut memo, &mut counts);
        let mut fresh = PartitionCounts::default();
        h.partition_kway_memo(16, 0.1, 3, &mut BisectionMemo::default(), &mut fresh);
        // Both calls together computed what 16 parts alone compute.
        assert_eq!(counts.bisections_reused, 7);
        assert_eq!(counts.bisections, fresh.bisections);
        assert_eq!(eight, h.partition_kway(8, 0.1, 3));
        assert_eq!(sixteen, h.partition_kway(16, 0.1, 3));
        // Another balance is another bisection.
        h.partition_kway_memo(8, 0.2, 3, &mut memo, &mut counts);
        assert_eq!(counts.bisections_reused, 7);
    }

    /// FM as it was with a lazy `BinaryHeap`: one entry pushed per gain
    /// change, stale and locked entries skipped when popped.
    fn fm_refine_lazy_heap(
        h: &Hypergraph,
        side: &mut [bool],
        target_frac: f64,
        balance: f64,
    ) -> u64 {
        let n = h.len();
        let total = h.total_weight() as f64;
        let target_a = total * target_frac;
        let slack = total * balance + 1.0;
        let mut cur_cut = h.cut(side) as i64;
        for _pass in 0..3 {
            let mut cnt: Vec<[u32; 2]> = h
                .edges
                .iter()
                .map(|(_, pins)| {
                    let a = pins.iter().filter(|&&p| !side[p as usize]).count() as u32;
                    [a, pins.len() as u32 - a]
                })
                .collect();
            let mut gain = vec![0i64; n];
            for (ei, (w, pins)) in h.edges.iter().enumerate() {
                for &p in pins {
                    let from = side[p as usize] as usize;
                    let to = 1 - from;
                    if cnt[ei][from] == 1 {
                        gain[p as usize] += *w as i64;
                    }
                    if cnt[ei][to] == 0 {
                        gain[p as usize] -= *w as i64;
                    }
                }
            }
            let mut locked = vec![false; n];
            let mut heap: std::collections::BinaryHeap<(i64, u32)> =
                (0..n as u32).map(|v| (gain[v as usize], v)).collect();
            let mut weight_a: f64 = (0..n)
                .filter(|&v| !side[v])
                .map(|v| h.vertex_weights[v] as f64)
                .sum();
            let mut moves: Vec<u32> = Vec::new();
            let mut cut_now = cur_cut;
            let mut best_cut = cur_cut;
            let mut best_len = 0usize;
            let mut best_dev = (weight_a - target_a).abs();
            while let Some((g0, v)) = heap.pop() {
                let v_us = v as usize;
                if locked[v_us] || g0 != gain[v_us] {
                    continue; // stale heap entry
                }
                let w = h.vertex_weights[v_us] as f64;
                let new_weight_a = if side[v_us] {
                    weight_a + w
                } else {
                    weight_a - w
                };
                if (new_weight_a - target_a).abs() > slack {
                    continue; // would break balance; leave locked out this pass
                }
                locked[v_us] = true;
                let from = side[v_us] as usize;
                let to = 1 - from;
                cut_now -= gain[v_us];
                for &e in &h.incidence[v_us] {
                    let (w_e, pins) = &h.edges[e as usize];
                    let w_e = *w_e as i64;
                    if cnt[e as usize][to] == 0 {
                        for &u in pins {
                            if !locked[u as usize] {
                                gain[u as usize] += w_e;
                                heap.push((gain[u as usize], u));
                            }
                        }
                    } else if cnt[e as usize][to] == 1 {
                        for &u in pins {
                            if !locked[u as usize] && side[u as usize] == (to == 1) {
                                gain[u as usize] -= w_e;
                                heap.push((gain[u as usize], u));
                            }
                        }
                    }
                    cnt[e as usize][from] -= 1;
                    cnt[e as usize][to] += 1;
                    if cnt[e as usize][from] == 0 {
                        for &u in pins {
                            if !locked[u as usize] {
                                gain[u as usize] -= w_e;
                                heap.push((gain[u as usize], u));
                            }
                        }
                    } else if cnt[e as usize][from] == 1 {
                        for &u in pins {
                            if !locked[u as usize] && side[u as usize] == (from == 1) {
                                gain[u as usize] += w_e;
                                heap.push((gain[u as usize], u));
                            }
                        }
                    }
                }
                side[v_us] = !side[v_us];
                weight_a = new_weight_a;
                moves.push(v);
                let dev = (weight_a - target_a).abs();
                if cut_now < best_cut || (cut_now == best_cut && dev < best_dev) {
                    best_cut = cut_now;
                    best_len = moves.len();
                    best_dev = dev;
                }
            }
            for &v in &moves[best_len..] {
                side[v as usize] = !side[v as usize];
            }
            if best_cut >= cur_cut {
                cur_cut = best_cut;
                break;
            }
            cur_cut = best_cut;
        }
        cur_cut.max(0) as u64
    }

    /// Every bisection `k` parts of `h` need, refined by both FMs from the
    /// same initial splits: the sides and the cuts must agree. Returns the
    /// number of FM runs compared.
    fn assert_fm_matches_reference(h: &Hypergraph, k: usize, balance: f64, seed: u64) -> usize {
        let mut runs = 0;
        h.kway_by(k, seed, |verts, frac, s| {
            h.subgraph(verts).bisect_with(frac, s, |sub, side| {
                let mut reference = side.to_vec();
                let want = fm_refine_lazy_heap(sub, &mut reference, frac, balance);
                let got = sub.fm_refine(side, frac, balance, &mut 0);
                assert_eq!(
                    (got, &*side),
                    (want, &reference[..]),
                    "k {k}, frac {frac}, seed {s}"
                );
                runs += 1;
                got
            })
        });
        runs
    }

    /// Weighted vertices (a few heavy enough that balance refuses them),
    /// weighted edges from a small set (many equal gains), up to 8 pins.
    fn random_hypergraph(rng: &mut ChaCha8Rng, n: usize) -> Hypergraph {
        let weights = (0..n)
            .map(|_| match rng.gen_range(0..10) {
                0 => rng.gen_range(5..=5 + n as u64),
                1..=3 => rng.gen_range(2..=4),
                _ => 1,
            })
            .collect();
        let mut h = Hypergraph::new(weights);
        for _ in 0..rng.gen_range(0..=3 * n) {
            let pins = rng.gen_range(2..=8.min(n));
            let mut vs: Vec<u32> = (0..n as u32).collect();
            vs.shuffle(rng);
            vs.truncate(pins);
            vs.sort_unstable();
            h.add_edge(rng.gen_range(1..=3), vs);
        }
        h
    }

    /// [`Hypergraph::initial_split`] as it was, rescanning every edge of
    /// every vertex it takes.
    fn initial_split_rescanning(
        h: &Hypergraph,
        target_frac: f64,
        rng: &mut ChaCha8Rng,
    ) -> Vec<bool> {
        let n = h.len();
        let total = h.total_weight();
        let target = (total as f64 * target_frac) as u64;
        let mut side = vec![true; n];
        let mut weight = 0u64;
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(rng);
        let mut queue = std::collections::VecDeque::new();
        let mut seen = vec![false; n];
        let mut oi = 0;
        while weight < target && oi < n {
            while oi < n && seen[order[oi] as usize] {
                oi += 1;
            }
            if oi >= n {
                break;
            }
            queue.push_back(order[oi]);
            seen[order[oi] as usize] = true;
            while let Some(v) = queue.pop_front() {
                if weight >= target {
                    break;
                }
                let wv = h.vertex_weights[v as usize];
                if weight > 0 && weight + wv > target + (target / 10) {
                    continue;
                }
                side[v as usize] = false;
                weight += wv;
                for &e in &h.incidence[v as usize] {
                    for &u in &h.edges[e as usize].1 {
                        if !seen[u as usize] {
                            seen[u as usize] = true;
                            queue.push_back(u);
                        }
                    }
                }
            }
        }
        side
    }

    fn random_sweep(hypergraphs: u64) {
        let mut runs = 0;
        for seed in 0..hypergraphs {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n = rng.gen_range(2..=80);
            let h = random_hypergraph(&mut rng, n);
            for frac in [0.5, 1.0 / 3.0] {
                let (mut a, mut b) = (rng.clone(), rng.clone());
                assert_eq!(
                    h.initial_split(frac, &mut a),
                    initial_split_rescanning(&h, frac, &mut b),
                    "seed {seed}, frac {frac}"
                );
            }
            let k = rng.gen_range(2..=6);
            let balance = [0.02, 0.05, 0.1, 0.2][rng.gen_range(0..4usize)];
            runs += assert_fm_matches_reference(&h, k, balance, seed);
        }
        assert!(runs as u64 >= 4 * hypergraphs, "only {runs} FM runs");
    }

    /// The sink hypergraphs of the differential-fuzz corpus, one and two
    /// stages, split the ways a compile splits them.
    fn fuzz_corpus_sweep(designs: u64) {
        use crate::multistage::{even_cut_levels, StagePlan};
        use crate::BALANCE;
        use gem_sim::fuzz::{random_module, FuzzConfig};
        let mut runs = 0;
        for seed in 0..designs {
            let m = random_module(seed, &FuzzConfig::for_seed(seed));
            let g = gem_synth::synthesize(&m, &gem_synth::SynthOptions)
                .expect("fuzz designs synthesize")
                .eaig;
            let counts = &mut PartitionCounts::default();
            let cuts = even_cut_levels(&g, 2);
            let mut plans = [StagePlan::whole(&g), StagePlan::with_cuts(&g, &cuts)];
            for seg in plans.iter_mut().flat_map(|p| &mut p.segments) {
                let h = &seg.hypergraph(&g, counts).h;
                for k in [2, 3, 4, 8, 16] {
                    runs += assert_fm_matches_reference(h, k, BALANCE, seed);
                }
            }
        }
        assert!(runs as u64 >= 20 * designs, "only {runs} FM runs");
    }

    #[test]
    fn fm_matches_the_lazy_heap_on_random_hypergraphs() {
        random_sweep(200);
    }

    #[test]
    fn fm_matches_the_lazy_heap_on_the_fuzz_corpus() {
        fuzz_corpus_sweep(48);
    }

    /// CI's fuzz sweep: `cargo test -p gem-partition --release -- --ignored`.
    #[test]
    #[ignore]
    fn fm_matches_the_lazy_heap_sweep() {
        random_sweep(4_000);
        fuzz_corpus_sweep(400);
    }
}
