//! Iterative timing-driven bit placement (Algorithm 2).
//!
//! The placer maps a partition's AND nodes onto a sequence of boomerang
//! layers. Per layer it walks fold levels bottom-to-top; at level *i* it
//! repeatedly picks the most timing-critical unmapped node whose remaining
//! logic level is *i* and maps it with the recursive bit-mapping primitive
//! of Fig 6: the node's fan-ins are placed in the two child slots, either
//! computed in place (recursively), bypassed down to an already-available
//! state bit, or pad-bypassed when their level is lower. Values with
//! consumers in later layers are written back to core state.
//!
//! Timing criticality is the node's reverse logic depth in the remaining
//! AIG, recomputed as mapping progresses; prioritizing critical nodes
//! minimizes the number of layers (the ablation knob
//! [`PlaceOptions::timing_driven`] switches to FIFO order instead).

use crate::layer::{BoomerangLayer, CoreProgram, OutputSource, PermSource};
use gem_aig::{Eaig, Node, NodeId};
use gem_partition::Partition;
use std::collections::HashMap;
use std::fmt;

/// Placement options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaceOptions {
    /// Core row width (power of two). The paper's machine uses 8192.
    pub core_width: u32,
    /// Prioritize timing-critical nodes (Algorithm 2 lines 7–8). Disable
    /// for the FIFO ablation.
    pub timing_driven: bool,
    /// Give up on a candidate after this many failed slot attempts in one
    /// layer (it is retried in later layers).
    pub max_slot_attempts: u32,
}

impl Default for PlaceOptions {
    fn default() -> Self {
        PlaceOptions {
            core_width: crate::CORE_WIDTH,
            timing_driven: true,
            max_slot_attempts: 64,
        }
    }
}

/// Errors from [`place_partition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// The partition does not fit the core (state overflow or no layer
    /// progress); the string explains which resource ran out.
    Unmappable(String),
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::Unmappable(s) => write!(f, "partition unmappable: {s}"),
        }
    }
}

impl std::error::Error for PlaceError {}

/// A state address as a layer carries it (16 bits, as in the ISA).
fn narrow(addr: u32) -> u16 {
    u16::try_from(addr).expect("core widths stay within 16-bit state addresses")
}

/// Placement statistics (feeds Table I and Fig 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlaceStats {
    /// Boomerang layers emitted (= permutations per cycle per core).
    pub layers: u32,
    /// Logic depth of the partition (levelized executors pay one
    /// permutation + synchronization per level).
    pub depth: u32,
    /// Peak state bits allocated.
    pub state_peak: u32,
    /// Slots computing a gate (including duplicates).
    pub compute_slots: u64,
    /// Slots spent on bypass routing.
    pub bypass_slots: u64,
    /// Gates recomputed because a value was needed at two places within
    /// one layer.
    pub duplicated_gates: u64,
}

/// Places one partition onto boomerang layers; see the module docs.
///
/// # Errors
///
/// Returns [`PlaceError::Unmappable`] when the partition's live state
/// exceeds the core width or a layer cannot make progress.
pub fn place_partition(
    g: &Eaig,
    p: &Partition,
    opts: &PlaceOptions,
) -> Result<(CoreProgram, PlaceStats), PlaceError> {
    Placer::new(g, p, opts).run()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotOp {
    /// Computes gate `local` with operand inversion masks.
    Compute { local: u32, xa: bool, xb: bool },
    /// Bypasses the A child upward.
    Bypass { local: u32 },
    /// Level-0 read of a state bit holding `local`.
    Read { local: u32 },
}

struct Placer<'a> {
    g: &'a Eaig,
    p: &'a Partition,
    opts: &'a PlaceOptions,
    folds: usize,
    /// local index: sources first, then gates (topological order).
    locals: Vec<NodeId>,
    local_of: HashMap<u32, u32>,
    n_sources: usize,
    /// Gate fanins as (local, inverted) pairs; empty for sources.
    fanins: Vec<[(u32, bool); 2]>,
    consumers: Vec<Vec<u32>>,
    realized: Vec<bool>,
    addr: Vec<Option<u32>>,
    is_sink: Vec<bool>,
    // state allocator
    free_list: Vec<u32>,
    next_addr: u32,
    peak: u32,
    stats: PlaceStats,
}

impl<'a> Placer<'a> {
    fn new(g: &'a Eaig, p: &'a Partition, opts: &'a PlaceOptions) -> Self {
        let mut locals = Vec::with_capacity(p.sources.len() + p.nodes.len());
        let mut local_of = HashMap::new();
        for &s in &p.sources {
            local_of.insert(s.0, locals.len() as u32);
            locals.push(s);
        }
        let n_sources = locals.len();
        for &n in &p.nodes {
            local_of.insert(n.0, locals.len() as u32);
            locals.push(n);
        }
        let n = locals.len();
        let mut fanins = vec![[(0u32, false); 2]; n];
        let mut consumers = vec![Vec::new(); n];
        for (li, &node) in locals.iter().enumerate().skip(n_sources) {
            if let Node::And(a, b) = g.node(node) {
                let fa = (local_of[&a.node().0], a.is_inverted());
                let fb = (local_of[&b.node().0], b.is_inverted());
                fanins[li] = [fa, fb];
                consumers[fa.0 as usize].push(li as u32);
                consumers[fb.0 as usize].push(li as u32);
            }
        }
        let mut realized = vec![false; n];
        for r in realized.iter_mut().take(n_sources) {
            *r = true;
        }
        let mut is_sink = vec![false; n];
        for s in &p.sinks {
            if let Some(&li) = local_of.get(&s.node().0) {
                is_sink[li as usize] = true;
            }
        }
        Placer {
            g,
            p,
            opts,
            folds: opts.core_width.trailing_zeros() as usize,
            locals,
            local_of,
            n_sources,
            fanins,
            consumers,
            realized,
            addr: vec![None; n],
            is_sink,
            free_list: Vec::new(),
            next_addr: 0,
            peak: 0,
            stats: PlaceStats::default(),
        }
    }

    fn alloc(&mut self) -> Result<u32, PlaceError> {
        if let Some(a) = self.free_list.pop() {
            return Ok(a);
        }
        if self.next_addr >= self.opts.core_width {
            return Err(PlaceError::Unmappable(format!(
                "state overflow: more than {} live bits",
                self.opts.core_width
            )));
        }
        let a = self.next_addr;
        self.next_addr += 1;
        self.peak = self.peak.max(self.next_addr);
        Ok(a)
    }

    fn run(mut self) -> Result<(CoreProgram, PlaceStats), PlaceError> {
        // Load sources into state (constants excluded: the permutation has
        // a native const-false source).
        let mut inputs = Vec::new();
        for li in 0..self.n_sources {
            let node = self.locals[li];
            if matches!(self.g.node(node), Node::Const0) {
                continue;
            }
            let a = self.alloc()?;
            self.addr[li] = Some(a);
            inputs.push((node, a));
        }
        // Partition logic depth (for stats): remaining level at start.
        let init_levels = self.remaining_levels();
        self.stats.depth = init_levels.iter().copied().max().unwrap_or(0);

        let mut layers: Vec<BoomerangLayer> = Vec::new();
        let mut remaining: usize = (self.n_sources..self.locals.len())
            .filter(|&li| !self.realized[li])
            .count();
        while remaining > 0 {
            let placed = self.place_one_layer(&mut layers)?;
            if placed == 0 {
                return Err(PlaceError::Unmappable(
                    "layer made no progress (width exhausted)".into(),
                ));
            }
            remaining -= placed;
        }
        self.stats.layers = layers.len() as u32;
        self.stats.state_peak = self.peak;

        // Publish sinks.
        let mut outputs = Vec::new();
        for s in &self.p.sinks {
            let node = s.node();
            if matches!(self.g.node(node), Node::Const0) {
                outputs.push(OutputSource::Const(s.is_inverted()));
                continue;
            }
            let li = self.local_of[&node.0] as usize;
            let addr = self.addr[li].ok_or_else(|| {
                PlaceError::Unmappable(format!("sink n{} has no state address", node.0))
            })?;
            outputs.push(OutputSource::State {
                addr,
                invert: s.is_inverted(),
            });
        }
        let prog = CoreProgram {
            width: self.opts.core_width,
            state_size: self.peak.max(1),
            inputs,
            layers,
            outputs,
        };
        Ok((prog, self.stats))
    }

    /// Remaining forward logic level per local (0 = available).
    fn remaining_levels(&self) -> Vec<u32> {
        let mut lvl = vec![0u32; self.locals.len()];
        for li in self.n_sources..self.locals.len() {
            if self.realized[li] {
                continue;
            }
            let [a, b] = self.fanins[li];
            lvl[li] = lvl[a.0 as usize].max(lvl[b.0 as usize]) + 1;
        }
        lvl
    }

    /// Reverse depth (timing criticality) per local over the remaining AIG.
    fn criticalities(&self) -> Vec<u32> {
        let mut crit = vec![0u32; self.locals.len()];
        for li in (self.n_sources..self.locals.len()).rev() {
            if self.realized[li] {
                continue;
            }
            for &c in &self.consumers[li] {
                if !self.realized[c as usize] {
                    crit[li] = crit[li].max(crit[c as usize] + 1);
                }
            }
        }
        crit
    }

    /// Fills one layer; returns the number of distinct gates realized.
    fn place_one_layer(&mut self, layers: &mut Vec<BoomerangLayer>) -> Result<usize, PlaceError> {
        let width = self.opts.core_width as usize;
        let folds = self.folds;
        let rem_level = self.remaining_levels();
        let crit = self.criticalities();
        // occupancy per level: level 0 has `width` slots, level k has
        // width >> k.
        let mut occ: Vec<Vec<Option<SlotOp>>> =
            (0..=folds).map(|k| vec![None; width >> k]).collect();
        // used-slot counts per subtree root for pruning.
        let mut used: Vec<Vec<u32>> = (0..=folds).map(|k| vec![0u32; width >> k]).collect();
        let subtree_cap = |k: usize| -> u32 { ((2usize << k) - 1) as u32 };
        // first placement slot of each gate placed this layer: local ->
        // (level, slot) of its Compute op.
        let mut placed_at: HashMap<u32, (usize, usize)> = HashMap::new();

        for level in 1..=folds {
            // Candidates at this remaining level, most critical first.
            let mut cands: Vec<u32> = (self.n_sources..self.locals.len())
                .filter(|&li| {
                    !self.realized[li]
                        && rem_level[li] as usize == level
                        && !placed_at.contains_key(&(li as u32))
                })
                .map(|li| li as u32)
                .collect();
            if self.opts.timing_driven {
                cands.sort_by_key(|&li| std::cmp::Reverse(crit[li as usize]));
            }
            let slots = width >> level;
            for v in cands {
                let mut attempts = 0u32;
                let mut j = 0usize;
                while j < slots && attempts < self.opts.max_slot_attempts {
                    if occ[level][j].is_some() || used[level][j] >= subtree_cap(level) {
                        j += 1;
                        continue;
                    }
                    attempts += 1;
                    let mut journal: Vec<(usize, usize)> = Vec::new();
                    if self.try_place(
                        v,
                        level,
                        j,
                        &rem_level,
                        &mut occ,
                        &mut used,
                        &mut placed_at,
                        &mut journal,
                    ) {
                        break;
                    }
                    // Roll back the failed attempt.
                    for &(k, s) in journal.iter().rev() {
                        if let Some(op) = occ[k][s].take() {
                            if let SlotOp::Compute { local, .. } = op {
                                if placed_at.get(&local) == Some(&(k, s)) {
                                    placed_at.remove(&local);
                                }
                            }
                            let mut kk = k;
                            let mut jj = s;
                            loop {
                                used[kk][jj] -= 1;
                                if kk == folds {
                                    break;
                                }
                                kk += 1;
                                jj >>= 1;
                            }
                        }
                    }
                    j += 1;
                }
            }
        }

        // Commit: build the layer.
        let mut layer = BoomerangLayer::new(self.opts.core_width);
        for (j, slot) in occ[0].iter().enumerate() {
            if let Some(SlotOp::Read { local }) = slot {
                let a = self.addr[*local as usize].expect("read of unaddressed value");
                layer.perm[j] = PermSource::State(narrow(a));
            }
        }
        for (k, row) in occ.iter().enumerate().take(folds + 1).skip(1) {
            for (j, slot) in row.iter().enumerate() {
                match slot {
                    Some(SlotOp::Compute { xa, xb, .. }) => {
                        layer.folds[k - 1].xa[j] = *xa;
                        layer.folds[k - 1].xb[j] = *xb;
                        self.stats.compute_slots += 1;
                    }
                    Some(SlotOp::Bypass { .. }) => {
                        layer.folds[k - 1].ob[j] = true;
                        self.stats.bypass_slots += 1;
                    }
                    _ => {}
                }
            }
        }
        // Writebacks for newly realized gates that are sinks or still have
        // unrealized consumers after this layer commits. Sorted so state
        // addresses are assigned deterministically.
        let mut newly: Vec<u32> = placed_at.keys().copied().collect();
        newly.sort_unstable();
        for &v in &newly {
            self.realized[v as usize] = true;
        }
        for &v in &newly {
            let needs = self.is_sink[v as usize]
                || self.consumers[v as usize]
                    .iter()
                    .any(|&c| !self.realized[c as usize]);
            if needs {
                let a = self.alloc()?;
                self.addr[v as usize] = Some(a);
                let (k, j) = placed_at[&v];
                layer.writeback[k - 1][j] = Some(narrow(a));
            }
        }
        // Free addresses whose value can never be read again.
        for li in 0..self.locals.len() {
            if let Some(a) = self.addr[li] {
                let dead = !self.is_sink[li]
                    && self.consumers[li]
                        .iter()
                        .all(|&c| self.realized[c as usize]);
                if dead {
                    self.addr[li] = None;
                    self.free_list.push(a);
                }
            }
        }
        layers.push(layer);
        Ok(newly.len())
    }

    /// The bit-mapping primitive of Fig 6. Attempts to make the value of
    /// local `v` appear at slot (`level`, `slot`); occupies slots via
    /// `occ`/`used` and records them in `journal` for rollback.
    #[allow(clippy::too_many_arguments)]
    fn try_place(
        &mut self,
        v: u32,
        level: usize,
        slot: usize,
        rem_level: &[u32],
        occ: &mut [Vec<Option<SlotOp>>],
        used: &mut [Vec<u32>],
        placed_at: &mut HashMap<u32, (usize, usize)>,
        journal: &mut Vec<(usize, usize)>,
    ) -> bool {
        if occ[level][slot].is_some() {
            return false;
        }
        let vi = v as usize;
        let available = self.realized[vi] && self.addr[vi].is_some();
        let occupy = |occ: &mut [Vec<Option<SlotOp>>],
                      used: &mut [Vec<u32>],
                      journal: &mut Vec<(usize, usize)>,
                      folds: usize,
                      k: usize,
                      j: usize,
                      op: SlotOp| {
            occ[k][j] = Some(op);
            journal.push((k, j));
            let (mut kk, mut jj) = (k, j);
            loop {
                used[kk][jj] += 1;
                if kk == folds {
                    break;
                }
                kk += 1;
                jj >>= 1;
            }
        };
        if available {
            if level == 0 {
                occupy(
                    occ,
                    used,
                    journal,
                    self.folds,
                    0,
                    slot,
                    SlotOp::Read { local: v },
                );
                return true;
            }
            // Ride the value up a bypass chain rooted at the A child.
            if !self.try_place(
                v,
                level - 1,
                2 * slot,
                rem_level,
                occ,
                used,
                placed_at,
                journal,
            ) {
                return false;
            }
            occupy(
                occ,
                used,
                journal,
                self.folds,
                level,
                slot,
                SlotOp::Bypass { local: v },
            );
            return true;
        }
        // Unrealized gate (or an intra-layer duplicate recomputation).
        let rl = rem_level[vi] as usize;
        if rl > level || level == 0 {
            return false;
        }
        if rl < level {
            // Pad down with bypasses until the natural level.
            if !self.try_place(
                v,
                level - 1,
                2 * slot,
                rem_level,
                occ,
                used,
                placed_at,
                journal,
            ) {
                return false;
            }
            occupy(
                occ,
                used,
                journal,
                self.folds,
                level,
                slot,
                SlotOp::Bypass { local: v },
            );
            return true;
        }
        // Compute here: children are the two fanins.
        let [(fa, ia), (fb, ib)] = self.fanins[vi];
        if !self.try_place(
            fa,
            level - 1,
            2 * slot,
            rem_level,
            occ,
            used,
            placed_at,
            journal,
        ) {
            return false;
        }
        if !self.try_place(
            fb,
            level - 1,
            2 * slot + 1,
            rem_level,
            occ,
            used,
            placed_at,
            journal,
        ) {
            return false;
        }
        occupy(
            occ,
            used,
            journal,
            self.folds,
            level,
            slot,
            SlotOp::Compute {
                local: v,
                xa: ia,
                xb: ib,
            },
        );
        if let std::collections::hash_map::Entry::Vacant(e) = placed_at.entry(v) {
            e.insert((level, slot));
        } else {
            self.stats.duplicated_gates += 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_partition::{partition, PartitionOptions};

    fn single_partition(g: &Eaig) -> gem_partition::Partition {
        let parts = partition(
            g,
            &PartitionOptions {
                target_parts: 1,
                ..Default::default()
            },
        );
        parts.stages[0].partitions[0].clone()
    }

    #[test]
    fn stats_account_for_slots() {
        let mut g = Eaig::new();
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("c");
        let x = g.and(a, b);
        let y = g.and(x, c);
        g.output("o", y);
        let p = single_partition(&g);
        let (prog, stats) = place_partition(&g, &p, &PlaceOptions::default()).unwrap();
        assert_eq!(stats.depth, 2);
        assert_eq!(prog.layers.len(), 1, "2 levels fit one layer");
        assert!(stats.compute_slots >= 2);
        assert_eq!(stats.state_peak as usize, prog.state_size as usize);
    }

    #[test]
    fn multi_fanout_within_layer_duplicates() {
        // x = a&b feeds two consumers at the same level: within one layer
        // the fold tree cannot share a slot, so x is either recomputed or
        // the consumers land in a later layer.
        let mut g = Eaig::new();
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("c");
        let d = g.input("d");
        let x = g.and(a, b);
        let y = g.and(x, c);
        let z = g.and(x, d);
        g.output("y", y);
        g.output("z", z);
        let p = single_partition(&g);
        let (prog, stats) = place_partition(&g, &p, &PlaceOptions::default()).unwrap();
        assert!(stats.duplicated_gates >= 1 || prog.layers.len() >= 2);
        // And it is still correct.
        for bits in 0..16u32 {
            let v = |i: u32| (bits >> i) & 1 == 1;
            let outs = prog.evaluate(|n| {
                // inputs are nodes 1..=4 in creation order
                v(n.0 - 1)
            });
            assert_eq!(outs[0], (v(0) && v(1)) && v(2));
            assert_eq!(outs[1], (v(0) && v(1)) && v(3));
        }
    }

    #[test]
    fn deep_chain_spans_multiple_layers() {
        let mut g = Eaig::new();
        let mut cur = g.input("i0");
        for k in 1..40 {
            let x = g.input(format!("i{k}"));
            cur = g.and(cur, x);
        }
        g.output("o", cur);
        let p = single_partition(&g);
        let opts = PlaceOptions {
            core_width: 256, // 8 fold levels per layer
            ..Default::default()
        };
        let (prog, stats) = place_partition(&g, &p, &opts).unwrap();
        assert_eq!(stats.depth, 39);
        assert!(prog.layers.len() >= 39 / 8);
        assert!(prog.layers.len() < 39, "layers must compress levels");
    }

    #[test]
    fn inverted_sink_polarity_respected() {
        let mut g = Eaig::new();
        let a = g.input("a");
        let b = g.input("b");
        let x = g.and(a, b);
        g.output("o", x.flip());
        let p = single_partition(&g);
        let (prog, _) = place_partition(&g, &p, &PlaceOptions::default()).unwrap();
        let outs = prog.evaluate(|_| true);
        assert!(!outs[0], "!(1&1) must be false");
        let outs = prog.evaluate(|_| false);
        assert!(outs[0], "!(0&0) must be true");
    }

    #[test]
    fn constant_sink_emitted_as_const() {
        let mut g = Eaig::new();
        let a = g.input("a");
        g.output("t", gem_aig::Lit::TRUE);
        g.output("f", gem_aig::Lit::FALSE);
        g.output("a", a);
        let p = single_partition(&g);
        let (prog, _) = place_partition(&g, &p, &PlaceOptions::default()).unwrap();
        let outs = prog.evaluate(|_| false);
        assert_eq!(outs, vec![true, false, false]);
    }
}
