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
//! AIG; prioritizing critical nodes minimizes the number of layers (the
//! ablation knob [`PlaceOptions::timing_driven`] switches to FIFO order
//! instead). The remaining AIG's depths are the whole partition's, so
//! they are computed once, and each layer walks only the gates not yet
//! placed.
//!
//! A candidate is offered the first 64 (`MAX_SLOT_ATTEMPTS`) open slots of
//! its level and left for a later layer when none takes it. Almost every
//! such offer fails, and a failed offer is rolled back, so the placer
//! answers the ones that *cannot* succeed without making them: the number
//! of slots a placement occupies is known before it starts (`cost`), a
//! subtree cannot hold more slots than it has left, a slot whose leftmost
//! leaf is occupied is *dead* (every placement occupies its leftmost path
//! first, so an offer there runs into an occupied slot before it
//! occupies anything), and the open slots of a level change only when a
//! placement succeeds. Every such shortcut refuses only what the
//! recursion would have refused (DESIGN.md §4); the mapping is the same
//! slot for slot.

use crate::layer::{BoomerangLayer, CoreProgram, OutputSource, PermSource, Plane};
use gem_aig::{Eaig, Node, NodeId};
use gem_partition::{NodeScratch, Partition};
use std::fmt;

/// Placement options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaceOptions {
    /// Core row width (power of two). The paper's machine uses 8192.
    pub core_width: u32,
    /// Prioritize timing-critical nodes (Algorithm 2 lines 7–8). Disable
    /// for the FIFO ablation.
    pub timing_driven: bool,
}

/// A candidate is given up on after this many failed slot attempts in one
/// layer (it is retried in later layers).
const MAX_SLOT_ATTEMPTS: usize = 64;

impl Default for PlaceOptions {
    fn default() -> Self {
        PlaceOptions {
            core_width: crate::CORE_WIDTH,
            timing_driven: true,
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
    /// one layer: the compute slots of each committed layer beyond one per
    /// gate it realized.
    pub duplicated_gates: u64,
    /// Slot attempts that ran the bit-mapping recursion: offers that
    /// neither the room check nor the dead-slot check could refuse. Work
    /// done, not a property of the result.
    pub slot_attempts: u64,
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
    let (placed, stats) = place_partition_counted(g, p, opts, &mut NodeScratch::new(g));
    placed.map(|prog| (prog, stats))
}

/// [`place_partition`] with the statistics of a failed placement too
/// (as far as it got): a flow that tries placements to find out whether
/// they exist pays for the ones that do not. Its per-node table is
/// borrowed from `scratch`.
pub fn place_partition_counted(
    g: &Eaig,
    p: &Partition,
    opts: &PlaceOptions,
    scratch: &mut NodeScratch,
) -> (Result<CoreProgram, PlaceError>, PlaceStats) {
    let mut placer = Placer::new(g, p, opts, scratch);
    let placed = placer.run();
    (placed, placer.stats)
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

/// Slots in the fold subtree rooted at a level-`k` slot: one at level
/// `k`, two at `k - 1`, … , `2^k` at level 0.
fn subtree_cap(k: usize) -> u32 {
    (2u32 << k) - 1
}

/// The slots of one level the next candidate will be offered, in order:
/// the first [`MAX_SLOT_ATTEMPTS`] that are open, each with the room a
/// placement there has. Slots of one level root disjoint subtrees, so a
/// successful placement closes its own slot and leaves every other
/// entry as it was; a failed one is rolled back and changes nothing.
///
/// A slot is *dead* when its leftmost leaf is occupied. Compute and
/// bypass both place their A side first, so a successful placement
/// occupies its root's whole leftmost path, and every occupied slot has
/// its leftmost leaf occupied. An offer at a dead slot descends that path
/// into an occupied slot before it occupies anything, so it fails. A dead
/// slot stays in the window: the scan would have tried it.
struct Window {
    /// `(slot, room, dead)`, ascending by slot.
    open: Vec<(usize, u32, bool)>,
    /// First slot not yet looked at.
    cursor: usize,
    /// Largest room of a live entry of `open` (0 when there is none).
    max_room: u32,
}

struct Placer<'a> {
    g: &'a Eaig,
    p: &'a Partition,
    opts: &'a PlaceOptions,
    folds: usize,
    /// local index: sources first, then gates (topological order).
    locals: Vec<NodeId>,
    n_sources: usize,
    /// Gate fanins as (local, inverted) pairs; empty for sources.
    fanins: Vec<[(u32, bool); 2]>,
    /// The gates reading each local, concatenated in local order: those
    /// of `li` are at `consumers_from[li]..consumers_from[li + 1]`.
    consumers: Vec<u32>,
    consumers_from: Vec<u32>,
    realized: Vec<bool>,
    addr: Vec<Option<u32>>,
    is_sink: Vec<bool>,
    /// Local index of each of `p.sinks` (`None`: not a partition node).
    sink_locals: Vec<Option<u32>>,
    // state allocator
    free_list: Vec<u32>,
    next_addr: u32,
    peak: u32,
    stats: PlaceStats,
    // The tables a layer reads, fixed while it fills. A realized local
    // keeps `rem_level` 0 and `cost` 1 or `u32::MAX`, set when its
    // address is set or freed; the unrealized gates' are recomputed at
    // each commit ([`Placer::refresh`]).
    /// Remaining forward logic level per local (0 = available).
    rem_level: Vec<u32>,
    /// See [`Placer::refresh`].
    cost: Vec<u32>,
    /// Consumers of each local not yet realized, counted with
    /// multiplicity (a gate reading one value twice counts twice).
    live_consumers: Vec<u32>,
    /// The unrealized gates, ascending.
    pending: Vec<u32>,
    /// The unrealized gates, most critical first and ascending within a
    /// criticality (empty unless timing-driven).
    order: Vec<u32>,
    /// Gates given a `placed_at` in this layer, pushed when it is set:
    /// may repeat, and may since have been rolled back.
    newly: Vec<u32>,
    /// Occupancy per level: level 0 has `width` slots, level k has
    /// `width >> k`.
    occ: Vec<Vec<Option<SlotOp>>>,
    /// Occupied slots in the subtree rooted at each slot.
    used: Vec<Vec<u32>>,
    /// (level, slot) of the first Compute op of each gate placed in this
    /// layer.
    placed_at: Vec<Option<(usize, usize)>>,
    /// Slots occupied since the last successful placement, for rollback.
    journal: Vec<(usize, usize)>,
    #[cfg(test)]
    audit: Audit,
}

/// Test-only soundness audit of the room and dead-slot checks: every
/// rejection they make is replayed through the recursion with the room
/// check switched off and must fail there too; every window must list
/// the slots a plain scan would try, dead exactly when a walk of the
/// slot's leftmost path meets an occupied slot. Every layer's
/// incremental tables — `rem_level`, `cost`, criticality, the candidate
/// lists and the frees — must equal a from-scratch recomputation over
/// every local. Not reachable from [`PlaceOptions`].
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy)]
struct Audit {
    on: bool,
    /// Inside a replay: the room check accepts everything.
    replaying: bool,
    /// Rejections replayed, by where they were made.
    in_recursion: u64,
    dead: u64,
    passed_over: u64,
    candidates_skipped: u64,
    windows: u64,
    /// Layers whose tables were recomputed from scratch.
    layers: u64,
}

#[cfg(test)]
impl Audit {
    /// Adds another placement's counts to these.
    fn add(&mut self, other: &Audit) {
        self.in_recursion += other.in_recursion;
        self.dead += other.dead;
        self.passed_over += other.passed_over;
        self.candidates_skipped += other.candidates_skipped;
        self.windows += other.windows;
        self.layers += other.layers;
    }
}

impl<'a> Placer<'a> {
    fn new(
        g: &'a Eaig,
        p: &'a Partition,
        opts: &'a PlaceOptions,
        scratch: &mut NodeScratch,
    ) -> Self {
        const NOT_LOCAL: u32 = NodeScratch::UNSET;
        let mut locals: Vec<NodeId> = Vec::with_capacity(p.sources.len() + p.nodes.len());
        locals.extend(&p.sources);
        let n_sources = locals.len();
        locals.extend(&p.nodes);
        let n = locals.len();
        let (fanins, sink_locals) = scratch.for_partition(p, |local_of| {
            for (li, node) in locals.iter().enumerate() {
                local_of[node.0 as usize] = li as u32;
            }
            let fanin = |l: gem_aig::Lit| {
                let li = local_of[l.node().0 as usize];
                assert_ne!(
                    li,
                    NOT_LOCAL,
                    "fan-in n{} outside the partition",
                    l.node().0
                );
                (li, l.is_inverted())
            };
            let mut fanins = vec![[(0u32, false); 2]; n];
            for (li, &node) in locals.iter().enumerate().skip(n_sources) {
                if let Node::And(a, b) = g.node(node) {
                    fanins[li] = [fanin(a), fanin(b)];
                }
            }
            let sink_locals: Vec<Option<u32>> = p
                .sinks
                .iter()
                .map(|s| Some(local_of[s.node().0 as usize]).filter(|&li| li != NOT_LOCAL))
                .collect();
            (fanins, sink_locals)
        });
        let mut consumers_from = vec![0u32; n + 1];
        for (li, &node) in locals.iter().enumerate().skip(n_sources) {
            if matches!(g.node(node), Node::And(..)) {
                for (f, _) in fanins[li] {
                    consumers_from[f as usize + 1] += 1;
                }
            }
        }
        for li in 0..n {
            consumers_from[li + 1] += consumers_from[li];
        }
        let mut consumers = vec![0u32; consumers_from[n] as usize];
        let mut next = consumers_from.clone();
        for (li, &node) in locals.iter().enumerate().skip(n_sources) {
            if matches!(g.node(node), Node::And(..)) {
                for (f, _) in fanins[li] {
                    consumers[next[f as usize] as usize] = li as u32;
                    next[f as usize] += 1;
                }
            }
        }
        let mut realized = vec![false; n];
        for r in realized.iter_mut().take(n_sources) {
            *r = true;
        }
        let mut is_sink = vec![false; n];
        for &li in sink_locals.iter().flatten() {
            is_sink[li as usize] = true;
        }
        let live_consumers = consumers_from.windows(2).map(|w| w[1] - w[0]).collect();
        let folds = opts.core_width.trailing_zeros() as usize;
        let width = opts.core_width as usize;
        Placer {
            g,
            p,
            opts,
            folds,
            locals,
            n_sources,
            fanins,
            consumers,
            consumers_from,
            realized,
            addr: vec![None; n],
            is_sink,
            sink_locals,
            free_list: Vec::new(),
            next_addr: 0,
            peak: 0,
            stats: PlaceStats::default(),
            rem_level: vec![0; n],
            cost: vec![u32::MAX; n],
            live_consumers,
            pending: (n_sources as u32..n as u32).collect(),
            order: Vec::new(),
            newly: Vec::new(),
            occ: (0..=folds).map(|k| vec![None; width >> k]).collect(),
            used: (0..=folds).map(|k| vec![0u32; width >> k]).collect(),
            placed_at: vec![None; n],
            journal: Vec::new(),
            #[cfg(test)]
            audit: Audit::default(),
        }
    }

    fn consumers(&self, li: usize) -> &[u32] {
        &self.consumers[self.consumers_from[li] as usize..self.consumers_from[li + 1] as usize]
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

    fn run(&mut self) -> Result<CoreProgram, PlaceError> {
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
            self.cost[li] = 1;
            inputs.push((node, a));
        }
        if self.opts.timing_driven {
            let crit = self.criticalities();
            self.order = self.pending.clone();
            self.order
                .sort_by_key(|&li| std::cmp::Reverse(crit[li as usize]));
        }
        self.refresh();
        // Partition logic depth (for stats): remaining level at start.
        self.stats.depth = self
            .pending
            .iter()
            .map(|&li| self.rem_level[li as usize])
            .max()
            .unwrap_or(0);

        let mut layers: Vec<BoomerangLayer> = Vec::new();
        while !self.pending.is_empty() {
            let placed = self.place_one_layer(&mut layers)?;
            if placed == 0 {
                return Err(PlaceError::Unmappable(
                    "layer made no progress (width exhausted)".into(),
                ));
            }
        }
        self.stats.layers = layers.len() as u32;
        self.stats.state_peak = self.peak;

        // Publish sinks.
        let mut outputs = Vec::new();
        for (s, li) in self.p.sinks.iter().zip(&self.sink_locals) {
            let node = s.node();
            if matches!(self.g.node(node), Node::Const0) {
                outputs.push(OutputSource::Const(s.is_inverted()));
                continue;
            }
            let li = li.expect("a sink is a node or a source of its partition") as usize;
            let addr = self.addr[li].ok_or_else(|| {
                PlaceError::Unmappable(format!("sink n{} has no state address", node.0))
            })?;
            outputs.push(OutputSource::State {
                addr,
                invert: s.is_inverted(),
            });
        }
        Ok(CoreProgram {
            width: self.opts.core_width,
            state_size: self.peak.max(1),
            inputs,
            layers,
            outputs,
        })
    }

    /// Reverse logic depth (timing criticality) per gate. Computed once
    /// per placement: a gate is realized only with both fan-ins realized
    /// or computed beside it, so every consumer of an unrealized gate is
    /// unrealized, and the depth over the remaining graph is the depth
    /// over the whole partition (DESIGN.md §4).
    fn criticalities(&self) -> Vec<u32> {
        let mut crit = vec![0u32; self.locals.len()];
        for li in (self.n_sources..self.locals.len()).rev() {
            for &c in self.consumers(li) {
                crit[li] = crit[li].max(crit[c as usize] + 1);
            }
        }
        crit
    }

    /// Recomputes `rem_level` and `cost` of the unrealized gates, in
    /// local (topological) order, so each reads its fan-ins' fresh
    /// values.
    ///
    /// `cost[v]`: the number of slots a successful [`Self::try_place`] of
    /// `v` at its own remaining level occupies, whatever slot it lands
    /// in — the recursion's shape does not depend on occupancy. An
    /// available value is its one level-0 read; a gate is its compute
    /// slot plus each fan-in's cost carried up to the level below (one
    /// bypass slot per level carried); a realized value without an
    /// address (a constant, or a value nothing reads any more) cannot be
    /// placed at all. Saturating: a saturated cost exceeds every subtree.
    fn refresh(&mut self) {
        for &li in &self.pending {
            let li = li as usize;
            let [a, b] = self.fanins[li];
            let level = self.rem_level[a.0 as usize].max(self.rem_level[b.0 as usize]) + 1;
            let carried = |(f, _): (u32, bool)| {
                self.cost[f as usize].saturating_add(level - 1 - self.rem_level[f as usize])
            };
            let cost = carried(a).saturating_add(carried(b)).saturating_add(1);
            self.rem_level[li] = level;
            self.cost[li] = cost;
        }
    }

    /// The room check: a successful placement of `v` at (`level`, `slot`)
    /// occupies `cost[v]` slots plus one bypass per level above `v`'s
    /// own, all inside the subtree rooted there, which holds
    /// `subtree_cap(level)` slots of which `used` are taken. Necessary,
    /// not sufficient: `false` means the recursion would fail.
    fn has_room(&self, v: u32, level: usize, slot: usize) -> bool {
        #[cfg(test)]
        if self.audit.replaying {
            return true;
        }
        let own = self.rem_level[v as usize] as usize;
        level >= own
            && self.cost[v as usize].saturating_add((level - own) as u32)
                <= subtree_cap(level) - self.used[level][slot]
    }

    /// Replays a rejection of the room or dead-slot check with the room
    /// check switched off and asserts the recursion fails there as well.
    #[cfg(test)]
    fn audit_rejection(
        &mut self,
        v: u32,
        level: usize,
        slot: usize,
        made: fn(&mut Audit) -> &mut u64,
    ) {
        if !self.audit.on || self.audit.replaying {
            return;
        }
        *made(&mut self.audit) += 1;
        self.audit.replaying = true;
        let mark = self.journal.len();
        let fits = self.try_place(v, level, slot);
        self.rollback(mark);
        self.audit.replaying = false;
        assert!(
            !fits,
            "unsound refusal: local {v} (cost {}, own level {}) fits at level {level} slot \
             {slot} with {} of {} slots used",
            self.cost[v as usize],
            self.rem_level[v as usize],
            self.used[level][slot],
            subtree_cap(level),
        );
    }

    /// Asserts the window lists exactly the slots, in order and with
    /// their room, that a scan of the level from slot 0 would attempt;
    /// a slot is dead exactly when some slot of its whole leftmost path
    /// is occupied.
    #[cfg(test)]
    fn audit_window(&mut self, level: usize, window: &Window) {
        if !self.audit.on {
            return;
        }
        let cap = subtree_cap(level);
        let dead = |j: usize| (0..=level).any(|i| self.occ[level - i][j << i].is_some());
        let plain: Vec<(usize, u32, bool)> = (0..self.occ[level].len())
            .filter(|&j| self.occ[level][j].is_none() && self.used[level][j] < cap)
            .take(MAX_SLOT_ATTEMPTS)
            .map(|j| (j, cap - self.used[level][j], dead(j)))
            .collect();
        assert_eq!(window.open, plain, "window of level {level} drifted");
        assert_eq!(
            window.max_room,
            plain
                .iter()
                .filter(|&&(.., dead)| !dead)
                .map(|&(_, room, _)| room)
                .max()
                .unwrap_or(0)
        );
        self.audit.windows += 1;
    }

    /// Asserts the layer's tables and candidate lists equal their
    /// from-scratch recomputation over every local: remaining levels,
    /// then slot costs in local order, then reverse depth over the
    /// unrealized gates only, then candidates by a stable sort of each
    /// level's ascending locals.
    #[cfg(test)]
    fn audit_tables(&mut self, cands: &[Vec<u32>]) {
        if !self.audit.on {
            return;
        }
        let n = self.locals.len();
        let mut rem_level = vec![0u32; n];
        for li in self.n_sources..n {
            if !self.realized[li] {
                let [a, b] = self.fanins[li];
                rem_level[li] = rem_level[a.0 as usize].max(rem_level[b.0 as usize]) + 1;
            }
        }
        assert_eq!(self.rem_level, rem_level, "remaining levels drifted");
        let mut cost = vec![0u32; n];
        for li in 0..n {
            cost[li] = match (self.realized[li], self.addr[li]) {
                (true, Some(_)) => 1,
                (true, None) => u32::MAX,
                (false, _) => {
                    let below = rem_level[li] - 1;
                    let carried = |(f, _): (u32, bool)| {
                        cost[f as usize].saturating_add(below - rem_level[f as usize])
                    };
                    let [a, b] = self.fanins[li];
                    carried(a).saturating_add(carried(b)).saturating_add(1)
                }
            };
        }
        assert_eq!(self.cost, cost, "slot costs drifted");
        let mut crit = vec![0u32; n];
        for li in (self.n_sources..n).rev() {
            if !self.realized[li] {
                for &c in self.consumers(li) {
                    if !self.realized[c as usize] {
                        crit[li] = crit[li].max(crit[c as usize] + 1);
                    }
                }
            }
        }
        let whole = self.criticalities();
        for &li in &self.pending {
            assert_eq!(crit[li as usize], whole[li as usize], "criticality of {li}");
        }
        let mut plain: Vec<Vec<u32>> = vec![Vec::new(); self.folds + 1];
        for (li, &level) in rem_level.iter().enumerate().skip(self.n_sources) {
            if !self.realized[li] && level as usize <= self.folds {
                plain[level as usize].push(li as u32);
            }
        }
        if self.opts.timing_driven {
            for level in &mut plain {
                level.sort_by_key(|&li| std::cmp::Reverse(crit[li as usize]));
            }
        }
        assert_eq!(cands, plain, "candidate lists drifted");
        self.audit.layers += 1;
    }

    /// Asserts `dead` lists, ascending, every addressed value that is no
    /// sink and has no unrealized consumer: a scan over every local.
    #[cfg(test)]
    fn audit_frees(&self, dead: &[u32]) {
        if !self.audit.on {
            return;
        }
        let plain: Vec<u32> = (0..self.locals.len())
            .filter(|&li| {
                self.addr[li].is_some()
                    && !self.is_sink[li]
                    && self
                        .consumers(li)
                        .iter()
                        .all(|&c| self.realized[c as usize])
            })
            .map(|li| li as u32)
            .collect();
        assert_eq!(dead, plain, "frees drifted");
    }

    /// Tops the window up from its cursor and recomputes `max_room`.
    fn refill(&self, level: usize, window: &mut Window) {
        let cap = subtree_cap(level);
        let (occ, used, leaves) = (&self.occ[level], &self.used[level], &self.occ[0]);
        while window.open.len() < MAX_SLOT_ATTEMPTS && window.cursor < occ.len() {
            let j = window.cursor;
            if occ[j].is_none() && used[j] < cap {
                window
                    .open
                    .push((j, cap - used[j], leaves[j << level].is_some()));
            }
            window.cursor += 1;
        }
        window.max_room = window
            .open
            .iter()
            .filter(|&&(.., dead)| !dead)
            .map(|&(_, room, _)| room)
            .max()
            .unwrap_or(0);
    }

    /// Offers each candidate of one level, in order, the first
    /// [`MAX_SLOT_ATTEMPTS`] open slots (a slot is open while it is free
    /// and its subtree is not full). A window slot without room for the
    /// candidate, or dead, is passed over without running the recursion,
    /// and a candidate no live window slot has room for is skipped
    /// outright; either way the slot counts against the limit as the
    /// failed attempt it would have been, because the window *is* the
    /// slots a scan would have tried.
    fn place_level(&mut self, level: usize, cands: &[u32]) {
        let mut window = Window {
            open: Vec::with_capacity(MAX_SLOT_ATTEMPTS),
            cursor: 0,
            max_room: 0,
        };
        self.refill(level, &mut window);
        for &v in cands {
            debug_assert!(
                self.placed_at[v as usize].is_none(),
                "a sub-placement only computes gates of lower levels"
            );
            #[cfg(test)]
            self.audit_window(level, &window);
            let cost = self.cost[v as usize];
            if cost > window.max_room {
                #[cfg(test)]
                for &(j, ..) in &window.open {
                    self.audit_rejection(v, level, j, |a| &mut a.candidates_skipped);
                }
                continue;
            }
            let mut taken = None;
            for (at, &(j, room, dead)) in window.open.iter().enumerate() {
                if cost > room {
                    #[cfg(test)]
                    self.audit_rejection(v, level, j, |a| &mut a.passed_over);
                    continue;
                }
                if dead {
                    #[cfg(test)]
                    self.audit_rejection(v, level, j, |a| &mut a.dead);
                    continue;
                }
                self.stats.slot_attempts += 1;
                if self.try_place(v, level, j) {
                    taken = Some(at);
                    break;
                }
                self.rollback(0);
            }
            if let Some(at) = taken {
                self.journal.clear();
                window.open.remove(at);
                self.refill(level, &mut window);
            }
        }
    }

    /// Fills one layer; returns the number of distinct gates realized.
    fn place_one_layer(&mut self, layers: &mut Vec<BoomerangLayer>) -> Result<usize, PlaceError> {
        for (occ, used) in self.occ.iter_mut().zip(&mut self.used) {
            occ.fill(None);
            used.fill(0);
        }
        // Candidates by remaining level: most critical first, ascending
        // local index within a criticality, when timing-driven; ascending
        // local index otherwise.
        let mut cands: Vec<Vec<u32>> = vec![Vec::new(); self.folds + 1];
        let queue = if self.opts.timing_driven {
            &self.order
        } else {
            &self.pending
        };
        for &li in queue {
            let level = self.rem_level[li as usize] as usize;
            if level <= self.folds {
                cands[level].push(li);
            }
        }
        #[cfg(test)]
        self.audit_tables(&cands);
        for (level, cands) in cands.iter().enumerate().skip(1) {
            self.place_level(level, cands);
        }

        // Commit: build the layer.
        let mut layer = BoomerangLayer::new(self.opts.core_width);
        for (j, slot) in self.occ[0].iter().enumerate() {
            if let Some(SlotOp::Read { local }) = slot {
                let a = self.addr[*local as usize].expect("read of unaddressed value");
                layer.set_perm(j, PermSource::State(narrow(a)));
            }
        }
        let mut computes = 0u64;
        for (k, row) in self.occ.iter().enumerate().skip(1) {
            for (j, slot) in row.iter().enumerate() {
                match slot {
                    Some(SlotOp::Compute { xa, xb, .. }) => {
                        layer.set_const(k - 1, Plane::Xa, j, *xa);
                        layer.set_const(k - 1, Plane::Xb, j, *xb);
                        computes += 1;
                    }
                    Some(SlotOp::Bypass { .. }) => {
                        layer.set_const(k - 1, Plane::Ob, j, true);
                        self.stats.bypass_slots += 1;
                    }
                    _ => {}
                }
            }
        }
        // Writebacks for newly realized gates that are sinks or still have
        // unrealized consumers after this layer commits. In ascending
        // local order so state addresses are assigned deterministically.
        let mut newly = std::mem::take(&mut self.newly);
        newly.sort_unstable();
        newly.dedup();
        newly.retain(|&v| self.placed_at[v as usize].is_some());
        self.stats.compute_slots += computes;
        self.stats.duplicated_gates += computes - newly.len() as u64;
        for &v in &newly {
            self.realized[v as usize] = true;
            self.rem_level[v as usize] = 0;
            for (f, _) in self.fanins[v as usize] {
                self.live_consumers[f as usize] -= 1;
            }
        }
        let mut writebacks = Vec::new();
        for &v in &newly {
            let v = v as usize;
            let (k, j) = self.placed_at[v]
                .take()
                .expect("newly realized gates were placed");
            self.cost[v] = u32::MAX;
            if self.is_sink[v] || self.live_consumers[v] > 0 {
                let a = self.alloc()?;
                self.addr[v] = Some(a);
                self.cost[v] = 1;
                writebacks.push((k - 1, j, narrow(a)));
            }
        }
        layer.set_writebacks(writebacks);
        // Free addresses whose value can never be read again: a value
        // dies when its last consumer is realized, so only the fan-ins of
        // the gates just realized can have died — and, at the first
        // commit, sources nothing reads. Ascending, because the free list
        // hands addresses out from its end.
        let mut dead: Vec<u32> = newly
            .iter()
            .flat_map(|&v| self.fanins[v as usize].map(|(f, _)| f))
            .collect();
        if layers.is_empty() {
            dead.extend(0..self.n_sources as u32);
        }
        dead.retain(|&li| {
            let li = li as usize;
            self.addr[li].is_some() && !self.is_sink[li] && self.live_consumers[li] == 0
        });
        dead.sort_unstable();
        dead.dedup();
        #[cfg(test)]
        self.audit_frees(&dead);
        for li in dead {
            let li = li as usize;
            let a = self.addr[li].take().expect("only addressed values die");
            self.cost[li] = u32::MAX;
            self.free_list.push(a);
        }
        layers.push(layer);

        let realized = &self.realized;
        self.pending.retain(|&v| !realized[v as usize]);
        self.order.retain(|&v| !realized[v as usize]);
        self.refresh();
        let placed = newly.len();
        newly.clear();
        self.newly = newly;
        Ok(placed)
    }

    fn occupy(&mut self, level: usize, slot: usize, op: SlotOp) {
        self.occ[level][slot] = Some(op);
        self.journal.push((level, slot));
        let (mut k, mut j) = (level, slot);
        loop {
            self.used[k][j] += 1;
            if k == self.folds {
                break;
            }
            k += 1;
            j >>= 1;
        }
    }

    /// Frees every slot journaled after `mark`, newest first.
    fn rollback(&mut self, mark: usize) {
        while self.journal.len() > mark {
            let (level, slot) = self.journal.pop().expect("journal is longer than mark");
            let op = self.occ[level][slot]
                .take()
                .expect("journaled slots are occupied");
            if let SlotOp::Compute { local, .. } = op {
                if self.placed_at[local as usize] == Some((level, slot)) {
                    self.placed_at[local as usize] = None;
                }
            }
            let (mut k, mut j) = (level, slot);
            loop {
                self.used[k][j] -= 1;
                if k == self.folds {
                    break;
                }
                k += 1;
                j >>= 1;
            }
        }
    }

    /// The bit-mapping primitive of Fig 6. Attempts to make the value of
    /// local `v` appear at slot (`level`, `slot`); occupies slots via
    /// `occ`/`used` and records them in `journal` for rollback.
    fn try_place(&mut self, v: u32, level: usize, slot: usize) -> bool {
        if self.occ[level][slot].is_some() {
            return false;
        }
        if !self.has_room(v, level, slot) {
            #[cfg(test)]
            self.audit_rejection(v, level, slot, |a| &mut a.in_recursion);
            return false;
        }
        let vi = v as usize;
        let own = self.rem_level[vi] as usize;
        if level < own {
            return false;
        }
        if level > own {
            // Above the value's own level (an available value's is 0):
            // ride it up a bypass chain rooted at the A child.
            if !self.try_place(v, level - 1, 2 * slot) {
                return false;
            }
            self.occupy(level, slot, SlotOp::Bypass { local: v });
            return true;
        }
        if level == 0 {
            // Realized, but readable only while it has a state address.
            if self.addr[vi].is_none() {
                return false;
            }
            self.occupy(0, slot, SlotOp::Read { local: v });
            return true;
        }
        // Compute here: children are the two fanins. The gate may already
        // sit elsewhere in this layer (an intra-layer duplicate).
        let [(fa, ia), (fb, ib)] = self.fanins[vi];
        if !self.try_place(fa, level - 1, 2 * slot) || !self.try_place(fb, level - 1, 2 * slot + 1)
        {
            return false;
        }
        let op = SlotOp::Compute {
            local: v,
            xa: ia,
            xb: ib,
        };
        self.occupy(level, slot, op);
        if self.placed_at[vi].is_none() {
            self.placed_at[vi] = Some((level, slot));
            self.newly.push(v);
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
        // Every gate is realized once; a compute slot beyond that is a
        // duplicate, whatever attempts were made and undone on the way.
        assert_eq!(
            stats.duplicated_gates,
            stats.compute_slots - p.nodes.len() as u64
        );
        assert!(stats.slot_attempts >= 2, "each gate took an attempt");
    }

    /// A random sequential mixer circuit (the kind
    /// `tests/place_correctness.rs::random_circuit` builds).
    fn random_circuit(n_inputs: usize, gates: usize, seed: u64) -> Eaig {
        use rand::{Rng, SeedableRng};
        let mut g = Eaig::new();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut lits: Vec<_> = (0..n_inputs).map(|i| g.input(format!("i{i}"))).collect();
        let ffs: Vec<_> = (0..4).map(|_| g.ff(false)).collect();
        lits.extend(ffs.iter().copied());
        for _ in 0..gates {
            let a = lits[rng.gen_range(0..lits.len())];
            let b = lits[rng.gen_range(0..lits.len())];
            lits.push(match rng.gen_range(0..3) {
                0 => g.and(a, b),
                1 => g.or(a, b),
                _ => g.xor(a, b),
            });
        }
        for (k, &q) in ffs.iter().enumerate() {
            g.set_ff_next(q, lits[lits.len() - 1 - k]);
        }
        g.output("o", *lits.last().expect("nonempty"));
        g
    }

    /// Places `p` with every refusal of the room and dead-slot checks replayed
    /// through the unpruned recursion and every window held against a
    /// plain scan (the asserts are in `audit_rejection`/`audit_window`),
    /// and checks the audit changed nothing.
    fn audited(g: &Eaig, p: &Partition, opts: &PlaceOptions) -> (Audit, Option<PlaceError>) {
        let mut scratch = NodeScratch::new(g);
        let mut placer = Placer::new(g, p, opts, &mut scratch);
        placer.audit.on = true;
        let placed = placer.run();
        let (plain, plain_stats) = place_partition_counted(g, p, opts, &mut scratch);
        assert_eq!(placed, plain, "the audit changed the placement");
        assert_eq!(
            placer.stats, plain_stats,
            "the audit changed the statistics"
        );
        (placer.audit, placed.err())
    }

    #[test]
    fn every_rejection_of_the_room_check_fails_unpruned() {
        let mut total = Audit::default();
        for (seed, gates) in [(3u64, 300usize), (4, 900), (5, 2500)] {
            let mut g = random_circuit(16, gates, seed);
            // A source nothing in the partition reads: the first commit
            // frees its address.
            let spare = g.input("spare");
            let mut p = single_partition(&g);
            p.sources.push(spare.node());
            // 64: every level holds fewer slots than the attempt limit;
            // 2048: the lower levels hold many more.
            for core_width in [64, 256, 2048] {
                for timing_driven in [true, false] {
                    let opts = PlaceOptions {
                        core_width,
                        timing_driven,
                    };
                    let (audit, _) = audited(&g, &p, &opts);
                    total.add(&audit);
                }
            }
        }
        // The audit saw every kind of shortcut, many times. (Not the room
        // check inside the recursion: it is kept, unproven redundant, but
        // on these circuits the dead-slot check pre-empts all its
        // refusals and `in_recursion` reads 0.)
        assert!(total.dead > 100, "{total:?}");
        assert!(total.passed_over > 100, "{total:?}");
        assert!(total.candidates_skipped > 100, "{total:?}");
        assert!(total.windows > 100, "{total:?}");
        assert!(total.layers > 50, "{total:?}");
    }

    #[test]
    fn the_audit_covers_a_placement_that_overflows_midway() {
        // Inputs fit the core; the values the layers keep alive do not.
        let g = random_circuit(24, 2000, 9);
        let p = single_partition(&g);
        let opts = PlaceOptions {
            core_width: 64,
            ..Default::default()
        };
        let (audit, err) = audited(&g, &p, &opts);
        let Some(PlaceError::Unmappable(why)) = err else {
            panic!("expected the placement to overflow");
        };
        assert!(why.contains("state overflow"), "{why}");
        assert!(audit.windows > 0 && audit.passed_over > 0, "{audit:?}");
    }

    /// The audit over every partition of 100 fuzz designs (two stages),
    /// at two core widths and in both candidate orders.
    #[test]
    #[ignore = "100 fuzz designs; run in release"]
    fn every_refusal_fails_unpruned_on_the_fuzz_corpus() {
        use gem_sim::fuzz::{random_module, FuzzConfig};
        let mut total = Audit::default();
        let mut placements = 0usize;
        for seed in 0..100u64 {
            let m = random_module(seed, &FuzzConfig::for_seed(seed));
            let g = gem_synth::synthesize(&m, &gem_synth::SynthOptions::default())
                .expect("fuzz designs synthesize")
                .eaig;
            let popts = PartitionOptions {
                target_parts: 4,
                stages: 2,
                ..Default::default()
            };
            for p in partition(&g, &popts)
                .stages
                .iter()
                .flat_map(|s| &s.partitions)
            {
                for core_width in [64, 256] {
                    for timing_driven in [true, false] {
                        let opts = PlaceOptions {
                            core_width,
                            timing_driven,
                        };
                        total.add(&audited(&g, p, &opts).0);
                        placements += 1;
                    }
                }
            }
        }
        assert!(
            placements > 400 && total.dead > 1000 && total.layers > 1000,
            "{placements} placements: {total:?}"
        );
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
