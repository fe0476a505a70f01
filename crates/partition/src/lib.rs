//! Replication-aided circuit partitioning for GEM (paper §III-C).
//!
//! GPUs have no efficient inter-block communication, so GEM requires
//! partitions that are *independent within a stage*: every partition owns a
//! set of sinks (flip-flop next-states, RAM ports, primary outputs, or
//! stage-boundary cut signals) and contains the complete fan-in cone of
//! those sinks, duplicating any logic shared with other partitions. This
//! is the RepCut idea; GEM extends it two ways, both implemented here:
//!
//! * **Multi-stage partitioning** ([`multistage`]): replication cost
//!   explodes when a design is cut into the 200+ partitions needed to fill
//!   a GPU (the paper measures >200%). Cutting the circuit at a middle
//!   logic level and partitioning each stage separately — at the price of
//!   one extra device synchronization — drops the cost to a few percent
//!   (Fig 5).
//! * **Width-constrained merging** ([`merge`], Algorithm 1): partitions
//!   must be *mappable* to the 8192-bit boomerang executor, a width
//!   constraint rather than a size constraint. The design is partitioned
//!   excessively, then partitions are greedily merged largest-overlap
//!   first while the result stays mappable.
//!
//! The hypergraph partitioner itself ([`hypergraph`]) is a from-scratch
//! Fiduccia–Mattheyses recursive bisection (no external hMETIS). A caller
//! that partitions one graph more than once — the compiler's retry
//! schedule — keeps a [`Partitioner`], which builds what the part goal does
//! not change once and reuses it, and which can first offer each stage
//! whole to the merge's oracle: a stage that fits one core is where
//! merging any split of it ends.
//!
//! # Example
//!
//! ```
//! use gem_aig::Eaig;
//! use gem_partition::{partition, PartitionOptions};
//!
//! let mut g = Eaig::new();
//! // Two independent accumulator bits: ideal 2-way split, zero replication.
//! for i in 0..2 {
//!     let inp = g.input(format!("i{i}"));
//!     let q = g.ff(false);
//!     let nx = g.xor(q, inp);
//!     g.set_ff_next(q, nx);
//!     g.output(format!("o{i}"), q);
//! }
//! let result = partition(&g, &PartitionOptions { target_parts: 2, ..Default::default() });
//! assert_eq!(result.stages.len(), 1);
//! assert_eq!(result.stages[0].partitions.len(), 2);
//! assert_eq!(result.replication_cost(), 0.0);
//! ```

pub mod hypergraph;
pub mod merge;
pub mod multistage;
pub mod repcut;

pub use multistage::Partitioner;

use gem_aig::{Eaig, Lit, NodeId};

/// Tuning knobs for [`partition`].
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionOptions {
    /// Desired number of partitions per stage (the GPU wants ≥ number of
    /// thread blocks that fill the device; the paper uses 216 as the
    /// minimum for an A100).
    pub target_parts: usize,
    /// Number of pipeline stages (1 = plain RepCut; 2+ = GEM multi-stage).
    pub stages: usize,
    /// RNG seed for deterministic results.
    pub seed: u64,
}

/// Allowed imbalance fraction for bisection (0.1 = ±10 %).
pub(crate) const BALANCE: f64 = 0.1;

/// Cap on tracked sink-set size during hypergraph construction; nodes
/// reaching more sinks are treated as universally shared.
pub(crate) const SINK_SET_CAP: usize = 64;

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions {
            target_parts: 8,
            stages: 1,
            seed: 0xC1C0,
        }
    }
}

/// One partition: a set of sinks plus the full fan-in cone that computes
/// them (including logic duplicated with other partitions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// The literals this partition is responsible for computing.
    pub sinks: Vec<Lit>,
    /// AND nodes of the cone, in ascending (topological) order.
    pub nodes: Vec<NodeId>,
    /// Source nodes feeding the cone: primary inputs, FF outputs, RAM read
    /// data, and (for stage ≥ 1) cut signals computed by earlier stages.
    pub sources: Vec<NodeId>,
}

impl Partition {
    /// Total gate count (replicated logic counts once per partition).
    pub fn size(&self) -> usize {
        self.nodes.len()
    }
}

/// One `u32` per node of a graph, [`NodeScratch::UNSET`] everywhere
/// between calls. A call that looks nodes up by id borrows it for one
/// partition's nodes and leaves them unset again, so the call costs the
/// partition, not the graph: a stage that asks the merge's oracle many
/// times makes one and lends it to every call.
#[derive(Debug)]
pub struct NodeScratch(Vec<u32>);

impl NodeScratch {
    /// The value of every entry outside a call.
    pub const UNSET: u32 = u32::MAX;

    /// A table for every node of `g`.
    pub fn new(g: &Eaig) -> Self {
        NodeScratch(vec![Self::UNSET; g.len()])
    }

    /// Lends the table, indexed by node id, to `f`, which may set the
    /// entries of `p`'s sources and nodes and no other; those are unset
    /// again when `f` returns.
    pub fn for_partition<R>(&mut self, p: &Partition, f: impl FnOnce(&mut [u32]) -> R) -> R {
        let r = f(&mut self.0);
        for n in p.sources.iter().chain(&p.nodes) {
            self.0[n.0 as usize] = Self::UNSET;
        }
        debug_assert!(
            self.0.iter().all(|&v| v == Self::UNSET),
            "an entry outside the partition was set"
        );
        r
    }
}

/// The partitions of one pipeline stage; partitions within a stage are
/// mutually independent and synchronize only at the stage boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// Partitions of this stage.
    pub partitions: Vec<Partition>,
    /// Cut literals this stage must publish for the next stage (empty for
    /// the final stage).
    pub cut_lits: Vec<Lit>,
}

/// Result of [`partition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    /// Stages in execution order.
    pub stages: Vec<Stage>,
    /// Number of live AND gates in the original graph (denominator of the
    /// replication-cost metric).
    pub original_gates: usize,
}

impl Partitioning {
    /// Total gates across all partitions (duplicates counted).
    pub fn total_gates(&self) -> usize {
        self.stages
            .iter()
            .flat_map(|s| &s.partitions)
            .map(|p| p.size())
            .sum()
    }

    /// RepCut's replication-cost metric: duplicated gates relative to the
    /// original circuit size (0.0 = no duplication; the paper reports
    /// 1.30 % for 8 parts, >200 % for 216 parts single-stage, <3 % with
    /// two stages).
    pub fn replication_cost(&self) -> f64 {
        if self.original_gates == 0 {
            return 0.0;
        }
        (self.total_gates() as f64 - self.original_gates as f64) / self.original_gates as f64
    }

    /// Number of partitions in the largest stage.
    pub fn max_parts(&self) -> usize {
        self.stages
            .iter()
            .map(|s| s.partitions.len())
            .max()
            .unwrap_or(0)
    }
}

/// Work a [`Partitioner`] has done (the compile flow report's `partition`
/// stage). Every count repeats exactly from run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionCounts {
    /// Sink hypergraphs built, one per stage region split, per stage
    /// count (a stage mapped whole builds none).
    pub hypergraphs_built: u64,
    /// Bisections computed (each runs FM from several restarts).
    pub bisections: u64,
    /// Bisections an earlier call had already computed, taken instead.
    pub bisections_reused: u64,
    /// FM gain changes applied to vertices that could still move.
    pub fm_gain_updates: u64,
}

/// Partitions an E-AIG for GEM execution.
///
/// Dispatches to single-stage RepCut or GEM's multi-stage extension based
/// on [`PartitionOptions::stages`]. Use [`merge::merge_partitions`]
/// afterwards to enforce the boomerang width constraint. A one-shot use of
/// [`Partitioner`].
pub fn partition(g: &Eaig, opts: &PartitionOptions) -> Partitioning {
    Partitioner::<()>::new(g).partition(opts)
}
