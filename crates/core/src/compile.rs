//! The end-to-end GEM compiler (RTL → bitstream).

use gem_aig::{Eaig, Lit, Node, NodeId};
use gem_analyze::{AnalysisReport, Severity};
use gem_isa::{assemble_core, Bitstream, ReadEntry, ScheduleCert, WriteEntry, WriteSrc};
use gem_netlist::verilog::SourceLint;
use gem_netlist::Module;
use gem_partition::merge::{estimate_width_in, merge_with_payloads};
use gem_partition::repcut::Region;
use gem_partition::{NodeScratch, Partition, PartitionOptions, Partitioner, Partitioning};
use gem_place::{place_partition_counted, CoreProgram, OutputSource, PlaceError, PlaceOptions};
use gem_synth::{synthesize, PortBits, SynthError, SynthOptions, SynthResult};
use gem_telemetry::{FlowRecorder, FlowReport, Json};
use gem_vgpu::{DeviceConfig, RamBinding};
use std::fmt;

/// Options for [`compile`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompileOptions {
    /// Synthesis options.
    pub synth: SynthOptions,
    /// Desired partition count (the paper uses ≥216 to fill an A100).
    pub target_parts: usize,
    /// Pipeline stages (1 = single-stage RepCut; 2 recommended for large
    /// designs).
    pub stages: usize,
    /// Core width in bits (8192 in the paper; smaller for fast tests).
    pub core_width: u32,
    /// Timing-driven placement (Algorithm 2) vs FIFO ablation.
    pub timing_driven: bool,
    /// Seed for all heuristics.
    pub seed: u64,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            synth: SynthOptions::default(),
            target_parts: 216,
            stages: 1,
            core_width: 8192,
            timing_driven: true,
            seed: 0xC0DE,
        }
    }
}

impl CompileOptions {
    /// Widest core: state addresses are 16-bit and the machine keeps an
    /// always-zero slot just past the core, so the width itself must fit.
    pub const MAX_CORE_WIDTH: u32 = 1 << 15;
    /// Most partitions asked for; the retry schedule doubles this seven
    /// times, which must not overflow on any host.
    pub const MAX_TARGET_PARTS: usize = 1 << 16;
    /// Most pipeline stages; the retry schedule stops adding them here.
    pub const MAX_STAGES: usize = 4;

    /// A configuration sized for unit tests and small examples: few
    /// partitions, narrow cores.
    pub fn small() -> Self {
        CompileOptions {
            target_parts: 4,
            core_width: 256,
            ..Default::default()
        }
    }

    /// Checks the mapping options against what every later stage accepts
    /// (placer, ISA, verifier and loader agree on this range or the
    /// compile is refused here). Every compile entry point calls it.
    ///
    /// # Errors
    ///
    /// [`CompileError::Options`] naming the option and its legal range.
    pub fn validate(&self) -> Result<(), CompileError> {
        let w = self.core_width;
        if !w.is_power_of_two() || !(2..=Self::MAX_CORE_WIDTH).contains(&w) {
            return Err(CompileError::Options(format!(
                "core width {w} is not a power of two between 2 and {}",
                Self::MAX_CORE_WIDTH
            )));
        }
        let bounded = |what: &str, v: usize, max: usize| match v {
            v if (1..=max).contains(&v) => Ok(()),
            _ => Err(CompileError::Options(format!(
                "{what} {v} is not between 1 and {max}"
            ))),
        };
        bounded("partition count", self.target_parts, Self::MAX_TARGET_PARTS)?;
        bounded("stage count", self.stages, Self::MAX_STAGES)
    }
}

/// Where a port's bits live in the device-global signal array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortIndices {
    /// Port name.
    pub name: String,
    /// Global bit index per port bit, LSB first.
    pub bits: Vec<u32>,
}

/// Input/output binding of a compiled design.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IoMap {
    /// Input ports (poke these).
    pub inputs: Vec<PortIndices>,
    /// Output ports (peek these after a cycle).
    pub outputs: Vec<PortIndices>,
}

impl IoMap {
    /// Finds an input port by name.
    pub fn input(&self, name: &str) -> Option<&PortIndices> {
        self.inputs.iter().find(|p| p.name == name)
    }

    /// Finds an output port by name.
    pub fn output(&self, name: &str) -> Option<&PortIndices> {
        self.outputs.iter().find(|p| p.name == name)
    }
}

/// The Table I numbers for one compiled design.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CompileReport {
    /// Live E-AIG AND gates.
    pub gates: u64,
    /// E-AIG logic depth.
    pub levels: u32,
    /// Pipeline stages.
    pub stages: u32,
    /// Maximum boomerang layers over all cores.
    pub layers: u32,
    /// Partitions (thread blocks).
    pub parts: u32,
    /// Assembled bitstream size in bytes.
    pub bitstream_bytes: u64,
    /// Replication cost of partitioning (duplicated / original gates).
    pub replication_cost: f64,
    /// Native RAM blocks.
    pub ram_blocks: u64,
    /// State bits spent polyfilling asynchronous-read memories.
    pub polyfilled_mem_bits: u64,
}

impl CompileReport {
    /// Serializes the report (field names are part of the metrics-file
    /// format; see `docs/OBSERVABILITY.md`).
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("gates", self.gates);
        o.set("levels", self.levels);
        o.set("stages", self.stages);
        o.set("layers", self.layers);
        o.set("parts", self.parts);
        o.set("bitstream_bytes", self.bitstream_bytes);
        o.set("replication_cost", self.replication_cost);
        o.set("ram_blocks", self.ram_blocks);
        o.set("polyfilled_mem_bits", self.polyfilled_mem_bits);
        o
    }
}

/// A fully compiled design.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// Assembled bitstream (load into [`gem_vgpu::GemGpu`]).
    pub bitstream: Bitstream,
    /// Device configuration (global space size, RAM bindings).
    pub device: DeviceConfig,
    /// Port ↔ global-bit binding.
    pub io: IoMap,
    /// Statistics (Table I row).
    pub report: CompileReport,
    /// Per-stage compile telemetry: wall time and size metrics for each
    /// phase that ran (`synth` only when compiling from RTL).
    pub flow: FlowReport,
    /// The synthesized E-AIG (kept for golden-model cross-checks and
    /// baseline simulators).
    pub eaig: Eaig,
    /// The partitioning that produced the bitstream.
    pub partitioning: Partitioning,
    /// Per-core placement programs (stage-major order, matching the
    /// bitstream).
    pub programs: Vec<Vec<CoreProgram>>,
    /// Input-port layout within the E-AIG's input list (bit positions for
    /// driving `eaig` directly, e.g. from baseline simulators).
    pub eaig_inputs: Vec<PortBits>,
    /// Output-port layout within the E-AIG's output list.
    pub eaig_outputs: Vec<PortBits>,
    /// Schedule happens-before certificate (stored in the `.gemb`
    /// package; `gem verify` re-checks it against the bitstream).
    pub schedule_cert: ScheduleCert,
}

impl Compiled {
    /// The combined compile-side metrics document: the Table I report
    /// plus the per-stage flow timings, as one JSON object.
    pub fn metrics_json(&self) -> Json {
        let mut o = Json::object();
        o.set("report", self.report.to_json());
        o.set("compile_flow", self.flow.to_json());
        o
    }
}

/// Errors from [`compile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Synthesis failed.
    Synth(SynthError),
    /// A partition stayed unmappable even after excessive re-partitioning.
    Place(PlaceError),
    /// The static analyzer found error-severity diagnostics (e.g. a
    /// combinational cycle).
    Analyze(String),
    /// The static bitstream verifier found invariant violations (a
    /// schedule that cannot be certified among them).
    Verify(String),
    /// A mapping option outside its legal range
    /// ([`CompileOptions::validate`]).
    Options(String),
    /// Internal inconsistency (a bug).
    Internal(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Synth(e) => write!(f, "synthesis failed: {e}"),
            CompileError::Place(e) => write!(f, "placement failed: {e}"),
            CompileError::Analyze(s) => write!(f, "static analysis failed: {s}"),
            CompileError::Verify(s) => write!(f, "bitstream verification failed: {s}"),
            CompileError::Options(s) => write!(f, "invalid compile options: {s}"),
            CompileError::Internal(s) => write!(f, "internal compiler error: {s}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<SynthError> for CompileError {
    fn from(e: SynthError) -> Self {
        CompileError::Synth(e)
    }
}

/// Runs the static analyzer as a recorded flow stage and gates the
/// compile on error-severity diagnostics. Its structural passes are the
/// netlist checker (`gem_netlist::check`) in full, so this is also the
/// one place a compile validates its module.
fn analyze_stage(
    m: &Module,
    lints: &[SourceLint],
    flow: &mut FlowRecorder,
) -> Result<AnalysisReport, CompileError> {
    let mut st = flow.stage("analyze");
    let report = gem_analyze::analyze_with_lints(m, lints);
    st.metric("diagnostics", report.diagnostics.len() as f64);
    st.metric("errors", report.count(Severity::Error) as f64);
    st.metric("warnings", report.count(Severity::Warning) as f64);
    for p in &report.passes {
        st.metric(&format!("{}_wall_ns", p.name), p.wall_ns as f64);
        st.metric(&format!("{}_diagnostics", p.name), p.diagnostics as f64);
    }
    drop(st);
    let errors: Vec<_> = report.errors().collect();
    if let Some(first) = errors.first() {
        return Err(CompileError::Analyze(format!(
            "{} error-severity diagnostic(s); first: {first}",
            errors.len()
        )));
    }
    Ok(report)
}

/// Compiles Verilog source through the full GEM flow. The module comes
/// from the frontend unvalidated and the static analyzer is its gate, so
/// a structural error surfaces as a named diagnostic — a combinational
/// loop reports the nets on the cycle — instead of an opaque
/// levelization failure.
///
/// # Errors
///
/// [`CompileError::Analyze`] when the source does not parse or the
/// analyzer reports an error-severity finding (the structural rules are
/// `docs/ANALYZE.md` §1), then everything [`compile`] can return.
pub fn compile_verilog(source: &str, opts: &CompileOptions) -> Result<Compiled, CompileError> {
    let (m, lints) = gem_netlist::verilog::parse_with_lints(source)
        .map_err(|e| CompileError::Analyze(format!("parse failed: {e}")))?;
    let mut flow = FlowRecorder::new("compile");
    analyze_stage(&m, &lints, &mut flow)?;
    compile_with(&m, opts, flow)
}

/// Compiles an RTL module through the full GEM flow.
///
/// # Errors
///
/// Returns [`CompileError`] when synthesis fails or a partition cannot be
/// made mappable (e.g. the design's width genuinely exceeds
/// `target_parts × core_width`), and [`CompileError::Analyze`] when the
/// static analyzer finds error-severity diagnostics — which it does for
/// exactly the modules [`gem_netlist::ModuleBuilder::finish`] refuses.
pub fn compile(m: &Module, opts: &CompileOptions) -> Result<Compiled, CompileError> {
    let mut flow = FlowRecorder::new("compile");
    analyze_stage(m, &[], &mut flow)?;
    compile_with(m, opts, flow)
}

fn compile_with(
    m: &Module,
    opts: &CompileOptions,
    mut flow: FlowRecorder,
) -> Result<Compiled, CompileError> {
    let synth = synth_stage(m, &opts.synth, &mut flow)?;
    opts.validate()?;
    let g = &synth.eaig;
    let place = PlaceOptions {
        core_width: opts.core_width,
        timing_driven: opts.timing_driven,
    };
    let (split, programs) = partition_stage(g, opts, &place, &mut flow)?;
    let (partitioning, programs) = merge_stage(g, split, programs, &place, &mut flow);
    let (bitstream, device, io) =
        encode_stage(&synth, &partitioning, &programs, opts.core_width, &mut flow)?;
    let schedule_cert = gate(&bitstream, &device, &io, &programs, &mut flow)?;
    let report = CompileReport {
        gates: synth.stats.gates,
        levels: synth.stats.levels,
        stages: partitioning.stages.len() as u32,
        layers: max_layers(&programs),
        parts: partitioning.max_parts() as u32,
        bitstream_bytes: bitstream.total_bytes() as u64,
        replication_cost: partitioning.replication_cost(),
        ram_blocks: synth.stats.ram_blocks,
        polyfilled_mem_bits: synth.stats.polyfilled_mem_bits,
    };
    gem_telemetry::info!(
        "compiled: {} gates, {} parts, {} stages, {} layers, {} B bitstream",
        report.gates,
        report.parts,
        report.stages,
        report.layers,
        report.bitstream_bytes
    );
    Ok(Compiled {
        bitstream,
        device,
        io,
        report,
        flow: flow.finish(),
        eaig: synth.eaig,
        partitioning,
        programs,
        eaig_inputs: synth.inputs,
        eaig_outputs: synth.outputs,
        schedule_cert,
    })
}

/// The `synth` stage. Construction ends with it: the graph is read from
/// here to the end of the run it is kept for (`Compiled::eaig`), so it
/// sheds its structural-hashing table and growth slack before the
/// mapping flow allocates beside it.
fn synth_stage(
    m: &Module,
    opts: &SynthOptions,
    flow: &mut FlowRecorder,
) -> Result<SynthResult, CompileError> {
    let mut st = flow.stage("synth");
    let mut synth = synthesize(m, opts)?;
    st.metric("gates", synth.stats.gates as f64);
    st.metric("levels", f64::from(synth.stats.levels));
    st.metric("ram_blocks", synth.stats.ram_blocks as f64);
    let polyfilled = synth.stats.polyfilled_mem_bits;
    st.metric("polyfilled_mem_bits", polyfilled as f64);
    synth.eaig.shrink_to_fit();
    Ok(synth)
}

/// The `partition` stage: partitions, excessively if needed, until every
/// partition places, and returns them with their programs. More
/// partitions shrink cone *sizes*; more stages cut deep shared cones
/// whose live *width* exceeds the core regardless of count, so the retry
/// schedule grows both.
///
/// Attempts at one stage count share the partitioner's stage plan and
/// every bisection it has already made. Each stage of a plan is first
/// offered whole to the merge's oracle: a stage that fits one core is
/// where merging any split of it ends (DESIGN.md §4), so it is mapped as
/// that one partition and never split. Every placement made from here on
/// travels with its partition to the end of the flow: none is made twice.
fn partition_stage(
    g: &Eaig,
    opts: &CompileOptions,
    place: &PlaceOptions,
    flow: &mut FlowRecorder,
) -> Result<(Partitioning, Vec<Vec<CoreProgram>>), CompileError> {
    let mut st = flow.stage("partition");
    // Each stage that asks for placements lends every call one node
    // table, and drops it when the stage ends.
    let mut scratch = NodeScratch::new(g);
    let mut partitioner = Partitioner::new(g);
    let (mut parts_goal, mut stages_goal) = (opts.target_parts, opts.stages);
    let (mut whole_oracle, mut slot_attempts, mut attempts) = (OracleCounts::default(), 0, 0);
    let accepted = loop {
        attempts += 1;
        let popts = PartitionOptions {
            target_parts: parts_goal,
            stages: stages_goal,
            seed: opts.seed,
        };
        let width = opts.core_width as usize;
        let cand = partitioner.partition_whole_first(&popts, width, |p| {
            whole_oracle.place_if_mappable(g, p, place, &mut scratch)
        });
        let whole = partitioner.whole();
        match all_mappable(g, &cand, whole, place, &mut scratch, &mut slot_attempts) {
            Ok(programs) => break Ok((cand, programs)),
            Err(e) if attempts == 8 => break Err(e),
            Err(e) => {
                (parts_goal, stages_goal) = retry_goals(attempts - 1, parts_goal, stages_goal);
                gem_telemetry::debug!(
                    "partition attempt {attempts} unmappable ({e}); retrying with \
                     {parts_goal} parts / {stages_goal} stages"
                );
            }
        }
    };
    let counts = partitioner.counts();
    let whole = partitioner.into_whole();
    st.metric("attempts", f64::from(attempts));
    let slot_attempts = slot_attempts + whole_oracle.slot_attempts;
    st.metric("slot_attempts", slot_attempts as f64);
    st.metric("hypergraphs_built", counts.hypergraphs_built as f64);
    st.metric("bisections", counts.bisections as f64);
    st.metric("bisections_reused", counts.bisections_reused as f64);
    st.metric("fm_gain_updates", counts.fm_gain_updates as f64);
    let (partitioning, mut programs) = accepted.map_err(CompileError::Place)?;
    st.metric("parts", partitioning.max_parts() as f64);
    st.metric("stages", partitioning.stages.len() as f64);
    st.metric("whole_stages", whole.iter().flatten().count() as f64);
    st.metric("replication_cost", partitioning.replication_cost());
    for (programs, whole) in programs.iter_mut().zip(whole) {
        programs.extend(whole); // the one program of a stage mapped whole
    }
    Ok((partitioning, programs))
}

/// The `merge` stage, Algorithm 1: merges each stage's partitions back
/// under the width constraint. The oracle is placement itself behind the
/// cheap width filter. Every partition enters with its program, and a
/// merged one leaves with the one the oracle built when it accepted it,
/// so the stage ends with every core's program.
fn merge_stage(
    g: &Eaig,
    split: Partitioning,
    programs: Vec<Vec<CoreProgram>>,
    place: &PlaceOptions,
    flow: &mut FlowRecorder,
) -> (Partitioning, Vec<Vec<CoreProgram>>) {
    let mut st = flow.stage("merge");
    let mut scratch = NodeScratch::new(g);
    let mut oracle = OracleCounts::default();
    let (mut oracle_calls, mut repeats_skipped) = (0usize, 0usize);
    // A stage's region stops at the cut signals of the stages before it.
    let mut region = Region {
        sinks: Vec::new(),
        stop: vec![false; g.len()],
    };
    let (mut stages, mut merged_programs) = (Vec::new(), Vec::new());
    for (stage, programs) in split.stages.into_iter().zip(programs) {
        let sinks = stage.partitions.iter().flat_map(|p| p.sinks.iter());
        region.sinks = sinks.copied().collect();
        let (merged, programs, stats) = merge_with_payloads(g, &region, stage, programs, |p| {
            oracle.place_if_mappable(g, p, place, &mut scratch)
        });
        oracle_calls += stats.oracle_calls;
        repeats_skipped += stats.repeats_skipped;
        for l in &merged.cut_lits {
            region.stop[l.node().0 as usize] = true;
        }
        stages.push(merged);
        merged_programs.push(programs);
    }
    let partitioning = Partitioning {
        stages,
        original_gates: split.original_gates,
    };
    st.metric("parts", partitioning.max_parts() as f64);
    let cut_lits = partitioning.stages.iter().map(|s| s.cut_lits.len());
    st.metric("cut_lits", cut_lits.sum::<usize>() as f64);
    st.metric("replication_cost", partitioning.replication_cost());
    st.metric("oracle_calls", oracle_calls as f64);
    st.metric("width_rejects", oracle.width_rejects as f64);
    st.metric("place_rejects", oracle.place_rejects as f64);
    st.metric("repeats_skipped", repeats_skipped as f64);
    st.metric("slot_attempts", oracle.slot_attempts as f64);
    let cores = merged_programs.iter().map(Vec::len).sum::<usize>();
    st.metric("cores", cores as f64);
    st.metric("max_layers", f64::from(max_layers(&merged_programs)));
    (partitioning, merged_programs)
}

/// The most boomerang layers on any core.
fn max_layers(programs: &[Vec<CoreProgram>]) -> u32 {
    let layers = programs.iter().flatten().map(|p| p.layers.len() as u32);
    layers.max().unwrap_or(0)
}

/// The `encode` stage: lays out the device-global signal space, gives
/// every sink literal the core that publishes it, and assembles each
/// core's bitstream with its global reads and writes.
fn encode_stage(
    synth: &SynthResult,
    partitioning: &Partitioning,
    programs: &[Vec<CoreProgram>],
    width: u32,
    flow: &mut FlowRecorder,
) -> Result<(Bitstream, DeviceConfig, IoMap), CompileError> {
    const UNSET: u32 = u32::MAX;
    let mut st = flow.stage("encode");
    let g = &synth.eaig;
    // --- Global signal space: a slot per source signal, by node id.
    let mut global_of = vec![UNSET; g.len()];
    let mut global_bits = 0u32;
    let sources = (g.inputs().iter().map(|&(_, id)| id))
        .chain(g.ffs().iter().map(|f| f.out))
        .chain(g.rams().iter().flat_map(|r| r.out))
        .chain(
            partitioning
                .stages
                .iter()
                .flat_map(|s| s.cut_lits.iter().map(|l| l.node())),
        );
    for node in sources {
        let slot = &mut global_of[node.0 as usize];
        if *slot == UNSET {
            *slot = global_bits;
            global_bits += 1;
        }
    }
    let source = |node: NodeId| global_of[node.0 as usize];
    let initial_ones = g.ffs().iter().filter(|f| f.init).map(|f| source(f.out));
    let initial_ones = initial_ones.collect();
    // Destinations (lit, global index, deferred): RAM ports and primary
    // outputs (deferred) get slots of their own, and cut signals publish
    // into their own node's (immediate).
    let mut dests: Vec<(Lit, u32, bool)> = g
        .ffs()
        .iter()
        .map(|f| (f.next, source(f.out), true))
        .collect();
    let mut fresh = |dests: &mut Vec<_>, l: Lit, deferred: bool| {
        dests.push((l, global_bits, deferred));
        global_bits += 1;
        global_bits - 1
    };
    let rams = g.rams().iter().map(|r| RamBinding {
        raddr: r.read_addr.map(|l| fresh(&mut dests, l, false)),
        waddr: r.write_addr.map(|l| fresh(&mut dests, l, false)),
        wdata: r.write_data.map(|l| fresh(&mut dests, l, false)),
        we: fresh(&mut dests, r.write_en, false),
        rdata: r.out.map(source),
    });
    let rams: Vec<_> = rams.collect();
    for &l in partitioning.stages.iter().flat_map(|s| &s.cut_lits) {
        dests.push((l, source(l.node()), false));
    }
    let po_slots: Vec<u32> = (g.outputs().iter())
        .map(|&(_, l)| fresh(&mut dests, l, true))
        .collect();

    // --- Ownership: the first core, in stage order, to publish each
    // sink literal, and where its program holds it. A list of the sinks
    // sorted by literal code, not a table over every node: on a graph of
    // 1.9 M nodes such a table (8 B a node) raised the compile's resident
    // peak by 11 MB.
    let mut owned = Vec::new();
    for (si, (stage, progs)) in partitioning.stages.iter().zip(programs).enumerate() {
        for (ci, (p, prog)) in stage.partitions.iter().zip(progs).enumerate() {
            for (sink, &src) in p.sinks.iter().zip(&prog.outputs) {
                owned.push((sink.code(), si, ci, src));
            }
        }
    }
    owned.sort_by_key(|o| o.0); // stable: the first publisher stays first
    owned.dedup_by_key(|o| o.0);
    let find = |l: Lit| {
        owned
            .binary_search_by_key(&l.code(), |o| o.0)
            .ok()
            .map(|i| owned[i])
    };
    let resolve = |l: Lit| -> Result<(usize, usize, WriteSrc), CompileError> {
        let (flip, owner) = match find(l) {
            Some(o) => (false, Some(o)),
            None => (true, find(l.flip())),
        };
        let (_, si, ci, src) = owner.ok_or_else(|| {
            CompileError::Internal(format!("sink {l} not published by any partition"))
        })?;
        let src = match src {
            OutputSource::State { addr, invert } => WriteSrc::State {
                addr: addr as u16,
                invert: invert != flip,
            },
            OutputSource::Const(v) => WriteSrc::Const(v != flip),
        };
        Ok((si, ci, src))
    };

    // --- Per-core global reads and writes, then assembly.
    let mut writes: Vec<Vec<Vec<WriteEntry>>> =
        programs.iter().map(|s| vec![Vec::new(); s.len()]).collect();
    for (lit, global, deferred) in dests {
        // Constant destinations are published by stage 0, core 0 (any
        // core could; constants need no state).
        let (si, ci, src) = match g.node(lit.node()) {
            Node::Const0 => (0, 0, WriteSrc::Const(lit.is_inverted())),
            _ => resolve(lit)?,
        };
        writes[si][ci].push(WriteEntry {
            global,
            src,
            deferred,
        });
    }
    let assemble = |prog: &CoreProgram, writes: &Vec<WriteEntry>| {
        let reads = prog.inputs.iter().map(|&(node, state)| match source(node) {
            UNSET => Err(CompileError::Internal(format!(
                "source n{} has no global slot",
                node.0
            ))),
            global => Ok(ReadEntry {
                global,
                state: state as u16,
            }),
        });
        let reads = reads.collect::<Result<Vec<_>, _>>()?;
        Ok(assemble_core(prog, &reads, writes))
    };
    let stages = (programs.iter().zip(&writes))
        .map(|(progs, writes)| {
            progs
                .iter()
                .zip(writes)
                .map(|(p, w)| assemble(p, w))
                .collect()
        })
        .collect::<Result<_, CompileError>>()?;
    let bitstream = Bitstream {
        width,
        global_bits,
        stages,
    };

    // --- I/O map.
    let port = |pb: &PortBits, slot: &dyn Fn(usize) -> u32| PortIndices {
        name: pb.name.clone(),
        bits: (pb.lsb_index..pb.lsb_index + pb.width as usize)
            .map(slot)
            .collect(),
    };
    let input = |i: usize| source(g.inputs()[i].1);
    let io = IoMap {
        inputs: synth.inputs.iter().map(|pb| port(pb, &input)).collect(),
        outputs: synth
            .outputs
            .iter()
            .map(|pb| port(pb, &|i| po_slots[i]))
            .collect(),
    };
    st.metric("bitstream_bytes", bitstream.total_bytes() as f64);
    st.metric("global_bits", f64::from(global_bits));
    st.metric("ram_blocks", rams.len() as f64);
    let device = DeviceConfig {
        global_bits,
        rams,
        initial_ones,
    };
    Ok((bitstream, device, io))
}

/// The gate every compile passes before it returns: the `verify` stage
/// runs the static bitstream verifier (all six families — the compile
/// still has its placement programs), whose `schedule` check also proves
/// the schedule's happens-before order and yields its certificate. A
/// failure is the compile's error and no artifact leaves.
fn gate(
    bitstream: &Bitstream,
    device: &DeviceConfig,
    io: &IoMap,
    programs: &[Vec<CoreProgram>],
    flow: &mut FlowRecorder,
) -> Result<ScheduleCert, CompileError> {
    let mut st = flow.stage("verify");
    let vr = crate::verify::verify(bitstream, device, io, Some(programs));
    st.metric("cores", vr.cores as f64);
    st.metric("violations", vr.total_violations() as f64);
    for c in &vr.checks {
        st.metric(&format!("{}_violations", c.name), c.violations as f64);
        st.metric(&format!("{}_wall_ns", c.name), c.wall_ns as f64);
    }
    match vr.cert {
        Some(cert) if vr.passed() => {
            st.metric("reads", f64::from(cert.reads));
            st.metric("barrier_edges", f64::from(cert.barrier_edges));
            st.metric("boundary_edges", f64::from(cert.boundary_edges));
            Ok(cert)
        }
        _ => Err(CompileError::Verify(vr.summary())),
    }
}

/// The part and stage goals after failed attempt `attempt` (from 0): the
/// part goal doubles every attempt, and a stage is added after every
/// second failure until [`CompileOptions::MAX_STAGES`].
fn retry_goals(attempt: u32, parts: usize, stages: usize) -> (usize, usize) {
    let stages = if attempt % 2 == 1 {
        (stages + 1).min(CompileOptions::MAX_STAGES)
    } else {
        stages
    };
    (parts * 2, stages)
}

/// Places every partition of the stages not mapped whole (`whole[s]` is
/// `None`), stopping at the first that does not fit; `slot_attempts`
/// accumulates the placer's work either way. Returns the programs, in
/// partition order, with none for a stage mapped whole.
fn all_mappable(
    g: &Eaig,
    parts: &Partitioning,
    whole: &[Option<CoreProgram>],
    opts: &PlaceOptions,
    scratch: &mut NodeScratch,
    slot_attempts: &mut u64,
) -> Result<Vec<Vec<CoreProgram>>, PlaceError> {
    let mut place = |p| {
        let (placed, stats) = place_partition_counted(g, p, opts, scratch);
        *slot_attempts += stats.slot_attempts;
        placed
    };
    parts
        .stages
        .iter()
        .zip(whole)
        .map(|(stage, whole)| match whole {
            Some(_) => Ok(Vec::new()),
            None => stage.partitions.iter().map(&mut place).collect(),
        })
        .collect()
}

/// What the merge's mappability oracle has done: the candidates it
/// refused by the width estimate and by placement, and the placer's
/// slot attempts.
#[derive(Debug, Default)]
struct OracleCounts {
    width_rejects: u64,
    place_rejects: u64,
    slot_attempts: u64,
}

impl OracleCounts {
    /// The merge's oracle: `p`'s placement, unless [`estimate_width_in`]
    /// puts it over the core or it fails to place.
    fn place_if_mappable(
        &mut self,
        g: &Eaig,
        p: &Partition,
        opts: &PlaceOptions,
        scratch: &mut NodeScratch,
    ) -> Option<CoreProgram> {
        if estimate_width_in(g, p, scratch) > opts.core_width as usize {
            self.width_rejects += 1;
            return None;
        }
        let (placed, stats) = place_partition_counted(g, p, opts, scratch);
        self.slot_attempts += stats.slot_attempts;
        self.place_rejects += u64::from(placed.is_err());
        placed.ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::tests::counter;
    use gem_isa::mutate::{corrupt, corrupt_from, MutationClass};

    /// The gate over `c`'s own device, I/O and programs, with
    /// `bitstream` in place of `c`'s.
    fn gate_with(
        c: &Compiled,
        bitstream: &Bitstream,
    ) -> (Result<ScheduleCert, CompileError>, FlowReport) {
        let mut flow = FlowRecorder::new("gate");
        let gated = gate(bitstream, &c.device, &c.io, &c.programs, &mut flow);
        (gated, flow.finish())
    }

    #[test]
    fn the_gate_refuses_corrupted_bitstreams() {
        let c = compile(&counter(), &CompileOptions::small()).expect("compiles");
        let ctx = crate::verify::context(&c.device, &c.io, Some(&c.programs));
        let certified = gem_isa::certify_schedule(&c.bitstream, &ctx).expect("certifies");
        assert_eq!(c.schedule_cert, certified);
        assert_eq!(gate_with(&c, &c.bitstream).0, Ok(certified));
        // Seed 3 is one of `gem verify --fault`'s CI drills.
        let (refused, flow) = gate_with(&c, &corrupt(&c.bitstream, 3));
        assert!(
            matches!(refused, Err(CompileError::Verify(_))),
            "{refused:?}"
        );
        let verify = flow.stage("verify").expect("verify stage recorded");
        assert!(verify.metric("violations").expect("counted") > 0.0);
        // A message that arrives before its producer has run.
        let race = corrupt_from(&c.bitstream, 1, &[MutationClass::MsgBeforeProducer]);
        assert_ne!(race, c.bitstream, "the race class applies to this design");
        assert!(gate_with(&c, &race).0.is_err());
    }
}
