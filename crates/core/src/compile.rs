//! The end-to-end GEM compiler (RTL → bitstream).

use gem_aig::{Eaig, Lit, Node, RAM_ADDR_BITS, RAM_DATA_BITS};
use gem_analyze::{AnalysisReport, Severity};
use gem_isa::{assemble_core, Bitstream, ReadEntry, ScheduleCert, WriteEntry, WriteSrc};
use gem_netlist::verilog::SourceLint;
use gem_netlist::Module;
use gem_partition::merge::{estimate_width_in, merge_with_payloads};
use gem_partition::repcut::Region;
use gem_partition::{NodeScratch, Partition, PartitionOptions, Partitioner, Partitioning};
use gem_place::{place_partition_counted, CoreProgram, OutputSource, PlaceError, PlaceOptions};
use gem_synth::{synthesize, PortBits, SynthError, SynthOptions};
use gem_telemetry::{FlowRecorder, FlowReport, Json};
use gem_vgpu::{DeviceConfig, RamBinding};
use std::collections::HashMap;
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
    let mut synth = {
        let mut st = flow.stage("synth");
        let synth = synthesize(m, &opts.synth)?;
        st.metric("gates", synth.stats.gates as f64);
        st.metric("levels", f64::from(synth.stats.levels));
        st.metric("ram_blocks", synth.stats.ram_blocks as f64);
        st.metric(
            "polyfilled_mem_bits",
            synth.stats.polyfilled_mem_bits as f64,
        );
        synth
    };
    opts.validate()?;
    // Construction is over: the graph is read from here to the end of
    // the run it is kept for (`Compiled::eaig`), so it sheds its
    // structural-hashing table and growth slack before the mapping flow
    // allocates beside it.
    synth.eaig.shrink_to_fit();
    let g = &synth.eaig;
    let place_opts = PlaceOptions {
        core_width: opts.core_width,
        timing_driven: opts.timing_driven,
    };

    // --- Partition, excessively if needed, until everything is mappable.
    // More partitions shrink cone *sizes*; more stages cut deep shared
    // cones whose live *width* exceeds the core regardless of count, so
    // the retry schedule grows both.
    // Attempts at one stage count share the partitioner's stage plan and
    // every bisection it has already made. Each stage of a plan is first
    // offered whole to the merge's oracle: a stage that fits one core is
    // where merging any split of it ends (DESIGN.md §4), so it is mapped
    // as that one partition and never split.
    // Every placement made from here on travels with its partition to
    // the end of the flow: none is made twice.
    let mut partitioner = Partitioner::new(g);
    let (mut parts_goal, mut stages_goal) = (opts.target_parts, opts.stages);
    let mut accepted = None;
    let mut last_err = None;
    let mut attempts = 0u32;
    let mut whole_oracle = OracleCounts::default();
    let mut slot_attempts = 0u64;
    let mut part_stage = flow.stage("partition");
    // Each stage that asks for placements lends every call one node
    // table, and drops it when the stage ends.
    let mut scratch = NodeScratch::new(g);
    for attempt in 0..8 {
        attempts = attempt + 1;
        let popts = PartitionOptions {
            target_parts: parts_goal,
            stages: stages_goal,
            seed: opts.seed,
        };
        let width = opts.core_width as usize;
        let cand = partitioner.partition_whole_first(&popts, width, |p| {
            whole_oracle.place_if_mappable(g, p, &place_opts, &mut scratch)
        });
        match all_mappable(
            g,
            &cand,
            partitioner.whole(),
            &place_opts,
            &mut scratch,
            &mut slot_attempts,
        ) {
            Ok(programs) => {
                accepted = Some((cand, programs));
                break;
            }
            Err(e) => {
                (parts_goal, stages_goal) = retry_goals(attempt, parts_goal, stages_goal);
                gem_telemetry::debug!(
                    "partition attempt {attempts} unmappable ({e}); retrying with \
                     {parts_goal} parts / {stages_goal} stages"
                );
                last_err = Some(e);
            }
        }
    }
    let counts = partitioner.counts();
    let whole = partitioner.into_whole();
    part_stage.metric("attempts", f64::from(attempts));
    part_stage.metric(
        "slot_attempts",
        (slot_attempts + whole_oracle.slot_attempts) as f64,
    );
    part_stage.metric("hypergraphs_built", counts.hypergraphs_built as f64);
    part_stage.metric("bisections", counts.bisections as f64);
    part_stage.metric("bisections_reused", counts.bisections_reused as f64);
    part_stage.metric("fm_gain_updates", counts.fm_gain_updates as f64);
    if let Some((p, _)) = &accepted {
        part_stage.metric("parts", p.max_parts() as f64);
        part_stage.metric("stages", p.stages.len() as f64);
        part_stage.metric("whole_stages", whole.iter().flatten().count() as f64);
        part_stage.metric("replication_cost", p.replication_cost());
    }
    drop(scratch);
    drop(part_stage);
    let (partitioning, mut programs) =
        accepted.ok_or_else(|| CompileError::Place(last_err.expect("tried at least once")))?;
    for (programs, whole) in programs.iter_mut().zip(whole) {
        programs.extend(whole); // the one program of a stage mapped whole
    }

    // --- Algorithm 1: merge back under the width constraint. The oracle
    // is placement itself behind the cheap width filter. Every partition
    // enters with its placement, and a merged one leaves with the one
    // the oracle built when it accepted it.
    let mut merge_stage = flow.stage("merge");
    let mut merged_stages = Vec::new();
    let mut placements: Vec<Vec<Option<CoreProgram>>> = Vec::new();
    let mut stop = vec![false; g.len()];
    let (mut oracle_calls, mut repeats_skipped) = (0usize, 0usize);
    let mut oracle = OracleCounts::default();
    let mut scratch = NodeScratch::new(g);
    for (stage, programs) in partitioning.stages.iter().zip(programs) {
        let region = Region {
            sinks: stage
                .partitions
                .iter()
                .flat_map(|p| p.sinks.iter().copied())
                .collect(),
            stop: stop.clone(),
        };
        let payloads = programs.into_iter().map(Some).collect();
        let (merged, placed, stats) = merge_with_payloads(g, &region, stage, payloads, |p| {
            oracle.place_if_mappable(g, p, &place_opts, &mut scratch)
        });
        oracle_calls += stats.oracle_calls;
        repeats_skipped += stats.repeats_skipped;
        for l in &merged.cut_lits {
            stop[l.node().0 as usize] = true;
        }
        merged_stages.push(merged);
        placements.push(placed);
    }
    let partitioning = Partitioning {
        stages: merged_stages,
        original_gates: partitioning.original_gates,
    };
    merge_stage.metric("parts", partitioning.max_parts() as f64);
    merge_stage.metric(
        "cut_lits",
        partitioning
            .stages
            .iter()
            .map(|s| s.cut_lits.len())
            .sum::<usize>() as f64,
    );
    merge_stage.metric("replication_cost", partitioning.replication_cost());
    merge_stage.metric("oracle_calls", oracle_calls as f64);
    merge_stage.metric("width_rejects", oracle.width_rejects as f64);
    merge_stage.metric("place_rejects", oracle.place_rejects as f64);
    merge_stage.metric("repeats_skipped", repeats_skipped as f64);
    merge_stage.metric("slot_attempts", oracle.slot_attempts as f64);
    drop(scratch);
    drop(merge_stage);

    // --- Collect the placements: every partition arrives with its own.
    let mut place_stage = flow.stage("place");
    let programs: Vec<Vec<CoreProgram>> = placements
        .into_iter()
        .map(|stage| stage.into_iter().collect::<Option<Vec<_>>>())
        .collect::<Option<_>>()
        .ok_or_else(|| CompileError::Internal("a partition left the merge unplaced".into()))?;
    let cores = programs.iter().map(Vec::len).sum::<usize>();
    let max_layers = programs
        .iter()
        .flatten()
        .map(|prog| prog.layers.len() as u32)
        .max()
        .unwrap_or(0);
    place_stage.metric("max_layers", f64::from(max_layers));
    place_stage.metric("cores", cores as f64);
    drop(place_stage);

    // --- Global signal space.
    let mut encode_stage = flow.stage("encode");
    let mut global_of: HashMap<u32, u32> = HashMap::new(); // node -> slot
    let mut next_slot = 0u32;
    let slot = |global_of: &mut HashMap<u32, u32>, next: &mut u32, node: u32| -> u32 {
        *global_of.entry(node).or_insert_with(|| {
            let s = *next;
            *next += 1;
            s
        })
    };
    for (_, id) in g.inputs() {
        slot(&mut global_of, &mut next_slot, id.0);
    }
    let mut initial_ones = Vec::new();
    for f in g.ffs() {
        let sl = slot(&mut global_of, &mut next_slot, f.out.0);
        if f.init {
            initial_ones.push(sl);
        }
    }
    for r in g.rams() {
        for o in r.out {
            slot(&mut global_of, &mut next_slot, o.0);
        }
    }
    for stage in &partitioning.stages {
        for l in &stage.cut_lits {
            slot(&mut global_of, &mut next_slot, l.node().0);
        }
    }
    // Destinations: (lit, global index, deferred).
    let mut dests: Vec<(Lit, u32, bool)> = Vec::new();
    for f in g.ffs() {
        dests.push((f.next, global_of[&f.out.0], true));
    }
    let mut ram_bindings = Vec::new();
    for r in g.rams() {
        let mut bind = RamBinding {
            raddr: [0; RAM_ADDR_BITS],
            waddr: [0; RAM_ADDR_BITS],
            wdata: [0; RAM_DATA_BITS],
            we: 0,
            rdata: [0; RAM_DATA_BITS],
        };
        for (k, &l) in r.read_addr.iter().enumerate() {
            bind.raddr[k] = next_slot;
            dests.push((l, next_slot, false));
            next_slot += 1;
        }
        for (k, &l) in r.write_addr.iter().enumerate() {
            bind.waddr[k] = next_slot;
            dests.push((l, next_slot, false));
            next_slot += 1;
        }
        for (k, &l) in r.write_data.iter().enumerate() {
            bind.wdata[k] = next_slot;
            dests.push((l, next_slot, false));
            next_slot += 1;
        }
        bind.we = next_slot;
        dests.push((r.write_en, next_slot, false));
        next_slot += 1;
        for (k, o) in r.out.iter().enumerate() {
            bind.rdata[k] = global_of[&o.0];
        }
        ram_bindings.push(bind);
    }
    // Cut signals publish into their own node's slot (immediate).
    for stage in &partitioning.stages {
        for &l in &stage.cut_lits {
            dests.push((l, global_of[&l.node().0], false));
        }
    }
    // Primary outputs get dedicated slots (deferred).
    let mut po_slots = Vec::new();
    for (_, l) in g.outputs() {
        po_slots.push(next_slot);
        dests.push((*l, next_slot, true));
        next_slot += 1;
    }
    let global_bits = next_slot;

    // --- Ownership: which core publishes each sink literal.
    // lit code -> (stage, core, OutputSource)
    let mut owner: HashMap<u32, (usize, usize, OutputSource)> = HashMap::new();
    for (si, stage) in partitioning.stages.iter().enumerate() {
        for (ci, p) in stage.partitions.iter().enumerate() {
            for (k, &sink) in p.sinks.iter().enumerate() {
                owner
                    .entry(sink.code())
                    .or_insert((si, ci, programs[si][ci].outputs[k]));
            }
        }
    }
    let resolve = |l: Lit| -> Result<(usize, usize, OutputSource), CompileError> {
        if let Some(&o) = owner.get(&l.code()) {
            return Ok(o);
        }
        if let Some(&(si, ci, src)) = owner.get(&l.flip().code()) {
            let flipped = match src {
                OutputSource::State { addr, invert } => OutputSource::State {
                    addr,
                    invert: !invert,
                },
                OutputSource::Const(v) => OutputSource::Const(!v),
            };
            return Ok((si, ci, flipped));
        }
        Err(CompileError::Internal(format!(
            "sink {l} not published by any partition"
        )))
    };

    // --- Per-core global reads/writes, then assembly.
    let mut writes_per_core: Vec<Vec<Vec<WriteEntry>>> = programs
        .iter()
        .map(|s| s.iter().map(|_| Vec::new()).collect())
        .collect();
    for &(lit, global, deferred) in &dests {
        if matches!(g.node(lit.node()), Node::Const0) {
            // Constant destinations are published by stage 0, core 0 (any
            // core could; constants need no state).
            writes_per_core[0][0].push(WriteEntry {
                global,
                src: WriteSrc::Const(lit.is_inverted()),
                deferred,
            });
            continue;
        }
        let (si, ci, src) = resolve(lit)?;
        let src = match src {
            OutputSource::State { addr, invert } => WriteSrc::State {
                addr: addr as u16,
                invert,
            },
            OutputSource::Const(v) => WriteSrc::Const(v),
        };
        writes_per_core[si][ci].push(WriteEntry {
            global,
            src,
            deferred,
        });
    }
    let mut stages_bytes = Vec::new();
    for (si, progs) in programs.iter().enumerate() {
        let mut cores = Vec::new();
        for (ci, prog) in progs.iter().enumerate() {
            let reads: Vec<ReadEntry> = prog
                .inputs
                .iter()
                .map(|&(node, state)| {
                    let global = *global_of.get(&node.0).ok_or_else(|| {
                        CompileError::Internal(format!("source n{} has no global slot", node.0))
                    })?;
                    Ok(ReadEntry {
                        global,
                        state: state as u16,
                    })
                })
                .collect::<Result<_, CompileError>>()?;
            cores.push(assemble_core(prog, &reads, &writes_per_core[si][ci]));
        }
        stages_bytes.push(cores);
    }
    let bitstream = Bitstream {
        width: opts.core_width,
        global_bits,
        stages: stages_bytes,
    };

    // --- I/O map.
    let node_slot = |idx: usize| -> u32 {
        let (_, id) = &g.inputs()[idx];
        global_of[&id.0]
    };
    let mut io = IoMap::default();
    for pb in &synth.inputs {
        io.inputs.push(PortIndices {
            name: pb.name.clone(),
            bits: (0..pb.width as usize)
                .map(|i| node_slot(pb.lsb_index + i))
                .collect(),
        });
    }
    for pb in &synth.outputs {
        io.outputs.push(PortIndices {
            name: pb.name.clone(),
            bits: (0..pb.width as usize)
                .map(|i| po_slots[pb.lsb_index + i])
                .collect(),
        });
    }

    encode_stage.metric("bitstream_bytes", bitstream.total_bytes() as f64);
    encode_stage.metric("global_bits", f64::from(global_bits));
    encode_stage.metric("ram_blocks", ram_bindings.len() as f64);
    drop(encode_stage);

    let device = DeviceConfig {
        global_bits,
        rams: ram_bindings,
        initial_ones,
    };

    let schedule_cert = gate(&bitstream, &device, &io, &programs, &mut flow)?;

    let report = CompileReport {
        gates: synth.stats.gates,
        levels: synth.stats.levels,
        stages: partitioning.stages.len() as u32,
        layers: max_layers,
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
