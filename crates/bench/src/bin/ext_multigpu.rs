//! **Extension E2** (paper future work: "multi-GPU support"): model GEM's
//! cycle time when partitions are sharded across several A100s connected
//! by NVLink. Instruction streaming divides across devices; device-wide
//! synchronizations become slower inter-GPU barriers — so bandwidth-bound
//! designs scale and synchronization-bound ones do not.
//!
//! Usage: `cargo run -p gem-bench --release --bin ext_multigpu`

use gem_bench::{compile_design, fmt_hz, suite, write_record};
use gem_core::GemSimulator;
use gem_vgpu::{GpuSpec, KernelCounters, TimingModel};

fn main() {
    println!("EXTENSION E2 — multi-GPU scaling model (A100 + NVLink)");
    println!(
        "{:<22} {:>11} {:>11} {:>11} {:>11}",
        "Design", "1 GPU", "2 GPUs", "4 GPUs", "8 GPUs"
    );
    let model = TimingModel::new(GpuSpec::a100());
    let mut records = Vec::new();
    let mut show = |name: &str, c: &KernelCounters| {
        let hz: Vec<f64> = [1u32, 2, 4, 8]
            .iter()
            .map(|&n| model.multi_gpu_hz(c, n))
            .collect();
        println!(
            "{:<22} {:>11} {:>11} {:>11} {:>11}",
            name,
            fmt_hz(hz[0]),
            fmt_hz(hz[1]),
            fmt_hz(hz[2]),
            fmt_hz(hz[3])
        );
        records.push(gem_telemetry::json!({
            "design": name, "hz_1": hz[0], "hz_2": hz[1], "hz_4": hz[2], "hz_8": hz[3],
        }));
    };
    // Our harness designs, measured on the virtual GPU.
    for (d, opts) in suite(1) {
        let c = compile_design(&d, &opts);
        let mut sim = GemSimulator::new(&c).expect("loads");
        for _ in 0..4 {
            sim.step();
        }
        let per_cycle = sim.counters().per_cycle().expect("ran");
        show(&d.name, &per_cycle);
    }
    // The paper's largest design, reconstructed from its published
    // bitstream size and partition count (162.4 MB, 947 blocks, 2 stages).
    let paper_op8 = KernelCounters {
        global_bytes: 162_400_000,
        global_transactions: 162_400_000 / 128,
        shared_accesses: 947 * 8192 * 2 * 13,
        alu_ops: 947 * 8191 * 13,
        block_syncs: 947 * 14 * 13,
        device_syncs: 4,
        blocks_run: 947,
        cycles: 1,
    };
    show("OpenPiton8 (paper-sz)", &paper_op8);
    println!();
    println!("Bandwidth-bound designs scale toward linear; small designs are pinned by");
    println!("the (slower) inter-GPU barrier — the quantitative reason multi-GPU is");
    println!("future work rather than a free win.");
    write_record("ext_multigpu", &gem_telemetry::Json::Array(records));
}
