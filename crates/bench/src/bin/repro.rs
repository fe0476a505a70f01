//! Regenerates and asserts the reproduction; see [`gem_bench::repro`].
//!
//! Usage: `cargo run -p gem-bench --release --bin repro -- [--scale N]`

fn main() -> std::process::ExitCode {
    gem_bench::repro::main(std::env::args().skip(1))
}
