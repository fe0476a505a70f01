//! The modules of `gem-ladder` (see `main.rs` for the command line and
//! `README.md` for the metric glossary).

pub mod check;
pub mod dut;
pub mod layers;
pub mod report;
pub mod serverload;
pub mod simload;
pub mod spans;
pub mod spec;
pub mod stats;
