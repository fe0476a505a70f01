//! Totality at the Verilog boundary, in process.
//!
//! Fixed-seed loops per the workspace convention: a `gem_sim::FuzzRng`
//! stream mutates the shipped designs (`examples/designs/*.v` and the lint
//! fixtures under `bad/`) at the byte level (flip / insert / delete) and
//! at the token level (swap / duplicate / delete; integer literals
//! replaced by the values where widths wrap), and every mutant goes
//! through the frontend, the analyzer and — when small — the whole
//! compile under `catch_unwind`. The properties:
//!
//! * `parse_with_lints` returns: text is never a panic;
//! * for what parses, `analyze_with_lints` returns, and
//!   `validate(m).is_ok()` ⇔ the report has no error-severity finding —
//!   there is one structural checker (`gem_netlist::check`) and these are
//!   its two views;
//! * *whatever the checker passes, `synth` accepts or rejects with a
//!   type*: `compile_verilog` returns `Ok` or a typed `Err`.
//!
//! The last is asserted for mutants whose nets and memories total at most
//! [`COMPILE_BITS`] bits. The filter is there because nothing bounds gates
//! yet (`*` is quadratic in its width; the gate budget is ROADMAP 1(d)):
//! a mutant that widens a multiplier to thousands of bits is accepted,
//! correctly, and compiles for minutes.

use gem_analyze::{analyze_with_lints, Severity};
use gem_core::{compile_verilog, CompileOptions};
use gem_netlist::{validate, verilog};
use gem_sim::FuzzRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// Mutants at most this large (net bits plus memory bits) are compiled.
const COMPILE_BITS: u64 = 4096;

/// Where widths, depths and counts wrap or meet a bound.
const EDGES: [u64; 8] = [
    0,
    1,
    1 << 16,
    1 << 31,
    (1 << 32) - 2,
    (1 << 32) - 1,
    1 << 32,
    1 << 63,
];

fn corpus() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/designs");
    let mut files: Vec<_> = [root.clone(), root.join("bad")]
        .iter()
        .flat_map(|dir| std::fs::read_dir(dir).expect("corpus directory lists"))
        .map(|entry| entry.expect("corpus entry reads").path())
        .filter(|p| p.extension().is_some_and(|x| x == "v"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 8, "three designs and five fixtures");
    let read = |p: &std::path::PathBuf| std::fs::read_to_string(p).expect("corpus file reads");
    files.iter().map(read).collect()
}

/// Identifiers, digit runs, whitespace runs, and every other character by
/// itself; concatenated they are the source.
fn tokens(src: &str) -> Vec<&str> {
    let class = |c: char| match c {
        c if c.is_ascii_digit() => 0,
        c if c.is_ascii_alphanumeric() || c == '_' => 1,
        c if c.is_whitespace() => 2,
        _ => 3,
    };
    let mut out = Vec::new();
    let mut start = 0;
    let mut chars = src.char_indices().peekable();
    while let Some((_, c)) = chars.next() {
        let run = class(c) != 3 && chars.peek().is_some_and(|&(_, n)| class(n) == class(c));
        if !run {
            let end = chars.peek().map_or(src.len(), |&(i, _)| i);
            out.push(&src[start..end]);
            start = end;
        }
    }
    out
}

fn mutate(rng: &mut FuzzRng, src: &str) -> String {
    let pick = |rng: &mut FuzzRng, n: usize| rng.below(n as u64) as usize;
    if src.is_empty() {
        return String::new();
    }
    if rng.chance(1, 2) {
        let mut bytes = src.as_bytes().to_vec();
        let at = pick(rng, bytes.len());
        match rng.below(3) {
            0 => bytes[at] ^= 1 << rng.below(8),
            1 => bytes.insert(at, rng.below(256) as u8),
            _ => drop(bytes.remove(at)),
        }
        return String::from_utf8_lossy(&bytes).into_owned();
    }
    let mut toks = tokens(src);
    let literals: Vec<usize> = (0..toks.len())
        .filter(|&i| toks[i].as_bytes()[0].is_ascii_digit())
        .collect();
    let edge;
    match rng.below(4) {
        3 if literals.is_empty() => {}
        0 => {
            let (a, b) = (pick(rng, toks.len()), pick(rng, toks.len()));
            toks.swap(a, b);
        }
        1 => {
            let at = pick(rng, toks.len());
            toks.insert(at, toks[at]);
        }
        2 => drop(toks.remove(pick(rng, toks.len()))),
        _ => {
            edge = EDGES[pick(rng, EDGES.len())].to_string();
            toks[literals[pick(rng, literals.len())]] = &edge;
        }
    }
    toks.concat()
}

/// Runs one mutant through every property; `Err` says which one broke.
fn check(text: &str) -> Result<(), String> {
    let caught = |what: &str, panic: Box<dyn std::any::Any + Send>| {
        let message = (panic.downcast_ref::<String>().map(String::as_str))
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("non-string payload");
        format!("{what} panicked: {message}")
    };
    let parsed = catch_unwind(|| verilog::parse_with_lints(text))
        .map_err(|p| caught("parse_with_lints", p))?;
    let Ok((module, lints)) = parsed else {
        return Ok(());
    };
    let report = catch_unwind(|| analyze_with_lints(&module, &lints))
        .map_err(|p| caught("analyze_with_lints", p))?;
    let valid = validate(&module);
    if valid.is_ok() != report.clean(Severity::Error) {
        return Err(format!(
            "two verdicts: validate says {valid:?}, the analyzer {}",
            report.summary()
        ));
    }
    let net_bits: u64 = module.nets().iter().map(|n| u64::from(n.width)).sum();
    let memories = module.memories().iter();
    let bits = net_bits
        + memories
            .map(|m| u64::from(m.words) * u64::from(m.width))
            .sum::<u64>();
    if valid.is_ok() && bits <= COMPILE_BITS {
        // Ok or a typed Err: both are answers.
        let opts = CompileOptions::small();
        let _answer = catch_unwind(AssertUnwindSafe(|| compile_verilog(text, &opts).map(drop)))
            .map_err(|p| caught("compile_verilog", p))?;
    }
    Ok(())
}

/// `mutants` mutants of the corpus, one to three mutations each, from
/// `seed`; panics with every broken property and the text that broke it.
fn sweep(seed: u64, mutants: usize) {
    let corpus = corpus();
    let mut rng = FuzzRng::new(seed);
    let mut broken = Vec::new();
    for case in 0..mutants {
        let mut text = corpus[case % corpus.len()].clone();
        for _ in 0..=rng.below(3) {
            text = mutate(&mut rng, &text);
        }
        let started = Instant::now();
        let verdict = check(&text);
        if started.elapsed() > Duration::from_secs(10) {
            broken.push(format!("case {case}: took {:?}\n{text}", started.elapsed()));
        }
        if let Err(why) = verdict {
            broken.push(format!("case {case}: {why}\n{text}"));
        }
    }
    assert!(
        broken.is_empty(),
        "{} of {mutants} mutants broke a property:\n{}",
        broken.len(),
        broken.join("\n---\n")
    );
}

/// The unmutated corpus holds the properties too (and all of it parses:
/// the fixtures are broken designs, not broken text).
#[test]
fn the_corpus_itself_is_total() {
    for text in corpus() {
        assert!(verilog::parse_with_lints(&text).is_ok(), "{text}");
        check(&text).unwrap_or_else(|why| panic!("{why}\n{text}"));
    }
}

#[test]
fn mutants_never_panic_and_get_one_verdict() {
    sweep(0x707A, 400);
}

/// The sweep CI's fuzz job runs in release.
#[test]
#[ignore = "12 000 mutants: run with --release -- --ignored"]
fn mutant_sweep() {
    sweep(0x5EED, 12_000);
}
