//! Totality at the Verilog, `.gemb` and VCD boundaries, in process.
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
//!
//! The packages of the three designs are mutated the same way, by one to
//! four bit flips, a truncation, or a changed digit inside the metadata
//! JSON. Each mutant goes through `Package::from_bytes`, and what parses
//! is loaded (`into_simulator`) and run for four cycles with every input
//! poked and every output read: a typed error or a clean run, never a
//! panic.
//!
//! A small waveform over `regfile.v`'s inputs is mutated byte by byte
//! (as the Verilog text is) and line by line (a line swapped with
//! another, duplicated or deleted). Each mutant goes through
//! `VcdStimulus::new` (which parses it with `VcdDump::parse`) and what
//! binds is replayed (`replay_lanes`) into the design's simulator: again
//! a typed error or a clean run.
//!
//! One driver ([`sweep`]) runs every boundary's mutants and collects
//! what broke.
//!
//! Four texts grow by size, not by mutation: 100 000 nested parentheses,
//! a 100 000-term `a ^ a ^ …` chain, a 100 000-wire `assign` chain
//! declared in reverse of its dependencies and a 100 000-arm `else if`
//! chain. Each is parsed on a 2 MiB
//! stack, the stack a `gem-server` connection thread parses on, and must
//! end in a typed error or a module: a stack overflow aborts the process,
//! and no `catch_unwind` contains one.

use gem_analyze::{analyze_with_lints, Severity};
use gem_core::{
    compile_verilog, replay_lanes, CompileOptions, Compiled, GemSimulator, OutputRecorder, Package,
    VcdStimulus,
};
use gem_netlist::vcd::VcdWriter;
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

fn pick(rng: &mut FuzzRng, n: usize) -> usize {
    rng.below(n as u64) as usize
}

/// One byte of `src` flipped, inserted or deleted; invalid UTF-8 reads
/// as U+FFFD.
fn mutate_bytes(rng: &mut FuzzRng, src: &str) -> String {
    let mut bytes = src.as_bytes().to_vec();
    let at = pick(rng, bytes.len());
    match rng.below(3) {
        0 => bytes[at] ^= 1 << rng.below(8),
        1 => bytes.insert(at, rng.below(256) as u8),
        _ => drop(bytes.remove(at)),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn mutate(rng: &mut FuzzRng, src: &str) -> String {
    if src.is_empty() {
        return String::new();
    }
    if rng.chance(1, 2) {
        return mutate_bytes(rng, src);
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

fn caught(what: &str, panic: Box<dyn std::any::Any + Send>) -> String {
    let message = (panic.downcast_ref::<String>().map(String::as_str))
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("non-string payload");
    format!("{what} panicked: {message}")
}

/// Runs one mutant through every property; `Err` says which one broke.
fn check(text: &str) -> Result<(), String> {
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

/// The one mutation driver: `mutants` mutants from `seed`, case `i` made
/// by `mutate` from `corpus[i % corpus.len()]` and run through `check`;
/// panics with every case that broke a property.
fn sweep<T>(
    corpus: &[T],
    seed: u64,
    mutants: usize,
    mut mutate: impl FnMut(&mut FuzzRng, &T) -> T,
    mut check: impl FnMut(&T) -> Result<(), String>,
) {
    let mut rng = FuzzRng::new(seed);
    let broken: Vec<String> = (0..mutants)
        .filter_map(|case| {
            let mutant = mutate(&mut rng, &corpus[case % corpus.len()]);
            check(&mutant)
                .err()
                .map(|why| format!("case {case}: {why}"))
        })
        .collect();
    assert!(
        broken.is_empty(),
        "{} of {mutants} mutants broke a property:\n{}",
        broken.len(),
        broken.join("\n---\n")
    );
}

/// `mutants` mutants of the Verilog corpus, one to three mutations each,
/// from `seed`; a failure shows the text that broke the property.
fn verilog_sweep(seed: u64, mutants: usize) {
    let mutate = |rng: &mut FuzzRng, text: &String| {
        let mut text = text.clone();
        for _ in 0..=rng.below(3) {
            text = mutate(rng, &text);
        }
        text
    };
    let timed_check = |text: &String| {
        let started = Instant::now();
        check(text).map_err(|why| format!("{why}\n{text}"))?;
        match started.elapsed() {
            took if took > Duration::from_secs(10) => Err(format!("took {took:?}\n{text}")),
            _ => Ok(()),
        }
    };
    sweep(&corpus(), seed, mutants, mutate, timed_check);
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
    verilog_sweep(0x707A, 400);
}

/// The sweep CI's fuzz job runs in release.
#[test]
#[ignore = "12 000 mutants: run with --release -- --ignored"]
fn mutant_sweep() {
    verilog_sweep(0x5EED, 12_000);
}

/// Parses `text` on a thread with a connection thread's 2 MiB stack.
fn parse_on_a_server_stack(text: String) -> Result<(), verilog::ParseVerilogError> {
    let parse = move || verilog::parse(&text).map(drop);
    let thread = std::thread::Builder::new().stack_size(2 << 20).spawn(parse);
    thread
        .expect("thread spawns")
        .join()
        .expect("parse returns")
}

/// `n` nested parentheses, an `n`-term XOR chain, `n` wires each
/// assigned from the next one declared (so that elaborating the first
/// needs all the others first), and an `n`-arm `else if` chain.
fn deep_texts(n: usize) -> [String; 4] {
    let parens = format!(
        "module p(input a, output y);\n  assign y = {}a{};\nendmodule\n",
        "(".repeat(n),
        ")".repeat(n)
    );
    let xor = format!(
        "module x(input a, output y);\n  assign y = a{};\nendmodule\n",
        " ^ a".repeat(n - 1)
    );
    let mut wires = String::from("module w(input a, output y);\n  assign y = w0;\n");
    for i in 0..n {
        wires += &format!("  wire w{i};\n");
    }
    for i in 1..n {
        wires += &format!("  assign w{} = w{i} ^ a;\n", i - 1);
    }
    wires += &format!("  assign w{} = a;\nendmodule\n", n - 1);
    let arms = format!(
        "module i(input clk, input [7:0] a, output reg y);\n  always @(posedge clk)\n    \
         if (a == 0) y <= 0;\n{}    else y <= 1;\nendmodule\n",
        (1..n)
            .map(|k| format!("    else if (a == {}) y <= {};\n", k % 256, k % 2))
            .collect::<String>()
    );
    [parens, xor, wires, arms]
}

#[test]
fn text_deep_or_long_is_an_answer_on_a_server_stack() {
    let [parens, xor, wires, arms] = deep_texts(100_000);
    let refused = parse_on_a_server_stack(parens).expect_err("too deep");
    let message = refused.to_string();
    assert!(
        message.starts_with("syntax error at line 2: nesting"),
        "{message}"
    );
    parse_on_a_server_stack(xor).expect("a chain is not nesting");
    parse_on_a_server_stack(wires).expect("nor is a chain of wires");
    parse_on_a_server_stack(arms).expect("nor an `else if` chain");
}

/// The deepest text the frontend takes parses on the same stack:
/// parentheses alone (the most parser stack a level); every kind of
/// nesting in turn; and every level a parenthesized operand at the end of
/// a chain through all ten precedence levels, the deepest syntax tree a
/// level can hold (dropping it recurses through the tree). Then `if`
/// statements. One level more is refused.
#[test]
fn the_deepest_accepted_text_fits_a_server_stack() {
    // The assigned expression is the first level; each wrapper adds one.
    let levels = verilog::MAX_NESTING - 1;
    let wrap = |kind: usize, x: String| match kind {
        0 => format!("({x})"),
        1 => format!("a ? {x} : a"),
        2 => format!("{{{x}}}"),
        3 => format!("~{x}"),
        4 => format!("a[{x}]"),
        _ => format!("a || a && a | a ^ a & a == a < a << a + a * ({x})"),
    };
    for kinds in [&[0][..], &[0, 1, 2, 3, 4, 5], &[5]] {
        let expr = (0..levels).fold("a".to_string(), |x, k| wrap(kinds[k % kinds.len()], x));
        let text =
            |e: &str| format!("module e(input a, output y);\n  assign y = {e};\nendmodule\n");
        parse_on_a_server_stack(text(&expr)).expect("at the bound");
        let refused = parse_on_a_server_stack(text(&wrap(0, expr))).expect_err("past it");
        assert!(refused.to_string().contains("nesting"), "{refused}");
    }
    let ifs = |n: usize| {
        format!(
            "module s(input clk, input a, output reg y);\n  always @(posedge clk)\n{}    y <= a;\nendmodule\n",
            "    if (a)\n".repeat(n)
        )
    };
    parse_on_a_server_stack(ifs(levels)).expect("at the bound");
    parse_on_a_server_stack(ifs(levels + 1)).expect_err("past it");
}

/// The packages of the three designs (the fixtures are refused by the
/// analyzer, so they have none).
fn packages() -> Vec<Vec<u8>> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/designs");
    let package = |design: &str| {
        let text = std::fs::read_to_string(root.join(format!("{design}.v")));
        let text = text.expect("design reads");
        let c = compile_verilog(&text, &CompileOptions::small()).expect("design compiles");
        Package::from_compiled(&c).to_bytes()
    };
    ["alu", "counter", "regfile"].map(package).into()
}

/// One to four bit flips, a truncation, or one digit of the metadata
/// JSON changed to another.
fn mutate_package(rng: &mut FuzzRng, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match rng.below(3) {
        0 => {
            for _ in 0..=rng.below(4) {
                let at = pick(rng, out.len());
                out[at] ^= 1 << rng.below(8);
            }
        }
        1 => out.truncate(pick(rng, out.len())),
        _ => {
            // "GEMPKG1\n", the metadata length, then the metadata.
            let meta_len = u32::from_le_bytes(out[8..12].try_into().expect("4 bytes"));
            let meta = 12..12 + meta_len as usize;
            let digits: Vec<usize> = meta.filter(|&i| out[i].is_ascii_digit()).collect();
            let at = digits[pick(rng, digits.len())];
            out[at] = b'0' + ((out[at] - b'0' + 1 + rng.below(9) as u8) % 10);
        }
    }
    out
}

/// Parses `bytes` as a package and, if it parses, runs it for four
/// cycles, poking every input and reading every output; `Err` names the
/// step that panicked.
fn check_package(bytes: &[u8]) -> Result<(), String> {
    let parsed =
        catch_unwind(|| Package::from_bytes(bytes)).map_err(|p| caught("from_bytes", p))?;
    let Ok(package) = parsed else {
        return Ok(());
    };
    let io = package.io.clone();
    let run = || {
        let Ok(mut sim) = package.into_simulator() else {
            return;
        };
        let mut stimulus = FuzzRng::new(bytes.len() as u64);
        for _ in 0..4 {
            for p in &io.inputs {
                sim.set_input(&p.name, stimulus.bits(p.bits.len() as u32));
            }
            sim.step();
            for p in &io.outputs {
                sim.output(&p.name);
            }
        }
    };
    catch_unwind(AssertUnwindSafe(run)).map_err(|p| caught("into_simulator or a cycle", p))
}

/// `mutants` mutants of the three packages from `seed`.
fn package_sweep(seed: u64, mutants: usize) {
    let packages = packages();
    for bytes in &packages {
        Package::from_bytes(bytes).expect("an unmutated package parses");
        check_package(bytes).expect("and runs");
    }
    let mutate = |rng: &mut FuzzRng, bytes: &Vec<u8>| mutate_package(rng, bytes);
    let check = |bytes: &Vec<u8>| check_package(bytes);
    sweep(&packages, seed, mutants, mutate, check);
}

#[test]
fn package_mutants_never_panic() {
    package_sweep(0x6E3B, 300);
}

/// The package sweep CI's fuzz job runs in release.
#[test]
#[ignore = "10 000 package mutants: run with --release -- --ignored"]
fn package_mutant_sweep() {
    package_sweep(0x6E3C, 10_000);
}

/// `regfile.v`, compiled, and a six-cycle waveform over its inputs that
/// also carries a variable the design does not have.
fn waveform_design() -> (Compiled, String) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/designs");
    let text = std::fs::read_to_string(root.join("regfile.v")).expect("design reads");
    let c = compile_verilog(&text, &CompileOptions::small()).expect("design compiles");
    let mut w = VcdWriter::new("tb");
    let vars: Vec<_> = (c.io.inputs.iter())
        .map(|p| (w.add_var(&p.name, p.bits.len() as u32), p.bits.len() as u32))
        .collect();
    let other = w.add_var("other", 3);
    w.begin();
    let mut values = FuzzRng::new(0xACD);
    for t in 0..6 {
        w.timestamp(t * 5);
        for &(var, width) in &vars {
            w.change(var, &values.bits(width));
        }
        w.change(other, &values.bits(3));
    }
    (c, w.finish())
}

/// A byte mutant, or one line swapped with another, duplicated or
/// deleted.
fn mutate_waveform(rng: &mut FuzzRng, text: &str) -> String {
    if rng.chance(1, 2) {
        return mutate_bytes(rng, text);
    }
    let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
    match rng.below(3) {
        0 => {
            let (a, b) = (pick(rng, lines.len()), pick(rng, lines.len()));
            lines.swap(a, b);
        }
        1 => {
            let at = pick(rng, lines.len());
            lines.insert(at, lines[at]);
        }
        _ => drop(lines.remove(pick(rng, lines.len()))),
    }
    lines.concat()
}

/// Binds `text` to the inputs of `sim`'s design and, if it binds,
/// replays it from wherever `sim` stands; `Err` names the step that
/// panicked.
fn check_waveform(sim: &mut GemSimulator, text: &str) -> Result<(), String> {
    let io = sim.io().clone();
    let bound =
        catch_unwind(|| VcdStimulus::new(text, &io)).map_err(|p| caught("VcdStimulus::new", p))?;
    let Ok(stimulus) = bound else {
        return Ok(());
    };
    let mut recorder = [OutputRecorder::new(&io, 0)];
    let run = || replay_lanes(sim, &[&stimulus], &mut recorder);
    catch_unwind(AssertUnwindSafe(run))
        .map(drop)
        .map_err(|p| caught("replay_lanes", p))
}

/// `mutants` mutants of the waveform from `seed`; a failure shows the
/// text that broke.
fn waveform_sweep(seed: u64, mutants: usize) {
    let (c, waveform) = waveform_design();
    let stimulus = VcdStimulus::new(&waveform, &c.io).expect("the waveform binds");
    assert_eq!(stimulus.cycles(), 6);
    let mut sim = GemSimulator::new(&c).expect("the design loads");
    check_waveform(&mut sim, &waveform).expect("and replays");
    let check =
        |text: &String| check_waveform(&mut sim, text).map_err(|why| format!("{why}\n{text}"));
    let mutate = |rng: &mut FuzzRng, text: &String| mutate_waveform(rng, text);
    sweep(&[waveform], seed, mutants, mutate, check);
}

#[test]
fn waveform_mutants_never_panic() {
    waveform_sweep(0x7CD, 300);
}

/// The waveform sweep CI's fuzz job runs in release.
#[test]
#[ignore = "10 000 waveform mutants: run with --release -- --ignored"]
fn waveform_mutant_sweep() {
    waveform_sweep(0x7CE, 10_000);
}
