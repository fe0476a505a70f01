//! Parser for a synthesizable structural-Verilog subset.
//!
//! GEM's published flow consumes Verilog RTL. This frontend accepts the
//! single-clock synthesizable subset sufficient for the designs in this
//! repository:
//!
//! * `module` with ANSI port lists (`input`/`output [msb:lsb] name`,
//!   `output reg` allowed),
//! * `wire`/`reg` declarations, memory arrays `reg [w-1:0] m [0:depth-1];`,
//! * `assign` with expressions over `~ & | ^ + - * == != < <= > >= << >>
//!   ?: {,} [i] [hi:lo] !`, sized and unsized literals,
//! * `always @(posedge <clk>)` blocks containing non-blocking assignments
//!   to regs or memory words, and `if`/`else` with `begin`/`end`,
//! * memory reads `m[addr]` in expressions (asynchronous read port) or as
//!   non-blocking RHS inside `always` (synchronous read port).
//!
//! The clock is implicit and global, as everywhere in this workspace: the
//! identifier in `@(posedge ...)` is checked to be a 1-bit input and
//! otherwise ignored.
//!
//! # Example
//!
//! ```
//! let src = r#"
//! module counter(input clk, input rst, output reg [7:0] q);
//!   always @(posedge clk) begin
//!     if (rst) q <= 8'd0;
//!     else q <= q + 8'd1;
//!   end
//! endmodule
//! "#;
//! let module = gem_netlist::verilog::parse(src)?;
//! assert_eq!(module.name(), "counter");
//! assert_eq!(module.state_bits(), 8);
//! # Ok::<(), gem_netlist::verilog::ParseVerilogError>(())
//! ```

use crate::builder::ModuleBuilder;
use crate::check::{MAX_MEMORY_BITS, MAX_NET_BITS};
use crate::module::{Module, NetId, ReadKind, ValidateError};
use std::collections::HashMap;
use std::fmt;

/// Errors from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseVerilogError {
    /// Lexical or syntactic problem at `line` with a message.
    Syntax {
        /// 1-based source line.
        line: u32,
        /// Description of what went wrong.
        message: String,
    },
    /// The netlist produced from the source failed validation.
    Validate(ValidateError),
}

impl fmt::Display for ParseVerilogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseVerilogError::Syntax { line, message } => {
                write!(f, "syntax error at line {line}: {message}")
            }
            ParseVerilogError::Validate(e) => write!(f, "invalid netlist: {e}"),
        }
    }
}

impl std::error::Error for ParseVerilogError {}

impl From<ValidateError> for ParseVerilogError {
    fn from(e: ValidateError) -> Self {
        ParseVerilogError::Validate(e)
    }
}

/// A source-level observation made during elaboration that is legal
/// Verilog but suspicious — the raw material for `gem-analyze`'s
/// frontend lint family. These never fail [`parse`]; they ride along on
/// [`parse_with_lints`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceLint {
    /// An implicit resize dropped high bits: the right-hand side of an
    /// assignment to `target` was `from` bits wide, the target only `to`.
    WidthTruncation {
        /// The assigned wire/reg/memory name.
        target: String,
        /// RHS width before the implicit resize.
        from: u32,
        /// Target width.
        to: u32,
    },
}

impl fmt::Display for SourceLint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceLint::WidthTruncation { target, from, to } => write!(
                f,
                "assignment to {target:?} truncates {from}-bit value to {to} bits"
            ),
        }
    }
}

/// Parses Verilog source into a [`Module`] that [`crate::validate`]
/// passes.
///
/// # Errors
///
/// Returns [`ParseVerilogError::Syntax`] for constructs outside the subset
/// and [`ParseVerilogError::Validate`] with the checker's first finding
/// (`docs/ANALYZE.md` §1) if the elaborated netlist breaks a structural
/// rule (e.g. a combinational cycle — the error carries the full cycle
/// path).
pub fn parse(src: &str) -> Result<Module, ParseVerilogError> {
    let (module, _) = parse_with_lints(src)?;
    crate::validate(&module)?;
    Ok(module)
}

/// Like [`parse`], but returns the module **unvalidated** together with
/// the frontend's [`SourceLint`]s. This is the entry point for the static
/// analyzer and, through it, for every compile: broken-but-elaboratable
/// netlists (combinational `assign` loops, multiply assigned wires) come
/// back as structural [`Module`]s so the analyzer can report every finding
/// of the checker with the nets named, instead of the first
/// [`ValidateError`].
///
/// # Errors
///
/// Returns [`ParseVerilogError::Syntax`] for constructs outside the
/// subset, and for a declared size beyond [`MAX_NET_BITS`] or
/// [`MAX_MEMORY_BITS`] — refused here, where it is declared, so nothing
/// downstream allocates by it.
pub fn parse_with_lints(src: &str) -> Result<(Module, Vec<SourceLint>), ParseVerilogError> {
    let tokens = lex(src)?;
    let mut parser = Parser { tokens, pos: 0 };
    let ast = parser.module()?;
    elaborate(&ast)
}

/// `bits` as the width of a net, or why not: the checker's `GEM-L008`
/// bound, applied where the text states the width.
fn net_width(bits: u64, what: &str) -> Result<u32, String> {
    match u32::try_from(bits) {
        Ok(width) if width <= MAX_NET_BITS => Ok(width),
        _ => Err(format!(
            "{what} is too wide: {bits} bits, a net holds at most {MAX_NET_BITS}"
        )),
    }
}

// ---------------------------------------------------------------- lexer --

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Number { width: Option<u32>, value: u64 },
    Punct(&'static str),
}

#[derive(Debug, Clone)]
struct SpannedTok {
    tok: Tok,
    line: u32,
}

fn lex(src: &str) -> Result<Vec<SpannedTok>, ParseVerilogError> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line = 1u32;
    let err = |line: u32, m: &str| ParseVerilogError::Syntax {
        line,
        message: m.to_string(),
    };
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
        } else if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            i += 2;
            while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                if bytes[i] == b'\n' {
                    line += 1;
                }
                i += 1;
            }
            i += 2;
        } else if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            out.push(SpannedTok {
                tok: Tok::Ident(src[start..i].to_string()),
                line,
            });
        } else if c.is_ascii_digit() {
            // number: [size]'[base]digits or plain decimal
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            if i < bytes.len() && bytes[i] == b'\'' {
                let width = (src[start..i].parse().ok())
                    .filter(|&w: &u32| w <= MAX_NET_BITS)
                    .ok_or_else(|| err(line, "bad literal size"))?;
                i += 1;
                // A `char`, not a byte: the digits are sliced from where
                // the base ends.
                let Some(base) = src[i..].chars().next() else {
                    return Err(err(line, "truncated literal"));
                };
                i += base.len_utf8();
                let dstart = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let digits: String = src[dstart..i].chars().filter(|&c| c != '_').collect();
                let radix = match base {
                    'b' | 'B' => 2,
                    'o' | 'O' => 8,
                    'd' | 'D' => 10,
                    'h' | 'H' => 16,
                    _ => return Err(err(line, "bad literal base")),
                };
                let value = u64::from_str_radix(&digits, radix)
                    .map_err(|_| err(line, "bad literal digits"))?;
                // A sized literal keeps its low `width` bits, as in Verilog.
                let value = value & 1u64.checked_shl(width).map_or(!0, |top| top - 1);
                out.push(SpannedTok {
                    tok: Tok::Number {
                        width: Some(width),
                        value,
                    },
                    line,
                });
            } else {
                // Unsized literals are 32 bits here; one that needs more is
                // refused rather than cut.
                let value = (src[start..i].parse().ok())
                    .filter(|&v: &u64| v >> 32 == 0)
                    .ok_or_else(|| err(line, "unsized literal does not fit in 32 bits"))?;
                out.push(SpannedTok {
                    tok: Tok::Number { width: None, value },
                    line,
                });
            }
        } else {
            const PUNCTS: &[&str] = &[
                "<=", ">=", "==", "!=", "<<", ">>", "&&", "||", "(", ")", "[", "]", "{", "}", ",",
                ";", ":", "?", "=", "+", "-", "*", "&", "|", "^", "~", "!", "<", ">", "@",
            ];
            let rest = &src[i..];
            let mut matched = None;
            for p in PUNCTS {
                if rest.starts_with(p) {
                    matched = Some(*p);
                    break;
                }
            }
            match matched {
                Some(p) => {
                    out.push(SpannedTok {
                        tok: Tok::Punct(p),
                        line,
                    });
                    i += p.len();
                }
                None => return Err(err(line, &format!("unexpected character {c:?}"))),
            }
        }
    }
    Ok(out)
}

// ----------------------------------------------------------------- AST --

#[derive(Debug, Clone)]
enum Expr {
    Ident(String),
    Number { width: Option<u32>, value: u64 },
    Unary(&'static str, Box<Expr>),
    Binary(&'static str, Box<Expr>, Box<Expr>),
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    Concat(Vec<Expr>),
    Index(String, Box<Expr>), // ident[expr] — bit select or memory read
    Range(String, u32, u32),  // ident[hi:lo]
}

#[derive(Debug, Clone)]
enum Stmt {
    NonBlocking {
        target: Target,
        rhs: Expr,
    },
    If {
        cond: Expr,
        then_branch: Vec<Stmt>,
        else_branch: Vec<Stmt>,
    },
}

#[derive(Debug, Clone)]
enum Target {
    Reg(String),
    MemWord(String, Expr),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum DeclKind {
    Input,
    Output,
    OutputReg,
    Wire,
    Reg,
}

#[derive(Debug, Clone)]
struct Decl {
    kind: DeclKind,
    width: u32,
    name: String,
    mem_depth: Option<u32>,
}

#[derive(Debug)]
struct AstModule {
    name: String,
    decls: Vec<Decl>,
    assigns: Vec<(Target2, Expr, u32)>, // lhs, rhs, line
    always: Vec<(String, Vec<Stmt>)>,   // clock name, body
}

#[derive(Debug, Clone)]
enum Target2 {
    Whole(String),
}

// -------------------------------------------------------------- parser --

struct Parser {
    tokens: Vec<SpannedTok>,
    pos: usize,
}

impl Parser {
    fn line(&self) -> u32 {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn err<T>(&self, m: impl Into<String>) -> Result<T, ParseVerilogError> {
        Err(ParseVerilogError::Syntax {
            line: self.line(),
            message: m.into(),
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|t| t.tok.clone());
        self.pos += 1;
        t
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if let Some(Tok::Punct(q)) = self.peek() {
            if *q == p {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseVerilogError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected {p:?}, found {:?}", self.peek()))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s == kw {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseVerilogError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected keyword {kw:?}"))
        }
    }

    fn ident(&mut self) -> Result<String, ParseVerilogError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => {
                self.pos -= 1;
                self.err(format!("expected identifier, found {other:?}"))
            }
        }
    }

    fn const_u32(&mut self) -> Result<u32, ParseVerilogError> {
        match self.next() {
            Some(Tok::Number { value, .. }) => u32::try_from(value).or_else(|_| {
                self.pos -= 1;
                self.err(format!("constant {value} does not fit in 32 bits"))
            }),
            other => {
                self.pos -= 1;
                self.err(format!("expected constant, found {other:?}"))
            }
        }
    }

    /// Optional `[msb:lsb]` width; defaults to 1.
    fn opt_range_width(&mut self) -> Result<u32, ParseVerilogError> {
        if self.eat_punct("[") {
            let msb = self.const_u32()?;
            self.expect_punct(":")?;
            let lsb = self.const_u32()?;
            self.expect_punct("]")?;
            if lsb != 0 {
                return self.err("only [msb:0] ranges are supported");
            }
            net_width(u64::from(msb) + 1, &format!("range [{msb}:0]")).or_else(|m| self.err(m))
        } else {
            Ok(1)
        }
    }

    fn module(&mut self) -> Result<AstModule, ParseVerilogError> {
        self.expect_kw("module")?;
        let name = self.ident()?;
        let mut decls = Vec::new();
        self.expect_punct("(")?;
        if !self.eat_punct(")") {
            loop {
                let kind = if self.eat_kw("input") {
                    DeclKind::Input
                } else if self.eat_kw("output") {
                    if self.eat_kw("reg") {
                        DeclKind::OutputReg
                    } else {
                        DeclKind::Output
                    }
                } else {
                    return self.err("port must start with input/output");
                };
                self.eat_kw("wire");
                let width = self.opt_range_width()?;
                let pname = self.ident()?;
                decls.push(Decl {
                    kind,
                    width,
                    name: pname,
                    mem_depth: None,
                });
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        self.expect_punct(";")?;

        let mut assigns = Vec::new();
        let mut always = Vec::new();
        loop {
            if self.eat_kw("endmodule") {
                break;
            } else if self.eat_kw("wire") || {
                if self.eat_kw("reg") {
                    decls.push(self.finish_decl(DeclKind::Reg)?);
                    continue;
                }
                false
            } {
                decls.push(self.finish_decl(DeclKind::Wire)?);
            } else if self.eat_kw("assign") {
                let line = self.line();
                let lhs = self.ident()?;
                self.expect_punct("=")?;
                let rhs = self.expr()?;
                self.expect_punct(";")?;
                assigns.push((Target2::Whole(lhs), rhs, line));
            } else if self.eat_kw("always") {
                self.expect_punct("@")?;
                self.expect_punct("(")?;
                self.expect_kw("posedge")?;
                let clk = self.ident()?;
                self.expect_punct(")")?;
                let body = self.stmt_block()?;
                always.push((clk, body));
            } else if self.peek().is_none() {
                return self.err("unexpected end of file, missing endmodule");
            } else {
                return self.err(format!("unexpected token {:?}", self.peek()));
            }
        }
        Ok(AstModule {
            name,
            decls,
            assigns,
            always,
        })
    }

    fn finish_decl(&mut self, kind: DeclKind) -> Result<Decl, ParseVerilogError> {
        let width = self.opt_range_width()?;
        let name = self.ident()?;
        let mem_depth = if self.eat_punct("[") {
            let lo = self.const_u32()?;
            self.expect_punct(":")?;
            let hi = self.const_u32()?;
            self.expect_punct("]")?;
            if lo != 0 {
                return self.err("memory ranges must start at 0");
            }
            let depth = u64::from(hi) + 1;
            if depth * u64::from(width) > MAX_MEMORY_BITS {
                return self.err(format!(
                    "memory {name} is too large: {depth} words of {width} bits, \
                     a memory holds at most {MAX_MEMORY_BITS} bits"
                ));
            }
            Some(depth as u32)
        } else {
            None
        };
        self.expect_punct(";")?;
        Ok(Decl {
            kind,
            width,
            name,
            mem_depth,
        })
    }

    /// A single statement or a begin/end block, returned as a list.
    fn stmt_block(&mut self) -> Result<Vec<Stmt>, ParseVerilogError> {
        if self.eat_kw("begin") {
            let mut stmts = Vec::new();
            while !self.eat_kw("end") {
                stmts.push(self.stmt()?);
            }
            Ok(stmts)
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    fn stmt(&mut self) -> Result<Stmt, ParseVerilogError> {
        if self.eat_kw("if") {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let then_branch = self.stmt_block()?;
            let else_branch = if self.eat_kw("else") {
                self.stmt_block()?
            } else {
                Vec::new()
            };
            Ok(Stmt::If {
                cond,
                then_branch,
                else_branch,
            })
        } else {
            let name = self.ident()?;
            let target = if self.eat_punct("[") {
                let idx = self.expr()?;
                self.expect_punct("]")?;
                Target::MemWord(name, idx)
            } else {
                Target::Reg(name)
            };
            self.expect_punct("<=")?;
            let rhs = self.expr()?;
            self.expect_punct(";")?;
            Ok(Stmt::NonBlocking { target, rhs })
        }
    }

    // Expression precedence (loosest to tightest):
    // ?: || && | ^ & (== !=) (< <= > >=) (<< >>) (+ -) (*) unary primary
    fn expr(&mut self) -> Result<Expr, ParseVerilogError> {
        let cond = self.expr_or()?;
        if self.eat_punct("?") {
            let t = self.expr()?;
            self.expect_punct(":")?;
            let f = self.expr()?;
            Ok(Expr::Ternary(Box::new(cond), Box::new(t), Box::new(f)))
        } else {
            Ok(cond)
        }
    }

    fn left_assoc(
        &mut self,
        ops: &[&'static str],
        next: fn(&mut Self) -> Result<Expr, ParseVerilogError>,
    ) -> Result<Expr, ParseVerilogError> {
        let mut lhs = next(self)?;
        'outer: loop {
            for &op in ops {
                if self.eat_punct(op) {
                    let rhs = next(self)?;
                    lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
                    continue 'outer;
                }
            }
            return Ok(lhs);
        }
    }

    fn expr_or(&mut self) -> Result<Expr, ParseVerilogError> {
        self.left_assoc(&["||"], Self::expr_and)
    }
    fn expr_and(&mut self) -> Result<Expr, ParseVerilogError> {
        self.left_assoc(&["&&"], Self::expr_bitor)
    }
    fn expr_bitor(&mut self) -> Result<Expr, ParseVerilogError> {
        self.left_assoc(&["|"], Self::expr_bitxor)
    }
    fn expr_bitxor(&mut self) -> Result<Expr, ParseVerilogError> {
        self.left_assoc(&["^"], Self::expr_bitand)
    }
    fn expr_bitand(&mut self) -> Result<Expr, ParseVerilogError> {
        self.left_assoc(&["&"], Self::expr_eq)
    }
    fn expr_eq(&mut self) -> Result<Expr, ParseVerilogError> {
        self.left_assoc(&["==", "!="], Self::expr_rel)
    }
    fn expr_rel(&mut self) -> Result<Expr, ParseVerilogError> {
        self.left_assoc(&["<=", ">=", "<", ">"], Self::expr_shift)
    }
    fn expr_shift(&mut self) -> Result<Expr, ParseVerilogError> {
        self.left_assoc(&["<<", ">>"], Self::expr_add)
    }
    fn expr_add(&mut self) -> Result<Expr, ParseVerilogError> {
        self.left_assoc(&["+", "-"], Self::expr_mul)
    }
    fn expr_mul(&mut self) -> Result<Expr, ParseVerilogError> {
        self.left_assoc(&["*"], Self::expr_unary)
    }

    fn expr_unary(&mut self) -> Result<Expr, ParseVerilogError> {
        for op in ["~", "!", "-", "&", "|", "^"] {
            if self.eat_punct(op) {
                let inner = self.expr_unary()?;
                let op: &'static str = match op {
                    "~" => "~",
                    "!" => "!",
                    "-" => "neg",
                    "&" => "&red",
                    "|" => "|red",
                    "^" => "^red",
                    _ => unreachable!(),
                };
                return Ok(Expr::Unary(op, Box::new(inner)));
            }
        }
        self.expr_primary()
    }

    fn expr_primary(&mut self) -> Result<Expr, ParseVerilogError> {
        if self.eat_punct("(") {
            let e = self.expr()?;
            self.expect_punct(")")?;
            return Ok(e);
        }
        if self.eat_punct("{") {
            let mut parts = Vec::new();
            loop {
                parts.push(self.expr()?);
                if self.eat_punct("}") {
                    break;
                }
                self.expect_punct(",")?;
            }
            return Ok(Expr::Concat(parts));
        }
        match self.next() {
            Some(Tok::Number { width, value }) => Ok(Expr::Number { width, value }),
            Some(Tok::Ident(name)) => {
                if self.eat_punct("[") {
                    // Could be [expr] (index) or [hi:lo] (range). A range
                    // requires two constants separated by ':'.
                    let save = self.pos;
                    if let (Some(Tok::Number { .. }), Some(Tok::Punct(":"))) =
                        (self.peek(), self.tokens.get(self.pos + 1).map(|t| &t.tok))
                    {
                        let hi = self.const_u32()?;
                        self.pos += 1;
                        let lo = self.const_u32()?;
                        if hi < lo {
                            return self.err(format!(
                                "part-select {name}[{hi}:{lo}] is reversed: expected [msb:lsb]"
                            ));
                        }
                        self.expect_punct("]")?;
                        return Ok(Expr::Range(name, hi, lo));
                    }
                    self.pos = save;
                    let idx = self.expr()?;
                    self.expect_punct("]")?;
                    Ok(Expr::Index(name, Box::new(idx)))
                } else {
                    Ok(Expr::Ident(name))
                }
            }
            other => {
                self.pos -= 1;
                self.err(format!("expected expression, found {other:?}"))
            }
        }
    }
}

// ---------------------------------------------------------- elaboration --

struct Elab<'a> {
    b: ModuleBuilder,
    decls: HashMap<String, Decl>,
    nets: HashMap<String, NetId>,
    mems: HashMap<String, crate::module::MemId>,
    ast: &'a AstModule,
    /// Wires whose `assign` is currently being elaborated; re-entering one
    /// means a combinational cycle, which is broken with a forward net so
    /// the loop becomes structural (and diagnosable) instead of recursing
    /// forever.
    in_flight: Vec<String>,
    /// Forward nets created to break cycles, keyed by wire name; the
    /// owning `resolve` closes the loop with `drive` when its RHS lands.
    placeholders: HashMap<String, NetId>,
    /// Frontend lints collected along the way (width truncations).
    lints: Vec<SourceLint>,
}

fn syntax_err<T>(m: impl Into<String>) -> Result<T, ParseVerilogError> {
    Err(ParseVerilogError::Syntax {
        line: 0,
        message: m.into(),
    })
}

fn elaborate(ast: &AstModule) -> Result<(Module, Vec<SourceLint>), ParseVerilogError> {
    let mut e = Elab {
        b: ModuleBuilder::new(ast.name.clone()),
        decls: HashMap::new(),
        nets: HashMap::new(),
        mems: HashMap::new(),
        ast,
        in_flight: Vec::new(),
        placeholders: HashMap::new(),
        lints: Vec::new(),
    };
    // Pass 1: declare everything.
    for d in &ast.decls {
        if e.decls.contains_key(&d.name) {
            return syntax_err(format!("duplicate declaration of {:?}", d.name));
        }
        e.decls.insert(d.name.clone(), d.clone());
        match (d.kind, d.mem_depth) {
            (DeclKind::Input, None) => {
                let n = e.b.input(&d.name, d.width);
                e.nets.insert(d.name.clone(), n);
            }
            (DeclKind::Reg | DeclKind::OutputReg, None) => {
                let q = e.b.dff(d.width);
                e.b.name_net(q, &d.name);
                e.nets.insert(d.name.clone(), q);
            }
            (DeclKind::Reg, Some(depth)) => {
                let m = e.b.memory(&d.name, depth, d.width);
                e.mems.insert(d.name.clone(), m);
            }
            (DeclKind::Wire | DeclKind::Output, None) => {
                // Driven later by an assign; recorded lazily.
            }
            _ => return syntax_err(format!("unsupported declaration shape for {:?}", d.name)),
        }
    }
    // Pass 2: assigns. Wires may reference each other in any order, so
    // elaborate on demand with memoization.
    let names: Vec<String> = ast
        .decls
        .iter()
        .filter(|d| matches!(d.kind, DeclKind::Wire | DeclKind::Output) && d.mem_depth.is_none())
        .map(|d| d.name.clone())
        .collect();
    for name in &names {
        e.resolve(name)?;
    }
    // Pass 3: always blocks.
    let ffs: Vec<String> = ast
        .decls
        .iter()
        .filter(|d| matches!(d.kind, DeclKind::Reg | DeclKind::OutputReg) && d.mem_depth.is_none())
        .map(|d| d.name.clone())
        .collect();
    let mut next: HashMap<String, NetId> = HashMap::new();
    for (clk, body) in &ast.always {
        match e.decls.get(clk) {
            Some(d) if d.kind == DeclKind::Input && d.width == 1 => {}
            _ => return syntax_err(format!("clock {clk:?} must be a 1-bit input")),
        }
        let true_net = e.b.lit(1, 1);
        e.exec_block(body, true_net, &mut next)?;
    }
    for name in &ffs {
        let q = e.nets[name];
        let d = next.remove(name).unwrap_or(q); // unassigned reg holds value
        e.b.connect_dff(q, d);
    }
    // Pass 4: output ports.
    for d in &ast.decls {
        match d.kind {
            DeclKind::Output => {
                let n = e.resolve(&d.name)?;
                e.b.output(&d.name, n);
            }
            DeclKind::OutputReg => {
                let n = e.nets[&d.name];
                e.b.output(&d.name, n);
            }
            _ => {}
        }
    }
    Ok((e.b.finish_raw(), e.lints))
}

impl Elab<'_> {
    /// Net for a named wire/reg/input, elaborating its `assign` on demand.
    fn resolve(&mut self, name: &str) -> Result<NetId, ParseVerilogError> {
        if let Some(&n) = self.nets.get(name) {
            return Ok(n);
        }
        let decl = match self.decls.get(name) {
            Some(d) => d.clone(),
            None => return syntax_err(format!("undeclared identifier {name:?}")),
        };
        if self.in_flight.iter().any(|f| f == name) {
            // A combinational `assign` cycle: break it with a forward net
            // so the loop becomes a structural cycle in the module (which
            // validation and the analyzer then name), rather than
            // recursing without bound here.
            let p = self.b.forward(decl.width);
            self.b.name_net(p, name);
            self.nets.insert(name.to_string(), p);
            self.placeholders.insert(name.to_string(), p);
            return Ok(p);
        }
        let assigns: Vec<(Target2, Expr, u32)> = self
            .ast
            .assigns
            .iter()
            .filter(|(Target2::Whole(t), _, _)| t == name)
            .cloned()
            .collect();
        if assigns.is_empty() {
            return syntax_err(format!("wire {name:?} has no assign"));
        }
        if assigns.len() > 1 {
            // Multiply assigned wire: elaborate every RHS and drive one
            // shared net from each, so validation/analysis reports the
            // multiple drivers by name instead of silently using the
            // first assign.
            let p = self.b.forward(decl.width);
            self.b.name_net(p, name);
            self.nets.insert(name.to_string(), p);
            for (_, rhs, _) in &assigns {
                self.in_flight.push(name.to_string());
                let res = self.expr(rhs);
                self.in_flight.pop();
                let n = self.sized_to(res?, decl.width, name);
                self.b.drive(p, n);
            }
            return Ok(p);
        }
        let (_, rhs, _) = &assigns[0];
        self.in_flight.push(name.to_string());
        let res = self.expr(rhs);
        self.in_flight.pop();
        let n = self.sized_to(res?, decl.width, name);
        if let Some(&p) = self.placeholders.get(name) {
            // The RHS looped back through this wire; close the structural
            // cycle on the forward net that broke the recursion.
            self.b.drive(p, n);
            Ok(p)
        } else {
            self.b.name_net(n, name);
            self.nets.insert(name.to_string(), n);
            Ok(n)
        }
    }

    /// Resizes `n` to `want` bits, recording a truncation lint when high
    /// bits are dropped.
    fn sized_to(&mut self, n: NetId, want: u32, target: &str) -> NetId {
        let have = self.b.width(n);
        if have > want {
            self.lints.push(SourceLint::WidthTruncation {
                target: target.to_string(),
                from: have,
                to: want,
            });
        }
        self.b.resize(n, want)
    }

    fn expr(&mut self, e: &Expr) -> Result<NetId, ParseVerilogError> {
        match e {
            Expr::Ident(name) => self.resolve(name),
            Expr::Number { width, value } => {
                let w = width.unwrap_or(32);
                Ok(self.b.lit(*value, w))
            }
            Expr::Unary(op, a) => {
                let an = self.expr(a)?;
                Ok(match *op {
                    "~" => self.b.not(an),
                    "neg" => self.b.neg(an),
                    "!" => {
                        let r = self.b.reduce_or(an);
                        self.b.not(r)
                    }
                    "&red" => self.b.reduce_and(an),
                    "|red" => self.b.reduce_or(an),
                    "^red" => self.b.reduce_xor(an),
                    _ => unreachable!(),
                })
            }
            Expr::Binary(op, a, b) => {
                let mut an = self.expr(a)?;
                let mut bn = self.expr(b)?;
                match *op {
                    "&&" | "||" => {
                        an = self.b.reduce_or(an);
                        bn = self.b.reduce_or(bn);
                        return Ok(if *op == "&&" {
                            self.b.and(an, bn)
                        } else {
                            self.b.or(an, bn)
                        });
                    }
                    "<<" | ">>" => {
                        return Ok(if *op == "<<" {
                            self.b.shl(an, bn)
                        } else {
                            self.b.lshr(an, bn)
                        });
                    }
                    _ => {}
                }
                // Extend both to common width (Verilog self-determined-ish).
                let (wa, wb) = (self.b.width(an), self.b.width(bn));
                let w = wa.max(wb);
                an = self.b.resize(an, w);
                bn = self.b.resize(bn, w);
                Ok(match *op {
                    "&" => self.b.and(an, bn),
                    "|" => self.b.or(an, bn),
                    "^" => self.b.xor(an, bn),
                    "+" => self.b.add(an, bn),
                    "-" => self.b.sub(an, bn),
                    "*" => self.b.mul(an, bn),
                    "==" => self.b.eq(an, bn),
                    "!=" => {
                        let r = self.b.eq(an, bn);
                        self.b.not(r)
                    }
                    "<" => self.b.ult(an, bn),
                    ">" => self.b.ult(bn, an),
                    "<=" => {
                        let r = self.b.ult(bn, an);
                        self.b.not(r)
                    }
                    ">=" => {
                        let r = self.b.ult(an, bn);
                        self.b.not(r)
                    }
                    other => return syntax_err(format!("unsupported operator {other:?}")),
                })
            }
            Expr::Ternary(c, t, f) => {
                let cn0 = self.expr(c)?;
                let cn = if self.b.width(cn0) > 1 {
                    self.b.reduce_or(cn0)
                } else {
                    cn0
                };
                let mut tn = self.expr(t)?;
                let mut fn_ = self.expr(f)?;
                let w = self.b.width(tn).max(self.b.width(fn_));
                tn = self.b.resize(tn, w);
                fn_ = self.b.resize(fn_, w);
                Ok(self.b.mux(cn, tn, fn_))
            }
            Expr::Concat(parts) => {
                // Verilog concat is MSB-first; builder concat is LSB-first.
                let mut nets = Vec::new();
                for p in parts.iter().rev() {
                    nets.push(self.expr(p)?);
                }
                let bits = nets.iter().map(|&n| u64::from(self.b.width(n))).sum();
                net_width(bits, "concatenation").or_else(syntax_err)?;
                Ok(self.b.concat(&nets))
            }
            Expr::Index(name, idx) => {
                if self.mems.contains_key(name) {
                    let mem = self.mems[name];
                    let addr = self.expr(idx)?;
                    Ok(self.b.read_port(mem, addr, ReadKind::Async))
                } else {
                    let a = self.resolve(name)?;
                    // Constant index → slice; dynamic index → shift+mask.
                    if let Expr::Number { value, .. } = **idx {
                        let Ok(i) = u32::try_from(value) else {
                            return syntax_err(format!("index {name}[{value}] is out of range"));
                        };
                        Ok(self.b.bit(a, i))
                    } else {
                        let i = self.expr(idx)?;
                        let iw = self.b.width(a);
                        let ir = self.b.resize(i, iw);
                        let shifted = self.b.lshr(a, ir);
                        Ok(self.b.bit(shifted, 0))
                    }
                }
            }
            Expr::Range(name, hi, lo) => {
                // The parser refused hi < lo.
                let select = format!("part-select {name}[{hi}:{lo}]");
                let width = net_width(u64::from(hi - lo) + 1, &select).or_else(syntax_err)?;
                let a = self.resolve(name)?;
                Ok(self.b.slice(a, *lo, width))
            }
        }
    }

    /// Executes a statement list under a path condition, updating the
    /// next-state map (`reg name -> next-value net`). Memory writes create
    /// write ports guarded by the path condition; memory reads on RHS
    /// become synchronous read ports.
    fn exec_block(
        &mut self,
        stmts: &[Stmt],
        path: NetId,
        next: &mut HashMap<String, NetId>,
    ) -> Result<(), ParseVerilogError> {
        for s in stmts {
            match s {
                Stmt::NonBlocking { target, rhs } => match target {
                    Target::Reg(name) => {
                        let decl = match self.decls.get(name) {
                            Some(d)
                                if matches!(d.kind, DeclKind::Reg | DeclKind::OutputReg)
                                    && d.mem_depth.is_none() =>
                            {
                                d.clone()
                            }
                            _ => {
                                return syntax_err(format!(
                                    "non-blocking target {name:?} is not a reg"
                                ))
                            }
                        };
                        let rhs_net = self.rhs_expr(rhs)?;
                        let rhs_net = self.sized_to(rhs_net, decl.width, name);
                        let old = next.get(name).copied().unwrap_or(self.nets[name]);
                        let merged = self.b.mux(path, rhs_net, old);
                        next.insert(name.clone(), merged);
                    }
                    Target::MemWord(name, idx) => {
                        let mem = match self.mems.get(name) {
                            Some(&m) => m,
                            None => return syntax_err(format!("{name:?} is not a memory")),
                        };
                        let addr = self.expr(idx)?;
                        let data0 = self.rhs_expr(rhs)?;
                        let width = self.decls[name].width;
                        let data = self.sized_to(data0, width, name);
                        self.b.write_port(mem, addr, data, path);
                    }
                },
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let c0 = self.expr(cond)?;
                    let c = if self.b.width(c0) > 1 {
                        self.b.reduce_or(c0)
                    } else {
                        c0
                    };
                    let then_path = self.b.and(path, c);
                    let nc = self.b.not(c);
                    let else_path = self.b.and(path, nc);
                    self.exec_block(then_branch, then_path, next)?;
                    self.exec_block(else_branch, else_path, next)?;
                }
            }
        }
        Ok(())
    }

    /// Like [`expr`](Self::expr) but memory reads become *synchronous* read
    /// ports (they sit behind the clock edge).
    fn rhs_expr(&mut self, e: &Expr) -> Result<NetId, ParseVerilogError> {
        if let Expr::Index(name, idx) = e {
            if self.mems.contains_key(name) {
                let mem = self.mems[name];
                let addr = self.expr(idx)?;
                return Ok(self.b.read_port(mem, addr, ReadKind::Sync));
            }
        }
        self.expr(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_counter() {
        let src = r#"
            module counter(input clk, input rst, output reg [7:0] q);
              always @(posedge clk) begin
                if (rst) q <= 8'd0;
                else q <= q + 8'd1;
              end
            endmodule
        "#;
        let m = parse(src).unwrap();
        assert_eq!(m.name(), "counter");
        assert_eq!(m.state_bits(), 8);
        assert!(m.port("q").is_some());
    }

    #[test]
    fn parses_combinational_assigns() {
        let src = r#"
            module alu(input [3:0] a, input [3:0] b, input op, output [3:0] y);
              wire [3:0] s;
              wire [3:0] d;
              assign s = a + b;
              assign d = a - b;
              assign y = op ? d : s;
            endmodule
        "#;
        let m = parse(src).unwrap();
        assert_eq!(m.outputs().count(), 1);
    }

    #[test]
    fn parses_memory_sync_and_async() {
        let src = r#"
            module ram(input clk, input we, input [3:0] wa, input [7:0] wd,
                       input [3:0] ra, output [7:0] async_q, output reg [7:0] sync_q);
              reg [7:0] mem [0:15];
              always @(posedge clk) begin
                if (we) mem[wa] <= wd;
                sync_q <= mem[ra];
              end
              assign async_q = mem[ra];
            endmodule
        "#;
        let m = parse(src).unwrap();
        assert_eq!(m.memories().len(), 1);
        let mem = &m.memories()[0];
        assert_eq!(mem.write_ports.len(), 1);
        assert_eq!(mem.read_ports.len(), 2);
        assert_eq!(
            mem.read_ports
                .iter()
                .filter(|r| r.kind == ReadKind::Sync)
                .count(),
            1
        );
    }

    #[test]
    fn wires_elaborate_in_any_order() {
        let src = r#"
            module m(input [1:0] a, output [1:0] y);
              wire [1:0] second;
              assign y = second;
              assign second = a ^ 2'b11;
            endmodule
        "#;
        assert!(parse(src).is_ok());
    }

    #[test]
    fn rejects_unknown_identifier() {
        let src = "module m(input a, output y); assign y = nope; endmodule";
        assert!(parse(src).is_err());
    }

    #[test]
    fn rejects_missing_endmodule() {
        let src = "module m(input a, output y); assign y = a;";
        assert!(matches!(parse(src), Err(ParseVerilogError::Syntax { .. })));
    }

    /// `examples/designs/counter.v` with `if (en)` → `if (en[0:7])`: the
    /// width of a reversed part-select used to wrap to 4 294 967 290.
    #[test]
    fn rejects_reversed_and_oversized_part_selects_with_their_line() {
        let src = "module counter(input clk, input rst, input en, output reg [7:0] q);
  always @(posedge clk) begin
    if (rst) q <= 8'd0;
    else if (en[0:7]) q <= q + 8'd1;
  end
endmodule";
        match parse(src) {
            Err(ParseVerilogError::Syntax { line, message }) => {
                assert_eq!(line, 4);
                assert!(message.contains("en[0:7] is reversed"), "{message}");
            }
            other => panic!("expected a syntax error, got {other:?}"),
        }
        for text in [
            "assign y = a[4294967296:0];", // hi is not a u32
            "assign y = a[4294967295:0];", // hi - lo + 1 is not a u32
            "assign y = a[4294967296];",
            "wire [4294967295:0] w;",
        ] {
            let src = format!("module m(input [7:0] a, output y); {text} endmodule");
            let parsed = parse(&src);
            assert!(
                matches!(parsed, Err(ParseVerilogError::Syntax { .. })),
                "{text}: {parsed:?}"
            );
        }
    }

    /// Declared sizes are refused where they are declared, naming the
    /// line; the largest that is served still parses.
    #[test]
    fn oversized_declarations_are_syntax_errors_with_their_line() {
        let module = |body: &str| format!("module m(input [7:0] a, output y);\n{body}\nendmodule");
        for (body, says) in [
            ("wire [65536:0] w;", "range [65536:0] is too wide"),
            ("wire [4294967294:0] w;", "range [4294967294:0] is too wide"),
            ("reg [7:0] m [0:4000000000];", "memory m is too large"),
            ("reg [7:0] m [0:4294967295];", "memory m is too large"),
            ("reg [65535:0] m [0:256];", "memory m is too large"),
            ("assign y = 65537'd1;", "bad literal size"),
            ("assign y = 4294967296;", "unsized literal"),
        ] {
            match parse_with_lints(&module(body)) {
                Err(ParseVerilogError::Syntax { line, message }) => {
                    assert_eq!(line, 2, "{body}");
                    assert!(message.contains(says), "{body}: {message}");
                }
                other => panic!("{body}: expected a syntax error, got {other:?}"),
            }
        }
        // Widths that only elaboration knows are bounded there.
        let wide = "wire [65535:0] w; assign w = 1'd0;";
        for body in ["assign y = a[70000:0];", "assign y = {w, w};"] {
            let parsed = parse_with_lints(&module(&format!("{wide} {body}")));
            assert!(
                matches!(&parsed, Err(ParseVerilogError::Syntax { message, .. })
                    if message.contains("is too wide")),
                "{body}: {parsed:?}"
            );
        }
        let m = parse(&module(
            "wire [65535:0] w; assign w = 65536'd1; assign y = w[65535];\n\
             reg [7:0] ram [0:2097151];",
        ))
        .expect("the caps themselves are served");
        assert_eq!(m.memories()[0].words, 1 << 21);
    }

    /// A sized literal keeps its low bits (`from_u64` asserts the fit in
    /// debug builds, so an oversized value used to panic there).
    #[test]
    fn sized_literals_are_cut_to_their_size() {
        let m = parse("module m(output [3:0] y); assign y = 4'd300; endmodule").unwrap();
        let value = m.cells().iter().find_map(|c| match &c.kind {
            crate::CellKind::Const { value } => Some(value.to_u64()),
            _ => None,
        });
        assert_eq!(value, Some(300 & 0xF));
    }

    /// Found by `crates/core/tests/totality.rs`: the base of a sized
    /// literal was read as a byte and the digits sliced after it.
    #[test]
    fn a_multibyte_literal_base_is_a_syntax_error_not_a_slice_panic() {
        let parsed = parse("module m(output y); assign y = 1'\u{fffd}1; endmodule");
        assert!(
            matches!(&parsed, Err(ParseVerilogError::Syntax { message, .. })
                if message == "bad literal base"),
            "{parsed:?}"
        );
    }

    #[test]
    fn operators_and_concat() {
        let src = r#"
            module m(input [7:0] a, input [7:0] b, output [15:0] y, output p);
              assign y = {a & b, a | b};
              assign p = ^a;
            endmodule
        "#;
        let m = parse(src).unwrap();
        assert_eq!(m.width(m.port("y").unwrap().net), 16);
        assert_eq!(m.width(m.port("p").unwrap().net), 1);
    }

    #[test]
    fn comparison_chain() {
        let src = r#"
            module m(input [3:0] a, input [3:0] b, output lt, output ge, output ne);
              assign lt = a < b;
              assign ge = a >= b;
              assign ne = a != b;
            endmodule
        "#;
        assert!(parse(src).is_ok());
    }

    #[test]
    fn unassigned_reg_holds_value() {
        let src = r#"
            module m(input clk, input en, input [3:0] d, output reg [3:0] q);
              always @(posedge clk) begin
                if (en) q <= d;
              end
            endmodule
        "#;
        let m = parse(src).unwrap();
        assert_eq!(m.state_bits(), 4);
    }

    #[test]
    fn comments_are_skipped() {
        let src = r#"
            // a comment
            module m(input a, output y); /* inline */ assign y = ~a; endmodule
        "#;
        assert!(parse(src).is_ok());
    }

    #[test]
    fn dynamic_bit_select() {
        let src = r#"
            module m(input [7:0] a, input [2:0] i, output y);
              assign y = a[i];
            endmodule
        "#;
        assert!(parse(src).is_ok());
    }

    #[test]
    fn assign_cycle_elaborates_and_fails_validation_with_path() {
        let src = r#"
            module m(input [3:0] a, output [3:0] y);
              wire [3:0] p;
              wire [3:0] q;
              assign p = q ^ a;
              assign q = p + 4'd1;
              assign y = q;
            endmodule
        "#;
        // The raw module elaborates (the cycle is broken structurally)...
        let (module, lints) = parse_with_lints(src).unwrap();
        assert!(lints.is_empty());
        // ...and validation names the full cycle, not just one net.
        match parse(src) {
            Err(ParseVerilogError::Validate(ValidateError::CombinationalCycle { cycle })) => {
                assert!(cycle.len() >= 2, "cycle too short: {cycle:?}");
                let names: Vec<_> = cycle
                    .iter()
                    .filter_map(|&n| module.net(n).name.clone())
                    .collect();
                assert!(
                    names.iter().any(|n| n == "p" || n == "q"),
                    "cycle path {names:?} should mention p or q"
                );
            }
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn self_referential_assign_is_a_cycle() {
        let src = r#"
            module m(input [3:0] a, output [3:0] y);
              wire [3:0] w;
              assign w = w & a;
              assign y = w;
            endmodule
        "#;
        assert!(matches!(
            parse(src),
            Err(ParseVerilogError::Validate(
                ValidateError::CombinationalCycle { .. }
            ))
        ));
    }

    #[test]
    fn duplicate_assign_is_multiply_driven() {
        let src = r#"
            module m(input [3:0] a, input [3:0] b, output [3:0] y);
              wire [3:0] w;
              assign w = a;
              assign w = b;
              assign y = w;
            endmodule
        "#;
        match parse(src) {
            Err(ParseVerilogError::Validate(ValidateError::MultipleDrivers(n))) => {
                // `assign y = w` aliases w's net to y, so either name
                // identifies the offender.
                let (module, _) = parse_with_lints(src).unwrap();
                let name = module.net(n).name.clone().expect("offender is named");
                assert!(name == "w" || name == "y", "unexpected name {name:?}");
            }
            other => panic!("expected multiple drivers, got {other:?}"),
        }
    }

    #[test]
    fn truncating_assign_is_linted() {
        let src = r#"
            module m(input [7:0] a, output [3:0] y);
              assign y = a;
            endmodule
        "#;
        let (_, lints) = parse_with_lints(src).unwrap();
        assert_eq!(
            lints,
            vec![SourceLint::WidthTruncation {
                target: "y".to_string(),
                from: 8,
                to: 4,
            }]
        );
        assert!(parse(src).is_ok(), "truncation is legal, only linted");
    }

    #[test]
    fn clean_sources_carry_no_lints() {
        let src = r#"
            module m(input clk, input [7:0] a, output reg [7:0] q, output [7:0] y);
              assign y = a ^ 8'hFF;
              always @(posedge clk) q <= a + 8'd1;
            endmodule
        "#;
        let (_, lints) = parse_with_lints(src).unwrap();
        assert!(lints.is_empty(), "unexpected lints: {lints:?}");
    }
}
