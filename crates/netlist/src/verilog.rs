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
//! Nesting is bounded: parentheses, concatenations, indexes, `?:`
//! then-branches, unary operators and `if` statements nest at most
//! [`MAX_NESTING`] levels (an assigned expression is the first), and
//! deeper text is a syntax error naming its line. Length is not bounded:
//! operator chains, `?:` else-chains, `else if` chains and `assign`
//! chains in any order are walked without recursion, so no source
//! overflows a `gem-server` connection thread's 2 MiB stack: at the bound
//! parsing takes under 1 MiB of it in a debug build, 192 KiB in release.
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
use std::collections::{HashMap, HashSet};
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
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
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

/// An expression. Operators of one precedence level form one flat
/// [`Chain`](Expr::Chain), and `c0 ? t0 : c1 ? t1 : f` one flat
/// [`Select`](Expr::Select), so a long operand list is a `Vec`, not a
/// tree as deep as it is long: the tree's depth is bounded by
/// [`MAX_NESTING`], and neither elaboration nor drop recurses per term.
#[derive(Debug)]
enum Expr {
    Ident(String),
    Number {
        width: Option<u32>,
        value: u64,
    },
    Unary(&'static str, Box<Expr>),
    /// `first op0 e0 op1 e1 …`, left-associative.
    Chain(Box<Expr>, Vec<(&'static str, Expr)>),
    /// `c0 ? t0 : c1 ? t1 : … : else`.
    Select(Vec<(Expr, Expr)>, Box<Expr>),
    Concat(Vec<Expr>),
    Index(String, Box<Expr>), // ident[expr] — bit select or memory read
    Range(String, u32, u32),  // ident[hi:lo]
}

#[derive(Debug)]
enum Stmt {
    NonBlocking {
        target: Target,
        rhs: Expr,
    },
    /// `if (c0) t0 else if (c1) t1 … else otherwise`: an `else if`
    /// chain is one flat statement, not one nesting level per arm.
    If {
        arms: Vec<(Expr, Vec<Stmt>)>,
        otherwise: Vec<Stmt>,
    },
}

#[derive(Debug)]
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
    assigns: Vec<(String, Expr)>,     // lhs, rhs
    always: Vec<(String, Vec<Stmt>)>, // clock name, body
}

// -------------------------------------------------------------- parser --

/// Binary operators by precedence, loosest first; every level is
/// left-associative. Tighter than the last bind unary operators.
const BINARY: [&[&str]; 10] = [
    &["||"],
    &["&&"],
    &["|"],
    &["^"],
    &["&"],
    &["==", "!="],
    &["<=", ">=", "<", ">"],
    &["<<", ">>"],
    &["+", "-"],
    &["*"],
];

/// A chain [`Parser::binary`] has open: level, first operand, links so
/// far, and the operator waiting for the next operand.
type OpenChain = (usize, Expr, Vec<(&'static str, Expr)>, &'static str);

/// Prefix operators and the names elaboration knows them by.
const UNARY: [(&str, &str); 6] = [
    ("~", "~"),
    ("!", "!"),
    ("-", "neg"),
    ("&", "&red"),
    ("|", "|red"),
    ("^", "^red"),
];

/// Most nesting levels the frontend parses (see the module docs); the
/// JSON parser bounds its nesting the same way.
pub const MAX_NESTING: usize = 128;

struct Parser {
    tokens: Vec<SpannedTok>,
    pos: usize,
    /// Current nesting, bounded by [`MAX_NESTING`].
    depth: usize,
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

    /// Runs `f` one nesting level deeper, or refuses past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseVerilogError>,
    ) -> Result<T, ParseVerilogError> {
        if self.depth == MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        let result = f(self);
        self.depth -= 1;
        result
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
                let lhs = self.ident()?;
                self.expect_punct("=")?;
                let rhs = self.expr()?;
                self.expect_punct(";")?;
                assigns.push((lhs, rhs));
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
            self.nested(|p| {
                let mut arms = Vec::new();
                loop {
                    p.expect_punct("(")?;
                    let cond = p.expr()?;
                    p.expect_punct(")")?;
                    arms.push((cond, p.stmt_block()?));
                    if !p.eat_kw("else") {
                        return Ok(Stmt::If {
                            arms,
                            otherwise: Vec::new(),
                        });
                    }
                    if !p.eat_kw("if") {
                        let otherwise = p.stmt_block()?;
                        return Ok(Stmt::If { arms, otherwise });
                    }
                }
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

    /// `c0 ? t0 : c1 ? t1 : … : else`, or a plain [`binary`](Self::binary)
    /// expression. A then-branch nests; the else-branch continues the
    /// flat [`Expr::Select`].
    fn expr(&mut self) -> Result<Expr, ParseVerilogError> {
        self.nested(|p| {
            let mut arms = Vec::new();
            loop {
                let cond = p.binary()?;
                if !p.eat_punct("?") {
                    return Ok(if arms.is_empty() {
                        cond
                    } else {
                        Expr::Select(arms, Box::new(cond))
                    });
                }
                let then = p.expr()?;
                p.expect_punct(":")?;
                arms.push((cond, then));
            }
        })
    }

    /// Unary operands joined by [`BINARY`] operators, in one frame: the
    /// chains still open are kept loosest first, each with the operator
    /// that waits for its next operand. An operator closes every chain
    /// tighter than itself, then extends the chain of its own level or
    /// opens one. The trees are those of one recursive function per level.
    fn binary(&mut self) -> Result<Expr, ParseVerilogError> {
        let mut open: Vec<OpenChain> = Vec::new();
        let mut operand = self.expr_unary()?;
        while let Some((level, op)) = self.binary_op() {
            while let Some((_, first, mut links, waiting)) = open.pop_if(|c| c.0 > level) {
                links.push((waiting, operand));
                operand = Expr::Chain(Box::new(first), links);
            }
            match open.last_mut() {
                Some((l, _, links, waiting)) if *l == level => {
                    links.push((std::mem::replace(waiting, op), operand));
                }
                _ => open.push((level, operand, Vec::new(), op)),
            }
            operand = self.expr_unary()?;
        }
        while let Some((_, first, mut links, waiting)) = open.pop() {
            links.push((waiting, operand));
            operand = Expr::Chain(Box::new(first), links);
        }
        Ok(operand)
    }

    /// Takes a binary operator, if one is next, with its precedence level.
    fn binary_op(&mut self) -> Option<(usize, &'static str)> {
        let Some(Tok::Punct(p)) = self.peek() else {
            return None;
        };
        let p: &'static str = p;
        let level = BINARY.iter().position(|ops| ops.contains(&p))?;
        self.pos += 1;
        Some((level, p))
    }

    fn expr_unary(&mut self) -> Result<Expr, ParseVerilogError> {
        for (token, op) in UNARY {
            if self.eat_punct(token) {
                let inner = self.nested(Self::expr_unary)?;
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
    /// Every `assign`'s right-hand side, by the wire it drives, in source
    /// order.
    assigns: HashMap<&'a str, Vec<&'a Expr>>,
    /// Wires whose `assign` is currently being elaborated; re-entering one
    /// means a combinational cycle, which is broken with a forward net so
    /// the loop becomes structural (and diagnosable) instead of never
    /// ending.
    in_flight: HashSet<&'a str>,
    /// Forward nets created to break cycles, keyed by wire name; the
    /// wire's own elaboration closes the loop with `drive` when its RHS
    /// lands.
    placeholders: HashMap<&'a str, NetId>,
    /// Frontend lints collected along the way (width truncations).
    lints: Vec<SourceLint>,
}

/// One step of [`Elab::run`]: a post-order walk of an expression, where a
/// wire not yet elaborated expands, in place, into its `assign`. Nets are
/// made in the order a recursive walk would make them, on a heap stack.
enum Task<'a> {
    /// Push the net of this expression.
    Eval(&'a Expr),
    /// Push the net of a named wire, reg or input.
    Name(&'a str),
    /// Pop this node's operands, push its net.
    Apply(&'a Expr),
    /// Pop a chain's right operand and its left; push `left op right`.
    Link(&'static str),
    /// Reduce the condition on top to one bit.
    Cond,
    /// Pop an else-value, a then-value and a condition; push the mux.
    Mux,
    /// Pop a wire's one RHS and name it, or close the cycle through it.
    Assigned(&'a str, u32),
    /// Pop one RHS of a multiply assigned wire and drive its net from it.
    Drive(&'a str, NetId),
}

/// The operand on top of an evaluation stack; [`Elab::run`] pushes one
/// for every pop.
fn pop(nets: &mut Vec<NetId>) -> NetId {
    nets.pop().expect("an operand per pop")
}

fn syntax_err<T>(m: impl Into<String>) -> Result<T, ParseVerilogError> {
    Err(ParseVerilogError::Syntax {
        line: 0,
        message: m.into(),
    })
}

fn elaborate(ast: &AstModule) -> Result<(Module, Vec<SourceLint>), ParseVerilogError> {
    let mut assigns: HashMap<&str, Vec<&Expr>> = HashMap::new();
    for (lhs, rhs) in &ast.assigns {
        assigns.entry(lhs).or_default().push(rhs);
    }
    let mut e = Elab {
        b: ModuleBuilder::new(ast.name.clone()),
        decls: HashMap::new(),
        nets: HashMap::new(),
        mems: HashMap::new(),
        assigns,
        in_flight: HashSet::new(),
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
    for d in &ast.decls {
        if matches!(d.kind, DeclKind::Wire | DeclKind::Output) && d.mem_depth.is_none() {
            e.run(Task::Name(&d.name))?;
        }
    }
    // Pass 3: always blocks.
    let mut next: HashMap<String, NetId> = HashMap::new();
    for (clk, body) in &ast.always {
        match e.decls.get(clk) {
            Some(d) if d.kind == DeclKind::Input && d.width == 1 => {}
            _ => return syntax_err(format!("clock {clk:?} must be a 1-bit input")),
        }
        let true_net = e.b.lit(1, 1);
        e.exec_block(body, true_net, &mut next)?;
    }
    for d in &ast.decls {
        if matches!(d.kind, DeclKind::Reg | DeclKind::OutputReg) && d.mem_depth.is_none() {
            let q = e.nets[&d.name];
            let next = next.remove(&d.name).unwrap_or(q); // unassigned reg holds value
            e.b.connect_dff(q, next);
        }
    }
    // Pass 4: output ports.
    for d in &ast.decls {
        match d.kind {
            DeclKind::Output => {
                let n = e.run(Task::Name(&d.name))?;
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

impl<'a> Elab<'a> {
    fn expr(&mut self, e: &'a Expr) -> Result<NetId, ParseVerilogError> {
        self.run(Task::Eval(e))
    }

    /// Runs `root` and every task it spawns; returns the one net left.
    /// `Task::Name` gives a named wire/reg/input's net, elaborating a
    /// wire's `assign` on demand.
    fn run(&mut self, root: Task<'a>) -> Result<NetId, ParseVerilogError> {
        let (mut tasks, mut nets) = (vec![root], Vec::new());
        while let Some(task) = tasks.pop() {
            match task {
                Task::Eval(e) => self.eval(e, &mut tasks, &mut nets)?,
                Task::Name(name) => self.name(name, &mut tasks, &mut nets)?,
                task => {
                    let made = self.apply(task, &mut nets)?;
                    nets.extend(made);
                }
            }
        }
        Ok(pop(&mut nets))
    }

    /// A named net, or the tasks that elaborate its wire's `assign`.
    fn name(
        &mut self,
        name: &'a str,
        tasks: &mut Vec<Task<'a>>,
        nets: &mut Vec<NetId>,
    ) -> Result<(), ParseVerilogError> {
        if let Some(&n) = self.nets.get(name) {
            nets.push(n);
            return Ok(());
        }
        let Some(width) = self.decls.get(name).map(|d| d.width) else {
            return syntax_err(format!("undeclared identifier {name:?}"));
        };
        let all = self.assigns.get(name).map_or(&[][..], Vec::as_slice);
        let cycle = self.in_flight.contains(name);
        if cycle || all.len() > 1 {
            // A forward net. Reached again while its own `assign` is being
            // elaborated, it breaks a combinational cycle, so the loop is
            // a structural cycle in the module (which validation and the
            // analyzer then name). For a multiply assigned wire, every RHS
            // drives it, so they report the drivers by name instead of
            // silently using the first assign.
            let p = self.b.forward(width);
            self.b.name_net(p, name);
            self.nets.insert(name.to_string(), p);
            nets.push(p);
            if cycle {
                self.placeholders.insert(name, p);
            } else {
                for &rhs in all.iter().rev() {
                    tasks.extend([Task::Drive(name, p), Task::Eval(rhs)]);
                }
            }
            return Ok(());
        }
        let [rhs] = all else {
            return syntax_err(format!("wire {name:?} has no assign"));
        };
        self.in_flight.insert(name);
        tasks.extend([Task::Assigned(name, width), Task::Eval(rhs)]);
        Ok(())
    }

    /// Pushes the net of a leaf, or the tasks of an inner node: operands
    /// are popped in reverse, so they run left to right.
    fn eval(
        &mut self,
        e: &'a Expr,
        tasks: &mut Vec<Task<'a>>,
        nets: &mut Vec<NetId>,
    ) -> Result<(), ParseVerilogError> {
        match e {
            Expr::Ident(name) => tasks.push(Task::Name(name)),
            Expr::Number { width, value } => nets.push(self.b.lit(*value, width.unwrap_or(32))),
            Expr::Unary(_, a) => tasks.extend([Task::Apply(e), Task::Eval(a)]),
            Expr::Chain(first, rest) => {
                for (op, operand) in rest.iter().rev() {
                    tasks.extend([Task::Link(op), Task::Eval(operand)]);
                }
                tasks.push(Task::Eval(first));
            }
            Expr::Select(arms, otherwise) => {
                tasks.extend(arms.iter().map(|_| Task::Mux));
                tasks.push(Task::Eval(otherwise));
                for (cond, then) in arms.iter().rev() {
                    tasks.extend([Task::Eval(then), Task::Cond, Task::Eval(cond)]);
                }
            }
            // Verilog concat is MSB-first, builder concat LSB-first: the
            // last part is made first.
            Expr::Concat(parts) => tasks.extend(
                [Task::Apply(e)]
                    .into_iter()
                    .chain(parts.iter().map(Task::Eval)),
            ),
            Expr::Index(name, idx) if self.mems.contains_key(name) => {
                tasks.extend([Task::Apply(e), Task::Eval(idx)]);
            }
            Expr::Index(name, idx) => {
                // Constant index → slice; dynamic index → shift+mask.
                tasks.push(Task::Apply(e));
                if !matches!(**idx, Expr::Number { .. }) {
                    tasks.push(Task::Eval(idx));
                }
                tasks.push(Task::Name(name));
            }
            Expr::Range(name, hi, lo) => {
                // The parser refused hi < lo.
                let select = format!("part-select {name}[{hi}:{lo}]");
                net_width(u64::from(hi - lo) + 1, &select).or_else(syntax_err)?;
                tasks.extend([Task::Apply(e), Task::Name(name)]);
            }
        }
        Ok(())
    }

    /// Runs a task that pops its operands from `nets`; returns the net it
    /// makes, if any.
    fn apply(
        &mut self,
        task: Task<'a>,
        nets: &mut Vec<NetId>,
    ) -> Result<Option<NetId>, ParseVerilogError> {
        let made = match task {
            Task::Link(op) => {
                let rhs = pop(nets);
                let lhs = pop(nets);
                self.binary(op, lhs, rhs)?
            }
            Task::Cond => {
                let c = pop(nets);
                self.bool_of(c)
            }
            Task::Mux => {
                let f = pop(nets);
                let t = pop(nets);
                let c = pop(nets);
                let w = self.b.width(t).max(self.b.width(f));
                let t = self.b.resize(t, w);
                let f = self.b.resize(f, w);
                self.b.mux(c, t, f)
            }
            Task::Assigned(name, width) => {
                self.in_flight.remove(name);
                let rhs = pop(nets);
                let n = self.sized_to(rhs, width, name);
                if let Some(&p) = self.placeholders.get(name) {
                    // The RHS looped back through this wire; close the
                    // structural cycle on the forward net that broke it.
                    self.b.drive(p, n);
                    p
                } else {
                    self.b.name_net(n, name);
                    self.nets.insert(name.to_string(), n);
                    n
                }
            }
            Task::Drive(name, p) => {
                let rhs = pop(nets);
                let n = self.sized_to(rhs, self.b.width(p), name);
                self.b.drive(p, n);
                return Ok(None);
            }
            Task::Apply(Expr::Unary(op, _)) => {
                let an = pop(nets);
                match *op {
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
                }
            }
            Task::Apply(Expr::Concat(parts)) => {
                let parts = nets.split_off(nets.len() - parts.len());
                let bits = parts.iter().map(|&n| u64::from(self.b.width(n))).sum();
                net_width(bits, "concatenation").or_else(syntax_err)?;
                self.b.concat(&parts)
            }
            Task::Apply(Expr::Index(name, _)) if self.mems.contains_key(name) => {
                let addr = pop(nets);
                self.b.read_port(self.mems[name], addr, ReadKind::Async)
            }
            Task::Apply(Expr::Index(name, idx)) => {
                if let Expr::Number { value, .. } = **idx {
                    let a = pop(nets);
                    let Ok(i) = u32::try_from(value) else {
                        return syntax_err(format!("index {name}[{value}] is out of range"));
                    };
                    self.b.bit(a, i)
                } else {
                    let i = pop(nets);
                    let a = pop(nets);
                    let iw = self.b.width(a);
                    let ir = self.b.resize(i, iw);
                    let shifted = self.b.lshr(a, ir);
                    self.b.bit(shifted, 0)
                }
            }
            Task::Apply(Expr::Range(_, hi, lo)) => {
                let a = pop(nets);
                self.b.slice(a, *lo, hi - lo + 1)
            }
            _ => unreachable!("eval and name take the other tasks"),
        };
        Ok(Some(made))
    }

    /// `c` as a condition: one bit, the OR of its bits.
    fn bool_of(&mut self, c: NetId) -> NetId {
        if self.b.width(c) > 1 {
            self.b.reduce_or(c)
        } else {
            c
        }
    }

    /// `an op bn`, operands extended to a common width where Verilog does.
    fn binary(&mut self, op: &str, an: NetId, bn: NetId) -> Result<NetId, ParseVerilogError> {
        match op {
            "&&" | "||" => {
                let an = self.b.reduce_or(an);
                let bn = self.b.reduce_or(bn);
                return Ok(if op == "&&" {
                    self.b.and(an, bn)
                } else {
                    self.b.or(an, bn)
                });
            }
            "<<" => return Ok(self.b.shl(an, bn)),
            ">>" => return Ok(self.b.lshr(an, bn)),
            _ => {}
        }
        // Extend both to common width (Verilog self-determined-ish).
        let w = self.b.width(an).max(self.b.width(bn));
        let an = self.b.resize(an, w);
        let bn = self.b.resize(bn, w);
        Ok(match op {
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

    /// Executes a statement list under a path condition, updating the
    /// next-state map (`reg name -> next-value net`). Memory writes create
    /// write ports guarded by the path condition; memory reads on RHS
    /// become synchronous read ports.
    fn exec_block(
        &mut self,
        stmts: &'a [Stmt],
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
                Stmt::If { arms, otherwise } => {
                    // Each arm runs where every earlier condition failed.
                    let mut path = path;
                    for (cond, body) in arms {
                        let c0 = self.expr(cond)?;
                        let c = self.bool_of(c0);
                        let then_path = self.b.and(path, c);
                        let nc = self.b.not(c);
                        path = self.b.and(path, nc);
                        self.exec_block(body, then_path, next)?;
                    }
                    self.exec_block(otherwise, path, next)?;
                }
            }
        }
        Ok(())
    }

    /// Like [`expr`](Self::expr) but memory reads become *synchronous* read
    /// ports (they sit behind the clock edge).
    fn rhs_expr(&mut self, e: &'a Expr) -> Result<NetId, ParseVerilogError> {
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
