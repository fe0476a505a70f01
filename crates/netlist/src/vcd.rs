//! Minimal VCD (Value Change Dump) writing and parsing.
//!
//! The GEM execution stage consumes input stimuli "provided as waveforms or
//! recorded signal patterns (e.g., VCD ...)" and simulators dump result
//! waveforms the same way. This module implements the two-state subset we
//! need: scalar and vector variables, `$scope`/`$var` headers, and `#time`
//! stamped value changes.

use crate::value::Bits;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Writes a two-state VCD file into a `String` buffer.
///
/// # Example
///
/// ```
/// use gem_netlist::vcd::VcdWriter;
/// use gem_netlist::Bits;
///
/// let mut w = VcdWriter::new("top");
/// let clk = w.add_var("clk", 1);
/// let bus = w.add_var("bus", 8);
/// w.begin();
/// w.timestamp(0);
/// w.change(clk, &Bits::from_u64(0, 1));
/// w.change(bus, &Bits::from_u64(0xAB, 8));
/// let text = w.finish();
/// assert!(text.contains("$var wire 8"));
/// ```
#[derive(Debug)]
pub struct VcdWriter {
    header: String,
    body: String,
    widths: Vec<u32>,
    started: bool,
}

/// Handle to a variable declared in a [`VcdWriter`] or parsed by
/// [`VcdDump`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub u32);

fn id_code(id: u32) -> String {
    // Printable-ASCII identifier codes, like real VCD emitters.
    let mut n = id;
    let mut s = String::new();
    loop {
        s.push((b'!' + (n % 94) as u8) as char);
        n /= 94;
        if n == 0 {
            break;
        }
    }
    s
}

impl VcdWriter {
    /// Starts a VCD document with a single scope named `scope`.
    pub fn new(scope: &str) -> Self {
        let mut header = String::new();
        let _ = writeln!(header, "$timescale 1ns $end");
        let _ = writeln!(header, "$scope module {scope} $end");
        VcdWriter {
            header,
            body: String::new(),
            widths: Vec::new(),
            started: false,
        }
    }

    /// Declares a variable; must be called before [`begin`](Self::begin).
    ///
    /// # Panics
    ///
    /// Panics if called after `begin`.
    pub fn add_var(&mut self, name: &str, width: u32) -> VarId {
        assert!(!self.started, "add_var after begin");
        let id = VarId(self.widths.len() as u32);
        self.widths.push(width);
        let code = id_code(id.0);
        let _ = writeln!(self.header, "$var wire {width} {code} {name} $end");
        id
    }

    /// Ends the header; subsequent calls are timestamps and changes.
    pub fn begin(&mut self) {
        if !self.started {
            let _ = writeln!(self.header, "$upscope $end");
            let _ = writeln!(self.header, "$enddefinitions $end");
            self.started = true;
        }
    }

    /// Emits a `#time` marker.
    pub fn timestamp(&mut self, t: u64) {
        let _ = writeln!(self.body, "#{t}");
    }

    /// Emits a value change for `var`.
    ///
    /// # Panics
    ///
    /// Panics if the value width does not match the declaration.
    pub fn change(&mut self, var: VarId, value: &Bits) {
        let w = self.widths[var.0 as usize];
        assert_eq!(value.width(), w, "VCD value width mismatch");
        let code = id_code(var.0);
        if w == 1 {
            let _ = writeln!(self.body, "{}{code}", if value.bit(0) { '1' } else { '0' });
        } else {
            let mut bits = String::with_capacity(w as usize);
            for i in (0..w).rev() {
                bits.push(if value.bit(i) { '1' } else { '0' });
            }
            let _ = writeln!(self.body, "b{bits} {code}");
        }
    }

    /// Returns the complete VCD text.
    pub fn finish(mut self) -> String {
        self.begin();
        let mut out = self.header;
        out.push_str(&self.body);
        out
    }
}

/// A parsed VCD dump: variables and their value-change streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcdDump {
    /// Declared variables in order: `(name, width)`.
    pub vars: Vec<(String, u32)>,
    /// Timestamped changes: `(time, var, value)`, in file order.
    pub changes: Vec<(u64, VarId, Bits)>,
}

/// Errors from [`VcdDump::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseVcdError {
    /// A `$var` declaration was malformed.
    BadVar(String),
    /// A value change referenced an unknown identifier code.
    UnknownId(String),
    /// A line could not be interpreted.
    BadLine(String),
    /// A `#t` timestamp lower than the one before it: a waveform's time
    /// only moves forward (repeating a timestamp is legal).
    BackwardsTime {
        /// 1-based line number of the offending `#t`.
        line: usize,
        /// The timestamp on that line.
        time: u64,
        /// The timestamp it goes back from.
        previous: u64,
    },
}

impl std::fmt::Display for ParseVcdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseVcdError::BadVar(s) => write!(f, "malformed $var: {s}"),
            ParseVcdError::UnknownId(s) => write!(f, "unknown identifier code {s:?}"),
            ParseVcdError::BadLine(s) => write!(f, "unparseable line {s:?}"),
            ParseVcdError::BackwardsTime {
                line,
                time,
                previous,
            } => write!(
                f,
                "line {line}: timestamp #{time} goes back from #{previous}"
            ),
        }
    }
}

impl std::error::Error for ParseVcdError {}

impl VcdDump {
    /// Parses VCD text (two-state; `x`/`z` bits are read as `0`).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseVcdError`] on malformed declarations or changes,
    /// and on a timestamp lower than the one before it.
    pub fn parse(text: &str) -> Result<Self, ParseVcdError> {
        let mut vars = Vec::new();
        let mut codes: HashMap<String, VarId> = HashMap::new();
        let mut changes = Vec::new();
        let mut time = 0u64;
        let mut in_header = true;
        for (n, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if in_header {
                if line.starts_with("$var") {
                    let parts: Vec<&str> = line.split_whitespace().collect();
                    // $var wire <width> <code> <name> [$end]
                    if parts.len() < 5 {
                        return Err(ParseVcdError::BadVar(line.into()));
                    }
                    let width: u32 = parts[2]
                        .parse()
                        .map_err(|_| ParseVcdError::BadVar(line.into()))?;
                    let code = parts[3].to_string();
                    let name = parts[4].to_string();
                    let id = VarId(vars.len() as u32);
                    vars.push((name, width));
                    codes.insert(code, id);
                } else if line.starts_with("$enddefinitions") {
                    in_header = false;
                }
                continue;
            }
            if let Some(t) = line.strip_prefix('#') {
                let t: u64 = t.parse().map_err(|_| ParseVcdError::BadLine(line.into()))?;
                if t < time {
                    return Err(ParseVcdError::BackwardsTime {
                        line: n + 1,
                        time: t,
                        previous: time,
                    });
                }
                time = t;
            } else if let Some(rest) = line.strip_prefix('b') {
                let mut it = rest.split_whitespace();
                let bits = it
                    .next()
                    .ok_or_else(|| ParseVcdError::BadLine(line.into()))?;
                let code = it
                    .next()
                    .ok_or_else(|| ParseVcdError::BadLine(line.into()))?;
                let id = *codes
                    .get(code)
                    .ok_or_else(|| ParseVcdError::UnknownId(code.into()))?;
                let decl_w = vars[id.0 as usize].1;
                let mut v = Bits::zeros(decl_w);
                for (i, ch) in bits.chars().rev().enumerate() {
                    if ch == '1' && (i as u32) < decl_w {
                        v.set_bit(i as u32, true);
                    }
                }
                changes.push((time, id, v));
            } else if line.starts_with('$') {
                // Body directives — `$dumpvars`, mid-stream `$dumpoff` /
                // `$dumpon` / `$dumpall` blocks, `$comment`, and their
                // closing `$end` — carry no two-state value information;
                // the x-value entries inside a `$dumpoff` block parse as
                // ordinary changes (x reads as 0).
            } else {
                // A scalar change: one value character, then the code. On
                // a wider variable it is zero-extended, as a short vector
                // value is.
                let mut chars = line.chars();
                let vch = chars.next();
                let code = chars.as_str();
                let id = *codes
                    .get(code)
                    .ok_or_else(|| ParseVcdError::UnknownId(code.into()))?;
                let mut v = Bits::zeros(vars[id.0 as usize].1);
                if vch == Some('1') && v.width() > 0 {
                    v.set_bit(0, true);
                }
                changes.push((time, id, v));
            }
        }
        Ok(VcdDump { vars, changes })
    }

    /// Looks up a variable id by name.
    pub fn var(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| VarId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_parse_round_trip() {
        let mut w = VcdWriter::new("tb");
        let clk = w.add_var("clk", 1);
        let bus = w.add_var("bus", 8);
        w.begin();
        w.timestamp(0);
        w.change(clk, &Bits::from(false));
        w.change(bus, &Bits::from_u64(0x5A, 8));
        w.timestamp(5);
        w.change(clk, &Bits::from(true));
        let text = w.finish();

        let dump = VcdDump::parse(&text).unwrap();
        assert_eq!(dump.vars.len(), 2);
        assert_eq!(dump.var("bus"), Some(VarId(1)));
        assert_eq!(dump.changes.len(), 3);
        assert_eq!(dump.changes[1].2.to_u64(), 0x5A);
        assert_eq!(dump.changes[2].0, 5);
        assert!(dump.changes[2].2.bit(0));
    }

    #[test]
    fn id_codes_are_printable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            let c = id_code(i);
            assert!(c.chars().all(|ch| ('!'..='~').contains(&ch)));
            assert!(seen.insert(c));
        }
    }

    #[test]
    fn parse_rejects_unknown_code() {
        let text = "$enddefinitions $end\n#0\n1?\n";
        assert!(matches!(
            VcdDump::parse(text),
            Err(ParseVcdError::UnknownId(_))
        ));
    }

    #[test]
    fn body_directives_ignored() {
        // A mid-stream $dumpoff … $dumpon sequence, as real simulators
        // emit around checkpoints, must not break parsing; the x entries
        // inside the off-block read as 0.
        let text = "$var wire 1 ! v $end\n$enddefinitions $end\n\
                    $dumpvars\n0!\n$end\n#0\n1!\n#5\n$dumpoff\nx!\n$end\n\
                    #10\n$dumpon\n1!\n$end\n";
        let d = VcdDump::parse(text).unwrap();
        let vals: Vec<(u64, u64)> = d.changes.iter().map(|(t, _, v)| (*t, v.to_u64())).collect();
        assert_eq!(vals, vec![(0, 0), (0, 1), (5, 0), (10, 1)]);
    }

    #[test]
    fn parse_rejects_time_running_backwards() {
        let text = "$var wire 1 ! v $end\n$enddefinitions $end\n\
                    #10\n1!\n#10\n0!\n#5\n1!\n";
        let err = VcdDump::parse(text).unwrap_err();
        assert_eq!(
            err,
            ParseVcdError::BackwardsTime {
                line: 7,
                time: 5,
                previous: 10
            }
        );
        assert_eq!(err.to_string(), "line 7: timestamp #5 goes back from #10");
        // The same timestamp repeated is legal.
        let d = VcdDump::parse("$enddefinitions $end\n#3\n#3\n#4\n").unwrap();
        assert!(d.changes.is_empty());
    }

    #[test]
    fn a_scalar_change_may_start_with_any_character() {
        // A change line is split after its first character, not its
        // first byte; a value other than `1` reads as 0, as `x` does.
        let text = "$var wire 1 ! v $end\n$enddefinitions $end\n#0\n\u{FFFD}!\n";
        let d = VcdDump::parse(text).unwrap();
        assert_eq!(d.changes, [(0, VarId(0), Bits::from(false))]);
    }

    #[test]
    fn a_scalar_change_takes_its_variables_width() {
        let text = "$var wire 4 ! v $end\n$enddefinitions $end\n#0\n1!\n";
        let d = VcdDump::parse(text).unwrap();
        assert_eq!(d.changes, [(0, VarId(0), Bits::from_u64(1, 4))]);
    }

    #[test]
    fn x_bits_read_as_zero() {
        let text = "$var wire 4 ! v $end\n$enddefinitions $end\n#0\nbx1x1 !\n";
        let d = VcdDump::parse(text).unwrap();
        assert_eq!(d.changes[0].2.to_u64(), 0b0101);
    }
}
