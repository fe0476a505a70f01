//! Minimal JSON value, serializer, and parser.
//!
//! Object key order is preserved (objects are association lists), numbers
//! keep their integer/float identity so `u64` counters round-trip
//! exactly, and the [`json!`](macro@crate::json) macro builds literals with the
//! familiar `{"key": value}` shape.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Json>),
    /// Object with preserved key order.
    Object(Vec<(String, Json)>),
}

/// Parse failure: byte offset plus description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Inserts (or replaces) `key` in an object. Panics on non-objects.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        match self {
            Json::Object(fields) => {
                let value = value.into();
                if let Some(f) = fields.iter_mut().find(|(k, _)| k == key) {
                    f.1 = value;
                } else {
                    fields.push((key.to_string(), value));
                }
            }
            _ => panic!("Json::set on a non-object"),
        }
    }

    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a u64 (integral floats accepted).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) if v >= 0 => Some(v as u64),
            Json::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as an f64 (any number).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The value's object fields.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(v) => Some(v),
            _ => None,
        }
    }

    /// Pretty serialization (two-space indent). Compact form via
    /// `to_string()` (the [`fmt::Display`] impl).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    /// Appends the compact serialization to `out` — what `to_string()`
    /// yields, without the intermediate `String` (the wire codec writes
    /// straight behind its frame header).
    pub(crate) fn write_compact(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let pad = |out: &mut String, depth: usize| {
            if let Some(n) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', n * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => {
                if v.is_finite() {
                    // Keep a float's identity visible so it re-parses as F64.
                    let s = v.to_string();
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    pad(out, depth);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    pad(out, depth);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_compact(&mut out);
        f.write_str(&out)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c if (c as u32) > 0xFFFF => {
                // Non-BMP scalars are written as UTF-16 surrogate pairs so
                // the wire format stays within \uXXXX escapes (robust
                // against consumers that mishandle 4-byte UTF-8).
                let v = c as u32 - 0x1_0000;
                let hi = 0xD800 + (v >> 10);
                let lo = 0xDC00 + (v & 0x3FF);
                out.push_str(&format!("\\u{hi:04x}\\u{lo:04x}"));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! impl_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json { Json::U64(v as u64) }
        }
    )*};
}
impl_from_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                if v >= 0 { Json::U64(v as u64) } else { Json::I64(v as i64) }
            }
        }
    )*};
}
impl_from_int!(i8, i16, i32, i64, isize);

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}

impl From<f32> for Json {
    fn from(v: f32) -> Json {
        Json::F64(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<&String> for Json {
    fn from(v: &String) -> Json {
        Json::Str(v.clone())
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json> + Clone> From<&[T]> for Json {
    fn from(v: &[T]) -> Json {
        Json::Array(v.iter().cloned().map(Into::into).collect())
    }
}

impl<T: Into<Json>, const N: usize> From<[T; N]> for Json {
    fn from(v: [T; N]) -> Json {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}

/// Builds a [`Json`] literal: `json!({"k": v, "list": [1, 2]})`.
///
/// Values are any `Into<Json>` expression; nest objects with further
/// `json!({…})` calls. Arrays of expressions are supported inline.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Json::Null };
    ([ $($v:expr),* $(,)? ]) => {
        $crate::Json::Array(vec![ $( $crate::Json::from($v) ),* ])
    };
    ({ $($k:literal : $v:expr),* $(,)? }) => {
        $crate::Json::Object(vec![ $( ($k.to_string(), $crate::Json::from($v)) ),* ])
    };
    ($v:expr) => { $crate::Json::from($v) };
}

/// Parses JSON text.
///
/// # Errors
///
/// Returns [`JsonError`] with the byte offset of the first violation.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Maximum container nesting accepted by [`parse`]. Adversarial inputs
/// like `[[[[…` otherwise recurse once per byte and overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {lit}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            let c = match code {
                                // High surrogate: a low surrogate must
                                // follow (JSON's only non-BMP encoding).
                                0xD800..=0xDBFF => {
                                    if self.peek() != Some(b'\\') {
                                        return Err(self.err("unpaired high surrogate"));
                                    }
                                    self.pos += 1;
                                    if self.peek() != Some(b'u') {
                                        return Err(self.err("unpaired high surrogate"));
                                    }
                                    self.pos += 1;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..=0xDFFF).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let v = 0x1_0000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(v).ok_or_else(|| self.err("bad \\u escape"))?
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(self.err("unpaired low surrogate"));
                                }
                                _ => char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u escape"))?,
                            };
                            s.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is valid UTF-8).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if text.is_empty() || text == "-" {
            return Err(self.err("malformed number"));
        }
        if !float {
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(v) = stripped.parse::<u64>() {
                    if v <= i64::MAX as u64 {
                        return Ok(Json::I64(-(v as i64)));
                    }
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = json!({
            "name": "gem",
            "gates": 12345u64,
            "cost": 0.25,
            "neg": -3,
            "ok": true,
            "none": json!(null),
            "list": [1u64, 2u64, 3u64],
        });
        let text = v.to_string();
        let back = parse(&text).expect("parses");
        assert_eq!(back, v);
        let pretty = v.to_string_pretty();
        assert_eq!(parse(&pretty).expect("parses"), v);
    }

    #[test]
    fn large_u64_round_trips_exactly() {
        let v = Json::U64(u64::MAX - 1);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::Str("line\n\"quote\"\\tab\t\u{1}".to_string());
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
    }

    #[test]
    fn accessors_coerce_numbers() {
        let v = parse("{\"a\": 7, \"b\": -2, \"c\": 1.5}").unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("a").unwrap().as_f64(), Some(7.0));
        assert_eq!(v.get("b"), Some(&Json::I64(-2)));
        assert_eq!(v.get("b").unwrap().as_u64(), None);
        assert_eq!(v.get("c").unwrap().as_f64(), Some(1.5));
    }

    #[test]
    fn control_characters_round_trip() {
        // Every C0 control character must survive a serialize→parse trip.
        let s: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        let v = Json::Str(s);
        let text = v.to_string();
        assert!(text.is_ascii(), "control chars must be escaped: {text}");
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn non_bmp_scalars_round_trip_as_surrogate_pairs() {
        let v = Json::Str("emoji \u{1F600} and math \u{1D54A}".to_string());
        let text = v.to_string();
        assert!(
            text.contains("\\ud83d\\ude00"),
            "non-BMP must be escaped as a surrogate pair: {text}"
        );
        assert_eq!(parse(&text).unwrap(), v);
        // Raw (unescaped) UTF-8 non-BMP input also parses.
        assert_eq!(parse("\"\u{1F600}\"").unwrap(), Json::Str("😀".into()));
    }

    #[test]
    fn lone_surrogates_rejected() {
        assert!(parse("\"\\ud800\"").is_err()); // unpaired high
        assert!(parse("\"\\udc00\"").is_err()); // unpaired low
        assert!(parse("\"\\ud800x\"").is_err()); // high followed by junk
        assert!(parse("\"\\ud800\\u0041\"").is_err()); // high + non-low
        assert!(parse("\"\\ud83d\\ude0").is_err()); // truncated pair
    }

    #[test]
    fn deep_nesting_rejected_not_crashed() {
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).is_err());
        let mixed = "{\"a\":".repeat(50_000) + "1" + &"}".repeat(50_000);
        assert!(parse(&mixed).is_err());
        // Nesting below the limit still parses.
        let ok = "[".repeat(64) + &"]".repeat(64);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn adversarial_strings_round_trip() {
        for s in [
            "\\u0000 literal backslash-u",
            "\"quoted\" and \\escaped\\",
            "\u{7f}\u{80}\u{7FF}\u{FFFD}",
            "mixed 😀\n\t\u{1}end",
            "",
        ] {
            let v = Json::Str(s.to_string());
            assert_eq!(parse(&v.to_string()).unwrap(), v, "round-trip of {s:?}");
        }
    }

    #[test]
    fn float_identity_survives_round_trip() {
        // A whole-valued float must re-parse as a float, not an integer.
        let v = Json::F64(2.0);
        assert_eq!(v.to_string(), "2.0");
        assert_eq!(parse("2.0").unwrap(), v);
    }
}
