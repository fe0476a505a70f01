//! Wire protocol: request/response schema and value encodings.
//!
//! Every message is one length-prefixed JSON frame
//! ([`gem_telemetry::wire`]). Requests carry a client-chosen `id` echoed
//! verbatim in the response, so a client can pipeline:
//!
//! ```text
//! → {"id": 1, "cmd": "open", "source": "module …", "opts": {"width": 256}}
//! ← {"id": 1, "ok": true, "session": 3, "key": "9f2c…", "cached": false}
//! ← {"id": 2, "ok": false, "error": "busy", "message": "…",
//!    "retry_after_ms": 10}
//! ```
//!
//! Port values travel as lowercase hex strings (MSB-first nibbles, no
//! `0x` prefix) so widths beyond 64 bits round-trip exactly; the width is
//! always taken from the design's IO map, never from the string length.
//! See `docs/SERVER.md` for the full command table.

use gem_analyze::{AnalysisReport, Severity};
use gem_netlist::Bits;
use gem_telemetry::Json;

/// Machine-readable error codes carried in the `error` field.
pub mod codes {
    /// The admission gate refused the request (its line is full, or the
    /// server is stopping; `docs/SERVER.md` §4); retry after
    /// `retry_after_ms`.
    pub const BUSY: &str = "busy";
    /// Malformed request (unknown command, missing/ill-typed field).
    pub const BAD_REQUEST: &str = "bad_request";
    /// Unknown session id (closed, evicted, or never opened).
    pub const NOT_FOUND: &str = "not_found";
    /// The design failed to parse or compile.
    pub const COMPILE_FAILED: &str = "compile_failed";
    /// A lane count outside `1..=64`, or a lane index at or beyond the
    /// session's lane count.
    pub const BAD_LANES: &str = "bad_lanes";
    /// Unexpected server-side failure: the request panicked, or its
    /// session was left broken by one that did.
    pub const INTERNAL: &str = "internal";
}

/// Builds a success envelope: `{"id": …, "ok": true}`.
pub fn ok_response(id: u64) -> Json {
    let mut r = Json::object();
    r.set("id", id);
    r.set("ok", true);
    r
}

/// Sets the fields of a lint document, the server's `lint` answer and
/// `gem lint --json` alike: `diagnostics`, `summary`, `clean` (nothing at
/// warning severity or above), `certified`, and `cert` or `compile_error`
/// once the design was compiled. `compiled` is `None` when error-severity
/// findings skipped the compile, else its certificate summary or error.
pub fn set_lint_fields(
    doc: &mut Json,
    report: &AnalysisReport,
    compiled: Option<&Result<String, String>>,
) {
    let diagnostics = report.diagnostics.iter().map(|d| d.to_json()).collect();
    doc.set("diagnostics", Json::Array(diagnostics));
    doc.set("summary", report.summary());
    doc.set("clean", report.clean(Severity::Warning));
    // Every compile that returns a design has certified its schedule.
    doc.set("certified", matches!(compiled, Some(Ok(_))));
    match compiled {
        Some(Ok(cert)) => doc.set("cert", cert.as_str()),
        Some(Err(e)) => doc.set("compile_error", e.as_str()),
        None => {}
    }
}

/// Builds an error envelope with a machine-readable `code` from
/// [`codes`] and human-readable `message`.
pub fn err_response(id: u64, code: &str, message: &str) -> Json {
    let mut r = Json::object();
    r.set("id", id);
    r.set("ok", false);
    r.set("error", code);
    r.set("message", message);
    r
}

/// Encodes port bits as lowercase hex, MSB-first, one nibble per 4 bits
/// (width rounded up). `Bits` of width 0 encode as `""`.
pub fn bits_to_hex(v: &Bits) -> String {
    let nibbles = v.width().div_ceil(4);
    let mut s = String::with_capacity(nibbles as usize);
    for n in (0..nibbles).rev() {
        let mut nib = 0u8;
        for k in 0..4 {
            let i = n * 4 + k;
            if i < v.width() && v.bit(i) {
                nib |= 1 << k;
            }
        }
        s.push(char::from_digit(nib as u32, 16).expect("a nibble is below 16"));
    }
    s
}

/// Decodes a hex string into `width` bits.
///
/// # Errors
///
/// Rejects non-hex characters and values that set bits at or above
/// `width`. Shorter strings are zero-extended, so `"0"` is a valid
/// 128-bit value.
pub fn bits_from_hex(s: &str, width: u32) -> Result<Bits, String> {
    let s = s.strip_prefix("0x").unwrap_or(s);
    let mut v = Bits::zeros(width);
    for (pos, ch) in s.chars().rev().enumerate() {
        let nib = ch
            .to_digit(16)
            .ok_or_else(|| format!("bad hex digit {ch:?}"))?;
        for k in 0..4 {
            if nib & (1 << k) != 0 {
                let i = pos as u32 * 4 + k;
                if i >= width {
                    return Err(format!("value {s:?} does not fit in {width} bit(s)"));
                }
                v.set_bit(i, true);
            }
        }
    }
    Ok(v)
}

/// Pulls a required string field out of a request object.
pub fn req_str<'a>(req: &'a Json, field: &str) -> Result<&'a str, String> {
    req.get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string field {field:?}"))
}

/// Pulls a required u64 field out of a request object.
pub fn req_u64(req: &Json, field: &str) -> Result<u64, String> {
    req.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {field:?}"))
}

/// Pulls an optional unsigned field of any width (absent → `default`).
///
/// # Errors
///
/// A value that is not an unsigned integer, or does not fit `T`.
pub fn opt_uint<T: TryFrom<u64>>(req: &Json, field: &str, default: T) -> Result<T, String> {
    match req.get(field) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .as_u64()
            .and_then(|v| T::try_from(v).ok())
            .ok_or_else(|| format!("field {field:?} is not an integer in range")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips_wide_values() {
        let mut v = Bits::zeros(100);
        v.set_bit(0, true);
        v.set_bit(63, true);
        v.set_bit(99, true);
        let s = bits_to_hex(&v);
        assert_eq!(s.len(), 25); // 100 bits → 25 nibbles
        assert_eq!(bits_from_hex(&s, 100).unwrap(), v);
        assert_eq!(bits_to_hex(&Bits::from_u64(0xAB, 8)), "ab");
        assert_eq!(bits_from_hex("0xAB", 8).unwrap().to_u64(), 0xAB);
    }

    #[test]
    fn hex_zero_extends_and_rejects_overflow() {
        assert_eq!(bits_from_hex("0", 128).unwrap(), Bits::zeros(128));
        assert_eq!(bits_from_hex("5", 3).unwrap().to_u64(), 5);
        assert!(bits_from_hex("f", 3).is_err()); // bit 3 set, width 3
        assert!(bits_from_hex("zz", 8).is_err());
    }

    #[test]
    fn optional_integers_are_range_checked_not_truncated() {
        let mut req = Json::object();
        req.set("width", 1u64 << 32);
        assert_eq!(opt_uint(&req, "width", 0u64), Ok(1 << 32));
        assert!(opt_uint(&req, "width", 0u32).is_err(), "not width 0");
        assert_eq!(opt_uint(&req, "parts", 8usize), Ok(8));
        req.set("parts", "eight");
        assert!(opt_uint(&req, "parts", 8usize).is_err());
    }

    #[test]
    fn envelopes_have_the_documented_shape() {
        let ok = ok_response(7);
        assert_eq!(ok.get("id").unwrap().as_u64(), Some(7));
        assert_eq!(ok.get("ok").unwrap().as_bool(), Some(true));
        let e = err_response(8, codes::BUSY, "queue full");
        assert_eq!(e.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(e.get("error").unwrap().as_str(), Some(codes::BUSY));
    }
}
