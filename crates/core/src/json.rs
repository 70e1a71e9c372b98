//! Minimal JSON value tree: parser and encoding helpers for the
//! checkpoint layer.
//!
//! The workspace vendors no JSON library, so checkpoint records are
//! encoded by hand — the same choice `observe::jsonl` makes for event
//! traces. That module only needs to *validate* lines; the checkpoint
//! reader must get the values back, bit-exactly, so this module builds
//! a small value tree.
//!
//! Encoding contract (shared with `observe::jsonl`):
//!
//! - floats print through Rust's shortest-roundtrip `{:?}` formatting,
//!   so `parse(encode(x))` returns exactly `x.to_bits()`;
//! - non-finite floats encode as the strings `"NaN"`, `"Infinity"` and
//!   `"-Infinity"` (checkpoints must be lossless, unlike trace lines,
//!   which map them to `null`); [`Json::as_f64`] folds them back;
//! - object members keep declaration order, both when encoding and in
//!   the parsed [`Json::Obj`] representation, so an encode → parse →
//!   encode roundtrip is byte-identical.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`, which covers every value the
    /// checkpoint encoder emits, including exact `u64` counters below
    /// 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match; `None` otherwise).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Member lookup that errors with the key name — the common case
    /// for required checkpoint fields.
    pub fn require(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing field '{key}'"))
    }

    /// Numeric value, folding the non-finite string encodings back.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "Infinity" => Some(f64::INFINITY),
                "-Infinity" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// Non-negative integer value (exact: rejects fractions and values
    /// above 2^53, which the encoder never produces).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 9_007_199_254_740_992.0 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// `as_u64` narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array elements.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Encoding helpers (the writer side stays hand-assembled, as in
// observe::jsonl; these keep the escaping rules in one place).
// ---------------------------------------------------------------------

/// Append a JSON string literal with full escaping.
pub fn push_str_literal(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append an `f64`: shortest-roundtrip decimal for finite values, the
/// lossless string encoding for non-finite ones.
pub fn push_f64_lossless(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else if v.is_nan() {
        out.push_str("\"NaN\"");
    } else if v > 0.0 {
        out.push_str("\"Infinity\"");
    } else {
        out.push_str("\"-Infinity\"");
    }
}

/// Append an `f64` array, each element through [`push_f64_lossless`].
pub fn push_f64_array(out: &mut String, values: &[f64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64_lossless(out, *v);
    }
    out.push(']');
}

// ---------------------------------------------------------------------
// Parser: strict recursive descent over a single value. Insignificant
// whitespace is accepted between tokens (the encoder emits none, but
// hand-edited checkpoints should not be rejected for a space).
// ---------------------------------------------------------------------

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.i)
    }

    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn bump(&mut self) -> Result<u8, String> {
        let c = self.peek().ok_or_else(|| self.err("unexpected end"))?;
        self.i += 1;
        Ok(c)
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.bump()? == c {
            Ok(())
        } else {
            self.i -= 1;
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bump()? {
                b'"' => return Ok(s),
                b'\\' => match self.bump()? {
                    b'"' => s.push('"'),
                    b'\\' => s.push('\\'),
                    b'/' => s.push('/'),
                    b'n' => s.push('\n'),
                    b'r' => s.push('\r'),
                    b't' => s.push('\t'),
                    b'u' => {
                        let mut v = 0u32;
                        for _ in 0..4 {
                            let d = self.bump()?;
                            v = v * 16
                                + (d as char)
                                    .to_digit(16)
                                    .ok_or_else(|| self.err("bad \\u escape"))?;
                        }
                        s.push(char::from_u32(v).ok_or_else(|| self.err("bad codepoint"))?);
                    }
                    _ => return Err(self.err("bad escape")),
                },
                c if c < 0x20 => return Err(self.err("raw control char in string")),
                c => {
                    let start = self.i - 1;
                    let len = match c {
                        c if c < 0x80 => 1,
                        c if c >= 0xF0 => 4,
                        c if c >= 0xE0 => 3,
                        _ => 2,
                    };
                    self.i = start + len;
                    if self.i > self.b.len() {
                        return Err(self.err("truncated UTF-8"));
                    }
                    s.push_str(
                        std::str::from_utf8(&self.b[start..self.i])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).unwrap_or("");
        text.parse::<f64>().map_err(|_| self.err("invalid number"))
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'"' => self.string().map(Json::Str),
            b'{' => self.object(),
            b'[' => self.array(),
            b't' => self.literal("true").map(|_| Json::Bool(true)),
            b'f' => self.literal("false").map(|_| Json::Bool(false)),
            b'n' => self.literal("null").map(|_| Json::Null),
            _ => self.number().map(Json::Num),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b']' => return Ok(Json::Arr(items)),
                _ => {
                    self.i -= 1;
                    return Err(self.err("expected ',' or ']'"));
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b'}' => return Ok(Json::Obj(members)),
                _ => {
                    self.i -= 1;
                    return Err(self.err("expected ',' or '}'"));
                }
            }
        }
    }
}

/// Parse one complete JSON value; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { b: text.as_bytes(), i: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing bytes after value"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_objects() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("-2.5e3").unwrap(), Json::Num(-2500.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
        assert_eq!(
            parse("[1,2,[3]]").unwrap(),
            Json::Arr(vec![Json::Num(1.0), Json::Num(2.0), Json::Arr(vec![Json::Num(3.0)])])
        );
        let obj = parse("{\"a\":1,\"b\":{\"c\":[]}}").unwrap();
        assert_eq!(obj.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(obj.get("b").and_then(|b| b.get("c")).and_then(Json::as_array), Some(&[][..]));
    }

    #[test]
    fn preserves_member_order() {
        let obj = parse("{\"z\":1,\"a\":2}").unwrap();
        match obj {
            Json::Obj(members) => {
                assert_eq!(members[0].0, "z");
                assert_eq!(members[1].0, "a");
            }
            _ => panic!("not an object"),
        }
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        for v in [0.1 + 0.2, 1.0 / 3.0, 1e-300, -5.5e17, 10.600000000000001, 0.0, -0.0] {
            let mut s = String::new();
            push_f64_lossless(&mut s, v);
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{s}");
        }
    }

    #[test]
    fn non_finite_floats_roundtrip_via_strings() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut s = String::new();
            push_f64_lossless(&mut s, v);
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{s}");
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let ugly = "quote\" slash\\ nl\n tab\t ctrl\u{1} é 中";
        let mut s = String::new();
        push_str_literal(&mut s, ugly);
        assert_eq!(parse(&s).unwrap().as_str(), Some(ugly));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "1 2", "nul", "\"unterminated", "{\"a\" 1}"] {
            assert!(parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn as_u64_is_exact() {
        assert_eq!(parse("18014398509481984").unwrap().as_u64(), None); // 2^54: inexact
        assert_eq!(parse("4503599627370496").unwrap().as_u64(), Some(1 << 52));
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }
}
