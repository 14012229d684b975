//! Minimal JSON value, writer and reader.
//!
//! A deliberately small JSON emitter (and, since the `bsld-repro serve`
//! daemon speaks line-delimited JSON, a matching parser) for
//! machine-readable experiment artifacts and wire messages. Kept
//! dependency-free: `serde` alone would not serialise anything without a
//! format crate, and the needs here are tiny (see DESIGN.md §8).

use std::fmt::Write as _;

/// 2^53 — the largest magnitude below which every integral f64 is exact.
const EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number (non-finite values serialise as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience: an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up `key` in an object (first match); `None` for other
    /// variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as an exact unsigned integer: `Num` values
    /// that are integral and inside the exact-f64 range `[0, 2^53]`.
    // Integral-value classification, not approximate numerics.
    #[allow(clippy::float_cmp)]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if x.is_finite() && *x == x.trunc() && *x >= 0.0 && *x <= EXACT_INT => {
                // audit:allow(N2): guarded: integral and 0 <= x <= 2^53, exact in u64
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// Parses JSON text into a value.
    ///
    /// Accepts exactly one top-level value (surrounding whitespace is
    /// fine, trailing garbage is not). Objects keep key order as
    /// written; duplicate keys are kept too — [`Json::get`] returns the
    /// first. Numbers must fit a finite `f64`. Nesting is capped so a
    /// hostile `[[[[…` wire message cannot overflow the stack.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the JSON value"));
        }
        Ok(v)
    }

    /// Serialises to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    // Float comparisons here are bit-level classification (-0.0 detection,
    // integral-value check), not approximate numerics — see the comment in
    // the Num arm.
    #[allow(clippy::float_cmp)]
    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    // Integral values print without a fractional part via
                    // i64 — but only inside the range where every integral
                    // f64 is exact (|x| ≤ 2^53) and the cast cannot
                    // truncate or saturate. Larger magnitudes take the
                    // float path: Rust's `{}` for f64 is the shortest
                    // representation that parses back to the identical
                    // bits (never exponent notation), so CellId-sized
                    // provenance numbers survive `campaign.json` intact.
                    // audit:allow(N1): deliberate bit-level -0.0 detection for exact round-trip printing
                    let negative_zero = *x == 0.0 && x.is_sign_negative();
                    if *x == x.trunc() && x.abs() <= EXACT_INT && !negative_zero {
                        // audit:allow(N2): guarded: |x| <= 2^53 and integral, exact in i64
                        let _ = write!(out, "{}", *x as i64);
                    } else {
                        // `{}` prints -0.0 as "-0", preserving the sign bit.
                        let _ = write!(out, "{x}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
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
            // audit:allow(N2): char -> u32 is a lossless widening
            c if (c as u32) < 0x20 => {
                // audit:allow(N2): char -> u32 is a lossless widening
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: byte offset into the input plus a short message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input text.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest permitted array/object nesting when parsing.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        match self.bytes.get(self.pos) {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // consume `[`
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `]` in array"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // consume `{`
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.err("expected a string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.skip_ws();
            let val = self.value(depth + 1)?;
            pairs.push((key, val));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(pairs));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `}` in object"));
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // consume the opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes up to the next quote/escape.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is a &str, so any slice between ASCII
                // delimiters is valid UTF-8.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| {
                        self.err("string slice is not UTF-8 (unreachable for &str input)")
                    })?,
                );
            }
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => return self.unicode_escape(),
            _ => return Err(self.err("unknown escape character")),
        })
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: a `\uXXXX` low surrogate must follow.
            if !(self.eat(b'\\') && self.eat(b'u')) {
                return Err(self.err("high surrogate not followed by \\u escape"));
            }
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else if (0xDC00..0xE000).contains(&hi) {
            return Err(self.err("unpaired low surrogate"));
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.err("escape is not a Unicode scalar"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("non-hex digit in \\u escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        // The byte set above contains only ASCII, so the slice is UTF-8,
        // and `f64::from_str` enforces the numeric grammar (`-`, `1e+`,
        // `1.2.3` all fail). Only the textual forms `inf`/`NaN` parse to
        // non-finite values and none survive the byte filter, so the
        // finite check guards range overflow like `1e400`.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("number slice is not UTF-8 (unreachable for ASCII)"))?;
        let x: f64 = text.parse().map_err(|_| JsonError {
            offset: start,
            message: format!("invalid number `{text}`"),
        })?;
        if !x.is_finite() {
            return Err(JsonError {
                offset: start,
                message: format!("number `{text}` overflows f64"),
            });
        }
        Ok(Json::Num(x))
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Num(1.5).render(), "1.5");
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::str("hi").render(), "\"hi\"");
    }

    #[test]
    fn escaping() {
        assert_eq!(Json::str("a\"b\\c\nd").render(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(Json::str("\u{1}").render(), "\"\\u0001\"");
    }

    #[test]
    fn nested_structures() {
        let v = Json::obj(vec![
            ("workload", Json::str("CTC")),
            (
                "grid",
                Json::Arr(vec![Json::Num(1.5), Json::Num(2.0), Json::Num(3.0)]),
            ),
            ("nested", Json::obj(vec![("ok", Json::Bool(true))])),
        ]);
        assert_eq!(
            v.render(),
            "{\"workload\":\"CTC\",\"grid\":[1.5,2,3],\"nested\":{\"ok\":true}}"
        );
    }

    #[test]
    fn from_impls() {
        assert_eq!(Json::from(2u64).render(), "2");
        assert_eq!(Json::from(2usize).render(), "2");
        assert_eq!(Json::from(0.25f64).render(), "0.25");
        assert_eq!(Json::from("x").render(), "\"x\"");
    }

    #[test]
    fn large_magnitudes_render_exactly() {
        // At and below 2^53 every integral f64 is exact; the i64 fast
        // path must print the true value...
        assert_eq!(Json::Num(9007199254740992.0).render(), "9007199254740992");
        assert_eq!(Json::Num(-9007199254740992.0).render(), "-9007199254740992");
        assert_eq!(Json::Num(1e15).render(), "1000000000000000");
        // ...and beyond it the float path renders the shortest decimal
        // that parses back to the identical f64 — never a truncated
        // `as i64` cast (which would saturate CellId-sized magnitudes to
        // i64::MAX = 9223372036854775807).
        let cell_sized = 18446744073709549568.0f64; // largest f64 < u64::MAX
        let text = Json::Num(cell_sized).render();
        assert_eq!(text, "18446744073709550000");
        assert_eq!(text.parse::<f64>().unwrap().to_bits(), cell_sized.to_bits());
        assert!(
            !Json::Num(1e300).render().contains('e'),
            "plain decimal, valid JSON"
        );
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::str("hi"));
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "nul",
            "tru",
            "[1,",
            "[1 2]",
            "{\"a\":}",
            "{a:1}",
            "{\"a\" 1}",
            "\"open",
            "\"\\q\"",
            "1e400",
            "--1",
            "1.2.3",
            "[1]]",
            "{} {}",
            "\u{1}",
            "[\"\u{1}\"]",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
            "+1",
            "01x",
            "inf",
            "NaN",
        ] {
            let got = Json::parse(bad);
            assert!(got.is_err(), "{bad:?} parsed as {got:?}");
        }
        // The depth cap turns pathological nesting into an error, not a
        // stack overflow.
        let deep = "[".repeat(4096) + &"]".repeat(4096);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn parse_escapes_and_surrogates() {
        assert_eq!(
            Json::parse(r#""a\"b\\c\/d\n\t\r\b\f""#).unwrap(),
            Json::str("a\"b\\c/d\n\t\r\u{8}\u{c}")
        );
        assert_eq!(Json::parse(r#""\u0041\u00e9""#).unwrap(), Json::str("Aé"));
        // Surrogate pair for U+1F600.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::str("\u{1F600}")
        );
    }

    #[test]
    fn parse_render_round_trip() {
        let v = Json::obj(vec![
            ("op", Json::str("run")),
            ("cells", Json::from(3usize)),
            ("grid", Json::Arr(vec![Json::Num(1.5), Json::Null])),
            (
                "overrides",
                Json::obj(vec![("bsld_th", Json::Num(2.0)), ("wq", Json::str("no"))]),
            ),
            ("ok", Json::Bool(true)),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // And the other direction: parse → render is textually stable.
        assert_eq!(Json::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn parse_keeps_duplicate_keys_and_get_returns_the_first() {
        let v = Json::parse("{\"a\":1,\"a\":2,\"b\":3}").unwrap();
        assert_eq!(v.get("a"), Some(&Json::Num(1.0)));
        assert_eq!(v.get("b"), Some(&Json::Num(3.0)));
        assert_eq!(v.get("c"), None);
    }

    #[test]
    fn accessors() {
        let v = Json::obj(vec![
            ("s", Json::str("x")),
            ("n", Json::Num(2.5)),
            ("i", Json::Num(7.0)),
            ("b", Json::Bool(false)),
            ("a", Json::Arr(vec![Json::Null])),
        ]);
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(2.5));
        assert_eq!(v.get("i").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("n").and_then(Json::as_u64), None, "not integral");
        assert_eq!(Json::Num(-1.0).as_u64(), None, "negative");
        assert_eq!(Json::Num(1e300).as_u64(), None, "beyond 2^53");
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(Json::Null.get("s"), None);
    }

    #[test]
    fn rendered_numbers_round_trip_to_identical_bits() {
        let samples = [
            0.0,
            -0.0,
            0.1,
            1.5,
            1e15,
            9007199254740992.0,    // 2^53
            9007199254740994.0,    // 2^53 + 2 (first even step)
            1.8446744073709552e19, // ~u64::MAX
            u64::MAX as f64,
            i64::MIN as f64,
            f64::MAX,
            f64::MIN_POSITIVE,
            2.2250738585072014e-308,
            std::f64::consts::PI,
        ];
        for &x in &samples {
            let text = Json::Num(x).render();
            let back: f64 = text.parse().expect("rendered JSON number parses");
            assert_eq!(back.to_bits(), x.to_bits(), "{x} rendered as {text}");
        }
    }
}
