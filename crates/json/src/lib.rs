//! `upa-json`: the workspace's one JSON reader, escape writer and record
//! codec.
//!
//! The workspace deliberately has no serde dependency. Everything UPA
//! persists or puts on a socket — the ε ledger, the store manifests, the
//! audit/trace/metrics records and the line protocol — is JSON read by
//! [`parse`] and written with the escape helpers here ([`json_str`],
//! [`json_num`] and their allocation-free `push_*` forms). Each record
//! declares its fields once, as rows of the [`codec`] table
//! ([`body!`]); its encoder and decoder are both expanded from those
//! rows, so what counts as a valid document, and how each kind of value
//! is spelled, is decided only in this crate.
//!
//! # The accepted subset
//!
//! * One value per input, surrounding whitespace allowed, anything else
//!   trailing is an error. Object keys are kept sorted, a repeated key
//!   keeps its last value.
//! * Nesting is bounded: arrays/objects deeper than [`MAX_DEPTH`] are a
//!   [`ParseError`], never a stack overflow — the reader faces the
//!   network.
//! * Numbers start with `-` or a digit and are parsed as `f64`.
//!   [`Json::as_u64`] is *exact*: fractions, negatives and anything above
//!   2⁵³ (where `f64` stops representing every integer) are `None`.
//! * `\uXXXX` escapes must name a scalar value or a well-formed
//!   surrogate pair; a lone surrogate is an error, not `U+FFFD`.
//! * Non-finite floats, which JSON cannot represent, are written as
//!   `null`; the codec's `f64` kind reads `null` back as NaN.
//!
//! Parsing is linear in the input length.

pub mod codec;

pub use codec::{put, put_list, put_name, take, take_or, take_with, Body, Field, Optional, Via};

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is not preserved (protocol objects never
    /// rely on it).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object, or `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer (rejects fractions,
    /// negatives and anything above 2⁵³, where `f64` loses exactness).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 9_007_199_254_740_992.0 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
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
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Member `key` as a string.
    pub fn str_of(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }

    /// Member `key` as a number.
    pub fn num_of(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Json::as_f64)
    }

    /// Member `key` as a boolean.
    pub fn bool_of(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(Json::as_bool)
    }
}

/// A parse failure: byte offset, message, and a truncated echo of the
/// input around the offending byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
    /// Up to [`ECHO_BYTES`] of input around the offset, `…`-elided at
    /// truncated ends, so a protocol error names the offending text
    /// without echoing an arbitrarily long line.
    pub near: String,
}

/// Input bytes echoed around a parse failure (each side of the offset).
pub const ECHO_BYTES: usize = 20;

/// Deepest array/object nesting [`parse`] accepts. The deepest document
/// this workspace writes nests fewer than 10 levels; the bound exists so
/// a hostile line of `[[[[…` is an error instead of unbounded recursion.
pub const MAX_DEPTH: usize = 128;

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid JSON at byte {}: {} (near '{}')",
            self.at, self.message, self.near
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON value, requiring the whole input (modulo surrounding
/// whitespace) to be consumed.
///
/// # Errors
///
/// Returns a [`ParseError`] locating the first offending byte.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// The `…`-elided window of `text` around `pos`, widened to character
/// boundaries so multi-byte input never echoes as mojibake.
fn echo_near(text: &str, pos: usize) -> String {
    let mut start = pos.saturating_sub(ECHO_BYTES).min(text.len());
    while !text.is_char_boundary(start) {
        start -= 1;
    }
    let mut end = (pos + ECHO_BYTES).min(text.len());
    while !text.is_char_boundary(end) {
        end += 1;
    }
    let mut out = String::new();
    if start > 0 {
        out.push('…');
    }
    out.push_str(&text[start..end]);
    if end < text.len() {
        out.push('…');
    }
    out
}

struct Parser<'a> {
    text: &'a str,
    /// Always on a character boundary of `text`.
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.to_string(),
            near: echo_near(self.text, self.pos),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn rest(&self) -> &str {
        &self.text[self.pos..]
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.rest().starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Runs a container parser one level down, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            out.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            // Surrogate pair: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                if self.rest().starts_with("\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    (0xDC00..0xE000)
                                        .contains(&lo)
                                        .then(|| 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
                                        .and_then(char::from_u32)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape
                    // in one go; both are ASCII, so the run ends on a
                    // character boundary.
                    let rest = self.rest();
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.text.len() {
            return Err(self.err("truncated \\u escape"));
        }
        // `get` is `None` when the four bytes split a multi-byte character.
        let v = self
            .text
            .get(self.pos..end)
            .filter(|s| s.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// JSON string literal with escaping for quotes, backslashes and control
/// characters.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(&mut out, s);
    out
}

/// Appends `s` as a JSON string to `out` — the allocation-free form of
/// [`json_str`] the serving hot path builds replies with.
pub fn push_json_str(out: &mut String, s: &str) {
    use std::fmt::Write;
    out.reserve(s.len() + 2);
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

/// JSON number; non-finite floats (which JSON cannot represent) become
/// `null`.
pub fn json_num(v: f64) -> String {
    let mut out = String::new();
    push_json_num(&mut out, v);
    out
}

/// Appends `v` as a JSON number (`null` when non-finite) to `out` — the
/// allocation-free form of [`json_num`].
pub fn push_json_num(out: &mut String, v: f64) {
    use std::fmt::Write;
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v =
            parse(r#"{"op":"release","eps":0.5,"audit":true,"tags":[1,2],"none":null}"#).unwrap();
        assert_eq!(v.str_of("op"), Some("release"));
        assert_eq!(v.num_of("eps"), Some(0.5));
        assert_eq!(v.bool_of("audit"), Some(true));
        assert_eq!(v.get("tags").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("none"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_escapes() {
        assert_eq!(
            parse(r#""a\"b\\c\n\tA""#).unwrap(),
            Json::Str("a\"b\\c\n\tA".into())
        );
        // An astral character, raw and as an escaped surrogate pair.
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Json::Str("😀".into()));
        assert_eq!(parse("\"héllo\"").unwrap(), Json::Str("héllo".into()));
    }

    #[test]
    fn rejects_malformed_unicode_escapes() {
        for bad in [
            r#""\ud83d""#,       // lone high surrogate
            r#""\ude00""#,       // lone low surrogate
            r#""\ud83d\u0041""#, // high surrogate + non-surrogate
            r#""\ud83dx""#,
            r#""\u12""#,
            r#""\u+041""#,
            "\"\\u00é\"", // the four bytes split a character
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.message.contains("\\u escape"), "{bad}: {err}");
        }
    }

    #[test]
    fn round_trips_escape_helpers() {
        for original in [
            "a\"b\\c\nd\te\u{1}",
            "quote\" slash\\ tab\t newline\n ünïcode \u{1}",
        ] {
            let encoded = json_str(original);
            assert_eq!(parse(&encoded).unwrap(), Json::Str(original.into()));
        }
        assert_eq!(json_str("a\"b\\c\n\u{1f}"), "\"a\\\"b\\\\c\\n\\u001f\"");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(parse(&json_num(2.25)).unwrap(), Json::Num(2.25));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1,]",
            "\"open",
            "{\"a\":}",
            "nul",
            "01a",
            "{}x",
            "{} trailing",
            "[1 2]",
            "+1",
            ".5",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        let err = parse("{\"a\":!}").unwrap_err();
        assert!(err.to_string().contains("byte"));
        // A short line echoes in full, un-elided.
        assert_eq!(err.near, "{\"a\":!}");
        assert!(err.to_string().contains("(near '{\"a\":!}')"), "{err}");
    }

    #[test]
    fn parse_errors_echo_a_truncated_window() {
        // A long line is elided on both sides of the offending byte…
        let long = format!("{{\"key\":\"{}\"!{}}}", "x".repeat(200), "y".repeat(200));
        let err = parse(&long).unwrap_err();
        assert_eq!(err.at, long.find('!').unwrap());
        assert!(
            err.near.starts_with('…') && err.near.ends_with('…'),
            "{err}"
        );
        assert!(err.near.contains('!'), "echo must show the bad byte: {err}");
        assert!(
            err.near.chars().count() <= 2 * ECHO_BYTES + 2,
            "echo too long: {err}"
        );
        // …a failure near the start keeps the line head un-elided…
        let err = parse(&format!("!{}", "z".repeat(100))).unwrap_err();
        assert!(
            err.near.starts_with('!') && err.near.ends_with('…'),
            "{err}"
        );
        // …and multi-byte input truncates on character boundaries
        // rather than echoing mojibake.
        let err = parse(&format!("\"{}", "é".repeat(100))).unwrap_err();
        assert!(!err.near.contains('\u{FFFD}'), "split a UTF-8 char: {err}");
    }

    #[test]
    fn parses_whitespace_separated_documents() {
        let doc = parse(r#"{"a": [1, 2.5, "x\n", true, null], "b": {"c": 7}}"#).unwrap();
        assert_eq!(doc.get("b").unwrap().get("c").unwrap().as_u64(), Some(7));
        let arr = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[2].as_str(), Some("x\n"));
        assert_eq!(arr[3], Json::Bool(true));
        assert_eq!(arr[4], Json::Null);
    }

    #[test]
    fn as_u64_is_exact() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1e300").unwrap().as_u64(), None);
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), Some(1 << 53));
        assert_eq!(parse("9007199254740994").unwrap().as_u64(), None);
    }

    #[test]
    fn nesting_is_bounded_not_recursed() {
        // Far past any stack: an error, not an abort.
        let err = parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH);
        assert!(err.message.contains("nesting deeper than 128"), "{err}");
        assert!(parse(&"{\"k\":".repeat(200_000)).is_err());
        // The bound is exact, and counts arrays and objects alike.
        let nest = |depth: usize| {
            let open: String = (0..depth)
                .map(|i| if i % 2 == 0 { "[" } else { "{\"k\":" })
                .collect();
            let close: String = (0..depth)
                .rev()
                .map(|i| if i % 2 == 0 { "]" } else { "}" })
                .collect();
            format!("{open}1{close}")
        };
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
        // Siblings do not accumulate depth.
        let wide = format!("[{}]", vec!["[[]]"; 1_000].join(","));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn string_parsing_is_linear() {
        // Re-validating the remaining input per character made this take
        // over a minute; the generous bound only has to tell linear from
        // quadratic.
        let body = "x\u{e9}\\n".repeat(400_000);
        let doc = format!("{{\"exposition\":\"{body}\"}}");
        assert!(doc.len() > 2_000_000);
        let start = std::time::Instant::now();
        let parsed = parse(&doc).unwrap();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "2 MB string took {:?}",
            start.elapsed()
        );
        assert_eq!(
            parsed.str_of("exposition").map(str::len),
            Some("x\u{e9}\n".len() * 400_000)
        );
    }

    #[test]
    fn parses_audit_json() {
        // The exact payload shape the client reconstructs audits from.
        let v = parse(
            r#"{"query":"mean","epsilon":0.1,"budget_remaining":null,"sensitivity":[2],
                "range":[[10,20]],"clamped":false,"attack_detected":false,
                "removed_records":0,"sample_size":100,"group_size":1,"total_nanos":240,
                "spans":[{"name":"sample","path":"prepare/sample","depth":1,"nanos":50,"records":0,"calls":1}],
                "engine":{"stages":3,"tasks":12,"task_retries":0,"shuffles":1,
                          "shuffle_records":500,"shuffle_bytes":4000,"records_processed":1000}}"#,
        )
        .unwrap();
        assert_eq!(v.str_of("query"), Some("mean"));
        assert_eq!(v.get("budget_remaining"), Some(&Json::Null));
        let spans = v.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans[0].str_of("path"), Some("prepare/sample"));
        assert_eq!(
            v.get("engine").unwrap().num_of("shuffle_bytes"),
            Some(4000.0)
        );
    }
}
