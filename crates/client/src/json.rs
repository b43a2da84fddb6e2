//! Minimal hand-rolled JSON value, parser, and serializer.
//!
//! The workspace vendors no serde, so the daemon wire protocol, the
//! CLI's `--format json` output and the `BENCH_*.json` files are all
//! written through this module. It supports the full JSON data
//! model with one deliberate refinement: number literals without a
//! fraction or exponent are kept as `i64` ([`Json::Int`]) so counters
//! and sequence numbers round-trip exactly; anything else becomes an
//! `f64` ([`Json::Num`]). Values that do not fit either (e.g. raw `u64`
//! hashes) travel as hex strings at the protocol layer.

use std::collections::BTreeMap;
use std::fmt;

/// Maximum nesting depth the parser accepts. Deeper input is rejected
/// rather than risking a stack overflow on adversarial frames.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number literal with no fraction or exponent.
    Int(i64),
    /// Any other number literal.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps serialization deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an integer value from a counter, saturating at `i64::MAX`.
    pub fn int(v: impl TryInto<i64>) -> Json {
        Json::Int(v.try_into().unwrap_or(i64::MAX))
    }

    /// The value at `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String contents, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer contents, if an integer literal.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Non-negative integer contents.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|v| u64::try_from(v).ok())
    }

    /// Array contents, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Bool contents, if a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    /// JSON text with object keys in sorted order and non-finite numbers
    /// as `null`. `{}` is compact: no whitespace, as the wire protocol
    /// sends it. `{:#}` is indented for files and terminals: two spaces
    /// per level, one member or element per line, and `[]` / `{}` for
    /// empty containers.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, f.alternate().then_some(0))
    }
}

impl Json {
    /// Writes `self` compact (`indent` is `None`) or indented at nesting
    /// depth `indent`.
    fn write(&self, f: &mut fmt::Formatter<'_>, indent: Option<usize>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Json::Int(v) => write!(f, "{v}"),
            Json::Num(v) if v.is_finite() => write!(f, "{v}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => write_seq(f, indent, "[]", items.iter().map(|v| (None, v))),
            Json::Obj(map) => write_seq(f, indent, "{}", map.iter().map(|(k, v)| (Some(k), v))),
        }
    }
}

/// Writes an array (keys all `None`) or an object between the two
/// characters of `brackets`.
fn write_seq<'a>(
    f: &mut fmt::Formatter<'_>,
    indent: Option<usize>,
    brackets: &str,
    items: impl Iterator<Item = (Option<&'a String>, &'a Json)>,
) -> fmt::Result {
    let (open, close) = brackets.split_at(1);
    let inner = indent.map(|depth| depth + 1);
    f.write_str(open)?;
    let mut empty = true;
    for (key, value) in items {
        if !empty {
            f.write_str(",")?;
        }
        empty = false;
        newline(f, inner)?;
        if let Some(key) = key {
            write_escaped(f, key)?;
            f.write_str(if indent.is_some() { ": " } else { ":" })?;
        }
        value.write(f, inner)?;
    }
    if !empty {
        newline(f, indent)?;
    }
    f.write_str(close)
}

/// Starts a new line at nesting depth `indent`; nothing in compact form.
fn newline(f: &mut fmt::Formatter<'_>, indent: Option<usize>) -> fmt::Result {
    match indent {
        Some(depth) => write!(f, "\n{:1$}", "", 2 * depth),
        None => Ok(()),
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => fmt::Write::write_char(f, c)?,
        }
    }
    f.write_str("\"")
}

/// A parse failure, with the byte offset where it was detected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { at: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, text: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u', "expected low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(c).ok_or_else(|| self.err("invalid codepoint"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 character; the input is a &str so
                    // boundaries are already valid.
                    let start = self.pos;
                    self.pos += 1;
                    while self.peek().is_some_and(|b| (b & 0xc0) == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a' + 10),
                b'A'..=b'F' => u32::from(b - b'A' + 10),
                _ => return Err(self.err("invalid hex digit")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits {
            return Err(self.err("expected digits"));
        }
        if self.pos - digits > 1 && self.bytes[digits] == b'0' {
            return Err(self.err("leading zero"));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            let frac = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if integral {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Encodes a `u64` (e.g. a content hash) as a hex string value.
pub fn hex_u64(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

/// Decodes a hex string value written by [`hex_u64`].
pub fn parse_hex_u64(v: &Json) -> Option<u64> {
    u64::from_str_radix(v.as_str()?, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_a_nested_document() {
        let v = Json::obj([
            ("name", Json::str("soak \"run\"\n")),
            ("count", Json::Int(-42)),
            ("ratio", Json::Num(0.5)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("items", Json::Arr(vec![Json::Int(1), Json::str("two")])),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn compact_text_is_pinned() {
        let v = Json::obj([
            ("s", Json::str("q\"\\\n\r\t\u{1}\u{e9}")),
            (
                "n",
                Json::Arr(vec![
                    Json::Int(-42),
                    Json::Num(0.5),
                    Json::Num(f64::NAN),
                    Json::Num(1e21),
                ]),
            ),
            ("b", Json::Bool(false)),
            ("z", Json::Null),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"b":false,"n":[-42,0.5,null,1000000000000000000000],"s":"q\"\\\n\r\t\u0001é","z":null}"#
        );
    }

    #[test]
    fn indented_text_is_pinned() {
        let v = Json::obj([
            ("s", Json::str("q\"")),
            (
                "n",
                Json::Arr(vec![Json::Int(-42), Json::Num(0.5), Json::Arr(vec![])]),
            ),
            ("o", Json::obj([("e", Json::obj([])), ("z", Json::Null)])),
        ]);
        let text = format!("{v:#}");
        assert_eq!(
            text,
            r#"{
  "n": [
    -42,
    0.5,
    []
  ],
  "o": {
    "e": {},
    "z": null
  },
  "s": "q\""
}"#
        );
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(format!("{:#}", Json::Arr(vec![])), "[]");
        assert_eq!(format!("{:#}", Json::Int(7)), "7");
    }

    #[test]
    fn integers_stay_exact() {
        let v = parse("9007199254740993").unwrap();
        assert_eq!(v.as_i64(), Some(9_007_199_254_740_993));
        assert_eq!(Json::int(7usize), Json::Int(7));
        assert_eq!(Json::int(u64::MAX), Json::Int(i64::MAX));
    }

    #[test]
    fn hex_u64_roundtrips_full_range() {
        for v in [0, 1, u64::MAX, 0xdead_beef_cafe_f00d] {
            assert_eq!(parse_hex_u64(&hex_u64(v)), Some(v));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "\"\\q\"",
            "01",
            "1.",
            "1e",
            "tru",
            "{\"a\":1,}",
            "\"\\ud800\"",
            "nullx",
            "[1]2",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed cleanly");
        }
    }

    #[test]
    fn depth_limit_rejects_deep_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(30) + &"]".repeat(30);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            parse("\"\\u00e9\\ud83d\\ude00\"").unwrap(),
            Json::str("\u{e9}\u{1f600}")
        );
    }
}
