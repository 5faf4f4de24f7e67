//! A deliberately tiny JSON tree, writer, and recursive-descent parser.
//!
//! The telemetry crate is zero-dependency by design (see the crate docs),
//! so it cannot lean on the workspace's vendored `serde_json`; events
//! instead (de)serialize through this module. The emitted text is plain
//! RFC-8259 JSON — one object per line in the JSONL sink — so any external
//! tool can consume traces, and [`parse`] reads back exactly what
//! [`Json::write`] produced (used by `edse-trace` and round-trip tests).

use std::fmt::Write as _;

/// A JSON value. Numbers are kept as `f64`; every count this crate records
/// stays far below 2^53, so the round trip is exact.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj(entries: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Member lookup on objects (`None` for other kinds or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a `u64`, if this is a non-negative integral
    /// number below 2^53: above that, `f64` no longer holds every integer,
    /// so the value read may not be the one written.
    pub fn as_u64(&self) -> Option<u64> {
        const EXACT: f64 = (1u64 << 53) as f64;
        self.as_f64()
            .filter(|f| f.fract() == 0.0 && (0.0..EXACT).contains(f))
            .map(|f| f as u64)
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value as compact single-line JSON.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if !n.is_finite() {
                    // JSON has no NaN/inf; null keeps the line parseable.
                    out.push_str("null");
                } else if *n == n.trunc() && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    // `{:?}` is Rust's shortest round-trip float form.
                    let _ = write!(out, "{n:?}");
                }
            }
            Json::Str(s) => write_str(s, out),
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
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Serializes into a fresh string.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }
}

fn write_str(s: &str, out: &mut String) {
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

/// A parse failure with the byte offset where the parser gave up.
///
/// The offset lets consumers (e.g. `edse-trace`) turn a failure into an
/// actionable `line:col` location instead of a bare message. [`Display`]
/// renders `"{message} at byte {byte}"`, and `From<ParseError> for String`
/// keeps `?`-style callers that only want text working unchanged.
///
/// [`Display`]: std::fmt::Display
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where the error was detected (0-based).
    pub byte: usize,
    /// What went wrong, without the position suffix.
    pub message: String,
}

impl ParseError {
    fn at(byte: usize, message: impl Into<String>) -> Self {
        ParseError {
            byte,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.byte)
    }
}

impl std::error::Error for ParseError {}

impl From<ParseError> for String {
    fn from(e: ParseError) -> String {
        e.to_string()
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a bound a small hostile document (a few KB of
/// `[`) overflows the thread's stack and aborts the process.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document (e.g. one JSONL line). Rejects trailing junk
/// and nesting deeper than [`MAX_DEPTH`].
///
/// # Errors
///
/// Returns a [`ParseError`] carrying the byte offset of the failure.
pub fn parse(s: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(ParseError::at(p.pos, "trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(ParseError::at(self.pos, "invalid literal"))
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
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(ParseError::at(
                self.pos,
                format!("unexpected character {:?}", c as char),
            )),
            None => Err(ParseError::at(self.pos, "unexpected end of input")),
        }
    }

    /// Parses one array or object one nesting level down, failing at the
    /// opening byte past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError::at(
                self.pos,
                format!("nesting deeper than {MAX_DEPTH}"),
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(ParseError::at(self.pos, "expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.pos += 1; // consume '{'
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(ParseError::at(self.pos, "expected `:`"));
            }
            self.pos += 1;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(ParseError::at(self.pos, "expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        if self.peek() != Some(b'"') {
            return Err(ParseError::at(self.pos, "expected string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| ParseError::at(start, "invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| ParseError::at(self.pos, "unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| ParseError::at(self.pos, "truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| ParseError::at(self.pos, "invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| ParseError::at(self.pos, "invalid \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(ParseError::at(
                                self.pos,
                                format!("invalid escape `\\{}`", other as char),
                            ))
                        }
                    }
                }
                _ => return Err(ParseError::at(self.pos, "unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-' => self.pos += 1,
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| ParseError::at(start, "invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| ParseError::at(start, format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip() {
        let v = Json::obj(vec![
            ("int", Json::Num(42.0)),
            ("float", Json::Num(1.25)),
            ("neg", Json::Num(-3.0)),
            ("s", Json::Str("a\"b\nc".into())),
            ("arr", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("nested", Json::obj(vec![("k", Json::Num(0.0))])),
        ]);
        let line = v.to_line();
        assert!(!line.contains('\n'), "single line: {line}");
        assert_eq!(parse(&line).unwrap(), v);
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(Json::Num(42.0).to_line(), "42");
        assert_eq!(Json::Num(1.5).to_line(), "1.5");
        assert_eq!(Json::Num(f64::NAN).to_line(), "null");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("{\"a\"}").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn nesting_is_bounded_at_the_offending_byte() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert_eq!(parse(&ok).unwrap().to_line(), ok);
        // 10,000 levels abort a default 2 MiB thread without the bound.
        let err = parse(&"[".repeat(10_000)).unwrap_err();
        assert_eq!(err.byte, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        let err = parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.byte, MAX_DEPTH * 5);
    }

    #[test]
    fn as_u64_reads_only_exact_non_negative_integers() {
        let u = |text: &str| parse(text).unwrap().as_u64();
        assert_eq!(u("0"), Some(0));
        assert_eq!(u("42"), Some(42));
        assert_eq!(u("1e3"), Some(1000));
        assert_eq!(u("9007199254740991"), Some((1 << 53) - 1));
        for rejected in [
            "-5",
            "2.5",
            "9007199254740992",
            "9007199254740993",
            "1e300",
            "\"7\"",
        ] {
            assert_eq!(u(rejected), None, "{rejected}");
        }
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , \"x\\u0041\" ] } ").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].as_str(),
            Some("xA")
        );
    }
}
