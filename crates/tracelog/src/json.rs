//! Minimal JSON support: string escaping for the exporter, a small
//! recursive-descent parser, and structural validation of exported
//! Chrome/Perfetto traces.
//!
//! The build environment is offline, so no serde: this module
//! implements just enough of RFC 8259 to round-trip the exporter's
//! own output (and ordinary foreign JSON) for smoke validation.

use std::collections::BTreeMap;

/// Escape a string for embedding in a JSON document (without the
/// surrounding quotes).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Escape a string and wrap it in quotes: a complete JSON string token.
#[must_use]
pub fn quote(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Deepest array/object nesting [`Value::parse`] accepts. The parser
/// recurses once per level, so an unbounded depth lets a small hostile
/// document (`[[[[…`) overflow the stack; every document this workspace
/// writes or reads nests at most a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Why [`Value::parse`] rejected a document. Every variant carries the
/// byte offset where parsing stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed JSON.
    Syntax {
        /// Byte offset of the error.
        at: usize,
        /// What was expected or found.
        what: &'static str,
    },
    /// Arrays/objects nested deeper than [`MAX_DEPTH`].
    TooDeep {
        /// Byte offset of the first bracket past the limit.
        at: usize,
    },
    /// An object names the same key twice. Picking either occurrence
    /// would silently discard the other, so the document is malformed.
    DuplicateKey {
        /// Byte offset of the repeated key.
        at: usize,
        /// The repeated key.
        key: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Syntax { at, what } => write!(f, "{what} at byte {at}"),
            ParseError::TooDeep { at } => {
                write!(f, "nesting deeper than {MAX_DEPTH} levels at byte {at}")
            }
            ParseError::DuplicateKey { at, key } => {
                write!(f, "duplicate object key {} at byte {at}", quote(key))
            }
        }
    }
}

impl From<ParseError> for String {
    fn from(e: ParseError) -> String {
        e.to_string()
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Keys are sorted (BTreeMap) and unique: the parser
    /// rejects a repeated key.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Parse a complete JSON document.
    ///
    /// # Errors
    /// Fails on the first syntax error, on trailing data after the
    /// top-level value, on nesting deeper than [`MAX_DEPTH`], and on a
    /// repeated object key.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let b = text.as_bytes();
        let mut p = Parser { b, i: 0 };
        let v = p.value(0)?;
        p.skip_ws();
        if p.i != b.len() {
            return p.err("trailing data");
        }
        Ok(v)
    }

    /// Object member lookup; `None` for non-objects/missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an integer, if it is a whole number in `0..=2^53`
    /// (the range an `f64` holds exactly).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean, if this is `true`/`false`.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn err<T>(&self, what: &'static str) -> Result<T, ParseError> {
        Err(ParseError::Syntax { at: self.i, what })
    }

    /// One value nested `depth` arrays/objects deep.
    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.b.get(self.i) {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(ParseError::TooDeep { at: self.i }),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            self.err("bad literal")
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        // The scanned bytes are ASCII, so the slice is valid UTF-8.
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or(ParseError::Syntax { at: start, what: "bad number" })
    }

    fn string(&mut self) -> Result<String, ParseError> {
        debug_assert_eq!(self.b[self.i], b'"');
        self.i += 1;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let cp = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .and_then(|hex| std::str::from_utf8(hex).ok())
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok());
                            let Some(cp) = cp else { return self.err("bad \\u escape") };
                            // Surrogates are not paired; plain BMP is
                            // all the exporter emits.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.i += 1;
                }
                Some(&lead) => {
                    // Consume one UTF-8 scalar. The sequence length comes
                    // from the lead byte so only that slice is validated —
                    // validating `b[i..]` wholesale here would rescan the
                    // rest of the document per character (quadratic; a
                    // multi-MB trace took minutes to check).
                    let len = match lead {
                        0x00..=0x7F => 1,
                        0xC2..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF4 => 4,
                        _ => return self.err("invalid UTF-8"),
                    };
                    let Some(s) =
                        self.b.get(self.i..self.i + len).and_then(|c| std::str::from_utf8(c).ok())
                    else {
                        return self.err("invalid UTF-8");
                    };
                    out.push_str(s);
                    self.i += len;
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.i += 1; // '['
        let mut out = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            out.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.i += 1; // '{'
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            self.skip_ws();
            if self.b.get(self.i) != Some(&b'"') {
                return self.err("expected object key");
            }
            let at = self.i;
            let key = self.string()?;
            if out.contains_key(&key) {
                return Err(ParseError::DuplicateKey { at, key });
            }
            self.skip_ws();
            if self.b.get(self.i) != Some(&b':') {
                return self.err("expected ':'");
            }
            self.i += 1;
            let v = self.value(depth + 1)?;
            out.insert(key, v);
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(out));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Result of a successful [`validate_chrome_trace`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceCheck {
    /// Total entries in `traceEvents`.
    pub events: usize,
    /// Entries that are metadata (`"ph": "M"`).
    pub metadata: usize,
    /// Distinct `(pid, tid)` tracks seen.
    pub tracks: usize,
}

/// Structurally validate an exported Chrome/Perfetto trace:
/// the document parses, `traceEvents` is present, every entry carries
/// the required keys for its phase, and within each `(pid, tid)`
/// track timestamps are monotonically non-decreasing in array order.
///
/// # Errors
/// Returns a description of the first violation found.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceCheck, String> {
    let doc = Value::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or_else(|| "missing \"traceEvents\" array".to_string())?;
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut metadata = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing \"ph\""))?;
        let pid = ev
            .get("pid")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing \"pid\""))?;
        let tid = ev
            .get("tid")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing \"tid\""))?;
        if ph == "M" {
            metadata += 1;
            continue;
        }
        if ev.get("name").and_then(Value::as_str).is_none() {
            return Err(format!("event {i}: missing \"name\""));
        }
        let ts = ev
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing \"ts\""))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {i}: non-finite or negative ts"));
        }
        if ph == "X" && ev.get("dur").and_then(Value::as_f64).is_none() {
            return Err(format!("event {i}: complete event missing \"dur\""));
        }
        let key = (pid as u64, tid as u64);
        if let Some(prev) = last_ts.get(&key) {
            if ts < *prev {
                return Err(format!(
                    "event {i}: ts {ts} regresses below {prev} on track pid={} tid={}",
                    key.0, key.1
                ));
            }
        }
        last_ts.insert(key, ts);
    }
    Ok(ChromeTraceCheck { events: events.len(), metadata, tracks: last_ts.len() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_specials() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(quote("a\"b"), "\"a\\\"b\"");
    }

    #[test]
    fn parse_round_trip() {
        let v = Value::parse(r#"{"a": [1, -2.5, "x\ny", true, null], "b": {}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 5);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_f64(), Some(1.0));
        assert_eq!(v.get("b"), Some(&Value::Obj(BTreeMap::new())));

        let v = Value::parse(r#"{"benches": ["mcf", "stream"], "reads": 500, "quick": true}"#);
        let v = v.unwrap();
        assert_eq!(v.get("reads").and_then(Value::as_u64), Some(500));
        assert_eq!(v.get("quick").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("benches").and_then(Value::as_arr).unwrap()[1].as_str(), Some("stream"));
        assert!(v.get("missing").is_none());

        let s = |text: &str| Value::parse(text).unwrap().as_str().map(str::to_owned);
        assert_eq!(s(r#""a\"b\\c\nd\u0041""#).as_deref(), Some("a\"b\\c\ndA"));
        assert_eq!(s("\"héllo\"").as_deref(), Some("héllo"));

        // Whole numbers up to 2^53 (exact in an f64) convert; nothing else.
        let n = |text: &str| Value::parse(text).unwrap().as_u64();
        assert_eq!(
            (n("42"), n("1e3"), n("9007199254740992")),
            (Some(42), Some(1000), Some(1 << 53))
        );
        assert_eq!((n("9007199254740994"), n("-1"), n("1.5"), n("true")), (None, None, None, None));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["{", "[1,]", "{} x", "{}extra", "nul", "\"unterminated", "{1: 2}", "\"\\x\""] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn validate_catches_ts_regression() {
        let good = r#"{"traceEvents": [
            {"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"c0"}},
            {"ph":"i","pid":1,"tid":0,"name":"a","ts":1.0,"s":"t"},
            {"ph":"i","pid":1,"tid":0,"name":"b","ts":2.0,"s":"t"}
        ]}"#;
        let c = validate_chrome_trace(good).unwrap();
        assert_eq!(c.events, 3);
        assert_eq!(c.metadata, 1);
        assert_eq!(c.tracks, 1);

        let bad = r#"{"traceEvents": [
            {"ph":"i","pid":1,"tid":0,"name":"a","ts":2.0},
            {"ph":"i","pid":1,"tid":0,"name":"b","ts":1.0}
        ]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("regresses"));
    }

    #[test]
    fn validate_requires_keys() {
        assert!(validate_chrome_trace(r#"{"other": 1}"#).is_err());
        let no_ts = r#"{"traceEvents": [{"ph":"i","pid":1,"tid":0,"name":"a"}]}"#;
        assert!(validate_chrome_trace(no_ts).unwrap_err().contains("ts"));
    }
}
