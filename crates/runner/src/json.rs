//! Minimal JSON reader shared by the checkpoint journal and the
//! `choco-serve` line protocol (the repo deliberately has no serde; this
//! mirrors the `minitoml` approach). Numbers keep their raw token so a
//! reloaded record re-serializes byte-identically.
//!
//! Everything here returns `Result`: both consumers feed the parser
//! hostile bytes (a corrupt journal, an arbitrary request line), and a
//! long-lived daemon must surface a structured error, never panic.

use crate::report::{Field, Record};
use std::borrow::Cow;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    /// Raw number token, e.g. `"3"` or `"0.125"` (never re-formatted).
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    pub(crate) fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64` (protocol knobs like `deadline_secs`, where
    /// fractional seconds are meaningful).
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The key/value pairs of an object (empty for non-objects).
    pub(crate) fn entries(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(pairs) => pairs,
            _ => &[],
        }
    }

    /// A short human rendering for error messages: the raw token for
    /// numbers, a quoted excerpt for strings, a type name otherwise.
    pub(crate) fn brief(&self) -> String {
        match self {
            Json::Null => "null".into(),
            Json::Bool(b) => b.to_string(),
            Json::Num(raw) => raw.clone(),
            Json::Str(s) if s.len() <= 32 => format!("\"{s}\""),
            Json::Str(s) => format!("\"{}…\"", s.chars().take(29).collect::<String>()),
            Json::Arr(_) => "an array".into(),
            Json::Obj(_) => "an object".into(),
        }
    }
}

pub(crate) struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

/// Deepest array/object nesting the reader accepts. Journal records and
/// protocol requests nest two or three levels; the cap keeps a hostile
/// line of brackets from overflowing the recursive descent's stack.
const MAX_DEPTH: usize = 64;

impl<'a> JsonParser<'a> {
    pub(crate) fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at offset {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let nested = if self.peek() == Some(b'{') {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                nested
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.literal("null") => Ok(Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
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
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ascii \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint {code}"))?,
                            );
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe: advance to
                    // the next char boundary).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        // The consumed bytes are all ASCII, so this conversion cannot
        // fail — but a daemon parsing hostile input never gets to rely
        // on "cannot": surface a structured error instead of panicking.
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number token at offset {start}"))?;
        if raw.parse::<f64>().is_err() {
            return Err(format!("bad number `{raw}` at offset {start}"));
        }
        Ok(Json::Num(raw.to_string()))
    }
}

/// Maps a parsed JSON value back to a record [`Field`]. The inverse of
/// `Field::write_json`: pure-integer tokens become `UInt` (matching how
/// the harness emits them), anything else numeric becomes `Float`, and
/// `null` inside a float array round-trips to `NaN`.
pub(crate) fn field_from_json(value: &Json) -> Result<Field, String> {
    Ok(match value {
        Json::Null => Field::Null,
        Json::Bool(b) => Field::Bool(*b),
        Json::Str(s) => Field::Str(s.clone()),
        Json::Num(raw) => {
            if !raw.contains(['.', 'e', 'E', '-']) {
                Field::UInt(raw.parse::<u64>().map_err(|e| format!("`{raw}`: {e}"))?)
            } else {
                Field::Float(raw.parse::<f64>().map_err(|e| format!("`{raw}`: {e}"))?)
            }
        }
        Json::Arr(items) => {
            let mut xs = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    Json::Null => xs.push(f64::NAN),
                    Json::Num(raw) => {
                        xs.push(raw.parse::<f64>().map_err(|e| format!("`{raw}`: {e}"))?)
                    }
                    _ => return Err("array element is not a number".into()),
                }
            }
            Field::Floats(xs)
        }
        Json::Obj(_) => return Err("nested objects are not record fields".into()),
    })
}

/// Rebuilds a [`Record`] from its parsed JSON object.
pub(crate) fn record_from_json(value: &Json) -> Result<Record, String> {
    let Json::Obj(pairs) = value else {
        return Err("record is not an object".into());
    };
    let mut record = Record::new();
    for (key, v) in pairs {
        record.push(
            Cow::<'static, str>::Owned(key.clone()),
            field_from_json(v).map_err(|e| format!("field `{key}`: {e}"))?,
        );
    }
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A journal record line and a protocol request: the two kinds of
    /// line the reader meets in the field.
    const TEMPLATES: [&str; 2] = [
        r#"{"index": 3, "record": {"problem": "F1", "solver": "hea", "seed": 2, "success_rate": 0.125, "counts": [1, 2, 3], "engine": "dense", "ok": true, "note": null}}"#,
        r#"{"op": "submit", "job": {"name": "jé", "problems": ["F1", "K2"], "shots": 300, "deadline_secs": 1.5e1}}"#,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Mangled and arbitrary lines never panic the reader (nor the
        /// record decoder behind it): every input parses or yields an
        /// error. Modes: truncation, a bit flip, a byte spliced in,
        /// arbitrary bytes, and bracket runs far past the depth cap.
        #[test]
        fn mangled_json_never_panics(
            template in 0usize..2,
            at in 0usize..512,
            bit in 0u32..8,
            byte in 0u32..256,
            mode in 0u32..5,
            seed in any::<u64>(),
        ) {
            let text = TEMPLATES[template].as_bytes();
            let bytes: Vec<u8> = match mode {
                0 => text[..at.min(text.len())].to_vec(),
                1 => {
                    let mut b = text.to_vec();
                    b[at % text.len()] ^= 1 << bit;
                    b
                }
                2 => {
                    let mut b = text.to_vec();
                    b.insert(at % (text.len() + 1), byte as u8);
                    b
                }
                3 => {
                    let mut state = seed;
                    (0..at % 96)
                        .map(|_| {
                            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                            (state >> 56) as u8
                        })
                        .collect()
                }
                _ => {
                    let open = if bit % 2 == 0 { "[" } else { "{\"a\":" };
                    open.repeat(1000 + at * 100).into_bytes()
                }
            };
            let line = String::from_utf8_lossy(&bytes);
            if let Ok(value) = JsonParser::parse(&line) {
                let _ = value.brief();
                if let Some(record) = value.get("record") {
                    let _ = record_from_json(record);
                }
            }
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,",
            "\"unterminated",
            "{\"a\":1}x",
            "nul",
            "{\"n\": 1e}",
            "{\"n\": --3}",
        ] {
            assert!(JsonParser::parse(bad).is_err(), "accepted `{bad}`");
        }
        assert_eq!(
            JsonParser::parse("{\"u\": \"\\u0041\"}")
                .unwrap()
                .get("u")
                .unwrap()
                .as_str(),
            Some("A")
        );
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonParser::parse(&nested(MAX_DEPTH)).is_ok());
        let err = JsonParser::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn accessors_and_brief_renderings() {
        let v = JsonParser::parse(r#"{"i": 3, "neg": -2, "f": 1.5, "s": "x", "b": true}"#).unwrap();
        assert_eq!(v.get("i").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("neg").unwrap().as_i64(), Some(-2));
        assert_eq!(
            v.get("neg").unwrap().as_u64(),
            None,
            "negatives are not u64"
        );
        assert_eq!(v.get("f").unwrap().as_u64(), None, "fractions are not u64");
        assert_eq!(v.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("s").unwrap().as_f64(), None, "strings are not f64");
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.entries().len(), 5);
        assert_eq!(v.get("f").unwrap().brief(), "1.5");
        assert_eq!(v.get("s").unwrap().brief(), "\"x\"");
        assert_eq!(v.brief(), "an object");
    }
}
