//! A minimal TOML-subset parser for experiment specs.
//!
//! The workspace builds with zero network dependencies, so specs are
//! parsed by this small hand-written reader instead of a `toml` crate.
//! The supported subset is exactly what `experiments/*.toml` needs:
//!
//! * `# comments` and blank lines
//! * one level of `[section]` headers
//! * `key = value` with string, integer, float, boolean, and
//!   single-line array values (arrays of strings or numbers)
//!
//! Keys are flattened to `section.key`. Anything outside the subset is a
//! parse error with a line number, not a silent skip.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed TOML value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A single-line array of scalar values.
    Array(Vec<Value>),
}

impl Value {
    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a float (integers coerce).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(xs) => Some(xs),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Array(xs) => {
                write!(f, "[")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// A parsed document: flattened `section.key → value` pairs in
/// deterministic (sorted) order.
pub type Document = BTreeMap<String, Value>;

/// Parses a TOML-subset document.
///
/// # Errors
///
/// Returns a message with a 1-based line number for any construct outside
/// the supported subset (multi-line values, nested tables, bad literals).
pub fn parse(text: &str) -> Result<Document, String> {
    let mut doc = Document::new();
    let mut section = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| format!("line {lineno}: unterminated section header"))?
                .trim();
            if name.is_empty() || name.contains('[') || name.contains('.') {
                return Err(format!(
                    "line {lineno}: only plain one-level [section] headers are supported"
                ));
            }
            section = name.to_string();
            continue;
        }
        let (key, value_text) = line
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
        let key = key.trim();
        if key.is_empty() || !key.chars().all(|c| c.is_alphanumeric() || c == '_') {
            return Err(format!("line {lineno}: bad key `{key}`"));
        }
        let full_key = if section.is_empty() {
            key.to_string()
        } else {
            format!("{section}.{key}")
        };
        if doc.contains_key(&full_key) {
            return Err(format!("line {lineno}: duplicate key `{full_key}`"));
        }
        let value = parse_value(value_text.trim()).map_err(|e| format!("line {lineno}: {e}"))?;
        doc.insert(full_key, value);
    }
    Ok(doc)
}

/// Strips a `#` comment, respecting `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(text: &str) -> Result<Value, String> {
    if text.is_empty() {
        return Err("missing value".into());
    }
    if let Some(rest) = text.strip_prefix('"') {
        let inner = rest
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string `{text}`"))?;
        if inner.contains('"') {
            return Err(format!("embedded quote in `{text}`"));
        }
        if inner.contains('\\') {
            return Err(format!(
                "escape sequence in `{text}` (this TOML subset reads strings \
                 literally; drop the backslash)"
            ));
        }
        return Ok(Value::Str(inner.to_string()));
    }
    if let Some(rest) = text.strip_prefix('[') {
        let inner = rest
            .strip_suffix(']')
            .ok_or_else(|| format!("unterminated array `{text}` (arrays must be single-line)"))?;
        let mut items = Vec::new();
        for part in split_array_items(inner)? {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part)? {
                Value::Array(_) => return Err("nested arrays are not supported".into()),
                v => items.push(v),
            }
        }
        // Heterogeneous arrays are always a spec typo (every consumer
        // wants all-strings or all-numbers), so fail loudly instead of
        // letting a later `as_int`/`as_str` silently drop elements.
        // Ints and floats may mix: both read back as numbers.
        let type_of = |v: &Value| match v {
            Value::Str(_) => "string",
            Value::Int(_) | Value::Float(_) => "number",
            Value::Bool(_) => "boolean",
            Value::Array(_) => unreachable!("nested arrays rejected above"),
        };
        if let Some(first) = items.first() {
            let expected = type_of(first);
            if let Some(odd) = items.iter().find(|v| type_of(v) != expected) {
                return Err(format!(
                    "mixed-type array `{text}`: contains both {expected} and {} \
                     elements",
                    type_of(odd)
                ));
            }
        }
        return Ok(Value::Array(items));
    }
    match text {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if let Ok(i) = text.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if let Ok(f) = text.parse::<f64>() {
        return Ok(Value::Float(f));
    }
    Err(format!("unrecognized value `{text}`"))
}

/// Splits array items on commas outside quotes.
fn split_array_items(inner: &str) -> Result<Vec<&str>, String> {
    let mut items = Vec::new();
    let mut start = 0usize;
    let mut in_string = false;
    for (i, c) in inner.char_indices() {
        match c {
            '"' => in_string = !in_string,
            ',' if !in_string => {
                items.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if in_string {
        return Err(format!("unterminated string in array `{inner}`"));
    }
    items.push(&inner[start..]);
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ExperimentSpec;
    use proptest::prelude::*;

    /// A complete experiment spec in the supported subset.
    const SPEC: &str = "# spec\nname = \"t\"\ndescription = \"a # b\"\n\n[grid]\n\
        problems = [\"F1\", \"K2\"]\nsolvers = [\"choco-q\", \"hea\"]\nlayers = [1, 2]\n\
        seeds = [1, 2]\nnoisy = false\n\n[config]\nshots = 300\nmax_iters = 4\n\
        noise_trajectories = 12\ntranspiled_stats = false\n";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Mangled and arbitrary documents never panic the TOML reader
        /// nor spec validation on top of it: every input parses or
        /// yields an error. Modes: truncation, a bit flip, a byte
        /// spliced in, and arbitrary bytes.
        #[test]
        fn mangled_toml_never_panics(
            at in 0usize..512,
            bit in 0u32..8,
            byte in 0u32..256,
            mode in 0u32..4,
            seed in any::<u64>(),
        ) {
            let text = SPEC.as_bytes();
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
                _ => {
                    let mut state = seed;
                    (0..at % 128)
                        .map(|_| {
                            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                            let alphabet = b"[]=\",# \nabcz019.-_e";
                            alphabet[(state >> 40) as usize % alphabet.len()]
                        })
                        .collect()
                }
            };
            let doc = String::from_utf8_lossy(&bytes);
            let _ = parse(&doc);
            let _ = ExperimentSpec::parse_str(&doc);
        }
    }

    #[test]
    fn the_mangling_template_is_a_valid_spec() {
        if let Err(e) = ExperimentSpec::parse_str(SPEC) {
            panic!("{e}");
        }
    }

    #[test]
    fn parses_sections_scalars_and_arrays() {
        let doc = parse(
            r#"
# a spec
name = "table2"
seed = 7
noisy = false
scale = 1.5

[grid]
problems = ["F1", "F2"]  # trailing comment
layers = [1, 2, 3]
"#,
        )
        .unwrap();
        assert_eq!(doc["name"], Value::Str("table2".into()));
        assert_eq!(doc["seed"], Value::Int(7));
        assert_eq!(doc["noisy"], Value::Bool(false));
        assert_eq!(doc["scale"], Value::Float(1.5));
        assert_eq!(
            doc["grid.problems"],
            Value::Array(vec![Value::Str("F1".into()), Value::Str("F2".into())])
        );
        assert_eq!(
            doc["grid.layers"],
            Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let doc = parse("title = \"a # b\"").unwrap();
        assert_eq!(doc["title"], Value::Str("a # b".into()));
    }

    #[test]
    fn errors_carry_line_numbers() {
        assert!(parse("x 3").unwrap_err().contains("line 1"));
        assert!(parse("\n\nkey = ").unwrap_err().contains("line 3"));
        assert!(parse("[a.b]\n").unwrap_err().contains("one-level"));
        assert!(parse("k = [1, [2]]").unwrap_err().contains("nested"));
        assert!(parse("k = \"open").unwrap_err().contains("unterminated"));
        assert!(parse("k = 1\nk = 2").unwrap_err().contains("duplicate"));
    }

    #[test]
    fn unterminated_strings_are_rejected_everywhere() {
        for bad in [
            "k = \"open",
            "k = \"open # not a comment",
            "k = [\"a\", \"open]",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("unterminated"), "{bad}: {err}");
        }
    }

    #[test]
    fn duplicate_keys_are_rejected_across_sections() {
        let err = parse("[grid]\nseeds = [1]\nseeds = [2]").unwrap_err();
        assert!(err.contains("duplicate key `grid.seeds`"), "{err}");
        // Same leaf name in different sections is fine.
        assert!(parse("[a]\nk = 1\n[b]\nk = 2").is_ok());
        // ... and a re-opened section still collides.
        let err = parse("[a]\nk = 1\n[b]\nx = 1\n[a]\nk = 2").unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn escape_sequences_are_rejected_with_guidance() {
        for bad in ["k = \"a\\nb\"", "k = \"C:\\\\path\"", "k = [\"a\\tb\"]"] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("escape"), "{bad}: {err}");
            assert!(err.contains("literal"), "{bad}: {err}");
        }
    }

    #[test]
    fn mixed_type_arrays_are_rejected() {
        for (bad, both) in [
            ("k = [1, \"b\"]", ("number", "string")),
            ("k = [\"a\", true]", ("string", "boolean")),
            ("k = [true, 0]", ("boolean", "number")),
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("mixed-type"), "{bad}: {err}");
            assert!(err.contains(both.0) && err.contains(both.1), "{bad}: {err}");
        }
        // Int/float mixes are one numeric family, not an error.
        assert_eq!(
            parse("k = [1, 2.5]").unwrap()["k"],
            Value::Array(vec![Value::Int(1), Value::Float(2.5)])
        );
    }

    #[test]
    fn value_accessors_coerce_sensibly() {
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Str("x".into()).as_int(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(
            format!("{}", parse("a = [1, 2.5]").unwrap()["a"]),
            "[1, 2.5]"
        );
        assert_eq!(
            format!(
                "{}",
                Value::Array(vec![Value::Int(1), Value::Str("b".into())])
            ),
            "[1, \"b\"]"
        );
    }
}
