//! The workspace's one JSON module: a [`Value`] tree, its one renderer
//! ([`Value::render`]), and a strict parser ([`parse`]).
//!
//! The build is hermetic (no serde). Every report, checkpoint, and
//! `BENCH_*.json` record is built as a [`Value`] and rendered here, and
//! the campaign driver reads its own checkpoints (`--resume`) and shard
//! reports (`litmus_run merge`) back through [`parse`] — so whatever this
//! module writes parses back to the tree it came from, and a hand-edited
//! file fails loudly instead of resuming from garbage.
//!
//! * Objects keep their members in insertion order, so documents keep
//!   their key order. The parser rejects a duplicate key rather than
//!   silently picking one of its values.
//! * A number is kept as its text: `1.000` renders as `1.000`, and 64-bit
//!   digests and counters stay exact ([`Value::as_u64`]) where `f64`
//!   would round.
//! * [`Value::render`] has one fixed layout: a container whose members are
//!   all scalars goes on one line (`{"a": 1, "b": 2}`, `[1, 2]`); any
//!   other container puts one member per line at two-space indent.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its JSON text.
    Num(String),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object: members in insertion order, keys unique.
    Obj(Vec<(String, Value)>),
}

/// An object with `members` in the given order.
pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// An array of `items` in the given order.
pub fn arr<T: Into<Value>>(items: impl IntoIterator<Item = T>) -> Value {
    Value::Arr(items.into_iter().map(Into::into).collect())
}

/// `x` with `digits` decimals, the text `format!("{x:.digits$}")` gives.
/// A non-finite `x`, which JSON cannot carry, is `null`.
pub fn fixed(x: f64, digits: usize) -> Value {
    if x.is_finite() {
        Value::Num(format!("{x:.digits$}"))
    } else {
        Value::Null
    }
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Num(n.to_string())
            }
        }
    )*};
}
from_integer!(u32, u64, usize);

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl Value {
    /// The value at `key`, when this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string contents, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `f64`, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The number as an exact `u64`, when this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The boolean, when this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a newline-terminated JSON document, in the module's
    /// one layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(text) => out.push_str(text),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => write_members(out, indent, '[', items.iter().map(|v| (None, v))),
            Value::Obj(members) => write_members(
                out,
                indent,
                '{',
                members.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// Writes a container: on one line when every member is a scalar,
/// otherwise one member per line, indented two spaces past `indent`.
fn write_members<'a>(
    out: &mut String,
    indent: usize,
    open: char,
    members: impl Iterator<Item = (Option<&'a str>, &'a Value)> + Clone,
) {
    let flat = (members.clone()).all(|(_, v)| !matches!(v, Value::Arr(_) | Value::Obj(_)));
    let line = |width: usize| match flat {
        true => String::new(),
        false => format!("\n{}", " ".repeat(width)),
    };
    out.push(open);
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push_str(if flat { ", " } else { "," });
        }
        out.push_str(&line(indent + 2));
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, indent + 2);
    }
    out.push_str(&line(indent));
    out.push(if open == '[' { ']' } else { '}' });
}

/// Writes `s` as a quoted JSON string: quotes, backslashes and control
/// characters escaped, everything else (non-BMP characters included)
/// passed through as UTF-8.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The deepest container nesting [`parse`] accepts. The parser recurses
/// once per level, so without a bound a hostile file (a checkpoint or a
/// shard report) could overflow the stack; the deepest document this
/// workspace writes nests 4 levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage, duplicate object keys and nesting deeper than [`MAX_DEPTH`]
/// rejected).
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value inside `depth` enclosing containers.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "containers nest deeper than {MAX_DEPTH} levels at byte {pos}"
        )),
        Some(b'{') => {
            *pos += 1;
            let mut members: Vec<(String, Value)> = Vec::new();
            parse_members(b, pos, b'}', |b, pos| {
                skip_ws(b, pos);
                let key = match parse_value(b, pos, depth + 1)? {
                    Value::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                if members.iter().any(|(k, _)| *k == key) {
                    return Err(format!("duplicate key {key:?} before byte {pos}"));
                }
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                members.push((key, parse_value(b, pos, depth + 1)?));
                Ok(())
            })?;
            Ok(Value::Obj(members))
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            parse_members(b, pos, b']', |b, pos| {
                items.push(parse_value(b, pos, depth + 1)?);
                Ok(())
            })?;
            Ok(Value::Arr(items))
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Value::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'r') => s.push('\r'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'u') => {
                                let code = parse_hex4(b, *pos + 1)?;
                                *pos += 4;
                                let code = match code {
                                    // High surrogate: JSON encodes non-BMP
                                    // characters as a \uD800–\uDBFF +
                                    // \uDC00–\uDFFF pair.
                                    0xD800..=0xDBFF => {
                                        if b.get(*pos + 1..*pos + 3) != Some(b"\\u") {
                                            return Err("lone high surrogate \\u escape".into());
                                        }
                                        let low = parse_hex4(b, *pos + 3)?;
                                        if !(0xDC00..=0xDFFF).contains(&low) {
                                            return Err(format!(
                                                "high surrogate followed by \\u{low:04X}, \
                                                 not a low surrogate"
                                            ));
                                        }
                                        *pos += 6;
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                                    }
                                    0xDC00..=0xDFFF => {
                                        return Err("lone low surrogate \\u escape".into())
                                    }
                                    c => c,
                                };
                                s.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| "bad \\u codepoint".to_string())?,
                                );
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Copy the run up to the next quote or escape: both
                        // are ASCII, so the run is whole UTF-8 characters.
                        let start = *pos;
                        while !matches!(b.get(*pos), None | Some(b'"' | b'\\')) {
                            *pos += 1;
                        }
                        s.push_str(
                            std::str::from_utf8(&b[start..*pos])
                                .map_err(|_| "bad UTF-8".to_string())?,
                        );
                    }
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Value::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let raw = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number".to_string())?;
            if raw.parse::<f64>().is_err() {
                return Err(format!("bad number {raw:?} at byte {start}"));
            }
            Ok(Value::Num(raw.to_string()))
        }
    }
}

/// Parses the members of a container whose opening byte was just
/// consumed, through its `close` byte, calling `member` for each one.
fn parse_members(
    b: &[u8],
    pos: &mut usize,
    close: u8,
    mut member: impl FnMut(&[u8], &mut usize) -> Result<(), String>,
) -> Result<(), String> {
    skip_ws(b, pos);
    if b.get(*pos) == Some(&close) {
        *pos += 1;
        return Ok(());
    }
    loop {
        member(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(&c) if c == close => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '{}' at byte {pos}", close as char)),
        }
    }
}

/// Parses the four hex digits of a `\u` escape starting at byte `at`.
fn parse_hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let hex = b.get(at..at + 4).ok_or("truncated \\u escape")?;
    if !hex.iter().all(u8::is_ascii_hexdigit) {
        return Err("bad \\u escape".into());
    }
    // Infallible after the digit check, but stay on the Result path.
    let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?;
    u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_our_reports_use() {
        let v = parse(
            r#"{"a": 1, "b": [true, null, "x\ny"], "c": {"d": -2.5}, "big": 18446744073709551615}"#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("b").unwrap().as_arr().unwrap()[2].as_str(),
            Some("x\ny")
        );
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_f64(), Some(-2.5));
        assert_eq!(v.get("big").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("b").unwrap().as_arr().unwrap()[1], Value::Null);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{1: 2}").is_err());
    }

    #[test]
    fn rejects_nesting_deeper_than_the_bound() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        let deep = "[".repeat(200_000);
        assert!(parse(&deep).unwrap_err().contains("nest deeper"));
        let merged = crate::campaign::merge_reports(&[("deep.json".to_owned(), deep)]);
        assert!(merged.unwrap_err().starts_with("deep.json: "));
    }

    #[test]
    fn rejects_duplicate_keys() {
        let err = parse(r#"{"passed": true, "n": 1, "passed": false}"#).unwrap_err();
        assert!(err.contains("duplicate key \"passed\""), "{err}");
        // The same key in sibling objects is fine.
        assert!(parse(r#"[{"a": 1}, {"a": 2}]"#).is_ok());
    }

    #[test]
    fn every_variant_survives_render_and_parse() {
        let v = obj([
            ("null", Value::Null),
            ("nan", fixed(f64::NAN, 3)),
            ("none", None::<u64>.into()),
            ("bools", arr([true, false])),
            ("max", u64::MAX.into()),
            ("fixed", fixed(1.0, 3)),
            ("escapes", "q\"b\\s/\n\t\u{1}".into()),
            ("non_bmp", "sb+\u{1F600}".into()),
            (
                "list",
                arr([obj([("n", 1u32.into())]), arr(Vec::<Value>::new())]),
            ),
        ]);
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
        // The one layout: all-scalar containers on one line, the rest one
        // member per line; numbers keep their text.
        let want = r#"{
  "null": null,
  "nan": null,
  "none": null,
  "bools": [true, false],
  "max": 18446744073709551615,
  "fixed": 1.000,
  "escapes": "q\"b\\s/\n\t\u0001",
  "non_bmp": "sb+😀",
  "list": [
    {"n": 1},
    []
  ]
}
"#;
        assert_eq!(text, want);
    }

    #[test]
    fn decodes_surrogate_pairs_and_raw_non_bmp() {
        // JSON encodes non-BMP characters as UTF-16 surrogate pairs:
        // U+1F600 is \uD83D\uDE00.
        assert_eq!(
            parse("\"\\uD83D\\uDE00\"").unwrap().as_str(),
            Some("\u{1F600}")
        );
        // A pair embedded between other escapes and text.
        assert_eq!(
            parse("\"a\\n\\uD83D\\uDE00b\"").unwrap().as_str(),
            Some("a\n\u{1F600}b")
        );
        // BMP escapes still decode directly.
        assert_eq!(parse("\"\\u00e9\"").unwrap().as_str(), Some("\u{e9}"));
        // Raw (unescaped) non-BMP UTF-8 passes through byte-for-byte.
        assert_eq!(parse("\"\u{1F600}\"").unwrap().as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn rejects_lone_and_mismatched_surrogates() {
        for bad in [
            "\"\\uD83D\"",        // lone high surrogate at end of string
            "\"\\uD83Dx\"",       // high surrogate followed by plain text
            "\"\\uD83D\\n\"",     // high surrogate followed by another escape
            "\"\\uD83D\\u0041\"", // high surrogate + non-surrogate escape
            "\"\\uDE00\"",        // lone low surrogate
            "\"\\uD83D\\uD83D\"", // high + high
            "\"\\uD83\"",         // truncated hex
            "\"\\u+123\"",        // sign is not a hex digit
        ] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn roundtrips_report_strings_with_non_bmp_characters() {
        // The renderer passes non-BMP characters through raw; the reader
        // must accept both that form and the surrogate-pair escaped form
        // and produce the identical string.
        let name = "sb+\u{1F600}\u{10348}";
        let raw = obj([("name", name.into())]).render();
        assert_eq!(
            parse(&raw).unwrap().get("name").unwrap().as_str(),
            Some(name)
        );
        let escaped = "{\"name\": \"sb+\\uD83D\\uDE00\\uD800\\uDF48\"}";
        assert_eq!(
            parse(escaped).unwrap().get("name").unwrap().as_str(),
            Some(name)
        );
    }

    #[test]
    fn roundtrips_our_own_report_output() {
        use crate::{run_batch, MachineKind, Report};
        let tests = [litmus::classic::sb(), litmus::classic::mp()];
        let report = Report {
            outcomes: run_batch(&tests, 2).0,
            corpus_total: 2,
            jobs: 2,
            machine: MachineKind::Small,
            elapsed_ms: 1.5,
            model_cache: Some(tso_model::cache::counters()),
            store: None,
        };
        let text = report.to_json();
        let v = parse(&text).unwrap();
        assert_eq!(v.render(), text, "a report re-renders byte-identically");
        assert_eq!(v.get("selected").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("passed").and_then(Value::as_bool), Some(true));
    }
}
