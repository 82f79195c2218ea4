//! A minimal JSON value: just rich enough to read a trace line, a bench
//! document or `BENCHMARK.json` back and to write the documents `anduril
//! analyze --json` and the bench bins emit, with no external dependency.

use std::fmt;

use super::{jf, json_escape};

/// Containers deeper than this are refused: the reader recurses once per
/// level, and a trace line nests two deep, a bench document six.
const MAX_DEPTH: usize = 64;

/// 2^53: every integer up to it is exactly an `f64`; above it, not every
/// one is.
const TWO_POW_53: f64 = 9_007_199_254_740_992.0;

/// A minimal JSON value ([`super::TraceEvent::parse_line`] reads trace
/// lines through it).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (trace numbers all fit `f64` exactly).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document; `None` on any syntax error, trailing
    /// garbage, a number that is not finite, or nesting past 64 levels.
    pub fn parse(text: &str) -> Option<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(v)
        } else {
            None
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if numeric, integral and at most
    /// 2^53: past that an `f64` no longer tells one integer from the next.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && (0.0..=TWO_POW_53).contains(n) => Some(*n as u64),
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

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(xs) => Some(xs),
            _ => None,
        }
    }
}

impl Json {
    /// An object of the given fields, in the order given.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of the given items.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// `v` rounded to `places` decimals. The writer prints the shortest
    /// form that reads back, so 0.29550 is `0.2955` and 1.0000 is `1`.
    pub fn fixed(v: f64, places: i32) -> Json {
        let scale = 10f64.powi(places);
        Json::Num((v * scale).round() / scale)
    }

    /// Writes the value at `indent` spaces. A container goes on one line
    /// when `inline` (it sits inside an array element) or when it holds
    /// no container; otherwise one member per line, two spaces deeper, and
    /// the members of an array inline: a list of records reads — and
    /// greps — one record a line.
    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize, inline: bool) -> fmt::Result {
        let members: Vec<(Option<&str>, &Json)> = match self {
            Json::Null => return f.write_str("null"),
            Json::Bool(b) => return write!(f, "{b}"),
            Json::Num(n) => return f.write_str(&jf(*n)),
            Json::Str(s) => return write!(f, "\"{}\"", json_escape(s)),
            Json::Arr(xs) => xs.iter().map(|v| (None, v)).collect(),
            Json::Obj(fields) => fields.iter().map(|(k, v)| (Some(&**k), v)).collect(),
        };
        let is_arr = matches!(self, Json::Arr(_));
        let inline = inline
            || !members
                .iter()
                .any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)));
        f.write_str(if is_arr { "[" } else { "{" })?;
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                f.write_str(if inline { ", " } else { "," })?;
            }
            if !inline {
                write!(f, "\n{:1$}", "", indent + 2)?;
            }
            if let Some(key) = key {
                write!(f, "\"{}\": ", json_escape(key))?;
            }
            value.write(f, indent + 2, inline || is_arr)?;
        }
        if !inline {
            write!(f, "\n{:1$}", "", indent)?;
        }
        f.write_str(if is_arr { "]" } else { "}" })
    }
}

/// The two-space pretty form, no trailing newline.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0, false)
    }
}

macro_rules! json_from {
    ($($t:ty: $x:ident => $json:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($x: $t) -> Json {
                $json
            }
        }
    )*};
}
json_from! {
    bool: b => Json::Bool(b),
    &str: s => Json::Str(s.to_string()),
    String: s => Json::Str(s),
    // Counts and nanoseconds: exact up to 2^53, which every document's are.
    u64: n => Json::Num(n as f64),
    usize: n => Json::Num(n as f64),
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Option<Json> {
    skip_ws(b, pos);
    match b.get(*pos)? {
        b'{' | b'[' if depth == MAX_DEPTH => None,
        b'{' => parse_obj(b, pos, depth + 1),
        b'[' => parse_arr(b, pos, depth + 1),
        b'"' => parse_str(b, pos).map(Json::Str),
        b't' => parse_lit(b, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(b, pos, "false", Json::Bool(false)),
        b'n' => parse_lit(b, pos, "null", Json::Null),
        _ => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Option<Json> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Some(v)
    } else {
        None
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Option<Json> {
    let start = *pos;
    if matches!(b.get(*pos), Some(b'-')) {
        *pos += 1;
    }
    while matches!(b.get(*pos), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).ok()?;
    let n = text.parse::<f64>().ok().filter(|n| n.is_finite())?;
    // The integer 2^53 + 1 ties between two floats and rounds to 2^53, the
    // largest integer `as_u64` accepts: read it as the float above, so that
    // it is refused instead of taken for its neighbour.
    if n == TWO_POW_53 && text.parse::<u64>().is_ok_and(|exact| exact > 1 << 53) {
        return Some(Json::Num(n.next_up()));
    }
    Some(Json::Num(n))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Option<String> {
    debug_assert_eq!(b.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Consume one UTF-8 scalar (multi-byte sequences pass
                // through unchanged).
                let rest = std::str::from_utf8(&b[*pos..]).ok()?;
                let c = rest.chars().next()?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Option<Json> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return None;
        }
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return None;
        }
        *pos += 1;
        let value = parse_value(b, pos, depth)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Json::Obj(fields));
            }
            _ => return None,
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Option<Json> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Json::Arr(items));
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v =
            Json::parse("{\"a\": [1, -2.5, \"x\\ny\", null, true], \"b\": {\"c\": \"\\u0041\"}}")
                .expect("parse");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 5);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_str(),
            Some("x\ny")
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("A"));
        assert_eq!(Json::parse("{"), None);
        assert_eq!(Json::parse("12 trailing"), None);

        // Hostile input is refused, not crashed on: nesting past the cap
        // (100 000 levels overflowed the stack), an escape cut by the end
        // of input, a number `f64` holds only as infinity.
        assert_eq!(Json::parse(&"[".repeat(100_000)), None);
        assert_eq!(Json::parse(&"{\"a\":".repeat(100_000)), None);
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_some());
        assert_eq!(Json::parse(&nested(MAX_DEPTH + 1)), None);
        assert_eq!(Json::parse("\"\\u12"), None);
        assert_eq!(Json::parse("\"\\"), None);
        assert_eq!(Json::parse("1e400"), None);
        assert_eq!(Json::parse("-1e400"), None);
        assert_eq!(Json::parse("1e300").and_then(|v| v.as_u64()), None);
        assert_eq!(Json::parse("1000").and_then(|v| v.as_u64()), Some(1000));
    }

    /// The written form: records of an array one a line, a container of
    /// scalars on one line, everything else one member a line — and it
    /// reads back to the value it was written from.
    #[test]
    fn json_writer_lays_out_records_one_a_line_and_round_trips() {
        let doc = Json::obj([
            ("mode", "full".into()),
            (
                "cases",
                Json::arr([
                    Json::obj([
                        ("id", Json::from("a\"b")),
                        ("hi", None::<u64>.into()),
                        ("sub", Json::obj([("n", 3usize.into())])),
                        ("xs", Json::arr([1u64, 2])),
                    ]),
                    Json::obj([("ratio", Json::fixed(0.08166, 4))]),
                ]),
            ),
            (
                "baselines",
                Json::obj([("fate", Json::obj([("ok", true.into())]))]),
            ),
            ("summary", Json::obj([("rate", Json::fixed(1.0, 4))])),
            ("none", Json::arr(Vec::<Json>::new())),
        ]);
        let text = doc.to_string();
        assert_eq!(
            text,
            "{\n  \"mode\": \"full\",\n  \"cases\": [\n    \
             {\"id\": \"a\\\"b\", \"hi\": null, \"sub\": {\"n\": 3}, \"xs\": [1, 2]},\n    \
             {\"ratio\": 0.0817}\n  ],\n  \"baselines\": {\n    \"fate\": {\"ok\": true}\n  },\n  \
             \"summary\": {\"rate\": 1},\n  \"none\": []\n}"
        );
        assert_eq!(Json::parse(&text), Some(doc));
    }
}
