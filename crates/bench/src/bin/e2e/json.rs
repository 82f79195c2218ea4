//! The bench's one JSON writer: a value tree rendered with string
//! escaping. Reading goes through `anduril_core::Json`.

/// A JSON value to write. Objects keep insertion order.
#[derive(Debug, Clone)]
pub enum J {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    pub fn nums(values: &[f64]) -> J {
        J::Arr(values.iter().map(|&v| J::Num(v)).collect())
    }

    pub fn obj<K: Into<String>>(fields: Vec<(K, J)>) -> J {
        J::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            J::Null => out.push_str("null"),
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            J::Int(n) => out.push_str(&n.to_string()),
            // `{:?}` prints the shortest digits that read back to the same
            // `f64`, always with a fraction or exponent; JSON has no NaN
            // or infinity.
            J::Num(v) if v.is_finite() => out.push_str(&format!("{v:?}")),
            J::Num(_) => out.push_str("null"),
            J::Str(s) => write_str(s, out),
            J::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            J::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(key, out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::J;
    use anduril_core::Json;

    /// What the writer renders, the reader the bench uses reads back
    /// unchanged: escapes, nesting, integers, and floats with all digits.
    #[test]
    fn round_trips_through_the_reader() {
        let text = "quote \" slash \\ newline \n tab \t bell \u{7} snowman \u{2603}";
        let wall = 0.123_456_789_012_345_67_f64;
        let doc = J::obj(vec![
            ("text", J::str(text)),
            ("wall", J::Num(wall)),
            ("tiny", J::Num(1.5e-9)),
            ("count", J::Int(u64::from(u32::MAX) + 7)),
            ("nan", J::Num(f64::NAN)),
            (
                "flags",
                J::Arr(vec![J::Bool(true), J::Bool(false), J::Null]),
            ),
            ("nested", J::obj(vec![("k\"ey", J::nums(&[1.0, 2.5]))])),
        ]);
        let parsed = Json::parse(&doc.render()).expect("writer output parses");
        assert_eq!(parsed.get("text").and_then(Json::as_str), Some(text));
        assert_eq!(parsed.get("wall").and_then(Json::as_f64), Some(wall));
        assert_eq!(parsed.get("tiny").and_then(Json::as_f64), Some(1.5e-9));
        assert_eq!(
            parsed.get("count").and_then(Json::as_u64),
            Some(u64::from(u32::MAX) + 7)
        );
        assert_eq!(parsed.get("nan"), Some(&Json::Null));
        assert_eq!(
            parsed.get("flags"),
            Some(&Json::Arr(vec![
                Json::Bool(true),
                Json::Bool(false),
                Json::Null
            ]))
        );
        let nested = parsed.get("nested").and_then(|n| n.get("k\"ey"));
        assert_eq!(
            nested.and_then(Json::as_arr),
            Some(&[Json::Num(1.0), Json::Num(2.5)][..])
        );
    }
}
