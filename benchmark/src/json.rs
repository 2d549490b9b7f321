//! A std-only JSON writer for the reports. Numbers print with Rust's
//! shortest round-trip formatting, so every measured digit survives.

/// A JSON value under construction.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` — also what a non-finite number prints as.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A whole number, printed without a fraction.
    Int(u64),
    /// A measured number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
    /// A value that is already serialized (another run's report).
    Raw(String),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object (builder style).
    ///
    /// # Panics
    ///
    /// If `self` is not an object.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("Json::with on a non-object: {other:?}"),
        }
        self
    }

    /// Serializes on one line.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(v) if v.is_finite() => {
                // `{:?}` keeps a trailing `.0` on whole floats, which
                // tells a reader the value was measured, not counted.
                out.push_str(&format!("{v:?}"));
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Raw(text) => out.push_str(text),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
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

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as u64)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upa_server::wire;

    #[test]
    fn round_trips_through_the_servers_parser() {
        let doc = Json::obj()
            .with("name", "p50 \"µs\"\n\ttab\\")
            .with("value", 1.2034e-7)
            .with("whole", 3.0)
            .with("count", 18_446_744_073_709_551_615u64)
            .with("ok", true)
            .with("missing", Json::Null)
            .with("nan", f64::NAN)
            .with("list", vec![Json::from(1.5), Json::from("x"), Json::obj()]);
        let parsed = wire::parse(&doc.to_line()).expect("the writer emits valid JSON");
        assert_eq!(parsed.str_of("name"), Some("p50 \"µs\"\n\ttab\\"));
        assert_eq!(parsed.num_of("value"), Some(1.2034e-7));
        assert_eq!(parsed.num_of("whole"), Some(3.0));
        assert_eq!(parsed.bool_of("ok"), Some(true));
        assert!(parsed.get("missing").is_some_and(|v| v.as_f64().is_none()));
        assert!(parsed.get("nan").is_some_and(|v| v.as_f64().is_none()));
        let list = parsed.get("list").and_then(|v| v.as_arr()).expect("array");
        assert_eq!(list.len(), 3);
        assert_eq!(list[0].as_f64(), Some(1.5));
        assert_eq!(list[1].as_str(), Some("x"));
    }

    #[test]
    fn numbers_keep_every_digit() {
        let v = 0.812_734_561_234_567_8_f64;
        let line = Json::from(v).to_line();
        assert_eq!(line.parse::<f64>().expect("a float"), v);
        assert_eq!(Json::from(42usize).to_line(), "42");
        assert_eq!(Json::from(2.0).to_line(), "2.0");
    }
}
