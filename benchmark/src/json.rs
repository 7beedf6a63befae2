//! A minimal JSON writer (reading goes through `sdfg_core::serialize`).

pub use sdfg_core::serialize::{parse_json, Json};

/// A JSON value under construction; objects keep insertion order.
#[derive(Clone, Debug)]
pub enum J {
    Num(f64),
    Int(u64),
    Str(String),
    Bool(bool),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    /// Compact rendering. Numbers print with Rust's shortest round-trip
    /// representation (all measured digits); non-finite values, which JSON
    /// cannot carry, become `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented rendering, one key per line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(n) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(n * depth));
            }
        };
        match self {
            J::Num(x) if x.is_finite() => out.push_str(&format!("{x}")),
            J::Num(_) => out.push_str("null"),
            J::Int(n) => out.push_str(&n.to_string()),
            J::Str(s) => out.push_str(&quote(s)),
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            J::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    v.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            J::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    out.push_str(&quote(k));
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

pub fn quote(s: &str) -> String {
    format!("\"{}\"", sdfg_core::serialize::json_escape(s))
}

/// Converts a parsed document back into a writable value.
pub fn from_parsed(v: &Json) -> J {
    match v {
        Json::Null => J::Num(f64::NAN),
        Json::Bool(b) => J::Bool(*b),
        Json::Num(x) => J::Num(*x),
        Json::Str(s) => J::Str(s.clone()),
        Json::Arr(items) => J::Arr(items.iter().map(from_parsed).collect()),
        Json::Obj(pairs) => J::Obj(
            pairs
                .iter()
                .map(|(k, v)| (k.clone(), from_parsed(v)))
                .collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_round_trip_numbers_and_escapes() {
        let v = J::obj([
            ("a", J::Num(0.1 + 0.2)),
            ("n", J::Int(7)),
            ("s", J::str("x\"y")),
            ("nan", J::Num(f64::NAN)),
            ("l", J::Arr(vec![J::Bool(true), J::Num(1.5)])),
        ]);
        let text = v.render();
        let doc = parse_json(&text).unwrap();
        assert_eq!(
            doc.num_field("a").unwrap().to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        assert_eq!(doc.str_field("s").unwrap(), "x\"y");
        assert_eq!(doc.get("nan"), Some(&Json::Null));
        assert!(!text.contains('\n'));
        assert!(parse_json(&v.pretty()).is_ok());
    }
}
