//! Just enough JSON output for the harness's one result line.

use std::fmt::Write as _;

/// A JSON value.
pub enum J {
    Num(f64),
    Int(u64),
    Str(String),
    Obj(Vec<(String, J)>),
    /// Already-serialised JSON (a checkpoint's tally object).
    Raw(String),
}

impl J {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            // `{:?}` prints the shortest string that round-trips, so
            // no digit of the measurement is lost.
            J::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x:?}");
            }
            J::Num(_) => out.push_str("null"),
            J::Int(n) => {
                let _ = write!(out, "{n}");
            }
            J::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            J::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    J::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
            J::Raw(s) => out.push_str(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_objects_and_escapes() {
        let j = J::obj([
            ("a", J::Num(1.5)),
            ("b", J::Int(3)),
            ("c", J::Str("x\"y\n".into())),
            ("d", J::obj([("e", J::Num(1e-7)), ("f", J::Num(f64::NAN))])),
            ("g", J::Raw("{\"completed\":1}".into())),
        ]);
        assert_eq!(
            j.render(),
            r#"{"a":1.5,"b":3,"c":"x\"y\u000a","d":{"e":1e-7,"f":null},"g":{"completed":1}}"#
        );
    }
}
