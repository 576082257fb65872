//! The one JSON writer behind `BENCH.json`: a value tree printed in one
//! fixed layout, so equal records are byte-equal.

use sim_core::trace::json_string;
use std::fmt::Display;

/// A JSON value. A scalar holds its rendered text, so a number keeps the
/// precision its producer chose.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A number, `true`, `false`, `null` or a quoted string, rendered.
    Scalar(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, its keys in the order given.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// A number or boolean in its `Display` form.
    pub fn num(v: impl Display) -> Json {
        Json::Scalar(v.to_string())
    }

    /// `v` with `decimals` digits after the point; `null` when it is not
    /// finite, which JSON cannot spell.
    pub fn fixed(v: f64, decimals: usize) -> Json {
        if v.is_finite() {
            Json::Scalar(format!("{v:.decimals$}"))
        } else {
            Json::null()
        }
    }

    /// A string.
    pub fn str(s: &str) -> Json {
        Json::Scalar(json_string(s))
    }

    /// `null`.
    pub fn null() -> Json {
        Json::Scalar("null".into())
    }

    /// The document text: two-space indentation, one member per line,
    /// except that a container holding only scalars prints on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let (open, close, members): (_, _, Vec<(Option<&str>, &Json)>) = match self {
            Json::Scalar(s) => return out.push_str(s),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(*k), v)).collect(),
            ),
        };
        let inline = members.iter().all(|(_, v)| matches!(v, Json::Scalar(_)));
        let pad = |depth: usize| {
            if inline {
                " ".to_string()
            } else {
                format!("\n{:depth$}", "")
            }
        };
        out.push(open);
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&pad(indent + 2));
            if let Some(key) = key {
                out.push_str(&json_string(key));
                out.push_str(": ");
            }
            value.write(out, indent + 2);
        }
        if !members.is_empty() {
            out.push_str(&pad(indent));
        }
        out.push(close);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_containers_print_inline_and_the_rest_nest() {
        let doc = Json::Obj(vec![
            ("version", Json::num(1)),
            ("host", Json::Obj(vec![("cores", Json::num(2))])),
            (
                "rows",
                Json::Arr(vec![
                    Json::Obj(vec![("x", Json::fixed(1.0, 3)), ("y", Json::null())]),
                    Json::Obj(vec![]),
                ]),
            ),
            ("name", Json::str("a \"b\"\\\n")),
            ("ok", Json::num(true)),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"version\": 1,\n  \"host\": { \"cores\": 2 },\n  \"rows\": [\n    \
             { \"x\": 1.000, \"y\": null },\n    {}\n  ],\n  \
             \"name\": \"a \\\"b\\\"\\\\\\n\",\n  \"ok\": true\n}\n"
        );
    }

    #[test]
    fn non_finite_numbers_are_null() {
        assert_eq!(Json::fixed(f64::NAN, 4), Json::null());
        assert_eq!(Json::fixed(f64::INFINITY, 1), Json::null());
        assert_eq!(Json::fixed(0.5, 2), Json::num("0.50"));
    }
}
