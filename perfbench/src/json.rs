//! The few JSON shapes the benchmark prints: flat objects of numbers and
//! strings, written by hand (the build is offline and dependency-free).

use std::fmt::Write as _;

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of `x` (Rust's shortest round-trip
/// form). Non-finite values have no JSON spelling and become `null`.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// An ordered JSON object under construction.
#[derive(Default)]
pub struct Object {
    fields: Vec<(String, String)>,
}

impl Object {
    /// Add a number field.
    pub fn num(&mut self, key: &str, x: f64) -> &mut Self {
        self.fields.push((key.to_string(), number(x)));
        self
    }

    /// Add an integer field.
    pub fn int(&mut self, key: &str, n: u64) -> &mut Self {
        self.fields.push((key.to_string(), n.to_string()));
        self
    }

    /// Add a string field.
    pub fn str(&mut self, key: &str, s: &str) -> &mut Self {
        self.fields.push((key.to_string(), string(s)));
        self
    }

    /// Add a field whose value is already JSON.
    pub fn raw(&mut self, key: &str, json: String) -> &mut Self {
        self.fields.push((key.to_string(), json));
        self
    }

    /// The object on one line.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {v}", string(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_numbers_are_valid_json() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(number(1.0), "1.0");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(f64::NAN), "null");
        let mut o = Object::default();
        o.int("n", 3).num("x", 2.5).str("s", "v");
        assert_eq!(o.render(), "{\"n\": 3, \"x\": 2.5, \"s\": \"v\"}");
    }
}
