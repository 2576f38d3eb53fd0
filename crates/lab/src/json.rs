//! A minimal, dependency-free JSON value model, parser and emitter.
//!
//! The workspace depends on no format crate, so it owns the little JSON
//! it needs here: `tasks.jsonl` rows, per-trial `result.json` files,
//! and the `BENCH_*.json` reports the bench binaries write and the
//! statistical perf gate reads. The parser is a strict recursive-descent scanner
//! over the full JSON grammar (objects, arrays, strings with escapes,
//! numbers, booleans, null) that rejects malformed input with a
//! position-annotated error — the property the gate relies on to tell
//! "corrupt report" apart from "no report".
//!
//! Object member order is preserved ([`Json::Obj`] is an ordered list),
//! so emit → parse → emit round-trips byte-for-byte for the documents
//! this crate writes.

use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (`None` for other variants or a
    /// missing key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric value truncated to `u64`, if this is a non-negative
    /// number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Convenience: `self.get(key)` as an `f64`.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Json::as_f64)
    }

    /// Convenience: `self.get(key)` as a string slice.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }

    /// Convenience: `self.get(key)` as a vector of numbers (`None` if
    /// the key is missing, not an array, or any element is non-numeric).
    pub fn num_array(&self, key: &str) -> Option<Vec<f64>> {
        self.get(key)?.as_arr()?.iter().map(Json::as_f64).collect()
    }

    /// Render compactly (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Render with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_number(out, *v),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                        if indent.is_none() {
                            // compact arrays still separate items
                        }
                    }
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(members) if members.is_empty() => out.push_str("{}"),
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                    if i + 1 < members.len() {
                        out.push(',');
                    }
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

/// Shortest round-trip rendering of a finite number; non-finite values
/// (illegal in JSON) render as `null`, mirroring the telemetry rule
/// that degenerate measurements read as absent rather than poisoning a
/// document.
fn write_number(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse one JSON document. Trailing content after the top-level value
/// (other than whitespace) is an error, as is any grammar violation —
/// the error carries the byte offset for diagnostics.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        src,
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after the JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let before = p.pos;
            while matches!(p.peek(), Some(c) if c.is_ascii_digit()) {
                p.pos += 1;
            }
            p.pos > before
        };
        if !digits(self) {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.err("expected exponent digits"));
            }
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("unparseable number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .src
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-walk as UTF-8: pick up the full scalar value.
                    let rest = &self.src[self.pos - 1..];
                    let ch = rest.chars().next().ok_or_else(|| self.err("bad UTF-8"))?;
                    self.pos = self.pos - 1 + ch.len_utf8();
                    if (ch as u32) < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(ch);
                }
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
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Builder shorthand for object construction in emitters.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_result_schema() {
        let doc = r#"{"outcome": "success", "objective": {"name": "accuracy", "value": 0.95},
                      "metrics": {"latency_ms": 1200, "tokens": 450}}"#;
        let v = parse(doc).expect("valid");
        assert_eq!(v.str("outcome"), Some("success"));
        assert_eq!(v.get("objective").unwrap().num("value"), Some(0.95));
        assert_eq!(v.get("metrics").unwrap().num("tokens"), Some(450.0));
    }

    #[test]
    fn round_trips_nested_documents() {
        let doc = obj(vec![
            ("name", Json::Str("fig12".into())),
            (
                "samples",
                Json::Arr(vec![Json::Num(1.5), Json::Num(-2.0), Json::Num(3e-4)]),
            ),
            (
                "nested",
                obj(vec![("ok", Json::Bool(true)), ("n", Json::Null)]),
            ),
        ]);
        for rendered in [doc.to_compact(), doc.to_pretty()] {
            assert_eq!(parse(&rendered).expect("round trip"), doc);
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = Json::Str("a\"b\\c\nd\te\u{1}f".into());
        assert_eq!(parse(&s.to_compact()).expect("escapes"), s);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\": }",
            "{\"a\": 1,}",
            "nul",
            "1.2.3",
            "\"unterminated",
            "{\"a\": 1} trailing",
            "{'single': 1}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_truncated_reports() {
        // The exact failure mode the perf gate must catch: a report cut
        // off mid-write looks like JSON until it suddenly is not.
        let full = "{\"solver\": [{\"states\": 128, \"csr_serial_ms\": 0.15}]}";
        assert!(parse(full).is_ok());
        for cut in 1..full.len() {
            assert!(parse(&full[..cut]).is_err(), "accepted prefix {cut}");
        }
    }

    #[test]
    fn num_array_extracts_samples() {
        let v = parse("{\"samples\": [1, 2.5, 3]}").unwrap();
        assert_eq!(v.num_array("samples"), Some(vec![1.0, 2.5, 3.0]));
        let mixed = parse("{\"samples\": [1, \"x\"]}").unwrap();
        assert_eq!(mixed.num_array("samples"), None);
    }

    #[test]
    fn parses_every_committed_bench_report_shape() {
        // The gate reads these files; the parser must accept the shape
        // of the committed reports (four-decimal numbers, written before
        // perf_report rendered through this codec).
        let report = "{\n  \"threads\": 4,\n  \"solver\": [\n    {\n      \"states\": 128,\n      \"csr_serial_ms\": 0.1529\n    }\n  ]\n}\n";
        let v = parse(report).expect("report shape");
        assert_eq!(v.num("threads"), Some(4.0));
        let rows = v.get("solver").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].num("states"), Some(128.0));
    }
}
