//! The workspace's JSON codec: one parser and the writer helpers every
//! hand-written emitter shares.
//!
//! The workspace builds without serde, so each document format (tree
//! documents in `treeemb-hst`, fault plans in `treeemb-mpc`, trace
//! exports here, chaos reports in `treeemb-bench`) writes its own bytes
//! with `write!` and reads them back through [`parse`] into a
//! [`Value`], mapping the value onto its own types with whatever
//! strictness the format wants.
//!
//! [`parse`] accepts exactly RFC 8259 JSON: no trailing commas, no
//! leading zeros or `+` signs, no raw control characters inside
//! strings, and nothing after the document except whitespace. `\u`
//! escapes decode UTF-16 surrogate pairs; a lone surrogate is an error.
//!
//! ```
//! use treeemb_obs::json::{self, Float, Value};
//! let text = format!("{{\"name\":\"{}\",\"w\":{}}}", json::escape("a\"b"), Float(2.0));
//! assert_eq!(text, r#"{"name":"a\"b","w":2.0}"#);
//! let v = json::parse(&text).unwrap();
//! assert_eq!(v.get("name").and_then(Value::as_str), Some("a\"b"));
//! assert_eq!(v.get("w").and_then(Value::as_f64), Some(2.0));
//! ```

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] accepts. Every document in
/// the workspace nests at most four levels; the cap keeps hostile input
/// from overflowing the stack of the recursive descent.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent, within `i128`.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order (duplicate keys are kept).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer that fits.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Looks up the first entry named `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// Escapes `s` for the inside of a JSON string literal: quotes,
/// backslashes and control characters; everything else passes through.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Formats an `f64` as a JSON float token: Rust's shortest round-trip
/// digits, with `.0` forced onto integral values so the token stays a
/// float. Every finite value reads back through [`parse`] bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct Float(pub f64);

impl fmt::Display for Float {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `{}` never uses an exponent, so its output has a `.` exactly
        // when the value is finite and not integral.
        if self.0.is_finite() && self.0.fract() != 0.0 {
            write!(f, "{}", self.0)
        } else {
            write!(f, "{}.0", self.0)
        }
    }
}

/// Parses one JSON document; only whitespace may follow it.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { src: text, pos: 0 };
    let v = p.value(0)?;
    if p.peek().is_some() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// The next non-whitespace byte (consumed whitespace only).
    fn peek(&mut self) -> Option<u8> {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        self.byte()
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", want as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => {
                self.pos += 1;
                let mut obj = Vec::new();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(obj));
                }
                loop {
                    if self.peek() != Some(b'"') {
                        return Err(self.err("expected a string key"));
                    }
                    let key = self.string()?;
                    self.eat(b':')?;
                    obj.push((key, self.value(depth + 1)?));
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(obj));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut arr = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(arr));
                }
                loop {
                    arr.push(self.value(depth + 1)?);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(arr));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// A string literal; `pos` is at the opening quote.
    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte. All three are ASCII, so the run ends on a char
            // boundary and slicing `src` cannot split a UTF-8 sequence.
            let start = self.pos;
            while matches!(self.byte(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.src[start..self.pos]);
            match self.byte() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.byte() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    };
                    out.push(c);
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    /// The code point of a `\u` escape (`pos` just past the `u`),
    /// joining a UTF-16 surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !self.src[self.pos..].starts_with("\\u") {
                return Err(self.err("unpaired surrogate"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("unpaired surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .src
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|e| self.err(&e.to_string()))?;
        self.pos += 4;
        Ok(code)
    }

    fn digits(&mut self) -> Result<(), String> {
        let start = self.pos;
        while matches!(self.byte(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a digit"));
        }
        Ok(())
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        if self.byte() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        let mut integral = true;
        if self.byte() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
            integral = false;
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
            integral = false;
        }
        let token = &self.src[start..self.pos];
        if integral {
            if let Ok(i) = token.parse::<i128>() {
                return Ok(Value::Int(i));
            }
        }
        // Integers beyond i128 fall back to the nearest float.
        token
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|e| self.err(&e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Accept/reject table. The tree-document and fault-plan shapes
    /// are here too: both formats read through this parser.
    #[test]
    fn accept_reject_table() {
        use Value::*;
        let accept: &[(&str, Value)] = &[
            ("null", Null),
            (" true ", Bool(true)),
            ("false", Bool(false)),
            ("0", Int(0)),
            ("-0", Int(0)),
            ("18446744073709551612", Int(18446744073709551612)),
            ("-2.5", Float(-2.5)),
            ("1e3", Float(1000.0)),
            ("1E-2", Float(0.01)),
            ("2.5e+1", Float(25.0)),
            (
                "123456789012345678901234567890123456789012",
                Float(123456789012345678901234567890123456789012.0),
            ),
            (r#""x\n\"y\"""#, Str("x\n\"y\"".into())),
            (r#""\/\b\f\r\t\\""#, Str("/\u{8}\u{c}\r\t\\".into())),
            (r#""é\u0001""#, Str("é\u{1}".into())),
            (r#""😀""#, Str("😀".into())),
            ("\"😀 ünï\"", Str("😀 ünï".into())),
            ("[]", Arr(vec![])),
            ("{}", Obj(vec![])),
            (
                r#"{"a": [1, -2.5, "x\n\"y\"", true, null], "b": {"c": 3}}"#,
                Obj(vec![
                    (
                        "a".into(),
                        Arr(vec![
                            Int(1),
                            Float(-2.5),
                            Str("x\n\"y\"".into()),
                            Bool(true),
                            Null,
                        ]),
                    ),
                    ("b".into(), Obj(vec![("c".into(), Int(3))])),
                ]),
            ),
            // Duplicate keys are kept in source order; formats decide.
            (
                r#"{"k":1,"k":2}"#,
                Obj(vec![("k".into(), Int(1)), ("k".into(), Int(2))]),
            ),
            // A tree document with arbitrary whitespace and key order.
            (
                "{ \"edges\" : [\n[ 0, 0 , 0.000, null ] ,\n[ 1, 0 , 4.000, 0 ]\n] ,\n  \"n_points\" : 1 }\n",
                Obj(vec![
                    (
                        "edges".into(),
                        Arr(vec![
                            Arr(vec![Int(0), Int(0), Float(0.0), Null]),
                            Arr(vec![Int(1), Int(0), Float(4.0), Int(0)]),
                        ]),
                    ),
                    ("n_points".into(), Int(1)),
                ]),
            ),
        ];
        for (text, want) in accept {
            assert_eq!(parse(text).as_ref(), Ok(want), "{text:?}");
        }
        let reject = [
            "",
            "   ",
            "{\"a\": 1,}",
            "[1,]",
            "{} trailing",
            "{\"n_points\":1,\"edges\":[]} extra",
            "{not json",
            "{\"seed\": }",
            "{\"a\" 1}",
            "{1: 2}",
            "[1 2]",
            "01",
            "+1",
            ".5",
            "1.",
            "1e",
            "-",
            "--1",
            "tru",
            "nul",
            "NaN",
            "inf",
            "\"unterminated",
            "\"raw\ncontrol\"",
            r#""\x""#,
            r#""\u12""#,
            r#""\u+123""#,
            r#""\ud800""#,
            r#""\ud800A""#,
            r#""\udc00""#,
        ];
        for text in reject {
            assert!(parse(text).is_err(), "{text:?} must be rejected");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err(), "nesting past the cap is rejected");
        let ok = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn accessors_check_types_and_ranges() {
        let v = parse(r#"{"u": 7, "neg": -1, "big": 18446744073709551616, "f": 7.0}"#).unwrap();
        assert_eq!(v.get("u").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("neg").and_then(Value::as_u64), None);
        assert_eq!(v.get("big").and_then(Value::as_u64), None);
        assert_eq!(v.get("f").and_then(Value::as_u64), None);
        assert_eq!(v.get("f").and_then(Value::as_f64), Some(7.0));
        assert_eq!(v.get("neg").and_then(Value::as_f64), Some(-1.0));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Null.get("u"), None);
    }

    #[test]
    fn float_tokens_keep_a_fraction_marker() {
        for (v, want) in [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (4.0, "4.0"),
            (1.5, "1.5"),
            (0.1, "0.1"),
            (1e15, "1000000000000000.0"),
            (f64::NAN, "NaN.0"),
        ] {
            assert_eq!(Float(v).to_string(), want);
        }
    }

    /// Draws a string over characters that stress the escaper: quotes,
    /// backslashes, every control character, a slash, multi-byte and
    /// non-BMP characters.
    fn hostile_string() -> impl Strategy<Value = String> {
        let pool: Vec<char> = "\"\\/a \u{7f}é€\u{2028}😀\u{10FFFF}"
            .chars()
            .chain((0..0x20).filter_map(char::from_u32))
            .collect();
        collection::vec(0..pool.len(), 0..24)
            .prop_map(move |picks| picks.into_iter().map(|i| pool[i]).collect())
    }

    proptest! {
        #[test]
        fn escaped_strings_parse_back(s in hostile_string()) {
            let text = format!("\"{}\"", escape(&s));
            prop_assert_eq!(parse(&text), Ok(Value::Str(s)));
        }

        #[test]
        fn finite_floats_parse_back_bit_for_bit(bits in 0u64..u64::MAX) {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                let text = Float(v).to_string();
                let back = parse(&text).ok().and_then(|x| x.as_f64());
                prop_assert_eq!(back.map(f64::to_bits), Some(bits), "{}", text);
            }
        }
    }
}
