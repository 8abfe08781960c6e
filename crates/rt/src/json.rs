//! A small JSON value type: the one reader and writer behind every record
//! the workspace emits (the bench snapshot and trajectory, the `comma-obs`
//! JSONL export).
//!
//! Objects keep their keys in insertion order, integers stay exact, and
//! non-finite floats render as `null`. [`Json::parse`] is total: bad input,
//! including nesting deeper than [`MAX_DEPTH`], returns a [`JsonError`]
//! with the byte offset instead of panicking. An integer equals a float
//! when it reads back as that float (`Int(3) == F64(3.0)`), because the
//! writer renders integral floats without a fraction.
//!
//! ```
//! use comma_rt::json::Json;
//!
//! let v = Json::object().with("name", "sp").with("pkts", 339u64).with("ratio", 0.5);
//! assert_eq!(v.compact(), r#"{"name":"sp","pkts":339,"ratio":0.5}"#);
//! assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
//! assert_eq!(v["pkts"].as_f64(), Some(339.0));
//! assert!(v["missing"]["deeper"].is_null());
//! ```

use std::fmt::{self, Write as _};

/// The deepest array/object nesting [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Clone, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact integer (covers every `u64` and `i64`).
    Int(i128),
    /// A float; renders as `null` when not finite.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; keys keep insertion order.
    Object(Vec<(String, Json)>),
}

static NULL: Json = Json::Null;

impl Json {
    /// An empty object, to fill with [`Json::with`].
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Sets `key` to `value` (in place if present, appended otherwise).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Json>) -> Json {
        let Json::Object(fields) = &mut self else { panic!("Json::with on a non-object") };
        let (key, value) = (key.into(), value.into());
        match fields.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => fields.push((key, value)),
        }
        self
    }

    /// The value under `key`, if `self` is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let Json::Object(fields) = self else { return None };
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Mutable access to the value under `key`.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        let Json::Object(fields) = self else { return None };
        fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// The number as an `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::F64(f) => Some(f),
            _ => None,
        }
    }

    /// The number as a `u64`, if it is an integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        let Json::Int(i) = *self else { return None };
        u64::try_from(i).ok()
    }

    /// The array's elements.
    pub fn as_array(&self) -> Option<&[Json]> {
        let Json::Array(items) = self else { return None };
        Some(items)
    }

    /// Renders on one line with no whitespace.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Appends the compact rendering to `out`.
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, None);
    }

    /// Renders with 2-space indentation (no trailing newline).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// `indent` is the current depth when pretty-printing, `None` for
    /// compact output.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::F64(f) if f.is_finite() => {
                let _ = write!(out, "{f}");
            }
            Json::F64(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Array(items) => write_seq(out, indent, ('[', ']'), items, |out, v, inner| v.write(out, inner)),
            Json::Object(fields) => write_seq(out, indent, ('{', '}'), fields, |out, (k, v), inner| {
                write_str(out, k);
                out.push_str(if inner.is_some() { ": " } else { ":" });
                v.write(out, inner);
            }),
        }
    }

    /// Parses one JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, pos: 0 };
        let v = p.value(0)?;
        if p.pos < text.len() {
            return p.err("trailing characters after the document");
        }
        Ok(v)
    }
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    (open, close): (char, char),
    items: &[T],
    mut item: impl FnMut(&mut String, &T, Option<usize>),
) {
    let newline = |out: &mut String, depth: Option<usize>| {
        if let Some(depth) = depth {
            out.push('\n');
            out.extend(std::iter::repeat_n("  ", depth));
        }
    };
    let inner = indent.map(|d| d + 1);
    out.push(open);
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, inner);
        item(out, x, inner);
    }
    if !items.is_empty() {
        newline(out, indent);
    }
    out.push(close);
}

/// Writes `s` as a string literal: quotes, backslashes, `\n`, `\r` and `\t`
/// get short escapes, other control characters `\u00XX`; everything else
/// is copied verbatim.
fn write_str(out: &mut String, s: &str) {
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

impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Int(a), Json::Int(b)) => a == b,
            (Json::F64(a), Json::F64(b)) => a == b,
            (Json::Int(i), Json::F64(f)) | (Json::F64(f), Json::Int(i)) => *i as f64 == *f,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Array(a), Json::Array(b)) => a == b,
            (Json::Object(a), Json::Object(b)) => a == b,
            _ => false,
        }
    }
}

/// Compact rendering.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.compact())
    }
}

/// `value["key"]`: the value under `key`, or `null` when there is none, so
/// lookups chain.
impl std::ops::Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

macro_rules! from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}
from!(
    i32 => |v| Json::Int(v.into()), i64 => |v| Json::Int(v.into()), u32 => |v| Json::Int(v.into()),
    u64 => |v| Json::Int(v.into()), usize => |v| Json::Int(v as i128), bool => |v| Json::Bool(v),
    f64 => |v| Json::F64(v), &str => |v| Json::Str(v.to_string()), String => |v| Json::Str(v),
    Vec<Json> => |v| Json::Array(v),
);

/// `None` becomes `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Why [`Json::parse`] rejected its input, and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending input.
    pub offset: usize,
    /// What was wrong there.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Recursive descent; every byte access is bounds-checked and the
/// recursion is capped at [`MAX_DEPTH`].
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err<T>(&self, msg: &'static str) -> Result<T, JsonError> {
        Err(JsonError { offset: self.pos, msg })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += hit as usize;
        hit
    }

    /// Consumes a run of bytes matching `pred`; returns its length.
    fn skip(&mut self, pred: impl Fn(u8) -> bool) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(&pred) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn ws(&mut self) {
        self.skip(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
    }

    fn digits(&mut self) -> usize {
        self.skip(|b| b.is_ascii_digit())
    }

    /// A value and the whitespace around it.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.ws();
        let v = match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => self.seq(depth, b']', |p, d| p.value(d)).map(Json::Array),
            Some(b'{') => self.seq(depth, b'}', Self::field).map(Json::Object),
            Some(_) => self.err("unexpected character"),
        }?;
        self.ws();
        Ok(v)
    }

    fn field(&mut self, depth: usize) -> Result<(String, Json), JsonError> {
        self.ws();
        if self.peek() != Some(b'"') {
            return self.err("expected a string key");
        }
        let key = self.string()?;
        self.ws();
        if !self.eat(b':') {
            return self.err("expected ':'");
        }
        Ok((key, self.value(depth)?))
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if !self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return self.err("invalid literal");
        }
        self.pos += word.len();
        Ok(v)
    }

    /// An array or object body: `item`s separated by `,` up to `close`.
    fn seq<T>(
        &mut self,
        depth: usize,
        close: u8,
        mut item: impl FnMut(&mut Self, usize) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        if depth >= MAX_DEPTH {
            return self.err("nesting deeper than MAX_DEPTH");
        }
        self.pos += 1;
        self.ws();
        let mut items = Vec::new();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self, depth + 1)?);
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                return self.err("expected ',' or a closing bracket");
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') && self.digits() == 0 {
            return self.err("expected a digit");
        }
        let fraction = self.eat(b'.');
        if fraction && self.digits() == 0 {
            return self.err("expected a digit after '.'");
        }
        let exponent = self.eat(b'e') || self.eat(b'E');
        if exponent {
            let _ = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return self.err("expected an exponent digit");
            }
        }
        let s = &self.text[start..self.pos];
        match (fraction || exponent, s.parse::<i128>(), s.parse::<f64>()) {
            (false, Ok(i), _) => Ok(Json::Int(i)),
            (_, _, Ok(f)) if f.is_finite() => Ok(Json::F64(f)),
            _ => Err(JsonError { offset: start, msg: "number out of range" }),
        }
    }

    /// At the opening `"`.
    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Quote, backslash and controls are ASCII, so the run before
            // them ends on a char boundary.
            let run = self.pos;
            self.skip(|b| b >= 0x20 && b != b'"' && b != b'\\');
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return self.err("control character in string"),
            }
        }
    }

    /// After a backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
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
                let mut code = self.hex4()?;
                if (0xd800..0xdc00).contains(&code) {
                    let lo = if self.eat(b'\\') && self.eat(b'u') { self.hex4()? } else { 0 };
                    if !(0xdc00..0xe000).contains(&lo) {
                        return self.err("unpaired surrogate");
                    }
                    code = 0x10000 + ((code - 0xd800) << 10) + (lo - 0xdc00);
                }
                return char::from_u32(code).map_or_else(|| self.err("unpaired surrogate"), Ok);
            }
            _ => return self.err("invalid escape"),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0;
        for _ in 0..4 {
            let Some(d) = self.peek().and_then(|b| (b as char).to_digit(16)) else {
                return self.err("expected 4 hex digits");
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trips(v: &Json) -> bool {
        Json::parse(&v.compact()).as_ref() == Ok(v) && Json::parse(&v.pretty()).as_ref() == Ok(v)
    }

    #[test]
    fn escapes_cover_the_control_range() {
        let s = Json::from("a\"b\\c\nd\re\tf\u{1}\u{1f} \u{7f}é");
        assert_eq!(s.compact(), "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001\\u001f \u{7f}é\"");
        let ctl: String = (0u8..0x20).map(char::from).collect();
        assert!(round_trips(&s) && round_trips(&Json::from(ctl)));
        assert_eq!(Json::parse(r#""\/\b\fé😀""#).unwrap(), Json::from("/\u{8}\u{c}é😀"));
        for bad in [r#""\ud83d""#, r#""\ude00""#, r#""\x""#, "\"\u{1}\""] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn integers_stay_exact_and_floats_render_shortest() {
        assert_eq!(Json::from(u64::MAX).compact(), "18446744073709551615");
        assert_eq!(Json::from(i64::MIN).compact(), "-9223372036854775808");
        assert_eq!(Json::parse("18446744073709551615").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!((Json::from(3.5).compact(), Json::from(3.0).compact()), ("3.5".into(), "3".into()));
        assert_eq!(Json::parse("2.50").unwrap(), Json::F64(2.5));
        assert_eq!(Json::parse("1e2").unwrap(), Json::F64(100.0));
        assert_eq!(Json::Int(3), Json::F64(3.0));
        assert_ne!(Json::Int(3), Json::F64(3.5));
    }

    #[test]
    fn non_finite_floats_render_null() {
        for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::from(f).compact(), "null");
        }
        assert!(Json::parse("1e999").is_err(), "overflow is rejected, not infinity");
    }

    #[test]
    fn keys_keep_insertion_order() {
        let v = Json::object().with("z", 1).with("a", 2).with("m", 3).with("a", 4);
        assert_eq!(v.compact(), r#"{"z":1,"a":4,"m":3}"#);
        assert_eq!(Json::parse(r#"{"z":1,"a":4,"m":3}"#).unwrap().compact(), v.compact());
    }

    #[test]
    fn pretty_and_compact_round_trip() {
        let v = Json::object()
            .with("n", 7u64)
            .with("none", None::<f64>)
            .with("empty", Json::object())
            .with("list", vec![Json::from(1.25), Json::Array(vec![]), Json::from(true)])
            .with("nested", Json::object().with("k", -2));
        assert_eq!(
            v.pretty(),
            "{\n  \"n\": 7,\n  \"none\": null,\n  \"empty\": {},\n  \"list\": [\n    1.25,\n    [],\n    \
             true\n  ],\n  \"nested\": {\n    \"k\": -2\n  }\n}"
        );
        assert_eq!(v.compact(), r#"{"n":7,"none":null,"empty":{},"list":[1.25,[],true],"nested":{"k":-2}}"#);
        assert!(round_trips(&v));
    }

    #[test]
    fn errors_carry_the_byte_offset() {
        let cases = [("", 0), ("[1,]", 3), ("{\"a\" 1}", 5), ("[1 2]", 3), ("01", 1), ("\"abc", 4), ("nul", 0), ("-", 1)];
        for (text, offset) in cases {
            assert_eq!(Json::parse(text).unwrap_err().offset, offset, "{text:?}");
        }
        assert_eq!(Json::parse(&"[".repeat(MAX_DEPTH + 1)).unwrap_err().offset, MAX_DEPTH);
        assert!(Json::parse(&format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH))).is_ok());
    }
}
