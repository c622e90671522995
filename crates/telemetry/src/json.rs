//! One JSON value type for every artifact the workspace writes.
//!
//! [`Json`] is built in memory (usually with [`json!`](crate::json!)),
//! rendered by its `Display` impl and read back by [`Json::parse`].
//! Integers stay exact (`u64`/`i64`, never routed through `f64`), object
//! keys keep their order, and non-finite floats render as `null`, so a
//! rendered document always parses. The rendering is one line with
//! `"key": value` separators: one history entry per line, and artifacts
//! that `grep` finds `"key": value` pairs in.
//!
//! ```
//! use poptrie_telemetry::json;
//! use poptrie_telemetry::json::Json;
//!
//! let doc = json!({"experiment": "demo", "runs": vec![1u64, 2], "rate": f64::NAN});
//! let text = doc.to_string();
//! assert_eq!(text, r#"{"experiment": "demo", "runs": [1, 2], "rate": null}"#);
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back.pointer("/runs/1").and_then(Json::as_u64), Some(2));
//! ```

use std::fmt;

/// A JSON value. Objects are ordered `(key, value)` lists.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, exact.
    U64(u64),
    /// A negative integer, exact.
    I64(i64),
    /// Any other number. Non-finite values render as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in insertion order.
    Object(Vec<(String, Json)>),
}

/// A [`Json`] object from literal keys and values `Json::from` accepts:
/// `json!({"experiment": "vrf", "cells": cells})`.
#[macro_export]
macro_rules! json {
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::json::Json::Object(vec![$(($key.to_string(), $crate::json::Json::from($value))),*])
    };
}

impl Json {
    /// The value of `key` in an object (the first, if repeated).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value at a `/`-separated path such as `/cells/0/pattern`:
    /// each segment is an object key or, in an array, an index. The
    /// empty path is `self`. (RFC 6901 without the `~` escapes.)
    pub fn pointer(&self, path: &str) -> Option<&Json> {
        if path.is_empty() {
            return Some(self);
        }
        let mut segments = path.strip_prefix('/')?.split('/');
        segments.try_fold(self, |at, seg| match at {
            Json::Array(items) => items.get(seg.parse::<usize>().ok()?),
            _ => at.get(seg),
        })
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if the value is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Parse one JSON document (surrounding whitespace allowed). Any
    /// malformed, truncated or over-deep input is an `Err`, never a panic.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut rest = text;
        let doc = value(&mut rest, 0).and_then(|doc| match rest.trim_start_matches(WS) {
            "" => Ok(doc),
            _ => Err("trailing characters after the document"),
        });
        doc.map_err(|msg| ParseError {
            at: text.len() - rest.len(),
            msg,
        })
    }
}

/// `impl From<$t> for Json` for each `$t => |v| conversion`.
macro_rules! from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Self {
                $e
            }
        }
    )*};
}

from! {
    bool => |v| Json::Bool(v),
    f64 => |v| Json::F64(v),
    &str => |v| Json::Str(v.to_string()),
    String => |v| Json::Str(v),
    u32 => |v| Json::U64(v.into()),
    u64 => |v| Json::U64(v),
    usize => |v| Json::U64(v as u64),
    i32 => |v| Json::from(i64::from(v)),
    i64 => |v| u64::try_from(v).map_or(Json::I64(v), Json::U64),
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(v) => write!(f, "{v}"),
            Json::U64(v) => write!(f, "{v}"),
            Json::I64(v) => write!(f, "{v}"),
            // `Debug` keeps a `.` or an exponent, so a float reads back
            // as a float.
            Json::F64(v) if v.is_finite() => write!(f, "{v:?}"),
            Json::F64(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    write!(f, "{}{item}", if i > 0 { ", " } else { "" })?;
                }
                f.write_str("]")
            }
            Json::Object(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    f.write_str(if i > 0 { ", " } else { "" })?;
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Why [`Json::parse`] refused its input, and the byte offset where it
/// noticed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub at: usize,
    /// What was wrong there.
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Nesting deeper than this is refused rather than risking the stack.
const MAX_DEPTH: usize = 128;

/// JSON's insignificant whitespace.
const WS: [char; 4] = [' ', '\t', '\n', '\r'];

// The recursive-descent parser: each step consumes from the front of the
// unparsed rest `s`, and a failed step leaves `s` where it stopped, which
// `Json::parse` reports as the error offset.

/// Consume `word` if it comes next.
fn eat(s: &mut &str, word: &str) -> bool {
    s.strip_prefix(word).map(|rest| *s = rest).is_some()
}

fn value(s: &mut &str, depth: usize) -> Result<Json, &'static str> {
    *s = s.trim_start_matches(WS);
    if depth > MAX_DEPTH {
        return Err("nesting too deep");
    }
    let words = [
        ("null", Json::Null),
        ("true", Json::Bool(true)),
        ("false", Json::Bool(false)),
    ];
    for (word, value) in words {
        if eat(s, word) {
            return Ok(value);
        }
    }
    if eat(s, "[") {
        return items(s, "]", |s| value(s, depth + 1)).map(Json::Array);
    }
    if eat(s, "{") {
        let field = |s: &mut &str| {
            *s = s.trim_start_matches(WS);
            let key = string(s)?;
            *s = s.trim_start_matches(WS);
            if !eat(s, ":") {
                return Err("expected ':'");
            }
            Ok((key, value(s, depth + 1)?))
        };
        return items(s, "}", field).map(Json::Object);
    }
    if s.starts_with('"') {
        return string(s).map(Json::Str);
    }
    number(s)
}

/// The comma-separated items of an array or object, after its opening
/// bracket, through `close`.
fn items<T>(
    s: &mut &str,
    close: &str,
    mut item: impl FnMut(&mut &str) -> Result<T, &'static str>,
) -> Result<Vec<T>, &'static str> {
    let mut items = Vec::new();
    *s = s.trim_start_matches(WS);
    if eat(s, close) {
        return Ok(items);
    }
    loop {
        items.push(item(s)?);
        *s = s.trim_start_matches(WS);
        if eat(s, close) {
            return Ok(items);
        }
        if !eat(s, ",") {
            return Err("expected ',' or a closing bracket");
        }
    }
}

/// Consume a run of ASCII digits; true if there was at least one.
fn digits(s: &mut &str) -> bool {
    let before = s.len();
    *s = s.trim_start_matches(|c: char| c.is_ascii_digit());
    s.len() < before
}

fn number(s: &mut &str) -> Result<Json, &'static str> {
    let start = *s;
    eat(s, "-");
    // A lone zero or a run of digits: "01" stops after the "0" and then
    // fails on the trailing "1".
    let valid = (eat(s, "0") || digits(s))
        && (!eat(s, ".") || digits(s))
        && (!(eat(s, "e") || eat(s, "E")) || {
            let _ = eat(s, "+") || eat(s, "-");
            digits(s)
        });
    if !valid {
        return Err("expected a value");
    }
    let text = &start[..start.len() - s.len()];
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::U64(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::I64(v));
        }
    }
    // Also integers beyond 64 bits, approximately.
    text.parse().map(Json::F64).map_err(|_| "expected a value")
}

fn string(s: &mut &str) -> Result<String, &'static str> {
    if !eat(s, "\"") {
        return Err("expected a string");
    }
    let mut out = String::new();
    loop {
        let mut chars = s.chars();
        let c = chars.next().ok_or("unterminated string")?;
        let esc = chars.next();
        *s = &s[c.len_utf8()..];
        out.push(match c {
            '"' => return Ok(out),
            '\\' => {
                *s = &s[esc.map_or(0, char::len_utf8)..];
                match esc {
                    Some(c @ ('"' | '\\' | '/')) => c,
                    Some('b') => '\u{8}',
                    Some('f') => '\u{c}',
                    Some('n') => '\n',
                    Some('r') => '\r',
                    Some('t') => '\t',
                    Some('u') => unicode_escape(s)?,
                    _ => return Err("invalid escape"),
                }
            }
            c if c < ' ' => return Err("control character in string"),
            c => c,
        });
    }
}

/// The code point of a `\uXXXX` escape (the `\u` already consumed),
/// joining a UTF-16 surrogate pair.
fn unicode_escape(s: &mut &str) -> Result<char, &'static str> {
    let hi = hex4(s)?;
    let code = match hi {
        0xD800..=0xDBFF if eat(s, "\\u") => match hex4(s)? {
            lo @ 0xDC00..=0xDFFF => 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00),
            _ => return Err("unpaired surrogate"),
        },
        code => code,
    };
    char::from_u32(code).ok_or("invalid code point")
}

fn hex4(s: &mut &str) -> Result<u32, &'static str> {
    let hex = s
        .get(..4)
        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
    let code = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
    let code = code.ok_or("expected four hex digits")?;
    *s = &s[4..];
    Ok(code)
}
