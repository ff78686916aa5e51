//! The workspace's one JSON module: a writer and a strict reader.
//!
//! **Writing.** [`ToJson`] appends a value's JSON text to a `String`; it is
//! implemented for the scalars, `str`/`String`, `Option`, slices, `Vec`
//! and [`ArgValue`]. [`record!`] wraps a named-field struct or a unit-enum
//! definition and emits its impl: a struct writes its fields as an object
//! in declaration order, a unit variant writes its name as a string.
//! [`to_string`] and [`to_string_pretty`] are the entry points. There is
//! one string escaper and one object writer ([`write_object`]), shared by
//! records, Chrome traces, post-mortem bundles and conformance reports.
//!
//! JSON has no NaN or infinity, and two rules cover them. A record's float
//! field writes `null`. An [`ArgValue`] (a trace, bundle or conformance
//! value) writes 0 instead, because those validators require numbers.
//!
//! ```
//! use obs::json::{self, JsonValue};
//!
//! json::record! {
//!     /// One row.
//!     pub struct Row {
//!         /// The row's name.
//!         pub name: String,
//!         /// A measurement, absent when not taken.
//!         pub seconds: Option<f64>,
//!     }
//! }
//!
//! let row = Row { name: "1R1W".into(), seconds: Some(0.5) };
//! let text = json::to_string(&row);
//! assert_eq!(text, r#"{"name":"1R1W","seconds":0.5}"#);
//! assert_eq!(JsonValue::parse(&text).unwrap().get("seconds").unwrap().as_f64(), Some(0.5));
//! ```
//!
//! **Reading.** [`JsonValue::parse`] is a strict recursive-descent parser
//! for the full JSON grammar — objects, arrays, strings with escapes,
//! numbers, literals — in time linear in the input. It is sized for trace
//! files, not for adversarial input: nesting depth is bounded to keep
//! recursion safe.

use std::fmt::Write as _;

use crate::span::ArgValue;

/// Maximum nesting depth accepted (arrays/objects); trace files are ~3 deep.
const MAX_DEPTH: usize = 128;

/// A value that writes itself as JSON.
pub trait ToJson {
    /// Append this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

/// `value` as compact JSON.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// `value` as JSON indented by two spaces per level, one member or element
/// per line; empty containers stay `[]` and `{}`.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let compact = to_string(value);
    let mut out = String::with_capacity(compact.len() * 2);
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    let mut chars = compact.chars().peekable();
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            // A quote closes the string unless a backslash escapes it.
            in_string = escaped || c != '"';
            escaped = !escaped && c == '\\';
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                if let Some(close) = chars.next_if(|&n| n == '}' || n == ']') {
                    out.push(close);
                } else {
                    depth += 1;
                    newline(&mut out, depth);
                }
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                newline(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, depth);
            }
            ':' => out.push_str(": "),
            c => out.push(c),
        }
    }
    out
}

/// Append `s` as a JSON string literal, quotes included.
pub(crate) fn escape_into(out: &mut String, s: &str) {
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

/// Append `{"key":value,…}` in the order `members` yields them.
pub fn write_object<'a, V: ToJson + ?Sized + 'a>(
    out: &mut String,
    members: impl IntoIterator<Item = (&'a str, &'a V)>,
) {
    out.push('{');
    for (i, (k, v)) in members.into_iter().enumerate() {
        out.push_str(if i > 0 { "," } else { "" });
        escape_into(out, k);
        out.push(':');
        v.write_json(out);
    }
    out.push('}');
}

/// `v`, or 0 when it is not finite: the rule for trace, bundle and
/// conformance values, whose validators require numbers.
pub(crate) fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

macro_rules! display_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

display_to_json!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, bool);

macro_rules! float_to_json {
    ($($t:ty),*) => {$(
        /// Non-finite values write `null`.
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                if self.is_finite() {
                    let _ = write!(out, "{self}");
                } else {
                    out.push_str("null");
                }
            }
        }
    )*};
}

float_to_json!(f32, f64);

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        escape_into(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        escape_into(out, self);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            out.push_str(if i > 0 { "," } else { "" });
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

/// Non-finite floats write 0: trace, bundle and conformance validators
/// require numbers.
impl ToJson for ArgValue {
    fn write_json(&self, out: &mut String) {
        match self {
            ArgValue::U64(u) => u.write_json(out),
            ArgValue::F64(f) => finite(*f).write_json(out),
            ArgValue::Str(s) => s.write_json(out),
            ArgValue::Bool(b) => b.write_json(out),
        }
    }
}

/// Define named-field structs and unit-only enums with their [`ToJson`]
/// impls: a struct writes `{"field":value,…}` in declaration order, a
/// variant writes `"Variant"`. Attributes and doc comments pass through;
/// one invocation may hold several items.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty),* $(,)?
        }
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)*
        }

        impl $crate::json::ToJson for $name {
            fn write_json(&self, out: &mut String) {
                $crate::json::write_object(
                    out,
                    [$((stringify!($field), &self.$field as &dyn $crate::json::ToJson)),*],
                );
            }
        }

        $crate::__json_record! { $($rest)* }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident),* $(,)?
        }
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$vmeta])* $variant,)*
        }

        impl $crate::json::ToJson for $name {
            fn write_json(&self, out: &mut String) {
                let name = match self {
                    $($name::$variant => stringify!($variant),)*
                };
                $crate::json::ToJson::write_json(name, out);
            }
        }

        $crate::__json_record! { $($rest)* }
    };
    () => {};
}

pub use crate::__json_record as record;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number as its literal text. JSON does not distinguish integer
    /// from float; keeping the text lets [`JsonValue::as_u64`] read
    /// integers above 2^53 exactly.
    Number(String),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in document order (keys may repeat; lookups take the
    /// first occurrence).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Member `key` of an object (`None` for other variants or missing key).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Member `key` read through `as_kind` (e.g. [`JsonValue::as_f64`]),
    /// or an error naming `ctx` and the key: the required-key reader the
    /// trace and bundle validators share.
    pub(crate) fn require<'a, T>(
        &'a self,
        ctx: &str,
        key: &str,
        as_kind: impl FnOnce(&'a JsonValue) -> Option<T>,
    ) -> Result<T, String> {
        let value = self
            .get(key)
            .ok_or_else(|| format!("{ctx} lacks required key {key:?}"))?;
        as_kind(value).ok_or_else(|| format!("{ctx}: {key:?} is malformed"))
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The exact value, if this is a number written as an integer that
    /// fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte
            // in one step. All three are ASCII, so the run ends on a char
            // boundary of the `&str` input.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            match self.bytes[self.pos - 1] {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or("unterminated escape")?;
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
                            let cp = self.hex4()?;
                            // Surrogate pair handling: a high surrogate must
                            // be followed by `\u` + low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err("invalid low surrogate".to_string());
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    return Err("lone high surrogate".to_string());
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or("invalid \\u escape")?);
                        }
                        other => {
                            return Err(format!("invalid escape \\{}", other as char));
                        }
                    }
                }
                b => return Err(format!("raw control byte {b:#x} in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end]).map_err(|e| e.to_string())?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape {hex:?}"))?;
        self.pos = end;
        Ok(v)
    }

    /// Skip a run of ASCII digits; how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, stricter
    /// than `f64::from_str`: no leading zeros, and an integer part, a
    /// fraction and an exponent each need at least one digit.
    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        let bad = |p: &Self| format!("invalid number {:?} at byte {start}", &p.text[start..p.pos]);
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(bad(self)),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(bad(self));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(bad(self));
            }
        }
        Ok(JsonValue::Number(self.text[start..self.pos].to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn num(text: &str) -> JsonValue {
        JsonValue::Number(text.to_string())
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(" true ").unwrap(), JsonValue::Bool(true));
        let n = JsonValue::parse("-3.5e2").unwrap();
        assert_eq!(n, num("-3.5e2"));
        assert_eq!(n.as_f64(), Some(-350.0));
        assert_eq!(n.as_u64(), None);
        assert_eq!(
            JsonValue::parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(
            JsonValue::parse("\"a\\nb\\u0041\"").unwrap(),
            JsonValue::String("a\nbA".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = JsonValue::parse(r#"{"a":[1,{"b":"x"},[]],"c":{}}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].get("b").unwrap().as_str(), Some("x"));
        assert_eq!(a[2].as_array().unwrap().len(), 0);
        assert_eq!(v.get("c").unwrap().as_object().unwrap().len(), 0);
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_surrogate_pairs_and_unicode() {
        assert_eq!(
            JsonValue::parse("\"\\ud83d\\ude00\"").unwrap(),
            JsonValue::String("😀".to_string())
        );
        assert_eq!(
            JsonValue::parse("\"héllo\"").unwrap(),
            JsonValue::String("héllo".to_string())
        );
    }

    #[test]
    fn accepts_every_number_form_of_the_grammar() {
        for good in [
            "0", "-0", "7", "-12", "0.5", "-0.25", "1e5", "1E+5", "2.5e-3", "0e0",
        ] {
            assert!(JsonValue::parse(good).is_ok(), "should accept {good:?}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "tru",
            "1 2",
            "[1] garbage",
            "\"\\ud83d\"", // lone surrogate
            "\"\\q\"",
            "\"raw\ttab\"",
            "nan",
            "- 1",
            // Numbers `f64::from_str` accepts but JSON does not.
            "01",
            "00",
            "-01.0",
            "[01]",
            "1.",
            "-.5",
            ".5",
            "1.e5",
            "1e",
            "1e+",
            "-",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn depth_limit_guards_recursion() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(JsonValue::parse(&deep).is_err());
        let ok = "[".repeat(64) + &"]".repeat(64);
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn parses_a_multi_megabyte_string_in_linear_time() {
        // 4 MiB of mixed ASCII, multi-byte and escaped text: quadratic
        // string scanning takes minutes here, linear takes milliseconds.
        let unit = "abc\"é😀\\\n";
        let want = unit.repeat(1 << 19);
        let doc = to_string(&vec![want.clone(), "tail".to_string()]);
        assert!(doc.len() > 4 << 20);
        let v = JsonValue::parse(&doc).unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_str(), Some(want.as_str()));
        assert_eq!(items[1].as_str(), Some("tail"));
    }

    #[test]
    fn writes_scalars_and_escapes() {
        assert_eq!(to_string(&42u64), "42");
        assert_eq!(to_string(&-7i32), "-7");
        assert_eq!(to_string(&1.5f64), "1.5");
        assert_eq!(to_string(&true), "true");
        assert_eq!(
            to_string("a\"b\\c\n\r\t\u{1}é"),
            "\"a\\\"b\\\\c\\n\\r\\t\\u0001é\""
        );
    }

    #[test]
    fn writes_containers() {
        assert_eq!(to_string(&vec![1u32, 2, 3]), "[1,2,3]");
        assert_eq!(to_string(&Vec::<u32>::new()), "[]");
        assert_eq!(to_string(&Option::<u32>::None), "null");
        assert_eq!(to_string(&Some("x".to_string())), "\"x\"");
        let mut out = String::new();
        let (a, b) = (ArgValue::U64(3), ArgValue::Str("s".into()));
        write_object(&mut out, [("a", &a), ("b", &b)]);
        assert_eq!(out, r#"{"a":3,"b":"s"}"#);
    }

    #[test]
    fn non_finite_floats_write_null_but_trace_values_write_zero() {
        assert_eq!(to_string(&f64::NAN), "null");
        assert_eq!(to_string(&f64::INFINITY), "null");
        assert_eq!(to_string(&Some(f32::NEG_INFINITY)), "null");
        assert_eq!(to_string(&ArgValue::F64(f64::NAN)), "0");
        assert_eq!(to_string(&ArgValue::F64(0.25)), "0.25");
    }

    record! {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Mode {
            Fast,
            /// Documented variants pass through.
            Slow,
        }

        /// Field order here is the output order.
        struct Inner {
            z: u64,
            mode: Mode,
        }

        pub(crate) struct Outer {
            pub(crate) name: String,
            /// A nested record.
            inner: Inner,
            maybe: Option<Inner>,
            list: Vec<Inner>,
            empty: Vec<u64>,
            ratio: f64,
        }
    }

    fn outer() -> Outer {
        let inner = |z, mode| Inner { z, mode };
        Outer {
            name: "o".into(),
            inner: inner(1, Mode::Fast),
            maybe: None,
            list: vec![inner(2, Mode::Slow)],
            empty: Vec::new(),
            ratio: f64::NAN,
        }
    }

    #[test]
    fn records_write_fields_in_declaration_order() {
        assert_eq!(
            to_string(&outer()),
            r#"{"name":"o","inner":{"z":1,"mode":"Fast"},"maybe":null,"list":[{"z":2,"mode":"Slow"}],"empty":[],"ratio":null}"#
        );
        assert_eq!(
            to_string(&[Mode::Slow, Mode::Fast][..]),
            r#"["Slow","Fast"]"#
        );
    }

    #[test]
    fn pretty_output_indents_and_keeps_empty_containers_closed() {
        assert_eq!(to_string_pretty(&vec![1u32, 2]), "[\n  1,\n  2\n]");
        let pretty = to_string_pretty(&outer());
        let want = "{\n  \"name\": \"o\",\n  \"inner\": {\n    \"z\": 1,\n    \"mode\": \"Fast\"\n  },\n  \
                    \"maybe\": null,\n  \"list\": [\n    {\n      \"z\": 2,\n      \"mode\": \"Slow\"\n    }\n  ],\n  \
                    \"empty\": [],\n  \"ratio\": null\n}";
        assert_eq!(pretty, want);
        // Nested empties, and brackets inside strings left alone.
        struct Raw(&'static str);
        impl ToJson for Raw {
            fn write_json(&self, out: &mut String) {
                out.push_str(self.0);
            }
        }
        assert_eq!(to_string_pretty(&Vec::<u8>::new()), "[]");
        assert_eq!(to_string_pretty(&Raw("{}")), "{}");
        assert_eq!(
            to_string_pretty(&Raw(r#"{"a":{},"b":[[],{}]}"#)),
            "{\n  \"a\": {},\n  \"b\": [\n    [],\n    {}\n  ]\n}"
        );
        assert_eq!(
            to_string_pretty(&vec!["\\\"[{,:}]".to_string()]),
            "[\n  \"\\\\\\\"[{,:}]\"\n]"
        );
        let parsed = JsonValue::parse(&pretty).unwrap();
        assert_eq!(parsed, JsonValue::parse(&to_string(&outer())).unwrap());
    }

    /// One scalar value from a mix weighted toward the characters JSON
    /// must escape or encode in several bytes.
    fn any_char() -> impl Strategy<Value = char> {
        prop_oneof![
            0u32..0x20,
            Just('"' as u32),
            Just('\\' as u32),
            0x20u32..0x80,
            0x80u32..0xD800,
            0xE000u32..0x10000,
            0x10000u32..0x110000,
        ]
        .prop_map(|c| char::from_u32(c).expect("ranges skip surrogates"))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]
        #[test]
        fn written_values_parse_back_exactly(
            chars in proptest::collection::vec(any_char(), 0..24),
            int in 0u64..=u64::MAX,
            bits in 0u64..=u64::MAX,
        ) {
            let s: String = chars.into_iter().collect();
            let parsed = JsonValue::parse(&to_string(&s)).unwrap();
            prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
            let parsed = JsonValue::parse(&to_string(&int)).unwrap();
            prop_assert_eq!(parsed.as_u64(), Some(int));
            let float = f64::from_bits(bits);
            if float.is_finite() {
                let parsed = JsonValue::parse(&to_string(&float)).unwrap();
                prop_assert_eq!(parsed.as_f64().map(f64::to_bits), Some(bits));
            }
        }
    }
}
