//! A minimal, dependency-free JSON layer shared by the report schema
//! and the worker pipe protocol.
//!
//! The workspace builds fully offline, so this crate hand-rolls the
//! small slice of JSON it needs instead of pulling `serde_json`:
//!
//! * [`Value`] — an order-preserving document model. Objects keep their
//!   fields in insertion order, so emission is deterministic and
//!   emit → parse → emit is byte-identical;
//! * [`Value::render`] — pretty emission with two-space indentation.
//!   Floats are written with Rust's shortest round-trip formatting,
//!   which is stable under re-parsing (the shortest representation of
//!   the parsed value is the string it was parsed from);
//! * [`Value::render_compact`] — the same document on a single line,
//!   used for the line-delimited supervisor/worker pipe protocol;
//! * [`parse`] — a strict recursive-descent parser reporting byte
//!   offsets on malformed input. Nesting is bounded by [`MAX_DEPTH`], so
//!   hostile input fails with an error instead of exhausting the stack;
//! * [`ToJson`] / [`FromJson`] — the one codec trait pair every
//!   cross-boundary type implements (worker pipe, report schema, cache
//!   entries, service wire), with the field readers [`req`] and [`opt`],
//!   the object builder [`Fields`], and the [`json_codec!`] macro for
//!   plain structs.
//!
//! Integers and floats are kept distinct: `u64` quantities (checksums,
//! retired-op counts) do not round-trip through `f64`, which would lose
//! precision above 2^53.
//!
//! # Absent options
//!
//! Two conventions for a `None` field are on the wire, and each impl
//! states per field which one it uses: [`Fields::put`] writes `null`
//! (the worker pipe's convention, and what `Option<T>: ToJson` does),
//! [`Fields::put_some`] omits the field (the report convention). [`opt`]
//! reads both back as `None`.

use alberta_workloads::Scale;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An order-preserving JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer written without a decimal point. Covers
    /// the full `u64` range exactly.
    UInt(u64),
    /// Any other number. Always finite: JSON has no NaN or infinities.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, fields in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Field lookup on an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The exact integer payload, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as `f64`. Integers convert (with the usual
    /// `u64 as f64` rounding above 2^53 — callers that need exactness
    /// use [`Value::as_u64`]).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(n) => Some(*n as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The field list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Pretty-renders the document with two-space indentation and a
    /// trailing newline — the canonical serialization every report
    /// artifact uses.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders the document on a single line with no whitespace — the
    /// framing for the line-delimited worker pipe protocol. String
    /// escaping guarantees the output itself contains no raw newline.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// The content fingerprint of this document: [`fingerprint`] over
    /// the compact rendering. Two documents fingerprint identically iff
    /// their canonical serializations are byte-identical, which (because
    /// emission is deterministic) means they are the same document.
    pub fn fingerprint(&self) -> String {
        fingerprint(self.render_compact().as_bytes())
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(x) => write_f64(out, *x),
            Value::Str(s) => write_string(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(x) => write_f64(out, *x),
            Value::Str(s) => write_string(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Value::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Writes a finite float in Rust's shortest round-trip decimal form.
/// Integral values render without a fractional part (`3` rather than
/// `3.0`), which re-parses as [`Value::UInt`] and re-emits identically.
///
/// # Panics
///
/// Panics on NaN or infinities — the schema layer only admits finite
/// measurements, so a non-finite value here is a bug, not bad input.
fn write_f64(out: &mut String, x: f64) {
    assert!(x.is_finite(), "JSON cannot represent {x}");
    let _ = write!(out, "{x}");
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

/// Parse failure: what went wrong and the byte offset it went wrong at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "malformed JSON at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document, rejecting trailing garbage.
///
/// # Errors
///
/// Returns a [`ParseError`] with the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    p.skip_whitespace();
    let value = p.value()?;
    p.skip_whitespace();
    if p.pos != text.len() {
        return Err(p.error("trailing characters after the document"));
    }
    Ok(value)
}

/// A 128-bit FNV-1a content fingerprint, rendered as 32 lowercase hex
/// characters. Dependency-free and deterministic across platforms; used
/// as the content address of the characterization result cache, where
/// the keyed space is tiny (thousands of configuration documents, not
/// adversarial input), so 128 bits of a well-mixed non-cryptographic
/// hash are collision-safe by a comfortable margin.
pub fn fingerprint(bytes: &[u8]) -> String {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut hash = OFFSET;
    for byte in bytes {
        hash ^= u128::from(*byte);
        hash = hash.wrapping_mul(PRIME);
    }
    format!("{hash:032x}")
}

/// The deepest array/object nesting [`parse`] accepts. Every document
/// the workspace emits nests fewer than 16 levels; the bound keeps the
/// recursive descent far inside a 2 MiB thread stack on any input.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected character {:?}", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        self.expect(b'{')?;
        let mut fields: Vec<(String, Value)> = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    // Sorting the key references finds a repeated key
                    // in O(n log n) without copying any key.
                    let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                    keys.sort_unstable();
                    if let Some(pair) = keys.windows(2).find(|pair| pair[0] == pair[1]) {
                        return Err(ParseError {
                            offset: start,
                            message: format!("duplicate object key {:?}", pair[0]),
                        });
                    }
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // The schema never emits non-BMP text, so
                            // lone surrogates are rejected rather than
                            // paired.
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => {
                                    self.pos = start;
                                    return Err(self.error("unsupported \\u surrogate escape"));
                                }
                            }
                            continue;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.error("unescaped control character in string"))
                }
                Some(_) => {
                    // Copy the run of plain characters up to the next
                    // quote, escape or control byte in one step. Those
                    // delimiters are ASCII, so the run ends on a char
                    // boundary of the input.
                    let rest = &self.text[self.pos..];
                    let run = rest
                        .bytes()
                        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a') as u32 + 10,
                Some(c @ b'A'..=b'F') => (c - b'A') as u32 + 10,
                _ => return Err(self.error("expected four hex digits after \\u")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut saw_fraction_or_exponent = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    saw_fraction_or_exponent = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !saw_fraction_or_exponent && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Float(x)),
            _ => {
                self.pos = start;
                Err(self.error(format!("invalid number {text:?}")))
            }
        }
    }
}

/// A decode failure: where in the document it happened and what was
/// wrong there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// The path from the document root to the offending value, e.g.
    /// `run.report.memory.mpki_curve[1].mpki`; empty at the root.
    pub path: String,
    /// What was wrong.
    pub message: String,
}

impl DecodeError {
    /// An error at the current value.
    pub fn new(message: impl Into<String>) -> Self {
        DecodeError {
            path: String::new(),
            message: message.into(),
        }
    }

    /// The same error seen from the parent: `segment` (a field name or
    /// an `[index]`) is prefixed to the path.
    #[must_use]
    pub fn within(mut self, segment: &str) -> Self {
        self.path = match (self.path.is_empty(), self.path.starts_with('[')) {
            (true, _) => segment.to_owned(),
            (false, true) => format!("{segment}{}", self.path),
            (false, false) => format!("{segment}.{}", self.path),
        };
        self
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.path.is_empty() {
            f.write_str(&self.message)
        } else {
            write!(f, "{}: {}", self.path, self.message)
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<ParseError> for DecodeError {
    fn from(e: ParseError) -> Self {
        DecodeError::new(e.to_string())
    }
}

/// A type with a canonical JSON encoding.
pub trait ToJson {
    /// The value's canonical JSON document.
    fn to_value(&self) -> Value;
}

/// A type that decodes from its canonical JSON encoding — the inverse
/// of its [`ToJson`] impl.
pub trait FromJson: Sized {
    /// Decodes a value.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] naming the path and the first problem.
    fn from_value(value: &Value) -> Result<Self, DecodeError>;
}

/// Parses `text` and decodes it as a `T`.
///
/// # Errors
///
/// Malformed JSON or a structural problem, as a [`DecodeError`].
pub fn decode<T: FromJson>(text: &str) -> Result<T, DecodeError> {
    T::from_value(&parse(text)?)
}

fn field<'v>(value: &'v Value, key: &str) -> Result<Option<&'v Value>, DecodeError> {
    match value {
        Value::Object(_) => Ok(value.get(key)),
        _ => Err(DecodeError::new(format!(
            "expected an object with field {key:?}"
        ))),
    }
}

/// Reads the required field `key` of the object `value`.
///
/// # Errors
///
/// `value` is not an object, the field is missing, or it does not
/// decode as a `T`.
pub fn req<T: FromJson>(value: &Value, key: &str) -> Result<T, DecodeError> {
    match field(value, key)? {
        Some(v) => T::from_value(v).map_err(|e| e.within(key)),
        None => Err(DecodeError::new("missing field").within(key)),
    }
}

/// Reads the optional field `key` of the object `value`: absent and
/// `null` both read as `None`, whichever convention wrote it.
///
/// # Errors
///
/// `value` is not an object, or the field is present and does not
/// decode as a `T`.
pub fn opt<T: FromJson>(value: &Value, key: &str) -> Result<Option<T>, DecodeError> {
    match field(value, key)? {
        None | Some(Value::Null) => Ok(None),
        Some(v) => T::from_value(v).map(Some).map_err(|e| e.within(key)),
    }
}

/// The error for an unrecognized discriminator (`kind`, `type`, …)
/// value `tag` in field `key`.
pub fn unknown_tag(key: &str, tag: &str) -> DecodeError {
    DecodeError::new(format!("unknown {key} {tag:?}")).within(key)
}

/// Builds a JSON object field by field, in emission order.
#[derive(Debug, Default)]
pub struct Fields(Vec<(String, Value)>);

impl Fields {
    /// An empty object.
    pub fn new() -> Self {
        Fields::default()
    }

    /// Appends `key`. An absent `Option` is written as `null`.
    #[must_use]
    pub fn put<T: ToJson + ?Sized>(mut self, key: &str, value: &T) -> Self {
        self.0.push((key.to_owned(), value.to_value()));
        self
    }

    /// Appends `key` only when `value` is present; an absent `Option` is
    /// omitted.
    #[must_use]
    pub fn put_some<T: ToJson>(self, key: &str, value: &Option<T>) -> Self {
        match value {
            Some(v) => self.put(key, v),
            None => self,
        }
    }

    /// Appends every field of `object`, which must encode as an
    /// object: a struct's fields flattened behind a message tag.
    #[must_use]
    pub fn put_all<T: ToJson + ?Sized>(mut self, object: &T) -> Self {
        if let Value::Object(fields) = object.to_value() {
            self.0.extend(fields);
        }
        self
    }

    /// The finished object.
    pub fn build(self) -> Value {
        Value::Object(self.0)
    }
}

/// Implements [`ToJson`] and [`FromJson`] for a plain struct whose JSON
/// object lists the struct's fields in emission order. Each field is
/// written once, as `name`, `name as "json_name"` to rename it, and
/// `#[omit_none] name` for an `Option` that is omitted rather than
/// written as `null` when absent. Every field is required on decode
/// except the `#[omit_none]` ones.
///
/// ```
/// # use alberta_core::json::{FromJson, ToJson};
/// #[derive(Debug, PartialEq)]
/// struct Point { x: u64, y: u64, label: Option<String> }
/// alberta_core::json_codec!(Point { x, y as "why", #[omit_none] label });
///
/// let p = Point { x: 1, y: 2, label: None };
/// assert_eq!(p.to_value().render_compact(), r#"{"x":1,"why":2}"#);
/// assert_eq!(Point::from_value(&p.to_value()).unwrap(), p);
/// ```
#[macro_export]
macro_rules! json_codec {
    ($ty:ty { $( $(#[$mode:ident])? $field:ident $(as $name:literal)? ),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_value(&self) -> $crate::json::Value {
                let fields = $crate::json::Fields::new();
                $( let fields = $crate::json_codec!(
                    @put fields, $crate::json_codec!(@name $field $($name)?), &self.$field $(, $mode)?
                ); )*
                fields.build()
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_value(
                value: &$crate::json::Value,
            ) -> ::std::result::Result<Self, $crate::json::DecodeError> {
                Ok(Self {
                    $( $field: $crate::json_codec!(
                        @get value, $crate::json_codec!(@name $field $($name)?) $(, $mode)?
                    ), )*
                })
            }
        }
    };
    (@name $field:ident) => { stringify!($field) };
    (@name $field:ident $name:literal) => { $name };
    (@put $fields:ident, $key:expr, $value:expr, omit_none) => { $fields.put_some($key, $value) };
    (@put $fields:ident, $key:expr, $value:expr) => { $fields.put($key, $value) };
    (@get $value:ident, $key:expr, omit_none) => { $crate::json::opt($value, $key)? };
    (@get $value:ident, $key:expr) => { $crate::json::req($value, $key)? };
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl ToJson for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        Ok(value.clone())
    }
}

impl ToJson for u64 {
    fn to_value(&self) -> Value {
        Value::UInt(*self)
    }
}

impl FromJson for u64 {
    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        value
            .as_u64()
            .ok_or_else(|| DecodeError::new("expected an unsigned integer"))
    }
}

macro_rules! narrow_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }

        impl FromJson for $t {
            fn from_value(value: &Value) -> Result<Self, DecodeError> {
                <$t>::try_from(u64::from_value(value)?)
                    .map_err(|_| DecodeError::new(concat!("exceeds ", stringify!($t))))
            }
        }
    )*};
}

narrow_uint!(u32, usize);

impl ToJson for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        value
            .as_f64()
            .ok_or_else(|| DecodeError::new("expected a number"))
    }
}

impl ToJson for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        match value {
            Value::Bool(b) => Ok(*b),
            _ => Err(DecodeError::new("expected a boolean")),
        }
    }
}

impl ToJson for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl ToJson for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        value
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| DecodeError::new("expected a string"))
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, ToJson::to_value)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        match value {
            Value::Null => Ok(None),
            v => T::from_value(v).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_value).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        value
            .as_array()
            .ok_or_else(|| DecodeError::new("expected an array"))?
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_value(item).map_err(|e| e.within(&format!("[{i}]"))))
            .collect()
    }
}

impl<T: ToJson> ToJson for BTreeMap<String, T> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<T: FromJson> FromJson for BTreeMap<String, T> {
    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        value
            .as_object()
            .ok_or_else(|| DecodeError::new("expected an object"))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), T::from_value(v).map_err(|e| e.within(k))?)))
            .collect()
    }
}

impl ToJson for Scale {
    fn to_value(&self) -> Value {
        self.name().to_value()
    }
}

impl FromJson for Scale {
    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        let name = String::from_value(value)?;
        Scale::from_name(&name).ok_or_else(|| {
            DecodeError::new(format!(
                "unknown scale {name:?}; expected test, train, or ref"
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    #[test]
    fn render_parse_render_is_byte_identical() {
        let doc = obj(vec![
            ("version", Value::UInt(1)),
            ("pi", Value::Float(std::f64::consts::PI)),
            ("tiny", Value::Float(1e-12)),
            ("big", Value::UInt(u64::MAX)),
            ("name", Value::Str("alberta \"report\"\n".to_owned())),
            ("empty", Value::Array(Vec::new())),
            (
                "runs",
                Value::Array(vec![obj(vec![("ok", Value::Bool(true))]), Value::Null]),
            ),
        ]);
        let first = doc.render();
        let reparsed = parse(&first).unwrap();
        assert_eq!(reparsed, doc);
        assert_eq!(reparsed.render(), first);
    }

    #[test]
    fn u64_payloads_round_trip_exactly() {
        let checksum = 0xDEAD_BEEF_CAFE_F00Du64;
        let doc = obj(vec![("checksum", Value::UInt(checksum))]);
        let parsed = parse(&doc.render()).unwrap();
        assert_eq!(parsed.get("checksum").unwrap().as_u64(), Some(checksum));
    }

    #[test]
    fn integral_floats_collapse_to_integers_stably() {
        let doc = obj(vec![("cycles", Value::Float(1234.0))]);
        let first = doc.render();
        assert!(first.contains("\"cycles\": 1234"));
        let reparsed = parse(&first).unwrap();
        assert_eq!(reparsed.get("cycles").unwrap().as_f64(), Some(1234.0));
        assert_eq!(reparsed.render(), first);
    }

    #[test]
    fn parser_reports_offsets() {
        let err = parse("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{\"a\": 1, \"a\": 2}").is_err(), "duplicate keys");
    }

    #[test]
    fn numbers_parse_by_shape() {
        assert_eq!(parse("7").unwrap(), Value::UInt(7));
        assert_eq!(parse("-7").unwrap(), Value::Float(-7.0));
        assert_eq!(parse("7.5").unwrap(), Value::Float(7.5));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert!(parse("1e999").is_err(), "overflow to infinity rejected");
    }

    #[test]
    fn compact_rendering_is_single_line_and_round_trips() {
        let doc = obj(vec![
            ("type", Value::Str("result".into())),
            ("id", Value::UInt(3)),
            ("text", Value::Str("line one\nline two".into())),
            ("items", Value::Array(vec![Value::UInt(1), Value::Null])),
            ("empty", Value::Object(Vec::new())),
        ]);
        let line = doc.render_compact();
        assert!(!line.contains('\n'), "compact form must stay on one line");
        assert_eq!(parse(&line).unwrap(), doc);
        assert_eq!(parse(&line).unwrap().render(), doc.render());
    }

    #[test]
    fn escapes_round_trip() {
        let doc = obj(vec![("s", Value::Str("tab\t quote\" back\\ \u{1}".into()))]);
        let text = doc.render();
        assert!(text.contains("\\u0001"));
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // A default-sized thread, like the daemon's connection handlers.
        let deep = "[".repeat(100_000);
        let result = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&deep).map(drop))
            .expect("spawn")
            .join()
            .expect("the parser must not overflow the stack");
        assert!(result.unwrap_err().message.contains("nesting"));
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err.offset, MAX_DEPTH,
            "the error points at the first bracket too deep"
        );
    }

    /// How much longer the fastest of five parses of `large` takes than
    /// the fastest of five parses of `small`. Comparing two sizes in the
    /// same process catches super-linear work without a wall-clock bound
    /// that depends on the host's load.
    fn parse_time_ratio(small: &str, large: &str) -> f64 {
        let fastest = |text: &str| {
            (0..5)
                .map(|_| {
                    let started = std::time::Instant::now();
                    parse(text).expect("valid input");
                    started.elapsed()
                })
                .min()
                .expect("five runs")
        };
        fastest(large).as_secs_f64() / fastest(small).as_secs_f64()
    }

    fn wide_object(keys: usize) -> String {
        let fields: Vec<String> = (0..keys).map(|i| format!("\"k{i}\":{i}")).collect();
        format!("{{{}}}", fields.join(","))
    }

    // Eight times the input costs about 8-10x the time when the parse is
    // linear or n log n, and about 64x when it is quadratic.

    #[test]
    fn wide_objects_parse_in_near_linear_time() {
        let ratio = parse_time_ratio(&wide_object(2_500), &wide_object(20_000));
        assert!(ratio < 32.0, "8x the keys took {ratio:.1}x the time");
        let parsed = parse(&wide_object(20_000)).unwrap();
        assert_eq!(parsed.as_object().map(<[_]>::len), Some(20_000));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let long = |reps: usize| format!("[\"{}\"]", "é, ".repeat(reps));
        let ratio = parse_time_ratio(&long(12_500), &long(100_000));
        assert!(ratio < 32.0, "8x the text took {ratio:.1}x the time");
        let text = parse(&long(100_000)).unwrap();
        assert_eq!(
            text.as_array().unwrap()[0].as_str().map(str::len),
            Some(400_000)
        );
    }

    #[test]
    fn duplicate_keys_are_rejected_at_any_object_size() {
        for keys in [1, 2, 17, 20_000] {
            let object = wide_object(keys);
            let duplicated = format!("{},\"k0\":0}}", &object[..object.len() - 1]);
            let err = parse(&duplicated).unwrap_err();
            assert!(
                err.message.contains("duplicate object key \"k0\""),
                "{keys} keys: {err}"
            );
            assert_eq!(err.offset, 0, "the error points at the object");
        }
        let nested = parse("[{\"a\": 1}, {\"b\": {\"c\": 1, \"c\": 2}}]").unwrap_err();
        assert_eq!(nested.offset, 17);
    }

    #[derive(Debug, PartialEq)]
    struct Inner {
        at: u64,
        ratio: f64,
    }
    crate::json_codec!(Inner { at, ratio });

    #[derive(Debug, PartialEq)]
    struct Outer {
        name: String,
        scale: Scale,
        items: Vec<Inner>,
        null_when_none: Option<u32>,
        omitted_when_none: Option<bool>,
    }
    crate::json_codec!(Outer {
        name as "title",
        scale,
        items,
        null_when_none,
        #[omit_none] omitted_when_none
    });

    #[test]
    fn json_codec_writes_fields_in_order_with_per_field_option_conventions() {
        let outer = Outer {
            name: "x".to_owned(),
            scale: Scale::Train,
            items: vec![Inner { at: 1, ratio: 0.5 }],
            null_when_none: None,
            omitted_when_none: None,
        };
        let line = outer.to_value().render_compact();
        assert_eq!(
            line,
            r#"{"title":"x","scale":"train","items":[{"at":1,"ratio":0.5}],"null_when_none":null}"#
        );
        assert_eq!(decode::<Outer>(&line).unwrap(), outer);
        let full = Outer {
            null_when_none: Some(3),
            omitted_when_none: Some(true),
            ..outer
        };
        assert_eq!(Outer::from_value(&full.to_value()).unwrap(), full);
    }

    #[test]
    fn decode_errors_name_the_path() {
        let bad = r#"{"title":"x","scale":"train","items":[{"at":1,"ratio":0.5},{"at":"2","ratio":1}],"null_when_none":null}"#;
        let err = decode::<Outer>(bad).unwrap_err();
        assert_eq!(err.path, "items[1].at");
        assert_eq!(err.to_string(), "items[1].at: expected an unsigned integer");
        let missing = decode::<Outer>(r#"{"title":"x"}"#).unwrap_err();
        assert_eq!(missing.to_string(), "scale: missing field");
        let scale = decode::<Outer>(r#"{"title":"x","scale":"huge"}"#).unwrap_err();
        assert!(scale
            .to_string()
            .starts_with("scale: unknown scale \"huge\""));
        assert!(decode::<Outer>("[1]").is_err());
        assert!(decode::<Inner>(r#"{"at":4294967296000,"ratio":1}"#).is_ok());
        assert!(u32::from_value(&Value::UInt(1 << 40)).is_err());
    }

    #[test]
    fn fingerprints_are_stable_and_content_sensitive() {
        // FNV-1a reference vectors (the 128-bit variant).
        assert_eq!(fingerprint(b""), "6c62272e07bb014262b821756295c58d");
        let doc = obj(vec![("benchmark", Value::Str("mcf".into()))]);
        assert_eq!(doc.fingerprint(), doc.clone().fingerprint());
        let other = obj(vec![("benchmark", Value::Str("xz".into()))]);
        assert_ne!(doc.fingerprint(), other.fingerprint());
        assert_eq!(doc.fingerprint().len(), 32);
        assert!(doc.fingerprint().bytes().all(|b| b.is_ascii_hexdigit()));
    }
}
