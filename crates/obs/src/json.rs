//! A minimal, dependency-free JSON writer, value tree and parser.
//!
//! The container this reproduction builds in has no access to crates.io,
//! so `serde`/`serde_json` cannot be vendored; this module provides the
//! narrow surface the observability exporters need — write compact JSON
//! straight into a `String`, build a [`Json`] tree, parse it back — in
//! the same hand-rolled spirit as `portend_symex::warm`'s on-disk format
//! and `portend_bench::crit`'s criterion substitute.
//!
//! The direct writer ([`ObjectWriter`], [`write_array`], [`write_int`])
//! appends to a caller's buffer without building a tree; the output
//! types (`RunReport`, the daemon's frames) render through it.
//! [`Json::write_to`] renders a tree with the same functions, so a
//! document and its parsed tree render to the same bytes.
//!
//! Integers are carried as `i128` so every `u64` counter round-trips
//! exactly (floats are supported for parsing generality, but the
//! exporters only ever write integers, strings, and booleans — keeping
//! the `RunReport` round-trip byte-exact is what makes reports diffable
//! across builds). Object member order is preserved on both paths, so a
//! parse → render cycle is the identity for writer-produced documents.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (no decimal point or exponent in the source).
    Int(i128),
    /// A non-integer number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` on other variants or a
    /// missing key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `bool`, when it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, when it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, when it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => i64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value's elements, when it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value's members, when it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Renders the value as compact JSON (no insignificant whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out);
        out
    }

    /// Appends [`Json::render`]'s bytes to `out`, without a temporary
    /// `String`.
    pub fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write_bool(out, *b),
            Json::Int(i) => write_int(out, *i),
            Json::Float(f) => {
                // JSON has no NaN/Infinity; map them to null rather
                // than emitting an unparseable document.
                if f.is_finite() {
                    let _ = write!(out, "{f:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_array(out, items, |out, item| item.write_to(out)),
            Json::Obj(members) => {
                let mut obj = ObjectWriter::open(out);
                for (k, v) in members {
                    v.write_to(obj.member(k));
                }
                obj.close();
            }
        }
    }
}

/// Conveniences for building trees without spelling the variants out.
impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Int(n as i128)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Self {
        Json::Int(n as i128)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Int(n as i128)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Self {
        Json::Int(n as i128)
    }
}

/// Appends `s` as a JSON string literal. `"`, `\` and the control
/// characters below U+0020 are escaped (`\n`, `\r` and `\t` by name,
/// the rest as `\u00XX`); every other character, DEL and non-ASCII
/// included, is copied as is. Runs that need no escape are copied whole.
fn write_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut copied = 0;
    for (at, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `b` is ASCII, so `at` is a char boundary.
        out.push_str(&s[copied..at]);
        if escape.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(escape);
        }
        copied = at + 1;
    }
    out.push_str(&s[copied..]);
    out.push('"');
}

fn write_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Appends `n` in decimal; every value in `i64` or `u64` range is
/// written without `fmt`.
pub fn write_int(out: &mut String, n: i128) {
    if let Ok(n) = u64::try_from(n) {
        write_u64(out, n);
    } else if let Ok(n) = i64::try_from(n) {
        out.push('-');
        write_u64(out, n.unsigned_abs());
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

/// Appends `items` as a JSON array, writing each element with `each`.
pub fn write_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (at, item) in items.into_iter().enumerate() {
        if at > 0 {
            out.push(',');
        }
        each(out, item);
    }
    out.push(']');
}

/// Writes one JSON object straight into a `String`, members in call
/// order: the bytes a [`Json::Obj`] with the same members renders to.
///
/// ```
/// use portend_obs::json::ObjectWriter;
///
/// let mut out = String::new();
/// let mut obj = ObjectWriter::open(&mut out);
/// obj.str("name", "x\"y");
/// obj.int("n", 42u64);
/// obj.null("none");
/// obj.member("raw").push_str("[1,2]");
/// obj.close();
/// assert_eq!(out, r#"{"name":"x\"y","n":42,"none":null,"raw":[1,2]}"#);
/// ```
#[derive(Debug)]
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object at the end of `out`.
    pub fn open(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Writes the next member's key and returns the buffer its value
    /// goes to. Write exactly one JSON value there before the next
    /// member or [`ObjectWriter::close`].
    pub fn member(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_str(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A string member.
    pub fn str(&mut self, key: &str, value: &str) {
        write_str(self.member(key), value);
    }

    /// An integer member.
    pub fn int(&mut self, key: &str, value: impl Into<i128>) {
        write_int(self.member(key), value.into());
    }

    /// A boolean member.
    pub fn bool(&mut self, key: &str, value: bool) {
        write_bool(self.member(key), value);
    }

    /// A `null` member.
    pub fn null(&mut self, key: &str) {
        self.member(key).push_str("null");
    }

    /// Closes the object.
    pub fn close(self) {
        self.out.push('}');
    }
}

/// A parse failure: what went wrong and the byte offset it was noticed
/// at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Nesting bound for the recursive-descent parser — deep enough for any
/// document our exporters produce, shallow enough that hostile input
/// cannot overflow the stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
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
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes (valid UTF-8 passes through
            // unchanged — the input is a &str).
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("str input"));
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    s.push(self.escape()?);
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let c = self.peek().ok_or_else(|| self.err("truncated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xd800..0xdc00).contains(&hi) {
                    // Surrogate pair: a low surrogate must follow.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xdc00..0xe000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                    } else {
                        return Err(self.err("unpaired surrogate"));
                    }
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))?
            }
            _ => return Err(self.err("unknown escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("truncated \\u"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u"))?;
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("str input");
        if is_float {
            // JSON has no infinities: a literal too large for `f64` is
            // rejected rather than read as one (which would render back
            // as `null`, a different document).
            match text.parse::<f64>() {
                Ok(f) if f.is_finite() => Ok(Json::Float(f)),
                Ok(_) => Err(self.err("number out of range")),
                Err(_) => Err(self.err("malformed number")),
            }
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| self.err("malformed integer"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_identity_on_writer_documents() {
        let doc = Json::Obj(vec![
            ("version".into(), Json::Int(1)),
            (
                "names".into(),
                Json::Arr(vec!["a\"b\\c".into(), "tab\there".into()]),
            ),
            ("big".into(), Json::Int(u64::MAX as i128)),
            ("neg".into(), Json::Int(-42)),
            ("flag".into(), Json::Bool(true)),
            ("nothing".into(), Json::Null),
        ]);
        let rendered = doc.render();
        let parsed = parse(&rendered).expect("well-formed");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.render(), rendered, "parse∘render is the identity");
        assert_eq!(parsed.get("big").and_then(Json::as_u64), Some(u64::MAX));
    }

    #[test]
    fn parses_foreign_documents() {
        let v = parse(" { \"a\" : [ 1 , 2.5 , -3 ] , \"s\" : \"\\u00e9\\ud83d\\ude00\" } ")
            .expect("valid");
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("é😀"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "\"\\q\"",
            "1e999",
            "[-1.5e400]",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn rejects_hostile_nesting_without_overflow() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(2.5).render(), "2.5");
    }

    /// The escaper the bulk one replaced: one `char` at a time.
    fn reference_escape(s: &str) -> String {
        let mut out = String::from('"');
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
        out
    }

    #[test]
    fn escaper_matches_the_per_char_reference_on_every_class() {
        let cases = [
            "",
            "plain ascii",
            "\"",
            "\\",
            "\n",
            "\r",
            "\t",
            "\u{1}",
            "\u{1f}",
            "\u{7f}",
            "é",
            "😀",
            "a\"b\\c\nd\re\tf\u{1}g\u{1f}h\u{7f}iéj😀k",
            "\"\"\\\\\n\n",
            "trailing run after an escape\u{0}",
        ];
        for s in cases {
            let mut out = String::new();
            write_str(&mut out, s);
            assert_eq!(out, reference_escape(s), "{s:?}");
            assert_eq!(parse(&out), Ok(Json::Str(s.to_string())), "{s:?}");
        }
        let mut out = String::new();
        write_str(&mut out, "\u{1}\u{1f}\u{7f}");
        assert_eq!(out, "\"\\u0001\\u001f\u{7f}\"");
    }

    #[test]
    fn integers_write_like_fmt() {
        for n in [
            0i128,
            7,
            10,
            1 << 40,
            u64::MAX as i128,
            -1,
            i64::MIN as i128,
            u64::MAX as i128 + 1,
            i128::MIN,
            i128::MAX,
        ] {
            let mut out = String::new();
            write_int(&mut out, n);
            assert_eq!(out, n.to_string());
        }
    }

    #[test]
    fn accessors_are_type_strict() {
        let v = parse("{\"n\": 3}").unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("n").and_then(Json::as_str), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_i64(), Some(-1));
    }
}
