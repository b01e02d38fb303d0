//! The workspace's one JSON codec: a value model, a writer, typed field
//! readers, and a recursive-descent parser.
//!
//! Everything that crosses a process boundary as JSON goes through this
//! module — the serve/dist wire frames (`dqec_serve::protocol`), the
//! sweep state files (`dqec_sweep::checkpoint`, which re-exports the
//! module as `dqec_sweep::json`) and the `--json` record stream
//! ([`crate::record::JsonSink`]). It lives here because `dqec_chiplet`
//! is the lowest crate that writes JSON; only the zero-dependency
//! `dqec_obs` exporters sit below it and keep their own writer.
//!
//! The subset implemented is what those formats need: objects, arrays,
//! strings with standard escapes, finite numbers, booleans, and null.
//! There is one string escaper ([`Quoted`]) and one float rule
//! ([`Float`]); both are `Display` adapters so write-only callers can
//! drop them into a `format!` template.

use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (JSON has one number type).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// Integers are numbers; exact below 2⁵³, like everything read back
/// through [`Json::as_int`].
macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v as f64)
            }
        }
    )*};
}
json_from_int!(i32, i64, u32, u64, usize);

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// A vector is an array.
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// An optional field: absent and `null` are both `None`.
    pub fn opt(&self, key: &str) -> Option<&Json> {
        self.get(key).filter(|v| **v != Json::Null)
    }

    /// The value as a finite `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an integer of type `T`: integral, exact (at most
    /// 2⁵³ in magnitude) and within `T`'s range — never rounded,
    /// truncated or wrapped.
    pub fn as_int<T: TryFrom<i64>>(&self) -> Option<T> {
        match self {
            Json::Num(v) if v.fract() == 0.0 && v.abs() <= 2f64.powi(53) => {
                T::try_from(*v as i64).ok()
            }
            _ => None,
        }
    }

    /// The value as a non-negative integer (exact below 2⁵³).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_int()
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// A required non-negative integer field, narrowed to `T`; the error
    /// is `missing or non-integer field "key"`, or `key out of range`
    /// when the value does not fit `T`.
    pub fn uint_field<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        let v = self
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing or non-integer field {key:?}"))?;
        T::try_from(v).map_err(|_| format!("{key} out of range"))
    }

    /// A required numeric field, or `missing or non-numeric field "key"`.
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
    }

    /// A required string field, or `missing string field "key"`.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing string field {key:?}"))
    }

    /// A required array field, or `missing array field "key"`.
    pub fn arr_field(&self, key: &str) -> Result<&[Json], String> {
        self.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing array field {key:?}"))
    }

    /// Renders this value as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                // Integers print without a fraction so counts and
                // cursors read back exactly.
                let _ = if v.fract() == 0.0 && v.abs() <= 2f64.powi(53) {
                    write!(out, "{}", *v as i64)
                } else {
                    write!(out, "{}", Float(*v))
                };
            }
            Json::Str(s) => {
                let _ = escape(s, out);
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = escape(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// The string escaper: displays as a quoted, escaped JSON string
/// literal.
#[derive(Debug, Clone, Copy)]
pub struct Quoted<'a>(pub &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        escape(self.0, f)
    }
}

/// Writes `s` as a quoted, escaped string literal — the one escaper.
fn escape(s: &str, out: &mut impl fmt::Write) -> fmt::Result {
    out.write_char('"')?;
    // Every byte that needs an escape is ASCII, so the runs between
    // them are whole UTF-8 slices and go out unexamined.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.write_str(&s[run..i])?;
        run = i + 1;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// The float rule: a finite value displays as `{:?}` (round-trips
/// exactly and always carries a decimal point or exponent), anything
/// else as `null` — JSON has no token for NaN or infinity.
#[derive(Debug, Clone, Copy)]
pub struct Float(pub f64);

impl fmt::Display for Float {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{:?}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(value)
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level and its input crosses process boundaries (request
/// lines, shard frames, checkpoint files), so without a cap a line of
/// `[` overflows the stack and aborts the process. Checkpoints and wire
/// frames nest at most 4 deep.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    /// Parses one array or object with the nesting depth accounted.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by the
                            // checkpoint format; reject them loudly.
                            out.push(
                                char::from_u32(code)
                                    .ok_or(format!("unsupported \\u{hex} escape"))?,
                            );
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character (multi-byte safe).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid UTF-8")?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("non-ascii number at byte {start}"))?;
        let v: f64 = text
            .parse()
            .map_err(|_| format!("bad number {text:?} at byte {start}"))?;
        if !v.is_finite() {
            return Err(format!("non-finite number {text:?}"));
        }
        Ok(Json::Num(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_checkpoint_shaped_documents() {
        let doc = Json::Obj(vec![
            ("version".into(), Json::Num(1.0)),
            ("fingerprint".into(), Json::Str("0xdeadbeef".into())),
            ("precision".into(), Json::Null),
            (
                "points".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("series".into(), Json::Str("d=3 \"q\"\n".into())),
                    ("p".into(), Json::Num(0.003)),
                    ("shots".into(), Json::Num(8192.0)),
                    ("ok".into(), Json::Bool(true)),
                ])]),
            ),
        ]);
        let text = doc.render();
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(parsed.get("version").unwrap().as_u64(), Some(1));
        let pt = &parsed.get("points").unwrap().as_arr().unwrap()[0];
        assert_eq!(pt.get("p").unwrap().as_f64(), Some(0.003));
        assert_eq!(pt.get("shots").unwrap().as_u64(), Some(8192));
        assert_eq!(pt.get("series").unwrap().as_str(), Some("d=3 \"q\"\n"));
    }

    #[test]
    fn parses_whitespace_and_nested_structures() {
        let parsed = parse(" { \"a\" : [ 1 , -2.5e-3 , [ ] , { } , null ] } ").unwrap();
        let arr = parsed.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-2.5e-3));
        assert_eq!(arr[2], Json::Arr(vec![]));
        assert_eq!(arr[3], Json::Obj(vec![]));
        assert_eq!(arr[4], Json::Null);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "\"unterminated",
            "tru",
            "1 2",
            "{\"a\":1}extra",
            "[1e999]",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // Hostile nesting is an error at the cap, not a stack overflow.
        for bad in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let err = parse(&bad).unwrap_err();
            assert!(err.contains("nesting deeper than 64 at byte"), "{err}");
        }
        let deepest = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&deepest).is_ok(), "the cap itself must parse");
    }

    #[test]
    fn large_exact_integers_round_trip() {
        // Batch cursors and shot counts stay far below 2^53; verify
        // exactness at that scale.
        let n = (1u64 << 53) - 1;
        let text = Json::Num(n as f64).render();
        assert_eq!(parse(&text).unwrap().as_u64(), Some(n));
    }
}
