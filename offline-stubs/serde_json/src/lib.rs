//! Offline stand-in for `serde_json`, backed by the serde stub's [`Value`]
//! tree: a real (small) JSON parser and printer plus the typed entry points
//! the workspace uses. Floats print via Rust's shortest round-trip
//! formatting with a forced `.0` for integral values, so
//! parse(print(x)) == x always holds (the real crate's `float_roundtrip`
//! behavior for the values this workspace produces).

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// Parse or conversion failure.
#[derive(Debug, Clone)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error(e.0)
    }
}

pub type Result<T> = std::result::Result<T, Error>;

// ---- entry points -------------------------------------------------------

pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let value = parse_value(s)?;
    Ok(T::from_value(&value)?)
}

pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    serde::__print::write_value(&value.to_value(), &mut out, None, 0).map_err(Error)?;
    Ok(out)
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    serde::__print::write_value(&value.to_value(), &mut out, Some(2), 0).map_err(Error)?;
    Ok(out)
}

/// Infallible tree conversion (the workspace relies on the direct `Value`
/// return, not real serde_json's `Result`).
pub fn to_value<T: Serialize>(value: T) -> Value {
    value.to_value()
}

#[macro_export]
macro_rules! json {
    ({ $($key:tt : $val:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( ($key.to_string(), $crate::to_value(&$val)) ),*
        ])
    };
    ([ $($val:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::to_value(&$val) ),* ])
    };
    (null) => { $crate::Value::Null };
    ($other:expr) => { $crate::to_value(&$other) };
}

// ---- parser -------------------------------------------------------------

/// Nesting levels of arrays and objects the parser descends into before it
/// refuses the input (the registry crate's limit). The parser is recursive
/// descent, so without a cap a body of `[[[[…` overflows the thread stack
/// and aborts the process.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

fn parse_value(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(Error(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => {
                    return Err(Error(format!(
                        "expected `,` or `}}` in object, found {:?} at byte {}",
                        other.map(|c| c as char),
                        self.pos
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error(format!(
                        "expected `,` or `]` in array, found {:?} at byte {}",
                        other.map(|c| c as char),
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(Error("unterminated string".to_string()));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(Error("unterminated escape".to_string()));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error("truncated \\u escape".to_string()))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error("invalid \\u escape".to_string()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error("invalid \\u escape".to_string()))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by this
                            // workspace's payloads; reject rather than
                            // silently mangle.
                            let c = char::from_u32(code)
                                .ok_or_else(|| Error("unsupported \\u surrogate".to_string()))?;
                            out.push(c);
                        }
                        other => {
                            return Err(Error(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Re-sync to char boundary for multi-byte UTF-8.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| Error("truncated UTF-8".to_string()))?;
                    let s = std::str::from_utf8(chunk)
                        .map_err(|_| Error("invalid UTF-8 in string".to_string()))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".to_string()))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error(format!("invalid number `{text}`")))
    }
}

#[inline]
fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        let v = json!({
            "a": 1u64,
            "b": -3i64,
            "c": 2.0f64,
            "d": "hi \"there\"\n",
            "e": vec![1u32, 2, 3],
            "f": true,
        });
        let s = to_string(&v).unwrap();
        let back: Value = from_str(&s).unwrap();
        // U64/F64 distinction survives because 2.0 prints as "2.0".
        assert_eq!(back["a"], 1);
        assert_eq!(back["c"], 2.0);
        assert!(matches!(back["c"], Value::F64(_)));
        assert_eq!(back["d"], "hi \"there\"\n");
        assert_eq!(back, v);
    }

    #[test]
    fn float_shortest_repr_round_trips() {
        for &x in &[0.1, 1e-9, 123456.789, f64::MAX, 5e-324, -0.0, 376e-6] {
            let s = to_string(&x).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {s}");
        }
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("nul").is_err());
        assert!(from_str::<Value>("{\"a\" 1}").is_err());
        assert!(from_str::<Value>("\"\\q\"").is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        let err = from_str::<Value>(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        // Unterminated and far past the cap: an error, not a stack overflow.
        assert!(from_str::<Value>(&"{\"a\":[".repeat(100_000)).is_err());
    }

    #[test]
    fn pretty_print_has_indentation() {
        let v = json!({ "x": 1u32 });
        let p = to_string_pretty(&v).unwrap();
        assert!(p.contains("\n  \"x\": 1\n"));
    }
}
