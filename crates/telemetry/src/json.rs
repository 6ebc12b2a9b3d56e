//! A minimal self-contained JSON encoder/parser: snapshot lines here, and
//! the `BENCH_results.json` documents `rum_bench`'s validator reads.
//!
//! crates.io is unreachable from the build environment, so — like the
//! `crates/shims` stand-ins — the wire format is hand-rolled.  The encoder
//! side covers what `{"counters":{..},"gauges":{..},"histograms":{..}}`
//! lines need; the parser accepts any JSON document.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An integer (no fraction or exponent in the source text).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The value as an `i64`, truncating floats.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::Float(f) => Some(*f as i64),
            _ => None,
        }
    }

    /// The value as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }
}

/// Appends `s` to `out` as a JSON string literal.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `f` in a JSON-compatible spelling (finite decimal, never
/// `NaN`/`inf`, which JSON cannot represent).
pub fn write_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        let s = format!("{f}");
        out.push_str(&s);
        // `{}` on a whole f64 prints no decimal point; keep it a float so
        // the round-trip preserves the variant.
        if !s.contains('.') && !s.contains('e') {
            out.push_str(".0");
        }
    } else {
        out.push('0');
    }
}

/// Parses a complete JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => Err(format!(
                "expected '{}' at byte {}, found '{}'",
                b as char,
                self.pos - 1,
                got as char
            )),
            None => Err(format!("expected '{}', found end of input", b as char)),
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected '{}' at byte {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("expected '{lit}' at byte {}", self.pos))
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Arr(items)),
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos - 1)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Obj(map)),
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos - 1)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|b| (b as char).to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err("bad escape in string".into()),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-decode a multi-byte UTF-8 sequence from the source.
                    let start = self.pos - 1;
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.bytes.len());
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "bad UTF-8 in string".to_string())?;
                    out.push_str(chunk);
                    self.pos = end;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| format!("bad number '{text}': {e}"))
        } else {
            // An integer too wide for `i64` still parses, as a float.
            text.parse::<i64>()
                .map(Value::Int)
                .or_else(|_| text.parse::<f64>().map(Value::Float))
                .map_err(|e| format!("bad number '{text}': {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_objects_and_numbers() {
        let v = parse(r#"{"a":{"b":1,"c":-2},"d":3.5,"e":"hi"}"#).unwrap();
        let obj = v.as_obj().unwrap();
        let a = obj["a"].as_obj().unwrap();
        assert_eq!(a["b"], Value::Int(1));
        assert_eq!(a["c"], Value::Int(-2));
        assert_eq!(obj["d"], Value::Float(3.5));
        assert_eq!(obj["e"], Value::Str("hi".into()));
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut out = String::new();
        write_string(&mut out, "a\"b\\c\nd\te");
        let v = parse(&format!("{{{out}:1}}")).unwrap();
        assert!(v.as_obj().unwrap().contains_key("a\"b\\c\nd\te"));
    }

    #[test]
    fn parses_arrays_booleans_and_null() {
        let v = parse(r#"{"rows":[{"ok":true,"p99":null},{"ok":false}],"none":[]}"#).unwrap();
        let obj = v.as_obj().unwrap();
        let Value::Arr(rows) = &obj["rows"] else {
            panic!("rows: {:?}", obj["rows"]);
        };
        assert_eq!(rows[0].as_obj().unwrap()["ok"], Value::Bool(true));
        assert_eq!(rows[0].as_obj().unwrap()["p99"], Value::Null);
        assert_eq!(rows[1].as_obj().unwrap()["ok"], Value::Bool(false));
        assert_eq!(obj["none"], Value::Arr(Vec::new()));
        assert!(parse("[1,]").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("nul").is_err());
        assert_eq!(
            parse("18446744073709551616").unwrap().as_f64(),
            Some(2f64.powi(64))
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse(r#"{"a"}"#).is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn whole_floats_keep_their_point() {
        let mut out = String::new();
        write_f64(&mut out, 4.0);
        assert_eq!(out, "4.0");
        assert_eq!(parse("4.0").unwrap(), Value::Float(4.0));
    }
}
