//! A minimal recursive-descent JSON *reader* (the writer half lives in
//! [`disc_obs::json`]; the container has no serde).
//!
//! Accepts exactly one JSON value per input — trailing non-whitespace is
//! an error, which is the right strictness for a newline-delimited
//! protocol where one line is one document. Numbers parse as `f64`
//! (everything the protocol carries is a row coordinate or an index that
//! fits one exactly); nesting depth is capped so a hostile client cannot
//! blow the stack with `[[[[…`.

use std::fmt;

/// Maximum nesting depth accepted by the parser; the top-level value is
/// at depth 0, so `[[1]]` reaches depth 2.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order (duplicates kept; lookups take
    /// the first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// First value under `key`, for objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, for strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, for numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, for numbers that
    /// hold one exactly.
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_f64()?;
        if n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= u32::MAX as f64 {
            Some(n as usize)
        } else {
            None
        }
    }

    /// The numeric payload as a `u64`, for numbers that hold one
    /// exactly. Bounded by f64's exact-integer range (2⁵³), which
    /// comfortably covers any generation a real store reaches.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= (1u64 << 53) as f64 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The element list, for arrays.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Why an input failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parse exactly one JSON document from `input`.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Combine a surrogate pair when one follows;
                            // otherwise reject lone surrogates.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            match ch {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume the whole run of plain bytes in one step, so
                    // a string costs O(its length), not O(length × rest
                    // of the line). The input is a `&str` and the run
                    // ends at an ASCII byte or at the end, so it is valid
                    // UTF-8 on its own.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    let s = std::str::from_utf8(&self.bytes[self.pos..run])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                    self.pos = run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        // Exactly four hex digits (`from_str_radix` would also take a
        // sign, as in `\u+041`).
        let mut hex = 0;
        for &b in &self.bytes[self.pos..end] {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid unicode escape"))?;
            hex = hex * 16 + digit;
        }
        self.pos = end;
        Ok(hex)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(parse(r#""hi""#).unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn nested_structures() {
        let v = parse(r#"{"op":"ingest","rows":[[1,2],["x",null]]}"#).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("ingest"));
        let rows = v.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].as_array().unwrap()[1].as_f64(), Some(2.0));
        assert_eq!(rows[1].as_array().unwrap()[0].as_str(), Some("x"));
        assert_eq!(rows[1].as_array().unwrap()[1], Json::Null);
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            parse(r#""a\"b\\c\nAé""#).unwrap(),
            Json::Str("a\"b\\c\nAé".into())
        );
        // Surrogate pair.
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("\u{1F600}".into()));
        assert!(parse(r#""\ud83d""#).is_err(), "lone surrogate");
        // Escapes and multi-byte scalars right next to runs of plain bytes.
        assert_eq!(
            parse(r#""ab\u00e9cé😀x\ud83d\ude00y\n\\z\"q\/é""#).unwrap(),
            Json::Str("abécé😀x\u{1F600}y\n\\z\"q/é".into())
        );
        for bad in [
            r#""\u+041""#,
            r#""\u00é""#,
            r#""\ud83d\u0041""#,
            r#""\u00"#,
            r#""abc"#,
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    /// A string costs O(its length): re-validating the rest of the line
    /// for every character would take hours on this 8 MiB line.
    #[test]
    fn multi_mib_string_parses_in_linear_time() {
        let piece = r"abcdé\u00e9fg\\";
        let line = format!(r#"{{"op":"x","s":"{}","n":1}}"#, piece.repeat(1 << 19));
        let doc = parse(&line).unwrap();
        let s = doc.get("s").and_then(Json::as_str).unwrap();
        assert_eq!(s, "abcdééfg\\".repeat(1 << 19));
        assert_eq!(doc.get("n").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(parse("1 2").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn malformed_inputs() {
        for bad in ["{", "[1,", r#"{"a"}"#, "nul", "+", "--1", "\u{1}"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(30) + &"]".repeat(30);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn usize_coercion() {
        assert_eq!(parse("7").unwrap().as_usize(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_usize(), None);
        assert_eq!(parse("-1").unwrap().as_usize(), None);
    }
}
