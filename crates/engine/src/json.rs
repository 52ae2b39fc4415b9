//! A tiny dependency-free JSON tree and the [`ToJson`] trait.
//!
//! The build environment has no registry access, so `serde` cannot be used;
//! this module is the machine-readable export path for suite results (the
//! `--json` reports of the `gam` CLI and `gam serve`). The emitted JSON is plain and stable: objects keep insertion
//! order, strings are escaped per RFC 8259.

use std::fmt;

use gam_axiomatic::Verdict;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (suite reports never need floats or negatives).
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn object<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds an array from values.
    #[must_use]
    pub fn array(values: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(values.into_iter().collect())
    }

    /// Parses a JSON document produced by this module (RFC 8259 with one
    /// restriction: numbers must be unsigned integers, which is all the
    /// suite reports and perf snapshots ever emit).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] with a byte offset on malformed input,
    /// trailing garbage, or an unsupported (negative/fractional) number.
    pub fn parse(input: &str) -> Result<Json, JsonParseError> {
        let mut parser = Parser { text: input, bytes: input.as_bytes(), offset: 0 };
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.offset != parser.bytes.len() {
            return Err(parser.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Looks up a field of an object (`None` for non-objects and missing
    /// keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value (`None` for other variants).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value (`None` for other variants).
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements (`None` for other variants).
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(values) => Some(values),
            _ => None,
        }
    }
}

/// A parse failure with the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// A minimal recursive-descent parser over the input bytes.
struct Parser<'a> {
    /// The original input (for O(1) char decoding at a known boundary).
    text: &'a str,
    bytes: &'a [u8],
    offset: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonParseError {
        JsonParseError { offset: self.offset, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.offset).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.offset += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.offset += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.offset..].starts_with(text.as_bytes()) {
            self.offset += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{text}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'0'..=b'9') => self.number(),
            Some(b'-') => Err(self.error("negative numbers are not part of the schema")),
            _ => Err(self.error("expected a value")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.offset;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.offset += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.error("fractional numbers are not part of the schema"));
        }
        let digits = std::str::from_utf8(&self.bytes[start..self.offset]).expect("digits");
        digits.parse::<u64>().map(Json::UInt).map_err(|_| self.error("integer overflows u64"))
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.offset += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.offset += 1;
                    let escape = self.peek().ok_or_else(|| self.error("unterminated escape"))?;
                    self.offset += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.unicode_escape_code()?;
                            let c = match code {
                                // A high surrogate must be followed by an
                                // escaped low surrogate (RFC 8259 §7); the
                                // pair decodes to one supplementary-plane
                                // scalar. External tools (herd wrappers,
                                // jq pipelines) emit these freely, so the
                                // frontend must accept them.
                                0xD800..=0xDBFF => {
                                    if self.peek() != Some(b'\\') {
                                        return Err(self.error("unpaired high surrogate"));
                                    }
                                    self.offset += 1;
                                    if self.peek() != Some(b'u') {
                                        return Err(self.error("unpaired high surrogate"));
                                    }
                                    self.offset += 1;
                                    let low = self.unicode_escape_code()?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(self.error(
                                            "high surrogate not followed by a low surrogate",
                                        ));
                                    }
                                    let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(scalar)
                                        .ok_or_else(|| self.error("invalid surrogate pair"))?
                                }
                                0xDC00..=0xDFFF => return Err(self.error("unpaired low surrogate")),
                                _ => char::from_u32(code).ok_or_else(|| {
                                    self.error("\\u escape is not a scalar value")
                                })?,
                            };
                            out.push(c);
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                Some(byte) if byte < 0x20 => return Err(self.error("raw control character")),
                Some(byte) if byte < 0x80 => {
                    out.push(byte as char);
                    self.offset += 1;
                }
                Some(_) => {
                    // Advance over one multi-byte UTF-8 scalar; `offset` is
                    // always a char boundary of the original `&str`, so the
                    // slice-and-decode is O(1).
                    let c = self.text[self.offset..].chars().next().expect("non-empty");
                    out.push(c);
                    self.offset += c.len_utf8();
                }
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape (the `\u` itself already
    /// consumed) and returns the code unit.
    fn unicode_escape_code(&mut self) -> Result<u32, JsonParseError> {
        let hex = self
            .bytes
            .get(self.offset..self.offset + 4)
            .and_then(|hex| std::str::from_utf8(hex).ok())
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        // `from_str_radix` alone would accept a leading '+'; require exactly
        // four hex digits.
        if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.error("invalid \\u escape"));
        }
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.offset += 4;
        Ok(code)
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut values = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.offset += 1;
            return Ok(Json::Array(values));
        }
        loop {
            self.skip_whitespace();
            values.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.offset += 1,
                Some(b']') => {
                    self.offset += 1;
                    return Ok(Json::Array(values));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.offset += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.offset += 1,
                Some(b'}') => {
                    self.offset += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
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

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::UInt(n)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
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

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(n) => write!(f, "{n}"),
            Json::Str(s) => write_escaped(f, s),
            Json::Array(values) => {
                f.write_str("[")?;
                for (i, value) in values.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{value}")?;
                }
                f.write_str("]")
            }
            Json::Object(pairs) => {
                f.write_str("{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Conversion into the JSON tree — the serialization hook of the engine's
/// report types (a hand-rolled stand-in for `serde::Serialize`, which is
/// unavailable in this offline build).
pub trait ToJson {
    /// Converts `self` into a [`Json`] value.
    fn to_json(&self) -> Json;
}

impl ToJson for Verdict {
    fn to_json(&self) -> Json {
        Json::from(self.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::from(true).to_string(), "true");
        assert_eq!(Json::from(42u64).to_string(), "42");
        assert_eq!(Json::from("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::from("a\"b\\c\nd").to_string(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(Json::from("\u{1}").to_string(), "\"\\u0001\"");
    }

    #[test]
    fn containers_render_in_order() {
        let json = Json::object([
            ("b", Json::from(1u64)),
            ("a", Json::array([Json::Null, Json::from(false)])),
        ]);
        assert_eq!(json.to_string(), "{\"b\":1,\"a\":[null,false]}");
    }

    #[test]
    fn verdicts_serialize() {
        assert_eq!(Verdict::Allowed.to_json().to_string(), "\"allowed\"");
        assert_eq!(Verdict::Forbidden.to_json().to_string(), "\"forbidden\"");
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let document = Json::object([
            ("schema", Json::from("gam-example/v1")),
            ("quick", Json::from(false)),
            ("count", Json::from(29u64)),
            ("none", Json::Null),
            (
                "rows",
                Json::array([
                    Json::object([("a\"b\n", Json::from(1u64))]),
                    Json::array([]),
                    Json::object([]),
                ]),
            ),
        ]);
        let rendered = document.to_string();
        assert_eq!(Json::parse(&rendered).unwrap(), document);
        // Whitespace-tolerant.
        let spaced = "{ \"a\" : [ 1 , 2 ] ,\n\t\"b\" : \"x\\u0041\" }";
        let parsed = Json::parse(spaced).unwrap();
        assert_eq!(parsed.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(parsed.get("b").unwrap().as_str(), Some("xA"));
        assert_eq!(parsed.get("a").unwrap().as_array().unwrap()[1].as_u64(), Some(2));
        assert_eq!(parsed.get("missing"), None);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for (input, needle) in [
            ("", "expected a value"),
            ("{\"a\":1", "expected ',' or '}'"),
            ("[1 2]", "expected ',' or ']'"),
            ("-4", "negative"),
            ("1.5", "fractional"),
            ("\"abc", "unterminated"),
            ("\"\\u+041\"", "invalid \\u escape"),
            ("nul", "expected 'null'"),
            ("{}1", "trailing"),
            ("99999999999999999999999", "overflows"),
        ] {
            let err = Json::parse(input).unwrap_err();
            assert!(err.to_string().contains(needle), "{input:?}: expected {needle:?} in {err}");
        }
    }

    #[test]
    fn parse_decodes_escaped_unicode_including_surrogate_pairs() {
        // BMP escapes, raw multi-byte UTF-8, and an astral-plane surrogate
        // pair (U+1D11E MUSICAL SYMBOL G CLEF) — the input classes a CLI
        // frontend sees from external JSON producers.
        assert_eq!(Json::parse("\"\\u0041\\u00e9\"").unwrap().as_str(), Some("Aé"));
        assert_eq!(Json::parse("\"caf\u{e9}\"").unwrap().as_str(), Some("café"));
        assert_eq!(Json::parse("\"\\uD834\\uDD1E\"").unwrap().as_str(), Some("\u{1D11E}"));
        assert_eq!(Json::parse("\"x\\uD83D\\uDE00y\"").unwrap().as_str(), Some("x\u{1F600}y"));
    }

    #[test]
    fn parse_rejects_malformed_unicode_escapes() {
        for (input, needle) in [
            ("\"\\uD834\"", "unpaired high surrogate"),
            ("\"\\uD834x\"", "unpaired high surrogate"),
            ("\"\\uD834\\n\"", "unpaired high surrogate"),
            ("\"\\uD834\\u0041\"", "not followed by a low surrogate"),
            ("\"\\uDC00\"", "unpaired low surrogate"),
            ("\"\\u12\"", "truncated"),
            ("\"\\u12g4\"", "invalid \\u escape"),
        ] {
            let err = Json::parse(input).unwrap_err();
            assert!(err.to_string().contains(needle), "{input:?}: {err}");
        }
    }

    #[test]
    fn parse_rejects_trailing_garbage_after_any_top_level_value() {
        // The frontend feeds untrusted CLI input through `parse`; a document
        // followed by junk must never silently truncate.
        for input in ["{} {}", "[1] 2", "\"a\" \"b\"", "1 1", "null,", "true[]", "{\"a\":1}x"] {
            let err = Json::parse(input).unwrap_err();
            assert!(err.to_string().contains("trailing"), "{input:?}: {err}");
        }
    }
}
