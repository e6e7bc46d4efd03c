//! A minimal JSON value parser for the fleet-observability artefacts
//! (run manifests, heartbeats, metrics snapshots).
//!
//! This crate sits below `mcsched-workload` in the dependency graph, so it
//! cannot reuse `mcsched_workload::json` and carries its own reader — the
//! mirror image of the writer in [`crate::export`]. Numbers keep their
//! source text ([`JsonValue::Number`] stores the literal token) so `u64`
//! metric values round-trip exactly even above 2⁵³, where an `f64`
//! intermediate would lose bits.

use std::collections::BTreeMap;

/// A parsed JSON value. Objects preserve key-sorted order through a
/// `BTreeMap` — the fleet artefacts are written key-sorted, and merging
/// them relies on deterministic iteration.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal source token (see module docs).
    Number(String),
    /// A string (escapes resolved).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object (key-sorted).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parses one JSON document (surrounding whitespace tolerated,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first syntax error, with its
    /// byte offset.
    pub fn parse(text: &str) -> Result<Self, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }

    /// The object field `key`, if this is an object that has it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if this is an unsigned integer number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The key-sorted fields, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(map) => Some(map),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", c as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(JsonValue::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected `{word}` at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let raw = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid utf-8".to_string())?;
    if raw.is_empty() || raw.parse::<f64>().is_err() {
        return Err(format!("malformed number `{raw}` at byte {start}"));
    }
    Ok(JsonValue::Number(raw.to_string()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("truncated \\u escape at byte {pos}"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("malformed \\u escape at byte {pos}"))?;
                        // Surrogate pairs are not produced by our writers;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("unknown escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x80 => {
                out.push(char::from(b));
                *pos += 1;
            }
            Some(&b) => {
                // Decode one multi-byte UTF-8 scalar from at most 4 bytes:
                // validating the whole remaining input here would make
                // parsing quadratic in the string length.
                let len = match b {
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    0xF0..=0xF7 => 4,
                    _ => return Err(format!("invalid utf-8 at byte {pos}")),
                };
                let c = bytes
                    .get(*pos..*pos + len)
                    .and_then(|s| std::str::from_utf8(s).ok())
                    .and_then(|s| s.chars().next())
                    .ok_or_else(|| format!("invalid utf-8 at byte {pos}"))?;
                out.push(c);
                *pos += len;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(map));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let v =
            JsonValue::parse("{\"a\": 1, \"b\": [true, null, -2.5e3], \"s\": \"x\\n\\\"y\\\"\"}")
                .unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        let b = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(b[0], JsonValue::Bool(true));
        assert_eq!(b[1], JsonValue::Null);
        assert_eq!(b[2].as_f64(), Some(-2500.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\n\"y\""));
    }

    #[test]
    fn large_u64_values_round_trip_exactly() {
        let raw = format!("{{\"v\": {}}}", u64::MAX);
        let v = JsonValue::parse(&raw).unwrap();
        assert_eq!(v.get("v").unwrap().as_u64(), Some(u64::MAX));
        // An f64 intermediate would have rounded this.
        assert_ne!(v.get("v").unwrap().as_f64().unwrap() as u64, u64::MAX - 1);
    }

    #[test]
    fn unicode_escapes_and_raw_utf8_parse() {
        let v = JsonValue::parse("\"caf\\u00e9 µ\"").unwrap();
        assert_eq!(v.as_str(), Some("café µ"));
    }

    #[test]
    fn long_multi_byte_strings_parse() {
        // Two-, three- and four-byte scalars, repeated far past any window a
        // bounded decoder could look at.
        let text = "µ€𝄞a".repeat(50_000);
        let v = JsonValue::parse(&format!("{{\"detail\": \"{text}\"}}")).unwrap();
        let parsed = v.get("detail").and_then(JsonValue::as_str).unwrap();
        assert_eq!(parsed.chars().count(), 200_000);
        assert_eq!(parsed, text);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("{\"a\":}").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("12 34").is_err());
        assert!(JsonValue::parse("\"open").is_err());
        assert!(JsonValue::parse("nul").is_err());
    }

    #[test]
    fn accessors_return_none_on_type_mismatch() {
        let v = JsonValue::parse("[1]").unwrap();
        assert!(v.get("x").is_none());
        assert!(v.as_str().is_none());
        assert!(v.as_object().is_none());
        assert_eq!(JsonValue::Bool(true).as_u64(), None);
        assert_eq!(JsonValue::parse("-3").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("-3").unwrap().as_f64(), Some(-3.0));
    }
}
