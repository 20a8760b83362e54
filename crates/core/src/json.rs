//! The workspace's one JSON implementation: a value type, an RFC 8259
//! parser with a nesting limit, the string escaper, and the `f64`
//! formatter.
//!
//! Every JSON document the workspace writes or reads goes through here:
//! the telemetry WAL and its worker shards, chain traces, the job journal,
//! the `/jobs` and `/progress` wire replies, bench snapshots, Chrome trace
//! exports and the [`metrics`](crate::metrics) snapshot. Writers build
//! their lines with `format!` and the two leaf helpers [`escape`] and
//! [`float`]; readers parse with [`Json::parse`] and pull typed fields
//! with the `*_field` accessors. (The workspace builds with no registry
//! access, so there is no serde.)
//!
//! Numbers keep their source lexeme, so `u64` seeds above 2^53 round-trip
//! exactly, and an `f64` written by [`float`] (Rust's shortest-repr
//! `Display`) parses back to the same bits.

use std::str::FromStr;

/// The deepest array/object nesting [`Json::parse`] accepts. The deepest
/// document the workspace writes nests 5 levels (`GET /jobs/:id` for a job
/// with an inline netlist); the limit keeps a hostile body of brackets
/// from exhausting the parser's stack.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Numbers keep their source lexeme so `u64` seeds
/// round-trip without `f64` precision loss and `f64` values round-trip
/// bitwise.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as its source lexeme.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion order preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON value; trailing garbage is an error, and so is
    /// nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
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

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(lexeme) => f64::from_str(lexeme).ok(),
            _ => None,
        }
    }

    /// The number as `u64` (exact, no float round-trip), with an error
    /// naming the problem otherwise.
    pub fn as_u64_checked(&self) -> Result<u64, String> {
        match self {
            Json::Num(lexeme) => u64::from_str(lexeme)
                .map_err(|_| format!("number `{lexeme}` is not an unsigned integer")),
            _ => Err("value is not a number".to_string()),
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields in insertion order, if this is an object. Strict parsers
    /// (the job-spec parser) walk this to reject unknown keys instead of
    /// silently ignoring a client's typo.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// A required object field.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// A required string field.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| format!("field `{key}` is not a string"))
    }

    /// A required unsigned integer field, read exactly.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.field(key)?
            .as_u64_checked()
            .map_err(|e| format!("field `{key}`: {e}"))
    }

    /// An unsigned integer field that older schema versions did not write:
    /// absent reads as `default`.
    pub fn u64_field_or(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(_) => self.u64_field(key),
        }
    }

    /// A required float field; `null` reads as NaN, because [`float`]
    /// writes non-finite values as `null`.
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        match self.field(key)? {
            Json::Null => Ok(f64::NAN),
            other => other
                .as_f64()
                .ok_or_else(|| format!("field `{key}` is not a number")),
        }
    }

    /// [`f64_field`](Self::f64_field) for fields older schema versions did
    /// not write: absent reads as NaN ("no data").
    pub fn f64_field_or_nan(&self, key: &str) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(f64::NAN),
            Some(_) => self.f64_field(key),
        }
    }

    /// A required array field.
    pub fn arr_field(&self, key: &str) -> Result<&[Json], String> {
        self.field(key)?
            .as_arr()
            .ok_or_else(|| format!("field `{key}` is not an array"))
    }
}

/// Escapes `s` for the inside of a JSON string literal: `"` and `\`
/// backslashed, newline, carriage return and tab in their short `\n \r \t`
/// form, every other control character as `\u00XX`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// An `f64` as a JSON number in its shortest round-tripping form. JSON has
/// no NaN or infinity, so those become `null`.
pub fn float(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
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
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote,
            // backslash or control byte. Those are all ASCII, so both ends
            // of the run sit on char boundaries of the input.
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => {
                    return Err(format!(
                        "unescaped control character in string at byte {}",
                        self.pos
                    ))
                }
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, String> {
        let esc = self.peek().ok_or("unterminated escape")?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let hex = self
                    .bytes
                    .get(self.pos..self.pos + 4)
                    .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                    .ok_or_else(|| format!("`\\u` needs four hex digits at byte {}", self.pos))?;
                // Four ASCII hex digits, so the `&str` slice is in bounds
                // and on char boundaries.
                let code = u32::from_str_radix(&self.text[self.pos..self.pos + hex.len()], 16)
                    .expect("four hex digits");
                self.pos += 4;
                // The escaper only emits \u for control characters (< 0x20);
                // surrogate pairs are not produced and not supported.
                char::from_u32(code).ok_or_else(|| format!("invalid \\u code point {code:#x}"))?
            }
            other => return Err(format!("bad escape `\\{}`", other as char)),
        })
    }

    /// Consumes a run of ASCII digits, returning how many there were.
    fn digit_run(&mut self) -> usize {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Scans one number by the JSON grammar — `-? (0 | [1-9] digits*)
    /// (. digits)? ([eE] [+-]? digits)?` — stopping at the first byte that
    /// cannot continue it. Malformed tokens like `1e+`, `--5`, `007` or a
    /// bare `-` fail here with a positioned message; a token like `1-2`
    /// stops after `1` and the `-` is rejected by the caller as trailing
    /// input.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        match self.digit_run() {
            0 => return Err(format!("expected digit in number at byte {}", self.pos)),
            1 => {}
            _ if self.bytes[int_start] == b'0' => {
                return Err(format!("leading zero in number at byte {int_start}"))
            }
            _ => {}
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digit_run() == 0 {
                return Err(format!(
                    "expected digit after `.` in number at byte {}",
                    self.pos
                ));
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            if self.digit_run() == 0 {
                return Err(format!("expected digit in exponent at byte {}", self.pos));
            }
        }
        Ok(Json::Num(self.text[start..self.pos].to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn parser_handles_the_basics() {
        let v = Json::parse(r#"{"a":1,"b":[true,null,"x\n\"y"],"c":{"d":-2.5e3}}"#).unwrap();
        assert_eq!(v.u64_field("a").unwrap(), 1);
        let arr = v.arr_field("b").unwrap();
        assert_eq!(arr[0], Json::Bool(true));
        assert_eq!(arr[1], Json::Null);
        assert_eq!(arr[2].as_str().unwrap(), "x\n\"y");
        assert_eq!(v.field("c").unwrap().f64_field("d").unwrap(), -2500.0);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn u64_seeds_round_trip_exactly() {
        let big = u64::MAX - 3;
        let v = Json::parse(&format!("{{\"seed\":{big}}}")).unwrap();
        assert_eq!(v.u64_field("seed").unwrap(), big);
    }

    #[test]
    fn field_accessors_name_the_key_and_read_defaults() {
        let v = Json::parse(r#"{"n":null,"s":"x","u":-1,"f":1.5}"#).unwrap();
        assert!(v.f64_field("n").unwrap().is_nan(), "null reads as NaN");
        assert!(v.f64_field_or_nan("absent").unwrap().is_nan());
        assert_eq!(v.f64_field_or_nan("f").unwrap(), 1.5);
        assert_eq!(v.u64_field_or("absent", 7).unwrap(), 7);
        assert!(v.u64_field_or("u", 7).unwrap_err().contains("`u`"));
        assert!(v
            .f64_field("missing")
            .unwrap_err()
            .contains("missing field"));
        assert!(v.str_field("f").unwrap_err().contains("not a string"));
        assert!(v.arr_field("s").unwrap_err().contains("not an array"));
        assert_eq!(v.str_field("s").unwrap(), "x");
    }

    #[test]
    fn number_scanner_rejects_malformed_tokens_with_position() {
        for (text, expect) in [
            ("{\"a\":1e+}", "exponent"),
            ("{\"a\":-}", "digit in number"),
            ("{\"a\":1e}", "exponent"),
            ("{\"a\":--5}", "digit in number"),
            ("{\"a\":1.}", "digit after `.`"),
        ] {
            let err = Json::parse(text).unwrap_err();
            assert!(err.contains(expect), "`{text}` → `{err}`");
            assert!(err.contains("byte"), "`{text}` error is positioned: {err}");
        }
        // Grammar stops after a complete number; what follows is rejected
        // by the caller with its own position.
        let err = Json::parse("{\"a\":1.2.3}").unwrap_err();
        assert!(err.contains("byte 8"), "{err}");
        let err = Json::parse("{\"a\":1-2}").unwrap_err();
        assert!(err.contains("byte 6"), "{err}");
        // Healthy lexemes still parse, including negative exponents.
        let v = Json::parse("{\"a\":-2.5e-3}").unwrap();
        assert_eq!(v.f64_field("a").unwrap(), -0.0025);
    }

    #[test]
    fn numbers_with_leading_zeros_are_rejected() {
        for text in ["{\"seed\":007}", "00", "-01", "01.5", "00e1"] {
            let err = Json::parse(text).unwrap_err();
            assert!(err.contains("leading zero"), "`{text}` → `{err}`");
        }
        for (text, value) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("0.5", 0.5),
            ("0e3", 0.0),
            ("10", 10.0),
        ] {
            assert_eq!(Json::parse(text).unwrap().as_f64(), Some(value), "{text}");
        }
    }

    #[test]
    fn unicode_escapes_need_exactly_four_hex_digits() {
        for text in [
            r#""gola\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u41""#,
            r#""\u004g""#,
        ] {
            let err = Json::parse(text).unwrap_err();
            assert!(err.contains("four hex digits"), "`{text}` → `{err}`");
        }
        assert_eq!(Json::parse(r#""golaA""#).unwrap().as_str(), Some("golaA"));
        assert_eq!(Json::parse(r#""éé""#).unwrap().as_str(), Some("éé"));
    }

    #[test]
    fn raw_control_characters_in_strings_are_rejected() {
        let err = Json::parse("\"a\nb\"").unwrap_err();
        assert!(err.contains("control character"), "{err}");
        assert_eq!(
            Json::parse("\"a\u{7f}é\"").unwrap().as_str(),
            Some("a\u{7f}é")
        );
    }

    #[test]
    fn nesting_is_limited() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
        // Far deeper than any stack could recurse: rejected, not a crash.
        let err = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).unwrap_err().contains("nesting"));
    }

    #[test]
    fn escaper_uses_the_short_forms() {
        assert_eq!(
            escape("a\"b\\c\nd\re\tf\u{1}g"),
            "a\\\"b\\\\c\\nd\\re\\tf\\u0001g"
        );
        assert_eq!(escape("é/"), "é/");
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(float(f64::NAN), "null");
        assert_eq!(float(f64::INFINITY), "null");
        assert_eq!(float(f64::NEG_INFINITY), "null");
        assert_eq!(float(2.5), "2.5");
        assert_eq!(float(6.0), "6");
    }

    /// Writes a value back out with the module's own leaf writers.
    fn render(v: &Json) -> String {
        match v {
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Num(lexeme) => lexeme.clone(),
            Json::Str(s) => format!("\"{}\"", escape(s)),
            Json::Arr(items) => {
                let items: Vec<String> = items.iter().map(render).collect();
                format!("[{}]", items.join(","))
            }
            Json::Obj(fields) => {
                let fields: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{}", escape(k), render(v)))
                    .collect();
                format!("{{{}}}", fields.join(","))
            }
        }
    }

    fn random_string(rng: &mut StdRng) -> String {
        let len = rng.random_range(0..12usize);
        (0..len)
            .map(|_| match rng.random_range(0..4u32) {
                0 => char::from(rng.random_range(0..0x20u8)),
                1 => ['"', '\\', '/', 'é', '€', '😀'][rng.random_range(0..6usize)],
                _ => char::from(rng.random_range(0x20..0x80u8)),
            })
            .collect()
    }

    /// A random value tree whose numbers are written the way the workspace
    /// writes them: `u64` by `Display`, `f64` by [`float`].
    fn random_value(rng: &mut StdRng, depth: usize) -> Json {
        let leaf = depth >= 4 || rng.random_range(0..3u32) == 0;
        match rng.random_range(0..if leaf { 5u32 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.random()),
            2 => Json::Num(rng.random::<u64>().to_string()),
            3 => match f64::from_bits(rng.random::<u64>()) {
                // A non-finite float is written, and so reads back, as null.
                x if x.is_finite() => Json::Num(float(x)),
                _ => Json::Null,
            },
            4 => Json::Str(random_string(rng)),
            5 => Json::Arr(
                (0..rng.random_range(0..4usize))
                    .map(|_| random_value(rng, depth + 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.random_range(0..4usize))
                    .map(|_| (random_string(rng), random_value(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// value → text → value is the identity.
        #[test]
        fn values_round_trip_through_text(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let value = random_value(&mut rng, 0);
            let text = render(&value);
            prop_assert_eq!(Json::parse(&text), Ok(value), "{}", text);
        }

        /// Seeds above 2^53 and every f64 bit pattern survive exactly.
        #[test]
        fn u64_and_f64_bits_round_trip(seed in any::<u64>(), bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            let text = format!("{{\"seed\":{seed},\"x\":{}}}", float(x));
            let v = Json::parse(&text).unwrap();
            prop_assert_eq!(v.u64_field("seed"), Ok(seed));
            let back = v.f64_field("x").unwrap();
            if x.is_finite() {
                prop_assert_eq!(back.to_bits(), bits);
            } else {
                prop_assert!(back.is_nan(), "non-finite reads back as NaN: {}", text);
            }
        }

        /// Every char below 0x80 round-trips through the escaper and the
        /// parser, alone and in a run of all of them.
        #[test]
        fn ascii_round_trips_through_escape(c in 0u8..0x80, rot in 0usize..0x80) {
            let one = char::from(c).to_string();
            let parsed = Json::parse(&format!("\"{}\"", escape(&one))).unwrap();
            prop_assert_eq!(parsed.as_str(), Some(one.as_str()));
            let all: String = (0..0x80u8).map(|b| char::from(((b as usize + rot) % 0x80) as u8)).collect();
            let parsed = Json::parse(&format!("\"{}\"", escape(&all))).unwrap();
            prop_assert_eq!(parsed.as_str(), Some(all.as_str()));
        }
    }
}
