//! Zero-dependency JSON for the result cache.
//!
//! The offline build environment cannot fetch serde, so the workspace
//! carries its own small JSON layer: a [`Value`] model, a recursive-descent
//! parser ([`parse`]), a pretty-printer, and [`ToJson`]/[`FromJson`]
//! conversion traits with impls for the primitive and container types the
//! cache actually stores. Domain types (search histories, result rows)
//! implement the traits by hand — field-name keyed objects, so the on-disk
//! format matches what serde_json used to produce.

#![warn(missing_docs)]

pub mod wire;

use std::fmt::Write as _;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Render with two-space indentation and a trailing newline.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Render on a single line with no insignificant whitespace. Suitable
    /// for newline-delimited framing: the output never contains `\n`
    /// (strings escape control characters).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Strict wire form: [`to_string_compact`](Self::to_string_compact),
    /// but any non-finite number anywhere in the document is an error
    /// instead of being silently flattened to `null`. Use this for every
    /// frame that crosses a protocol boundary — on-disk caches tolerate
    /// the `null`↔NaN round-trip, a wire peer must not.
    pub fn to_wire(&self) -> Result<String, String> {
        self.check_finite("$")?;
        Ok(self.to_string_compact())
    }

    fn check_finite(&self, at: &str) -> Result<(), String> {
        match self {
            Value::Num(n) if !n.is_finite() => {
                Err(format!("non-finite number {n} at {at}"))
            }
            Value::Arr(items) => {
                for (i, item) in items.iter().enumerate() {
                    item.check_finite(&format!("{at}[{i}]"))?;
                }
                Ok(())
            }
            Value::Obj(fields) => {
                for (k, v) in fields {
                    v.check_finite(&format!("{at}.{k}"))?;
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_num(out, *n),
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_num(out, *n),
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
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
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Value::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; null round-trips to NaN on read. Wire
        // serialisation rejects this case up front (`Value::to_wire`).
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.0e15 && !(n == 0.0 && n.is_sign_negative()) {
        // Integer fast path. `-0.0` is excluded: `-0.0 as i64` is `0`,
        // which would silently drop the sign bit on a round trip.
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

// ------------------------------------------------------------------------
// Strict parse mode
// ------------------------------------------------------------------------

std::thread_local! {
    static STRICT_PARSE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Run `f` with strict number decoding on this thread: a `null` where a
/// float is expected is a shape mismatch (`None`) instead of decoding as
/// NaN. `Option<f32>`-style nullable fields still decode `null` as `None`
/// — strictness only affects bare float positions. The previous mode is
/// restored on exit (nesting is safe).
pub fn with_strict<T>(f: impl FnOnce() -> T) -> T {
    let prev = STRICT_PARSE.with(|s| s.replace(true));
    let out = f();
    STRICT_PARSE.with(|s| s.set(prev));
    out
}

/// Whether [`with_strict`] is active on this thread.
pub fn strict_parse() -> bool {
    STRICT_PARSE.with(|s| s.get())
}

/// Write `s` as a JSON string literal. Copies each run of characters that
/// need no escape in one go: journal payloads are megabytes and are
/// escaped again when wrapped in their checksummed envelope.
fn write_escaped(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run_start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `i` indexes an ASCII byte, so both slice ends are char boundaries.
        out.push_str(&s[run_start..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run_start = i + 1;
    }
    out.push_str(&s[run_start..]);
    out.push('"');
}

// ------------------------------------------------------------------------
// Parser
// ------------------------------------------------------------------------

/// Parse a JSON document. Returns a byte-offset-tagged message on error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
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
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
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
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not needed for cache data;
                            // map unpaired surrogates to U+FFFD.
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

// ------------------------------------------------------------------------
// Conversion traits
// ------------------------------------------------------------------------

/// Types that can render themselves as a [`Value`].
pub trait ToJson {
    /// Convert to a JSON value.
    fn to_json(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`].
pub trait FromJson: Sized {
    /// Convert from a JSON value; `None` on shape mismatch.
    fn from_json(v: &Value) -> Option<Self>;
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_json(v: &Value) -> Option<Self> {
        Some(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Option<Self> {
        match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Option<Self> {
        v.as_str().map(|s| s.to_string())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Value {
        Value::Str((*self).to_string())
    }
}

macro_rules! float_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Option<Self> {
                match v {
                    Value::Num(n) => Some(*n as $t),
                    // Non-finite floats are serialised as null by the
                    // lenient cache writer; in strict (wire) mode that is
                    // a shape mismatch instead.
                    Value::Null if !strict_parse() => Some(<$t>::NAN),
                    _ => None,
                }
            }
        }
    )*};
}

float_json!(f32, f64);

macro_rules! int_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Option<Self> {
                let n = v.as_f64()?;
                if n.fract() != 0.0 {
                    return None;
                }
                <$t>::try_from(n as i64).ok()
            }
        }
    )*};
}

int_json!(usize, u64, u32, u8, i64, i32);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Option<Self> {
        v.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(t) => t.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Option<Self> {
        match v {
            Value::Null => Some(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for &T {
    fn to_json(&self) -> Value {
        (*self).to_json()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

macro_rules! tuple_json {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn to_json(&self) -> Value {
                Value::Arr(vec![$(self.$idx.to_json()),+])
            }
        }
        impl<$($name: FromJson),+> FromJson for ($($name,)+) {
            fn from_json(v: &Value) -> Option<Self> {
                let items = v.as_arr()?;
                let expected = [$(stringify!($idx)),+].len();
                if items.len() != expected {
                    return None;
                }
                Some(($($name::from_json(&items[$idx])?,)+))
            }
        }
    )+};
}

tuple_json!(
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
);

/// Build an object value from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Pull a typed field out of an object.
pub fn field<T: FromJson>(v: &Value, key: &str) -> Option<T> {
    T::from_json(v.get(key)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" false ").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Num(42.0));
        assert_eq!(parse("-1.5e3").unwrap(), Value::Num(-1500.0));
        assert_eq!(parse("\"hi\\n\\\"there\\\"\"").unwrap(), Value::Str("hi\n\"there\"".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(field::<Vec<Value>>(&v, "a").unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn pretty_output_reparses() {
        let v = obj(vec![
            ("name", "täst \"quoted\"\n".to_json()),
            ("nums", vec![1.5f32, -2.0, 0.25].to_json()),
            ("ints", vec![0usize, 7, 123456].to_json()),
            ("none", (None as Option<u32>).to_json()),
            ("flag", true.to_json()),
        ]);
        let text = v.to_string_pretty();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn float_round_trip_is_exact() {
        for &x in &[0.1f32, 1.0 / 3.0, f32::MIN_POSITIVE, 1e30, -7.25] {
            let text = x.to_json().to_string_pretty();
            let back: f32 = FromJson::from_json(&parse(&text).unwrap()).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} mangled to {back}");
        }
        let nan_text = f32::NAN.to_json().to_string_pretty();
        let back: f32 = FromJson::from_json(&parse(&nan_text).unwrap()).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn int_round_trip_and_mismatch() {
        let text = 123456789usize.to_json().to_string_pretty();
        let back: usize = FromJson::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, 123456789);
        // Type mismatches surface as None, not panics.
        assert!(<usize as FromJson>::from_json(&Value::Str("7".into())).is_none());
        assert!(<usize as FromJson>::from_json(&Value::Num(1.5)).is_none());
        assert!(<u8 as FromJson>::from_json(&Value::Num(300.0)).is_none());
    }

    #[test]
    fn tuples_round_trip() {
        let t = (3usize, vec![1.0f32, 2.0], 0.5f32, -0.25f32);
        let back: (usize, Vec<f32>, f32, f32) =
            FromJson::from_json(&parse(&t.to_json().to_string_pretty()).unwrap()).unwrap();
        assert_eq!(back, t);
        // Wrong arity is a mismatch.
        assert!(<(u32, u32) as FromJson>::from_json(&parse("[1,2,3]").unwrap()).is_none());
    }

    #[test]
    fn compact_output_is_one_line_and_reparses() {
        let v = obj(vec![
            ("name", "line\nbreak \"q\"".to_json()),
            ("nums", vec![1.5f64, -0.25, 3.0].to_json()),
            ("nested", obj(vec![("empty", Value::Arr(vec![])), ("n", Value::Null)])),
        ]);
        let text = v.to_string_compact();
        assert!(!text.contains('\n'), "compact frame contains a newline: {text}");
        assert!(!text.contains(": "), "compact frame has pretty spacing: {text}");
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn wire_round_trip_is_exact_for_edge_floats() {
        // -0.0, subnormals, and max-precision values must survive the
        // wire byte-for-byte (sign bit included).
        let cases: Vec<f64> = vec![
            -0.0,
            0.0,
            f64::MIN_POSITIVE,          // smallest normal
            f64::MIN_POSITIVE / 4.0,    // subnormal
            5e-324,                     // smallest subnormal
            -5e-324,
            0.1,
            1.0 / 3.0,
            f64::MAX,
            -f64::MAX,
            9.0e15,                     // just past the integer fast path
            9007199254740993.0,         // 2^53 + 1 (rounds to 2^53)
        ];
        for &x in &cases {
            let text = x.to_json().to_wire().unwrap();
            let back: f64 = FromJson::from_json(&parse(&text).unwrap()).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x:e} mangled to {back:e} via {text}");
        }
        // The f32 path too (wire frames carry f32 accuracies).
        for &x in &[-0.0f32, f32::MIN_POSITIVE / 2.0, 1.0 / 3.0, f32::MAX] {
            let text = x.to_json().to_wire().unwrap();
            let back: f32 = FromJson::from_json(&parse(&text).unwrap()).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x:e} mangled to {back:e} via {text}");
        }
    }

    #[test]
    fn wire_rejects_non_finite_on_serialize() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(bad.to_json().to_wire().is_err(), "{bad} serialised");
            // Nested positions are found and named.
            let nested = obj(vec![("a", Value::Arr(vec![Value::Num(1.0), bad.to_json()]))]);
            let err = nested.to_wire().unwrap_err();
            assert!(err.contains("$.a[1]"), "path missing from error: {err}");
        }
        // The lenient pretty writer still flattens to null for the cache.
        assert_eq!(f64::NAN.to_json().to_string_pretty().trim(), "null");
    }

    #[test]
    fn strict_parse_rejects_null_where_number() {
        // Lenient (cache) mode: null decodes as NaN.
        let lenient: f32 = FromJson::from_json(&Value::Null).unwrap();
        assert!(lenient.is_nan());
        with_strict(|| {
            assert!(<f32 as FromJson>::from_json(&Value::Null).is_none());
            assert!(<f64 as FromJson>::from_json(&Value::Null).is_none());
            // Nullable fields still decode: Option catches the null first.
            assert_eq!(<Option<f32> as FromJson>::from_json(&Value::Null), Some(None));
            // Real numbers are unaffected.
            assert_eq!(<f64 as FromJson>::from_json(&Value::Num(2.5)), Some(2.5));
        });
        // Mode is restored after the closure.
        let after: f64 = FromJson::from_json(&Value::Null).unwrap();
        assert!(after.is_nan());
    }

    /// The char-at-a-time escape this crate shipped before run copying,
    /// kept verbatim as the byte-identity oracle.
    fn write_escaped_reference(out: &mut String, s: &str) {
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

    #[test]
    fn run_copying_escape_is_byte_identical_to_char_oracle() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        let cases = [
            String::new(),
            controls.clone(),
            format!("{controls}\"\\ plain é ✓ \u{1F600}\u{7f}"),
            "\"quoted\" \\back\\slash\\".to_string(),
            "ünïcödé run, then \n, then more ✓✓✓".to_string(),
            "\u{1}\u{1f}\u{20}\u{80}\u{7ff}\u{800}\u{ffff}\u{10000}\u{10ffff}".to_string(),
            Value::Str(format!("{{\"k\": \"{controls}\"}}\n")).to_string_pretty(),
        ];
        for s in &cases {
            let (mut got, mut want) = (String::new(), String::new());
            write_escaped(&mut got, s);
            write_escaped_reference(&mut want, s);
            assert_eq!(got, want, "{s:?}");
            assert_eq!(parse(&got).unwrap(), Value::Str(s.clone()));
        }
    }

    #[test]
    fn unicode_and_control_escapes() {
        let s = "emoji \u{1F600} ctrl \u{1} end".to_string();
        let text = s.to_json().to_string_pretty();
        let back: String = FromJson::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
    }
}
