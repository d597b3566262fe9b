//! Compact and pretty JSON printers.
//!
//! The compact printer is the canonical textual form used by the JSON
//! baseline storage mode and by round-trip tests: `parse(to_string(v)) == v`
//! for every value (floats are printed with enough digits to round-trip),
//! except non-finite floats, which JSON cannot spell and which print as
//! `null`.

use crate::value::{Number, Value};

/// Serialize a value to compact JSON (no whitespace).
pub fn to_string(v: &Value) -> String {
    let mut out = String::with_capacity(64);
    write_value(&mut out, v);
    out
}

/// Serialize a value with two-space indentation, for humans.
pub fn to_string_pretty(v: &Value) -> String {
    let mut out = String::with_capacity(128);
    write_pretty(&mut out, v, 0);
    out
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => write_number(out, *n),
        Value::Str(s) => write_escaped_str(out, s),
        Value::Array(elems) => {
            out.push('[');
            for (i, e) in elems.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, e);
            }
            out.push(']');
        }
        Value::Object(members) => {
            out.push('{');
            for (i, (k, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped_str(out, k);
                out.push(':');
                write_value(out, val);
            }
            out.push('}');
        }
    }
}

fn write_number(out: &mut String, n: Number) {
    match n {
        Number::Int(i) => {
            let mut buf = itoa_buf();
            out.push_str(format_i64(&mut buf, i));
        }
        // JSON has no NaN or infinity; print them as `null`, as ECMAScript
        // `JSON.stringify` does, so printed text always re-parses.
        Number::Float(f) if !f.is_finite() => out.push_str("null"),
        Number::Float(f) => {
            // Shortest representation that round-trips; force a ".0" marker
            // when the result would look integral, so the value re-parses as
            // a float and the integer/float distinction of §3.4 survives.
            let s = format!("{f}");
            out.push_str(&s);
            if !s.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
    }
}

/// Write `s` as a JSON string literal (quotes and escapes included).
pub fn write_escaped_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_pretty(out: &mut String, v: &Value, indent: usize) {
    match v {
        Value::Array(elems) if !elems.is_empty() => {
            out.push_str("[\n");
            for (i, e) in elems.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_pretty(out, e, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push(']');
        }
        Value::Object(members) if !members.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_escaped_str(out, k);
                out.push_str(": ");
                write_pretty(out, val, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push('}');
        }
        other => write_value(out, other),
    }
}

fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

type ItoaBuf = [u8; 20];

fn itoa_buf() -> ItoaBuf {
    [0; 20]
}

/// Format an i64 into a stack buffer without allocating.
fn format_i64(buf: &mut ItoaBuf, v: i64) -> &str {
    if v == 0 {
        return "0";
    }
    let neg = v < 0;
    let mut pos = buf.len();
    // Work with the magnitude in u64 so i64::MIN does not overflow.
    let mut mag = v.unsigned_abs();
    while mag > 0 {
        pos -= 1;
        buf[pos] = b'0' + (mag % 10) as u8;
        mag /= 10;
    }
    if neg {
        pos -= 1;
        buf[pos] = b'-';
    }
    std::str::from_utf8(&buf[pos..]).expect("ascii digits")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    #[test]
    fn compact_round_trip() {
        let cases = [
            "null",
            "true",
            "false",
            "0",
            "-1",
            "9223372036854775807",
            "-9223372036854775808",
            "2.5",
            "1.0",
            r#""hi""#,
            r#"[1,2,[3]]"#,
            r#"{"a":1,"b":{"c":[null,true]}}"#,
            "[]",
            "{}",
        ];
        for c in cases {
            let v = parse(c).unwrap();
            assert_eq!(to_string(&v), c, "case {c}");
        }
    }

    #[test]
    fn parse_print_parse_fixpoint() {
        let cases = [
            r#"{"s": "a\"b\\c\nd\te", "u": ""}"#,
            r#"{"f": 1e3, "g": -0.015, "big": 99999999999999999999999}"#,
            r#"{"emoji": "😀", "cjk": "日本語"}"#,
        ];
        for c in cases {
            let v = parse(c).unwrap();
            let printed = to_string(&v);
            assert_eq!(parse(&printed).unwrap(), v, "case {c}");
        }
    }

    #[test]
    fn float_keeps_float_type_through_round_trip() {
        let v = Value::float(3.0);
        let s = to_string(&v);
        assert_eq!(s, "3.0");
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn non_finite_floats_print_as_null() {
        for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let v = Value::Array(vec![Value::float(f)]);
            assert_eq!(to_string(&v), "[null]");
            assert_eq!(to_string_pretty(&v), "[\n  null\n]");
        }
    }

    #[test]
    fn control_chars_escaped() {
        let mut out = String::new();
        write_escaped_str(&mut out, "a\u{1}b");
        assert_eq!(out, "\"a\\u0001b\"");
    }

    #[test]
    fn pretty_is_reparseable() {
        let v = parse(r#"{"a":[1,{"b":2}],"c":{}}"#).unwrap();
        let pretty = to_string_pretty(&v);
        assert!(pretty.contains('\n'));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn format_i64_extremes() {
        let mut buf = itoa_buf();
        assert_eq!(format_i64(&mut buf, i64::MIN), "-9223372036854775808");
        let mut buf = itoa_buf();
        assert_eq!(format_i64(&mut buf, i64::MAX), "9223372036854775807");
        let mut buf = itoa_buf();
        assert_eq!(format_i64(&mut buf, 0), "0");
    }
}
