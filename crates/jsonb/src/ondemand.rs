//! Direct tape→JSONB encoding for the on-demand ingestion path.
//!
//! [`encode_ondemand_into`] emits the same two-pass JSONB encoding as
//! [`crate::encode_into`] but reads from an on-demand cursor
//! ([`jt_json::Cursor`]) instead of a materialized [`jt_json::Value`] tree:
//! scalars are parsed straight out of their byte spans, and escape-free
//! strings are copied from the raw input without ever allocating a `String`.
//! This is what lets the outlier path of tile formation skip tree
//! construction entirely — raw line bytes go to tape, tape goes to JSONB.
//!
//! The encoding is bit-identical to the eager encoder on the same document:
//! both passes derive the same normalized member order (keys sorted, last
//! duplicate wins), the same numeric-string detection, and the same
//! int/float narrowing. The differential tests at the bottom and the
//! eager-vs-ondemand load tests of jt-core enforce this.

use std::borrow::Cow;

use crate::encode::{
    container_total, f64_to_f16, float_width, numstr_size, patch_offset, scalar_num_size, write_int,
};
use crate::numstr::detect_numeric_string;
use crate::{width_bytes, width_code_for, write_uint, Tag, LIT_FALSE, LIT_NULL, LIT_TRUE};
use jt_json::{Cursor, Node, Number};

/// Encode the subtree under `cur` into a fresh buffer.
pub fn encode_ondemand(cur: Cursor<'_>) -> Vec<u8> {
    let mut out = Vec::new();
    encode_ondemand_into(cur, &mut out);
    out
}

/// Encode the subtree under `cur`, appending to `out`. Byte-identical to
/// `encode_into(&cur.to_value(), out)` without building the tree.
pub fn encode_ondemand_into(cur: Cursor<'_>, out: &mut Vec<u8>) {
    let mut sizes = Vec::new();
    let total = measure(cur, &mut sizes);
    out.reserve(total);
    let start = out.len();
    let mut memo = 0usize;
    write_cursor(cur, &sizes, &mut memo, out);
    debug_assert_eq!(
        out.len() - start,
        total,
        "sizing pass disagrees with write pass"
    );
}

/// Object members with keys decoded once per pass; `normalize` mirrors
/// `encode::normalize_members` over this view.
type Members<'d> = Vec<(Cow<'d, str>, Cursor<'d>)>;

fn collect_members<'d>(it: jt_json::ObjectIter<'d>) -> Members<'d> {
    it.map(|(k, v)| (k.decode(), v)).collect()
}

/// Sort members by key (stable), keeping only the last occurrence of each
/// duplicate key — the same normalized view the eager encoder derives.
fn normalize(members: &Members<'_>) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..members.len()).collect();
    let mut seen: Vec<usize> = Vec::with_capacity(members.len());
    for i in (0..members.len()).rev() {
        if !seen.iter().any(|&j| members[j].0 == members[i].0) {
            seen.push(i);
        }
    }
    idx.retain(|i| seen.contains(i));
    idx.sort_by(|&a, &b| members[a].0.as_bytes().cmp(members[b].0.as_bytes()));
    idx
}

/// First pass: exact encoded size, recording `(size, width code)` per
/// container in depth-first normalized order, like `encode::measure`.
fn measure(cur: Cursor<'_>, t: &mut Vec<(u32, u8)>) -> usize {
    match cur.node() {
        Node::Null | Node::Bool(_) => 1,
        Node::Num(n) => scalar_num_size(n),
        Node::Str(s) => {
            let dec = s.decode();
            match detect_numeric_string(&dec) {
                Some(n) => numstr_size(n),
                None => {
                    let w = width_bytes(width_code_for(dec.len()));
                    1 + w + dec.len()
                }
            }
        }
        Node::Array(elems) => {
            let slot = t.len();
            t.push((0, 0)); // placeholder
            let mut payload = 0usize;
            let mut n = 0usize;
            for e in elems {
                payload += measure(e, t);
                n += 1;
            }
            let (total, code) = container_total(n, payload, 0, false);
            t[slot] = (total as u32, code);
            total
        }
        Node::Object(it) => {
            let slot = t.len();
            t.push((0, 0));
            let members = collect_members(it);
            let ordered = normalize(&members);
            let mut payload = 0usize;
            let mut keys = 0usize;
            for &idx in &ordered {
                let (k, val) = &members[idx];
                keys += k.len();
                payload += measure(*val, t);
            }
            let (total, code) = container_total(ordered.len(), payload, keys, true);
            t[slot] = (total as u32, code);
            total
        }
    }
}

/// Second pass: emit the subtree, consuming container sizes in the order
/// the measuring pass recorded them — a line-by-line mirror of
/// `encode::write_value`.
fn write_cursor(cur: Cursor<'_>, t: &[(u32, u8)], memo: &mut usize, out: &mut Vec<u8>) {
    match cur.node() {
        Node::Null => out.push(Tag::Literal as u8 | LIT_NULL),
        Node::Bool(false) => out.push(Tag::Literal as u8 | LIT_FALSE),
        Node::Bool(true) => out.push(Tag::Literal as u8 | LIT_TRUE),
        Node::Num(Number::Int(i)) => write_int(Tag::Int, i, out),
        Node::Num(Number::Float(f)) => {
            let width = float_width(f);
            out.push(Tag::Float as u8 | width as u8);
            match width {
                2 => out.extend_from_slice(&f64_to_f16(f).expect("checked").to_le_bytes()),
                4 => out.extend_from_slice(&(f as f32).to_le_bytes()),
                _ => out.extend_from_slice(&f.to_le_bytes()),
            }
        }
        Node::Str(s) => {
            let dec = s.decode();
            match detect_numeric_string(&dec) {
                Some(n) => {
                    write_int(Tag::NumStr, n.mantissa, out);
                    out.push(n.scale);
                }
                None => {
                    let code = width_code_for(dec.len());
                    out.push(Tag::Str as u8 | code);
                    write_uint(out, dec.len(), width_bytes(code));
                    out.extend_from_slice(dec.as_bytes());
                }
            }
        }
        Node::Array(elems) => {
            let (_total, code) = t[*memo];
            *memo += 1;
            let children: Vec<Cursor<'_>> = elems.collect();
            let w = width_bytes(code);
            out.push(Tag::Array as u8 | code);
            write_uint(out, children.len(), w);
            let offsets_at = out.len();
            for _ in 0..children.len() {
                write_uint(out, 0, w); // patched below
            }
            let slots_start = out.len();
            for (i, e) in children.into_iter().enumerate() {
                write_cursor(e, t, memo, out);
                let end = out.len() - slots_start;
                patch_offset(out, offsets_at + i * w, end, w);
            }
        }
        Node::Object(it) => {
            let (_total, code) = t[*memo];
            *memo += 1;
            let members = collect_members(it);
            let ordered = normalize(&members);
            let w = width_bytes(code);
            out.push(Tag::Object as u8 | code);
            write_uint(out, ordered.len(), w);
            let offsets_at = out.len();
            for _ in 0..ordered.len() {
                write_uint(out, 0, w);
            }
            let slots_start = out.len();
            for (i, &idx) in ordered.iter().enumerate() {
                let (k, val) = &members[idx];
                write_uint(out, k.len(), w);
                out.extend_from_slice(k.as_bytes());
                write_cursor(*val, t, memo, out);
                let end = out.len() - slots_start;
                patch_offset(out, offsets_at + i * w, end, w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode;
    use jt_json::OnDemandDoc;

    fn assert_identical(text: &str) {
        let eager = encode(&jt_json::parse(text).unwrap());
        let doc = OnDemandDoc::parse(text.as_bytes()).unwrap();
        assert_eq!(encode_ondemand(doc.root()), eager, "case {text}");
    }

    #[test]
    fn matches_eager_encoder() {
        for text in [
            "null",
            "true",
            "0",
            "7",
            "8",
            "-9223372036854775808",
            "1.5",
            "1e3",
            "99999999999999999999999",
            r#""""#,
            r#""hello""#,
            r#""héllo 😀""#,
            r#""19.99""#,
            r#""1.50""#,
            r#""007""#,
            "[]",
            "{}",
            "[1,2,3]",
            r#"{"a":1}"#,
            r#"{"b":1,"a":2,"b":3}"#,
            r#"{"a":{"b":{"c":[1,[2],{"d":null}]}}}"#,
            r#"[[],{},[{}],[[[1.5]]]]"#,
            r#"{"":1,"a":{"":2}}"#,
        ] {
            assert_identical(text);
        }
    }

    #[test]
    fn escaped_strings_and_keys_normalize_identically() {
        // "\u0061" is "a": the decoded key collides with the raw "a" key,
        // so normalization must dedup across escape forms, like the eager
        // path does after parsing.
        assert_identical(r#"{"\u0061":1,"a":2}"#);
        assert_identical(r#"{"k":"line\nbreak","j":"😀"}"#);
    }

    #[test]
    fn wide_containers() {
        let big: String = format!(
            "[{}]",
            (0..300)
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        assert_identical(&big);
        let long_str = format!(r#"{{"k":"{}"}}"#, "x".repeat(70_000));
        assert_identical(&long_str);
    }

    #[test]
    fn decodes_back_to_normalized_tree() {
        let doc = OnDemandDoc::parse(br#"{"b":1,"a":2,"b":3}"#).unwrap();
        let bytes = encode_ondemand(doc.root());
        assert_eq!(
            crate::decode(&bytes),
            jt_json::parse(r#"{"a":2,"b":3}"#).unwrap()
        );
    }
}
