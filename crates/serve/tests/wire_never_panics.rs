//! The wire readers never panic: every request line, however hostile,
//! either decodes or comes back as a typed error ([`KIND_PARSE`] or
//! [`KIND_INVALID`]), and the JSON reader under it returns a
//! `ParseError` rather than panicking.

use disc_serve::json::{self, MAX_DEPTH};
use disc_serve::protocol::{parse_request, KIND_INVALID, KIND_PARSE};
use disc_serve::Request;
use proptest::prelude::*;

/// Runs both readers over `line`; a panic fails the calling test.
fn check(line: &str) -> Result<Request, &'static str> {
    let _ = json::parse(line);
    parse_request(line).map_err(|e| {
        assert!(
            e.kind == KIND_PARSE || e.kind == KIND_INVALID,
            "{line:?}: untyped error {e:?}"
        );
        e.kind
    })
}

/// Fragments that recombine into near-valid requests: structure,
/// field names, escapes (lone, paired and truncated surrogates) and
/// numbers at the edges of the integer fields.
#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "{", "}", "[", "]", ":", ",", " ", "\"", "\\", "\n",
    "\"op\"", "\"ingest\"", "\"query\"", "\"replicate\"", "\"rows\"", "\"row\"", "\"from\"",
    "\"max_frames\"", "\"snapshot\"", "true", "null", "nul",
    "0", "-0", "1", "-1", "0.5", "1e999", "-1e999", "1e-400", "9007199254740993", "4294967296",
    "1.", "01", "-", "1e",
    "\\u", "\\ud83d", "\\ude00", "\\ud83d\\ude00", "\\u00e9", "\\u+041", "\\u12", "\\n", "\\x",
    "é", "😀", "\u{1}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary text, including quotes, backslashes, control bytes and
    /// multi-byte scalars.
    #[test]
    fn arbitrary_strings(line in "[ -~é😀\u{0}\u{1}\u{1f}\u{7f}]{0,80}") {
        let _ = check(&line);
    }

    /// Token soup, bare and wrapped in a request object.
    #[test]
    fn token_soup(picks in prop::collection::vec(0usize..TOKENS.len(), 0..40)) {
        let soup: String = picks.iter().map(|&i| TOKENS[i]).collect();
        let _ = check(&soup);
        let _ = check(&format!(r#"{{"op":"ingest","rows":[[{soup}]]}}"#));
        let _ = check(&format!(r#"{{"op":"query","row":{soup}}}"#));
        let _ = check(&format!(r#"{{"op":"replicate","from":{soup},"max_frames":{soup}}}"#));
        let _ = check(&format!(r#"{{"op":"{soup}"}}"#));
    }
}

#[test]
fn nesting_at_and_past_the_depth_limit() {
    for (open, close) in [("[", "]"), (r#"{"a":"#, "}")] {
        for levels in [MAX_DEPTH, MAX_DEPTH + 1, MAX_DEPTH + 2, 10 * MAX_DEPTH] {
            let doc = format!("{}1{}", open.repeat(levels), close.repeat(levels));
            assert_eq!(
                json::parse(&doc).is_ok(),
                levels <= MAX_DEPTH,
                "{open} x{levels}"
            );
            assert!(check(&doc).is_err());
            // The same nesting inside an ingest row.
            let line = format!(r#"{{"op":"ingest","rows":[[{doc}]]}}"#);
            assert!(check(&line).is_err(), "{open} x{levels}");
        }
    }
}

#[test]
fn unicode_escapes_lone_paired_and_truncated() {
    let op = |escaped: &str| check(&format!(r#"{{"op":"{escaped}"}}"#));
    assert_eq!(op(r"stats"), Ok(Request::Stats));
    assert_eq!(op(r"😀"), Err(KIND_INVALID));
    for bad in [
        r"\ud83d",
        r"\ude00",
        r"\ud83d\ud83d",
        r"\ud83dx",
        r"\u12",
        r"\u",
        r"\ud83d\u",
        r"\u+073",
    ] {
        assert_eq!(op(bad), Err(KIND_PARSE), "{bad}");
    }
}

#[test]
fn numbers_at_the_edges_of_integer_fields() {
    let query = |n: &str| check(&format!(r#"{{"op":"query","row":{n}}}"#));
    for n in ["-0", "1e-400"] {
        assert_eq!(query(n), Ok(Request::Query { row: 0 }), "row {n}");
    }
    for n in ["1e999", "-1e999", "-1", "0.5", "4294967296"] {
        assert_eq!(query(n), Err(KIND_INVALID), "row {n}");
    }
    for n in ["-", "1e", "--1"] {
        assert_eq!(query(n), Err(KIND_PARSE), "row {n}");
    }
    for n in ["1e999", "-0", "9007199254740993", "-1", "0.5"] {
        let from = check(&format!(r#"{{"op":"replicate","from":{n}}}"#));
        let frames = check(&format!(
            r#"{{"op":"replicate","from":0,"max_frames":{n}}}"#
        ));
        assert!(
            matches!(from, Ok(Request::Replicate { .. }) | Err(KIND_INVALID)),
            "from {n}"
        );
        assert!(
            matches!(frames, Ok(Request::Replicate { .. }) | Err(KIND_INVALID)),
            "max_frames {n}"
        );
        let ingest = check(&format!(r#"{{"op":"ingest","rows":[[{n},1]]}}"#));
        assert!(matches!(ingest, Ok(Request::Ingest { .. })), "ingest {n}");
    }
}
