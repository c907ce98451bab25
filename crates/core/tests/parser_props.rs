//! No-panic properties for the in-repo parsers that read files from disk:
//! [`Json::parse`], [`validate_bench_json`] and
//! [`spantree::parse_collapsed`] must return `Ok` or `Err` — never panic,
//! overflow or abort — on arbitrary bytes (decoded as lossy UTF-8), on
//! token soups biased toward JSON and collapsed-stack syntax, and on
//! small edits of a valid `ookami-bench-v1` document. `benchdiff`,
//! `report --derive` and the probes feed these parsers whatever file
//! they are pointed at.

use ookami_core::obs::{validate_bench_json, Json};
use ookami_core::telemetry::spantree;
use proptest::prelude::*;

/// Fragments of JSON, of the bench schema's keys, and of collapsed-stack
/// lines, including the edge cases each parser has to reject cleanly.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u",
    "\\ud800",
    "\\u00e9",
    "\\n",
    "null",
    "true",
    "false",
    "-",
    "0",
    "7",
    "1.5e3",
    "1e999",
    "-0.0",
    ".",
    "e",
    "+",
    " ",
    "\n",
    "\t",
    "\r\n",
    "é",
    "\u{0}",
    "\"schema\"",
    "\"ookami-bench-v1\"",
    "\"probe\"",
    "\"mode\"",
    "\"obs_enabled\"",
    "\"metrics\"",
    "\"flags\"",
    "\"counters\"",
    "\"spans\"",
    "\"path\"",
    "\"count\"",
    "\"total_ns\"",
    "\"sve_instrs\"",
    ";",
    "a",
    "b;c",
    "a;b 1",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
];

/// A valid document exercising every section of the schema, so that
/// edits of it reach the validator's deeper checks.
const BENCH_DOC: &str = r#"{"schema":"ookami-bench-v1","probe":"p","mode":"smoke",
 "obs_enabled":true,"metrics":{"x":1.5,"y":null},"flags":{"ok":"true","b":false},
 "counters":{"sve_instrs":12},"spans":[{"path":"a","count":1,"total_ns":9,
 "counters":{"sve_instrs":3}},{"path":"a/b","count":2,"total_ns":4}]}"#;

fn tokens(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    prop::collection::vec(0..TOKENS.len(), len)
        .prop_map(|ix| ix.into_iter().map(|i| TOKENS[i]).collect())
}

/// Up to four edits of [`BENCH_DOC`]: delete a short span, or insert a
/// token, at a position drawn per edit.
fn edited_bench_doc() -> impl Strategy<Value = String> {
    prop::collection::vec((any::<bool>(), 0..1024usize, 0..TOKENS.len()), 1..5).prop_map(|edits| {
        let mut doc = BENCH_DOC.to_string();
        for (delete, pos, tok) in edits {
            let mut at = pos % (doc.len() + 1);
            while !doc.is_char_boundary(at) {
                at -= 1;
            }
            if delete {
                let mut end = (at + 1 + tok % 8).min(doc.len());
                while !doc.is_char_boundary(end) {
                    end += 1;
                }
                doc.replace_range(at..end, "");
            } else {
                doc.insert_str(at, TOKENS[tok]);
            }
        }
        doc
    })
}

/// Every parser runs to a verdict on `text`.
fn parse_all(text: &str) {
    let _ = Json::parse(text);
    let _ = validate_bench_json(text);
    let _ = spantree::parse_collapsed(text);
}

#[test]
fn the_edit_base_document_is_valid() {
    validate_bench_json(BENCH_DOC).expect("the unedited document validates");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        parse_all(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn token_soups_never_panic(text in tokens(0..96)) {
        parse_all(&text);
    }

    /// Long runs of openers reach past the nesting bound; the parser must
    /// reject them rather than recurse off the end of the stack.
    #[test]
    fn deep_nesting_never_panics(
        opens in prop::collection::vec(prop_oneof![Just("["), Just("{\"k\":")], 0..4096),
        tail in tokens(0..16),
    ) {
        let text: String = opens.concat() + &tail;
        parse_all(&text);
    }

    #[test]
    fn edited_bench_documents_never_panic(doc in edited_bench_doc()) {
        parse_all(&doc);
    }
}
