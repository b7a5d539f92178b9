//! No text panics the JSON boundary: the parser under the trace tooling
//! and the wire protocol, the request reader and the trace reader return
//! `Ok` or `Err` on whatever they are handed. (The value → text → value
//! direction is `dynp-obs`'s `arbitrary_records_round_trip`.)

use dynp_suite::obs::{parse_jsonl, Json};
use dynp_suite::serve::parse_request;
use proptest::prelude::*;

/// Well-formed lines to cut up: every trace kind, and the requests.
const VALID: &str = concat!(
    include_str!("../crates/obs/tests/fixtures/all_kinds.jsonl"),
    "{\"cmd\":\"submit\",\"width\":4,\"estimate_ms\":60000,\"actual_ms\":30000,\"user\":7}\n",
    "{\"cmd\":\"cancel\",\"job\":3}\n",
    "{\"seq\":null,\"type\":\"meta\",\"dropped\":42}\n",
);

/// Fragments that steer the parser into every branch, valid or not.
#[rustfmt::skip]
const FRAGMENTS: [&str; 32] = [
    "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\ud800", "\\u00", "\\n", "\\x", "-", ".",
    "e", "+", "0", "18446744073709551616", "1e999", "true", "nul", "\"cmd\"", "\"submit\"",
    "\"type\"", "\"decision\"", "\"scores\"", " ", "\n", "\u{0}", "é", "𝄞",
];

/// Fragment soup, a window of the valid text with a fragment dropped
/// into its middle, or one opener repeated far past any sane depth.
fn hostile_text() -> impl Strategy<Value = String> {
    let soup = proptest::collection::vec(0usize..FRAGMENTS.len(), 0..40)
        .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect());
    let damaged = (0usize..VALID.len(), 0usize..200, 0usize..FRAGMENTS.len()).prop_map(
        |(cut, len, splice)| {
            let floor = |mut i: usize| {
                while !VALID.is_char_boundary(i) {
                    i -= 1;
                }
                i
            };
            let (start, end) = (floor(cut), floor((cut + len).min(VALID.len())));
            let mid = floor(start + (end - start) / 2);
            [&VALID[start..mid], FRAGMENTS[splice], &VALID[mid..end]].concat()
        },
    );
    let nested = (0usize..20_000, 0usize..4).prop_map(|(depth, opener)| {
        let opener = [
            "[",
            "{\"a\":",
            "[{\"cmd\":",
            "{\"type\":\"decision\",\"scores\":",
        ][opener];
        opener.repeat(depth)
    });
    prop_oneof![soup, damaged, nested]
}

proptest! {
    #[test]
    fn no_text_panics_the_json_boundary(text in hostile_text()) {
        let _ = Json::parse(&text);
        let _ = parse_request(&text);
        let _ = parse_jsonl(&text);
    }
}
