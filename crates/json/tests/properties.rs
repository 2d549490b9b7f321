//! Property tests of the one JSON reader and the one escape writer:
//! whatever the writers emit the reader returns unchanged, and no input
//! — however damaged — makes the reader panic.

use proptest::prelude::*;
use upa_json::{json_num, json_str, parse, Json};

/// Lines of the three persisted/wired shapes, as the workspace writes
/// them: a request, a ledger record and a store manifest.
const LINES: [&str; 3] = [
    r#"{"op":"release","dataset":"da\"ta","query":"sum","column":"v","epsilon":0.25,"audit":true,"deadline_ms":150}"#,
    r#"{"dataset":"people \"2026\"","query_id":"people/mean/ageé","epsilon":0.1,"crc":1326127645}"#,
    concat!(
        r#"{"format_version":2,"dataset":"adult \"x\"\n","rows":3,"columns":[{"name":"a\tge\\é","#,
        r#""chunks":[{"file":"c0-0.bin","rows":3,"crc":4000000000,"#,
        r#""min_bits":"fff0000000000000","max_bits":"4044c00000000000","nan_count":1}]}]}"#
    ),
];

/// A scalar value from a `(class, code)` draw, weighted toward what an
/// escape writer can get wrong: controls, quote/backslash/slash, astral
/// characters. Surrogate code points are not scalar values and map to
/// `None`.
fn scalar((class, code): (u8, u32)) -> Option<char> {
    match class {
        0 => char::from_u32(code % 0x20),
        1 => Some(['"', '\\', '/', '\u{7f}'][code as usize % 4]),
        2 => char::from_u32(0x1_0000 + code % 0x10_0000),
        _ => char::from_u32(code),
    }
}

/// Parsing must return, not panic; an error must point inside the input
/// and render.
fn parse_returns(text: &str) -> bool {
    parse(text).map_or_else(
        |e| e.at <= text.len() && !e.to_string().is_empty(),
        |_| true,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn strings_round_trip(draws in prop::collection::vec((0u8..5, 0u32..0x11_0000), 0..64)) {
        let s: String = draws.into_iter().filter_map(scalar).collect();
        let encoded = json_str(&s);
        prop_assert_eq!(parse(&encoded).ok(), Some(Json::Str(s.clone())));
        // As an object key and member too, where the protocol puts them.
        let doc = parse(&format!("{{{encoded}:[{encoded}]}}")).ok();
        let member = doc.as_ref().and_then(|d| d.get(&s));
        prop_assert_eq!(member, Some(&Json::Arr(vec![Json::Str(s.clone())])));
    }

    /// The ledger's ε and its checksum ride on this: what `json_num`
    /// writes for a finite float parses back to the same bits.
    #[test]
    fn finite_numbers_round_trip_bit_exactly(bits in 0u64..=u64::MAX) {
        let v = f64::from_bits(bits);
        let text = json_num(v);
        if v.is_finite() {
            match parse(&text) {
                Ok(Json::Num(back)) => prop_assert_eq!(back.to_bits(), bits, "{text}"),
                other => prop_assert!(false, "{text} parsed as {other:?}"),
            }
        } else {
            prop_assert_eq!(text, "null");
        }
    }

    #[test]
    fn exact_integers_survive_as_u64(n in 0u64..=(1 << 53)) {
        prop_assert_eq!(parse(&n.to_string()).ok().and_then(|v| v.as_u64()), Some(n));
    }

    #[test]
    fn mutated_lines_never_panic(
        which in 0usize..3,
        edits in prop::collection::vec((0usize..4096, 0u8..=255), 1..4),
    ) {
        let mut bytes = LINES[which].as_bytes().to_vec();
        for (at, byte) in edits {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        prop_assert!(parse_returns(&String::from_utf8_lossy(&bytes)));
    }

    #[test]
    fn truncated_lines_are_errors_not_panics(which in 0usize..3, keep in 0usize..4096) {
        let line = LINES[which];
        prop_assert!(parse(line).is_ok());
        let keep = keep % line.len();
        let cut = String::from_utf8_lossy(&line.as_bytes()[..keep]);
        prop_assert!(parse(&cut).is_err(), "a strict prefix parsed: {cut}");
        prop_assert!(parse_returns(&cut));
    }
}
