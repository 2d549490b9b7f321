//! Property tests of the one JSON reader, the one escape writer and the
//! one record codec: whatever the writers emit the reader returns
//! unchanged, no input — however damaged — makes the reader panic, every
//! value kind re-encodes to identical bytes, and every record the
//! workspace writes refuses to decode without any one of its fields.

use dataflow::columnar::ChunkStats;
use dataflow::{MetricsSnapshot, StageSpan};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Instant;
use upa_core::QueryAudit;
use upa_json::{json_num, json_str, parse, Body, Field, Json};
use upa_server::obs::{Registry, Trace};
use upa_server::{HistogramSnapshot, RegistrySnapshot, SpendRecord, TraceRecord};
use upa_store::{ChunkMeta, ColumnMeta, Manifest};

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

/// encode → parse → decode → encode must give back the first bytes.
fn reencodes<T: Field>(value: &T) -> Result<(), String> {
    let mut first = String::new();
    value.put(&mut first);
    let doc = parse(&first).map_err(|e| format!("{first}: {e}"))?;
    let back = T::take(&doc).map_err(|e| format!("{first}: {e}"))?;
    let mut second = String::new();
    back.put(&mut second);
    if first == second {
        Ok(())
    } else {
        Err(format!("{first} re-encoded as {second}"))
    }
}

/// A float from a `(class, bits)` draw, weighted toward the values JSON
/// cannot hold.
fn float((class, bits): (u8, u64)) -> f64 {
    match class {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => f64::from_bits(bits),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Option, Vec, pair, map and f64 (NaN and ±inf written as `null`).
    #[test]
    fn every_kind_reencodes_to_identical_bytes(
        floats in prop::collection::vec((0u8..6, 0u64..=u64::MAX), 0..8),
        counts in prop::collection::vec((0u32..=u32::MAX, 0u64..=(1 << 53)), 0..8),
        keys in prop::collection::vec(prop::collection::vec((0u8..5, 0u32..0x11_0000), 0..6), 0..6),
    ) {
        let floats: Vec<f64> = floats.into_iter().map(float).collect();
        for &x in &floats {
            reencodes(&x)?;
            reencodes(&Some(x))?;
            prop_assert_eq!(x.is_finite(), json_num(x) != "null");
        }
        reencodes(&None::<f64>)?;
        reencodes(&floats)?;
        let pairs: Vec<(f64, f64)> = floats.windows(2).map(|w| (w[0], w[1])).collect();
        reencodes(&pairs)?;
        reencodes(&counts)?;
        let names: Vec<String> = keys
            .into_iter()
            .map(|key| key.into_iter().filter_map(scalar).collect())
            .collect();
        let lists: BTreeMap<String, Vec<(u32, u64)>> =
            names.iter().map(|name| (name.clone(), counts.clone())).collect();
        reencodes(&lists)?;
        let gauges: BTreeMap<String, Option<f64>> =
            names.into_iter().zip(floats).map(|(name, x)| (name, Some(x))).collect();
        reencodes(&gauges)?;
    }
}

/// One step of a path into a document.
#[derive(Debug, Clone)]
enum Step {
    Key(String),
    Item(usize),
}

/// The path of every member of every object in `v`: each nested
/// record's fields. The members of a map (an object under one of the
/// `maps` keys) are entries, not fields, but their values are walked.
fn fields(v: &Json, in_map: bool, maps: &[&str], at: &[Step], out: &mut Vec<Vec<Step>>) {
    match v {
        Json::Obj(members) => {
            for (key, value) in members {
                let path = [at, &[Step::Key(key.clone())]].concat();
                if !in_map {
                    out.push(path.clone());
                }
                let map = !in_map && maps.contains(&key.as_str());
                fields(value, map, maps, &path, out);
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                fields(item, false, maps, &[at, &[Step::Item(i)]].concat(), out);
            }
        }
        _ => {}
    }
}

/// `v` without the member at `path`.
fn without(v: &Json, path: &[Step]) -> Json {
    let mut v = v.clone();
    let mut at = &mut v;
    for (i, step) in path.iter().enumerate() {
        at = match (at, step) {
            (Json::Obj(members), Step::Key(key)) if i + 1 == path.len() => {
                members.remove(key);
                break;
            }
            (Json::Obj(members), Step::Key(key)) => members.get_mut(key).unwrap(),
            (Json::Arr(items), Step::Item(i)) => &mut items[*i],
            (other, step) => panic!("{step:?} does not lead into {other:?}"),
        };
    }
    v
}

/// Removes each field of the encoded `record` in turn, at every depth:
/// the decode must then fail naming that field, and must still succeed
/// without one of the `exempt` fields (the derived ones a record writes
/// but does not read back).
fn each_field_is_required<T>(
    record: &str,
    decode: impl Fn(&Json) -> Result<T, String>,
    maps: &[&str],
    exempt: &[&str],
) {
    let doc = parse(record).expect("the record is JSON");
    if let Err(e) = decode(&doc) {
        panic!("{record}: {e}");
    }
    let mut paths = Vec::new();
    fields(&doc, false, maps, &[], &mut paths);
    assert!(!paths.is_empty(), "{record}");
    for path in paths {
        let Some(Step::Key(name)) = path.last() else {
            unreachable!("a field path ends at a key")
        };
        match decode(&without(&doc, &path)) {
            Ok(_) => assert!(
                exempt.contains(&name.as_str()),
                "{record} decodes without {path:?}"
            ),
            Err(e) => {
                assert!(!exempt.contains(&name.as_str()), "{name} is read back: {e}");
                assert!(e.contains(&format!("'{name}'")), "without {path:?}: {e}");
            }
        }
    }
}

fn span(name: &str, path: &str, depth: usize) -> StageSpan {
    StageSpan {
        name: name.into(),
        path: path.into(),
        depth,
        nanos: 90,
        records: 7,
        calls: 2,
    }
}

fn histogram() -> HistogramSnapshot {
    let registry = Registry::new();
    let h = registry.histogram("h");
    for v in [3, 17, 900, 1_000_000] {
        h.record(v);
    }
    h.snapshot()
}

#[test]
fn every_record_requires_every_field_it_writes() {
    let derived = ["p50", "p90", "p99", "max"];
    let span = span("sample", "prepare/sample", 1);
    each_field_is_required(&span.to_json(), StageSpan::take_fields, &[], &[]);

    let audit = QueryAudit {
        query: "sum(v)".into(),
        epsilon: 0.25,
        budget_remaining: Some(0.5),
        sensitivity: vec![2.5],
        range: vec![(-1.0, 9.5)],
        clamped: true,
        attack_detected: false,
        removed_records: 1,
        sample_size: 40,
        group_size: 1,
        spans: vec![span.clone(), self::span("prepare", "prepare", 0)],
        engine: MetricsSnapshot {
            stages: 2,
            tasks: 4,
            task_retries: 0,
            shuffles: 1,
            shuffle_records: 8,
            shuffle_bytes: 64,
            records_processed: 40,
        },
        total_nanos: 900,
    };
    each_field_is_required(&audit.to_json(), QueryAudit::take_fields, &[], &[]);

    let trace = Trace::new("r-1", "release", "data");
    trace.set_query_id("data/sum/v");
    trace.span("noise_draw", Instant::now(), Instant::now());
    trace.graft_engine(vec![span.rebased("engine")]);
    let trace = trace.finish("ok");
    each_field_is_required(&trace.to_json(), TraceRecord::take_fields, &[], &[]);

    each_field_is_required(
        &histogram().to_json(),
        HistogramSnapshot::take_fields,
        &[],
        &derived,
    );

    let registry = Registry::new();
    registry
        .counter("upa_requests_total{op=\"release\"}")
        .add(3);
    registry.gauge("upa_uptime_seconds").set(1.5);
    registry.histogram("upa_release_latency_us").record(777);
    each_field_is_required(
        &registry.snapshot().to_json(),
        RegistrySnapshot::take_fields,
        &["counters", "gauges", "histograms"],
        &derived,
    );

    // A spend's checksum is not read back: replay checks it instead.
    let spend = SpendRecord {
        dataset: "data".into(),
        query_id: "data/sum/v".into(),
        epsilon: 0.1,
    };
    let checked = |v: &Json| {
        let spend = SpendRecord::take_fields(v)?;
        spend
            .crc_matches(v)
            .then_some(spend)
            .ok_or_else(|| "bad 'crc'".to_string())
    };
    each_field_is_required(&spend.to_line(), checked, &[], &[]);

    let stats = ChunkStats {
        min: f64::NEG_INFINITY,
        max: 41.5,
        count: 3,
        nan_count: 1,
    };
    let manifest = Manifest {
        format_version: 2,
        dataset: "adult".into(),
        rows: 3,
        columns: vec![ColumnMeta {
            name: "age".into(),
            chunks: vec![ChunkMeta {
                file: "c0-0.bin".into(),
                rows: 3,
                crc: 4_000_000_000,
                stats,
            }],
        }],
    };
    let text = manifest.to_json();
    assert_eq!(Manifest::from_json(&text), Ok(manifest));
    each_field_is_required(&text, Manifest::take_fields, &[], &[]);
}
