//! Property tests of the typed protocol: any [`Request`] the client can
//! construct survives encode → wire-parse → decode unchanged, every
//! [`Response`] re-encodes to the bytes it was decoded from, and every
//! [`ErrorCode`] round-trips with any printable message. This is what
//! keeps the two protocol ends from drifting — both speak only through
//! these codecs.

use proptest::prelude::*;
use upa_server::obs::Registry;
use upa_server::{
    wire, AggKind, AttachOutcome, DatasetInfo, DatasetsReply, ErrorCode, MetricsReply,
    PreparedInfo, ReleaseOutcome, Request, Response, SchedStats, StatsReply,
};

fn ascii(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("generated printable ASCII")
}

fn kind_of(idx: usize) -> AggKind {
    [AggKind::Count, AggKind::Sum, AggKind::Mean][idx]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every request shape, with adversarial printable-ASCII names
    /// (including `"` and `\` to exercise the JSON escaper), decodes to
    /// exactly the value that was encoded.
    #[test]
    fn any_request_round_trips(
        op in 0usize..13,
        dataset_bytes in prop::collection::vec(32u8..127, 1..12),
        column_bytes in prop::collection::vec(32u8..127, 1..8),
        kind_idx in 0usize..3,
        epsilon in 0.001f64..4.0,
        with_epsilon in 0u8..2,
        audit in 0u8..2,
        deadline in 0u64..100_000,
        with_deadline in 0u8..2,
        last in 0u64..500,
        with_last in 0u8..2,
    ) {
        let dataset = ascii(dataset_bytes);
        let column = ascii(column_bytes);
        let request = match op {
            0 => Request::Ping,
            1 => Request::Datasets,
            2 => Request::Prepare {
                dataset,
                query: kind_of(kind_idx),
                column,
            },
            3 => Request::Release {
                dataset,
                query: kind_of(kind_idx),
                column,
                epsilon: (with_epsilon == 1).then_some(epsilon),
                audit: audit == 1,
                deadline_ms: (with_deadline == 1).then_some(deadline),
            },
            4 => Request::Budget { dataset },
            5 => Request::Audit {
                dataset,
                last: (with_last == 1).then_some(last),
            },
            6 => Request::Stats,
            7 => Request::Metrics,
            8 => Request::Trace {
                id: (with_epsilon == 1).then_some(column),
                last: (with_last == 1).then_some(last),
            },
            9 => Request::Ingest {
                path: column,
                dataset: (with_last == 1).then_some(dataset),
            },
            10 => Request::Attach { dataset },
            11 => Request::Detach { dataset },
            _ => Request::Shutdown,
        };
        let parsed = wire::parse(&request.to_line());
        prop_assert!(parsed.is_ok(), "encoded line must be valid JSON: {request:?}");
        let decoded = Request::from_json(&parsed.unwrap());
        prop_assert!(decoded.is_ok(), "encoded line must decode: {request:?}");
        prop_assert_eq!(decoded.unwrap(), request);
    }

    /// Every member of the closed error-code set survives the wire with
    /// any printable message attached.
    #[test]
    fn every_error_code_round_trips_with_any_message(
        idx in 0usize..ErrorCode::ALL.len(),
        message_bytes in prop::collection::vec(32u8..127, 0..24),
    ) {
        let code = ErrorCode::ALL[idx];
        let message = ascii(message_bytes);
        let line = Response::Error {
            code,
            message: message.clone(),
        }
        .to_line();
        let parsed = wire::parse(line.trim());
        prop_assert!(parsed.is_ok(), "error line must be valid JSON");
        match Response::from_json(&parsed.unwrap()) {
            Ok(Response::Error { code: got, message: got_message }) => {
                prop_assert_eq!(got, code);
                prop_assert_eq!(got_message, message);
            }
            other => prop_assert!(false, "expected an Error reply, got {other:?}"),
        }
    }

    /// Every reply variant, with adversarial names and numbers
    /// (non-finite ones included, which go out as `null`), decodes from
    /// its line and re-encodes to exactly the same bytes.
    #[test]
    fn any_response_reencodes_to_the_same_bytes(
        variant in 0usize..16,
        name_bytes in prop::collection::vec(32u8..127, 0..12),
        x in -1.0e6f64..1.0e6,
        special in 0usize..4,
        n in 0u64..1_000_000,
        flag in 0u8..2,
        code_idx in 0usize..ErrorCode::ALL.len(),
    ) {
        let name = ascii(name_bytes);
        let flag = flag == 1;
        // Plain, then the values JSON cannot carry and must send as null.
        let y = [x, f64::NAN, f64::INFINITY, f64::NEG_INFINITY][special];
        let response = match variant {
            0 => Response::Ok,
            1 => Response::Datasets(DatasetsReply {
                names: vec![name.clone()],
                info: vec![DatasetInfo {
                    name: name.clone(),
                    rows: n,
                    columns: vec![name.clone(), String::new()],
                    resident_bytes: n / 2,
                }],
                available: if flag { vec![name] } else { Vec::new() },
            }),
            2 => Response::Attached(AttachOutcome {
                dataset: name,
                rows: n,
                resident_bytes: n * 8,
                reloaded: flag,
            }),
            3 => Response::Detached { dataset: name },
            4 => Response::Ingested {
                dataset: name.clone(),
                rows: n,
                columns: vec![name],
                chunks: n % 7,
                bytes: n * 3,
            },
            5 => Response::Prepared(PreparedInfo {
                query_id: name,
                sample_size: n as usize,
                cached: flag,
            }),
            6 => Response::Released(Box::new(ReleaseOutcome {
                query_id: name,
                released: y,
                epsilon: x.abs(),
                noise_scale: y,
                sample_size: n as usize,
                budget_remaining: flag.then_some(y),
                cached: flag,
                prepare_us: (!flag).then_some(n),
                audit: None,
            })),
            7 => Response::Budget {
                dataset: name,
                budget: flag.then_some((x.abs(), x.abs() / 2.0, x.abs() / 2.0)),
            },
            8 => Response::Audits { dataset: name, audits: Vec::new() },
            9 => Response::Stats(StatsReply {
                sched: SchedStats { queued: n, peak_batch: n / 3, ..SchedStats::default() },
                uptime_seconds: x.abs(),
                seq: n,
            }),
            10 => {
                let registry = Registry::new();
                registry.counter(&format!("upa_{name}_total")).add(n);
                registry.gauge("upa_gauge").set(x);
                registry.histogram("upa_latency_us").record(n);
                Response::Metrics(MetricsReply::new(registry.snapshot()))
            }
            11 => Response::Traces(Vec::new()),
            12 => Response::Draining,
            _ => Response::Error {
                code: ErrorCode::ALL[code_idx],
                message: name,
            },
        };
        let line = response.to_line();
        let parsed = wire::parse(line.trim_end());
        prop_assert!(parsed.is_ok(), "reply line must be valid JSON: {line}");
        let decoded = Response::from_json(&parsed.unwrap());
        prop_assert!(decoded.is_ok(), "{line}: {decoded:?}");
        prop_assert_eq!(decoded.unwrap().to_line(), line);
    }
}
