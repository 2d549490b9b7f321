//! Golden wire lines: the exact bytes `to_line` writes for every
//! [`Request`] and [`Response`] variant, pinned as literals. A codec
//! refactor must leave each line byte-identical, and each line must
//! decode back to the value that wrote it.

use dataflow::{MetricsSnapshot, StageSpan};
use upa_core::QueryAudit;
use upa_server::obs::{Registry, TraceSpan};
use upa_server::state::ReleaseOutcome;
use upa_server::{
    wire, AggKind, AttachOutcome, DatasetInfo, DatasetsReply, ErrorCode, MetricsReply,
    PreparedInfo, Request, Response, SchedStats, StatsReply, TraceRecord,
};

fn span(name: &str, path: &str, depth: usize, nanos: u64) -> StageSpan {
    StageSpan {
        name: name.into(),
        path: path.into(),
        depth,
        nanos,
        records: 7,
        calls: 1,
    }
}

fn audit() -> QueryAudit {
    QueryAudit {
        query: "sum(v)".into(),
        epsilon: 0.25,
        budget_remaining: Some(0.5),
        sensitivity: vec![2.5],
        range: vec![(-1.0, 9.5)],
        clamped: false,
        attack_detected: false,
        removed_records: 0,
        sample_size: 40,
        group_size: 1,
        spans: vec![
            span("prepare", "prepare", 0, 900),
            span("sample", "prepare/sample", 1, 300),
        ],
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
    }
}

fn released(noise_scale: f64, cached: bool, audit: Option<QueryAudit>) -> Response {
    Response::Released(Box::new(ReleaseOutcome {
        query_id: "data/sum/v".into(),
        released: 12.75,
        epsilon: 0.25,
        noise_scale,
        sample_size: 40,
        budget_remaining: if cached { None } else { Some(0.5) },
        cached,
        prepare_us: (!cached).then_some(1500),
        audit,
    }))
}

fn requests() -> Vec<(Request, &'static str)> {
    vec![
        (Request::Ping, r#"{"op":"ping"}"#),
        (Request::Datasets, r#"{"op":"datasets"}"#),
        (
            Request::Prepare {
                dataset: "people".into(),
                query: AggKind::Mean,
                column: "age".into(),
            },
            r#"{"op":"prepare","dataset":"people","query":"mean","column":"age"}"#,
        ),
        (
            Request::Release {
                dataset: "da\"ta".into(),
                query: AggKind::Sum,
                column: "v".into(),
                epsilon: Some(0.25),
                audit: true,
                deadline_ms: Some(150),
            },
            r#"{"op":"release","dataset":"da\"ta","query":"sum","column":"v","epsilon":0.25,"audit":true,"deadline_ms":150}"#,
        ),
        (
            Request::Budget {
                dataset: "data".into(),
            },
            r#"{"op":"budget","dataset":"data"}"#,
        ),
        (
            Request::Audit {
                dataset: "data".into(),
                last: Some(3),
            },
            r#"{"op":"audit","dataset":"data","last":3}"#,
        ),
        (Request::Stats, r#"{"op":"stats"}"#),
        (Request::Metrics, r#"{"op":"metrics"}"#),
        (
            Request::Trace {
                id: Some("r-12".into()),
                last: Some(2),
            },
            r#"{"op":"trace","id":"r-12","last":2}"#,
        ),
        (
            Request::Ingest {
                path: "/data/people.csv".into(),
                dataset: Some("people".into()),
            },
            r#"{"op":"ingest","path":"/data/people.csv","dataset":"people"}"#,
        ),
        (
            Request::Attach {
                dataset: "people".into(),
            },
            r#"{"op":"attach","dataset":"people"}"#,
        ),
        (
            Request::Detach {
                dataset: "people".into(),
            },
            r#"{"op":"detach","dataset":"people"}"#,
        ),
        (Request::Shutdown, r#"{"op":"shutdown"}"#),
    ]
}

fn metrics() -> MetricsReply {
    let registry = Registry::new();
    registry
        .counter("upa_requests_total{op=\"release\"}")
        .add(3);
    registry
        .gauge("upa_budget_epsilon_remaining{dataset=\"d\"}")
        .set(0.5);
    registry.histogram("upa_release_latency_us").record(777);
    MetricsReply::new(registry.snapshot())
}

fn trace() -> TraceRecord {
    TraceRecord {
        request_id: "r-9".into(),
        op: "release".into(),
        dataset: "data".into(),
        query_id: "data/sum/v".into(),
        outcome: "ok".into(),
        total_us: 420,
        spans: vec![TraceSpan {
            name: "noise_draw".into(),
            start_us: 400,
            dur_us: 3,
        }],
        engine: vec![span("sample", "engine/prepare/sample", 2, 300)],
    }
}

fn responses() -> Vec<(Response, &'static str)> {
    vec![
        (Response::Ok, r##"{"ok":true}"##),
        (
            Response::Datasets(DatasetsReply {
                names: vec!["people".into(), "taxi".into()],
                info: vec![DatasetInfo {
                    name: "people".into(),
                    rows: 1_000,
                    columns: vec!["age".into(), "income".into()],
                    resident_bytes: 16_000,
                }],
                available: vec!["census".into()],
            }),
            r##"{"ok":true,"datasets":["people","taxi"],"info":[{"name":"people","rows":1000,"columns":["age","income"],"resident_bytes":16000}],"available":["census"]}"##,
        ),
        (
            Response::Attached(AttachOutcome {
                dataset: "people".into(),
                rows: 42,
                resident_bytes: 672,
                reloaded: true,
            }),
            r##"{"ok":true,"attached":"people","rows":42,"resident_bytes":672,"reloaded":true}"##,
        ),
        (
            Response::Detached {
                dataset: "people".into(),
            },
            r##"{"ok":true,"detached":"people"}"##,
        ),
        (
            Response::Ingested {
                dataset: "people".into(),
                rows: 42,
                columns: vec!["age".into(), "income".into()],
                chunks: 1,
                bytes: 500,
            },
            r##"{"ok":true,"ingested":"people","rows":42,"columns":["age","income"],"chunks":1,"bytes":500}"##,
        ),
        (
            Response::Prepared(PreparedInfo {
                query_id: "people/mean/age".into(),
                sample_size: 40,
                cached: true,
            }),
            r##"{"ok":true,"query_id":"people/mean/age","sample_size":40,"cached":true}"##,
        ),
        (
            released(f64::NAN, true, None),
            r##"{"ok":true,"query_id":"data/sum/v","released":12.75,"epsilon":0.25,"noise_scale":null,"sample_size":40,"budget_remaining":null,"cache":"hit"}"##,
        ),
        (
            released(10.0, false, Some(audit())),
            r##"{"ok":true,"query_id":"data/sum/v","released":12.75,"epsilon":0.25,"noise_scale":10,"sample_size":40,"budget_remaining":0.5,"cache":"miss","prepare_us":1500,"audit":{"query":"sum(v)","epsilon":0.25,"budget_remaining":0.5,"sensitivity":[2.5],"range":[[-1,9.5]],"clamped":false,"attack_detected":false,"removed_records":0,"sample_size":40,"group_size":1,"total_nanos":900,"spans":[{"name":"prepare","path":"prepare","depth":0,"nanos":900,"records":7,"calls":1},{"name":"sample","path":"prepare/sample","depth":1,"nanos":300,"records":7,"calls":1}],"engine":{"stages":2,"tasks":4,"task_retries":0,"shuffles":1,"shuffle_records":8,"shuffle_bytes":64,"records_processed":40}}}"##,
        ),
        (
            Response::Budget {
                dataset: "data".into(),
                budget: Some((1.0, 0.25, 0.75)),
            },
            r##"{"ok":true,"dataset":"data","total":1,"spent":0.25,"remaining":0.75}"##,
        ),
        (
            Response::Budget {
                dataset: "data".into(),
                budget: None,
            },
            r##"{"ok":true,"dataset":"data","total":null,"spent":null,"remaining":null}"##,
        ),
        (
            Response::Audits {
                dataset: "data".into(),
                audits: vec![audit()],
            },
            r##"{"ok":true,"dataset":"data","audits":[{"query":"sum(v)","epsilon":0.25,"budget_remaining":0.5,"sensitivity":[2.5],"range":[[-1,9.5]],"clamped":false,"attack_detected":false,"removed_records":0,"sample_size":40,"group_size":1,"total_nanos":900,"spans":[{"name":"prepare","path":"prepare","depth":0,"nanos":900,"records":7,"calls":1},{"name":"sample","path":"prepare/sample","depth":1,"nanos":300,"records":7,"calls":1}],"engine":{"stages":2,"tasks":4,"task_retries":0,"shuffles":1,"shuffle_records":8,"shuffle_bytes":64,"records_processed":40}}]}"##,
        ),
        (
            Response::Stats(StatsReply {
                sched: SchedStats {
                    queued: 2,
                    peak_queued: 7,
                    submitted: 100,
                    completed: 98,
                    prepares: 3,
                    coalesced: 95,
                    shed_deadline: 1,
                    busy_rejected: 4,
                    batches: 9,
                    peak_batch: 12,
                },
                uptime_seconds: 12.5,
                seq: 42,
            }),
            r##"{"ok":true,"sched":{"queued":2,"peak_queued":7,"submitted":100,"completed":98,"prepares":3,"coalesced":95,"shed_deadline":1,"busy_rejected":4,"batches":9,"peak_batch":12},"uptime_seconds":12.5,"seq":42}"##,
        ),
        (
            Response::Metrics(metrics()),
            r##"{"ok":true,"exposition":"# TYPE upa_requests_total counter\nupa_requests_total{op=\"release\"} 3\n# TYPE upa_budget_epsilon_remaining gauge\nupa_budget_epsilon_remaining{dataset=\"d\"} 0.5\n# TYPE upa_release_latency_us summary\nupa_release_latency_us{quantile=\"0.5\"} 799\nupa_release_latency_us{quantile=\"0.9\"} 799\nupa_release_latency_us{quantile=\"0.99\"} 799\nupa_release_latency_us_sum 777\nupa_release_latency_us_count 1\n","metrics":{"counters":{"upa_requests_total{op=\"release\"}":3},"gauges":{"upa_budget_epsilon_remaining{dataset=\"d\"}":0.5},"histograms":{"upa_release_latency_us":{"count":1,"sum":777,"p50":799,"p90":799,"p99":799,"max":799,"buckets":[[104,1]]}}}}"##,
        ),
        (
            Response::Traces(vec![trace()]),
            r##"{"ok":true,"traces":[{"request_id":"r-9","op":"release","dataset":"data","query_id":"data/sum/v","outcome":"ok","total_us":420,"spans":[{"name":"noise_draw","start_us":400,"dur_us":3}],"engine":[{"name":"sample","path":"engine/prepare/sample","depth":2,"nanos":300,"records":7,"calls":1}]}]}"##,
        ),
        (Response::Draining, r##"{"ok":true,"draining":true}"##),
        (
            Response::Error {
                code: ErrorCode::Budget,
                message: "budget exhausted: \"data\"".into(),
            },
            r##"{"ok":false,"code":"budget","error":"budget exhausted: \"data\""}"##,
        ),
    ]
}

#[test]
fn every_request_variant_has_a_pinned_line() {
    let requests = requests();
    assert_eq!(requests.len(), 13);
    for (request, line) in requests {
        assert_eq!(request.to_line(), line, "{request:?}");
        let decoded = Request::from_json(&wire::parse(line).expect("line parses"));
        assert_eq!(decoded.as_ref(), Ok(&request), "{line}");
    }
}

#[test]
fn every_response_variant_has_a_pinned_line() {
    let responses = responses();
    assert_eq!(responses.len(), 16);
    for (response, line) in responses {
        assert_eq!(response.to_line(), format!("{line}\n"), "{response:?}");
        let decoded = Response::from_json(&wire::parse(line).expect("line parses"))
            .unwrap_or_else(|e| panic!("{line}: {e}"));
        // `Response` holds floats (NaN included) and audits, so the
        // decoded value is compared through its exact `Debug` form and
        // its re-encoding.
        assert_eq!(format!("{decoded:?}"), format!("{response:?}"), "{line}");
        assert_eq!(decoded.to_line(), format!("{line}\n"));
    }
}
