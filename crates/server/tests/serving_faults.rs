//! Deterministic fault injection on the serving path, plus the
//! concurrency behaviours (shared prepared cache, admission control,
//! draining shutdown) exercised over real TCP connections.
//!
//! The crash-safety invariant under test (see `upa_server::ledger`):
//! every *delivered* release has a durable ledger record. The converse
//! direction is deliberately fail-closed — a worker dying after the
//! fsync but before the reply leaves a spend with no delivered result,
//! which wastes budget but never leaks it. Both sides are pinned here.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Duration;
use upa_server::{
    Client, ClientError, DatasetSpec, ErrorCode, Ledger, ReleaseFault, Server, ServerConfig,
    ShutdownHandle,
};

fn temp_ledger(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("upa_serving_fault_tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(format!("{tag}_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn base_config() -> ServerConfig {
    ServerConfig {
        datasets: vec![DatasetSpec::synthetic("data", 3_000, 11)],
        budget: Some(1.0),
        epsilon: 0.2,
        sample_size: 40,
        threads: 2,
        ..ServerConfig::default()
    }
}

/// Binds an ephemeral port and runs the server on a background thread.
fn start(config: ServerConfig) -> (String, ShutdownHandle, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(config, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

/// Records replayed from the ledger file (its zero tail holds none).
fn ledger_lines(path: &PathBuf) -> usize {
    let contents = std::fs::read(path).unwrap_or_default();
    Ledger::replay(contents).expect("ledger replays").len()
}

#[test]
fn fault_after_ledger_spends_without_delivering() {
    let path = temp_ledger("after");
    let (addr, handle, join) = start(ServerConfig {
        ledger_path: Some(path.clone()),
        fault: ReleaseFault::AfterLedger(1),
        ..base_config()
    });

    // Release 0 is healthy.
    let mut healthy = Client::builder().connect(&addr).unwrap();
    let first = healthy.release("data", "sum", "v", None, false).unwrap();
    assert!((first.budget_remaining.unwrap() - 0.8).abs() < 1e-9);

    // Release 1 dies after its spend is durable: the worker panics, the
    // connection drops, and the client never sees a result.
    let mut doomed = Client::builder().connect(&addr).unwrap();
    let err = doomed.release("data", "sum", "v", None, false).unwrap_err();
    assert!(
        matches!(err, ClientError::Protocol(_) | ClientError::Io(_)),
        "the faulted release must not produce a reply, got {err}"
    );

    // Fail-closed: the undelivered release still charged the ledger.
    assert_eq!(ledger_lines(&path), 2, "both spends are durable");

    // A restart against the same ledger accounts for both.
    handle.shutdown();
    join.join().unwrap().unwrap();
    let (addr2, handle2, join2) = start(ServerConfig {
        ledger_path: Some(path.clone()),
        ..base_config()
    });
    let mut after = Client::builder().connect(&addr2).unwrap();
    let budget = after.budget("data").unwrap().unwrap();
    assert!(
        (budget.spent - 0.4).abs() < 1e-9,
        "replay sees the delivered and the undelivered spend alike"
    );
    handle2.shutdown();
    join2.join().unwrap().unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn fault_before_ledger_neither_spends_nor_delivers() {
    let path = temp_ledger("before");
    let (addr, handle, join) = start(ServerConfig {
        ledger_path: Some(path.clone()),
        fault: ReleaseFault::BeforeLedger(0),
        ..base_config()
    });

    // Release 0 dies before any spend reaches the ledger.
    let mut doomed = Client::builder().connect(&addr).unwrap();
    let err = doomed
        .release("data", "mean", "v", None, false)
        .unwrap_err();
    assert!(matches!(err, ClientError::Protocol(_) | ClientError::Io(_)));
    assert_eq!(ledger_lines(&path), 0, "no spend, no result: budget intact");

    // The server survives its worker's death; the next release works and
    // pays the full budget (nothing was leaked to the faulted attempt).
    let mut next = Client::builder().connect(&addr).unwrap();
    let out = next.release("data", "mean", "v", None, false).unwrap();
    assert!((out.budget_remaining.unwrap() - 0.8).abs() < 1e-9);
    assert_eq!(ledger_lines(&path), 1);

    handle.shutdown();
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_file(&path);
}

/// A zero-row dataset (a header-only CSV ingest looks the same) answers a
/// release with the engine's typed refusal instead of a prepare-time
/// panic that hangs up on the client: nothing is charged and the same
/// connection keeps working.
#[test]
fn release_from_a_zero_row_dataset_is_an_error_reply() {
    let empty = DatasetSpec::new("e", 0, HashMap::from([("v".to_string(), vec![])]));
    let (addr, handle, join) = start(ServerConfig {
        datasets: vec![empty],
        ..base_config()
    });
    let mut client = Client::builder().connect(&addr).unwrap();
    for query in ["count", "sum", "mean"] {
        let column = if query == "count" { "" } else { "v" };
        match client.release("e", query, column, None, false).unwrap_err() {
            ClientError::Server { code, message } => {
                assert_eq!(code, ErrorCode::Pipeline);
                assert!(message.contains("empty"), "{message}");
            }
            other => panic!("expected an error reply, got {other}"),
        }
    }
    assert_eq!(client.budget("e").unwrap().unwrap().spent, 0.0);
    client.ping().unwrap();

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn prepared_cache_is_shared_across_connections() {
    let (addr, handle, join) = start(base_config());
    let mut a = Client::builder().connect(&addr).unwrap();
    let first = a.prepare("data", "sum", "v").unwrap();
    assert!(!first.cached, "first prepare runs the engine");

    let mut b = Client::builder().connect(&addr).unwrap();
    let second = b.prepare("data", "sum", "v").unwrap();
    assert!(
        second.cached,
        "another connection reuses the prepared state"
    );
    assert_eq!(first.query_id, second.query_id);
    assert_eq!(first.sample_size, second.sample_size);

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn connections_beyond_the_cap_are_refused_busy() {
    let (addr, handle, join) = start(ServerConfig {
        max_connections: 1,
        ..base_config()
    });
    let mut admitted = Client::builder().connect(&addr).unwrap();
    admitted.ping().unwrap(); // ensure the slot is taken before racing

    let mut refused = Client::builder().connect(&addr).unwrap();
    match refused.ping().unwrap_err() {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::Busy),
        other => panic!("expected a busy refusal, got {other}"),
    }

    // Freeing the slot readmits.
    drop(admitted);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let mut retry = Client::builder().connect(&addr).unwrap();
        match retry.ping() {
            Ok(()) => break,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => panic!("slot never freed: {e}"),
        }
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn shutdown_drains_and_stops_accepting() {
    let (addr, _handle, join) = start(base_config());
    let mut active = Client::builder().connect(&addr).unwrap();
    // Real work before the drain: the release must complete and the
    // server must answer it even though a shutdown follows immediately.
    let out = active.release("data", "count", "", None, false).unwrap();
    assert!(out.released.is_finite());

    let mut stopper = Client::builder().connect(&addr).unwrap();
    stopper.shutdown().unwrap();

    // The accept loop exits and every worker is joined.
    join.join().unwrap().unwrap();

    // New connections are refused outright (the listener is gone).
    assert!(
        Client::builder().connect(&addr).is_err() || {
            let mut c = Client::builder().connect(&addr).unwrap();
            c.ping().is_err()
        }
    );
}

/// Writes `payload` on a raw connection and reads until the server hangs
/// up (or, when `keep_open`, until the first reply line), returning what
/// came back. Write errors are tolerated: the server is entitled to stop
/// reading a hostile line.
fn raw_exchange(addr: &str, payload: &[u8], keep_open: bool) -> (String, TcpStream) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let _ = stream.write_all(payload);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut got = String::new();
    if keep_open {
        reader.read_line(&mut got).expect("reply line");
    } else {
        reader.read_to_string(&mut got).expect("reply then EOF");
    }
    (got, stream)
}

fn assert_bad_request(reply: &str, needle: &str) {
    assert_eq!(reply.lines().count(), 1, "exactly one reply: {reply:?}");
    assert!(
        reply.starts_with("{\"ok\":false,\"code\":\"bad_request\","),
        "{reply:?}"
    );
    assert!(reply.contains(needle), "{reply:?}");
}

#[test]
fn deeply_nested_lines_are_bad_requests_not_stack_overflows() {
    let (addr, handle, join) = start(base_config());

    // 10 kB of '[' fits the line limit and reaches the parser, which used
    // to recurse once per bracket on a 2 MiB connection-thread stack. It
    // is refused in place, and the same connection keeps working.
    let mut line = "[".repeat(10_000).into_bytes();
    line.push(b'\n');
    let (reply, mut stream) = raw_exchange(&addr, &line, true);
    assert_bad_request(&reply, "nesting deeper than 128");
    stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    let mut pong = String::new();
    BufReader::new(stream).read_line(&mut pong).unwrap();
    assert_eq!(pong, "{\"ok\":true}\n");

    // 100 kB of '[' is over the line limit before it is anything else:
    // one refusal, then the server hangs up — and keeps serving others.
    let mut line = "[".repeat(100_000).into_bytes();
    line.push(b'\n');
    let (reply, _) = raw_exchange(&addr, &line, false);
    assert_bad_request(&reply, "longer than 65536 bytes");
    Client::builder().connect(&addr).unwrap().ping().unwrap();

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn unterminated_megabyte_line_is_refused_and_disconnected() {
    let path = temp_ledger("overlong");
    let (addr, handle, join) = start(ServerConfig {
        ledger_path: Some(path.clone()),
        ..base_config()
    });
    // Two-byte characters at odd offsets, so the limit falls inside one:
    // the refusal must not depend on where the cut lands.
    let flood = format!("x{}", "é".repeat(512 * 1024));
    assert!(flood.len() > 1 << 20);
    let (reply, _) = raw_exchange(&addr, flood.as_bytes(), false);
    assert_bad_request(&reply, "longer than 65536 bytes");

    // The daemon is alive and no budget moved.
    let mut client = Client::builder().connect(&addr).unwrap();
    client.ping().unwrap();
    let budget = client.budget("data").unwrap().unwrap();
    assert_eq!(budget.spent, 0.0);
    assert_eq!(ledger_lines(&path), 0);

    // A line of exactly the limit (newline included) is still a request.
    let mut line = format!("{{\"op\":\"ping\",\"pad\":\"{}", "x".repeat(70_000));
    line.truncate(upa_server::server::MAX_LINE_BYTES - 3);
    line.push_str("\"}\n");
    let (reply, _) = raw_exchange(&addr, line.as_bytes(), true);
    assert_eq!(reply, "{\"ok\":true}\n");

    handle.shutdown();
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_file(&path);
}
