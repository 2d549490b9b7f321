//! The daemon's one front door, end to end against the real
//! `upa-serverd` binary: a CSV input served and released over, a budget
//! refused at startup, and the exit codes of `--help` and a bad flag.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use upa_server::Client;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("upa_front_door_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn daemon(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_upa-serverd"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run upa-serverd")
}

/// The bare daemon serves a CSV file as a dataset named after its stem,
/// every fully numeric column queryable and the rest skipped.
#[test]
fn serves_a_csv_input_and_releases_a_mean() {
    let dir = temp_dir("csv");
    let csv = dir.join("people.csv");
    let mut text = String::from("age,name\n");
    for i in 0..2_000 {
        text.push_str(&format!("{},p{i}\n", 20 + i % 40));
    }
    std::fs::write(&csv, text).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_upa-serverd"))
        .args(["--port", "0", "--budget", "1.0", "--epsilon", "0.5"])
        .args(["--sample-size", "50", "--threads", "2", "--input"])
        .arg(&csv)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn upa-serverd");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("stdout piped"))
        .read_line(&mut line)
        .unwrap();
    let addr = line
        .trim()
        .strip_prefix("upa-server listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .to_string();

    let mut client = Client::builder().connect(&addr).expect("connect");
    let reply = client
        .release("people", "mean", "age", None, false)
        .expect("release over the CSV column");
    assert_eq!(reply.epsilon, 0.5);
    assert!(reply.released.is_finite());
    assert!(
        (reply.budget_remaining.unwrap() - 0.5).abs() < 1e-9,
        "the release was metered"
    );
    let err = client.release("people", "mean", "name", None, false);
    assert!(err.is_err(), "a non-numeric column is not served");

    client.shutdown().expect("shutdown");
    assert!(child.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A NaN budget compares false against every charge: a daemon that
/// accepted it would report itself metered and never refuse one.
#[test]
fn refuses_a_nan_budget_at_startup() {
    let out = daemon(&["--port", "0", "--synthetic", "data=100", "--budget", "nan"]);
    assert_eq!(out.status.code(), Some(1), "a startup failure exits 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("budget"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing was announced");
}

#[test]
fn help_exits_0_and_a_bad_flag_exits_2() {
    let help = daemon(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    let usage = String::from_utf8_lossy(&help.stdout);
    assert!(usage.contains("--cache-capacity N"), "{usage}");

    let bad = daemon(&["--synthetic", "data=100", "--seed", "0xDA7A"]);
    assert_eq!(bad.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(stderr.contains("bad --seed '0xDA7A'"), "{stderr}");
    assert!(
        stderr.contains("--cache-capacity N"),
        "the usage follows the error"
    );
}
