//! The `upa-cli` binary; all logic lives in the library for testability.
//!
//! Six modes:
//!
//! * default — release an aggregate over a local CSV file;
//! * `serve` — run the `upa-server` daemon, an alias of `upa-serverd`
//!   (`upa_server::daemon::main`) over CSV files, synthetic datasets
//!   and/or a persistent columnar store;
//! * `query` — release an aggregate from a running daemon;
//! * `metrics` — scrape (or `--watch`) a running daemon's metrics;
//! * `ingest` — publish a CSV into a persistent columnar store;
//! * `datasets` — list a store directory's or a daemon's datasets.

use std::process::ExitCode;
use upa_core::QueryAudit;

/// The one `--stats` renderer: local and remote audits both come
/// through here, so the output is identical regardless of where the
/// query ran.
fn print_stats(audit: Option<&QueryAudit>) {
    match audit {
        Some(audit) => println!("\n{}", audit.render()),
        None => eprintln!("(no audit recorded for this release)"),
    }
}

fn fail(msg: &str, code: i32) -> ! {
    eprintln!("{msg}");
    std::process::exit(code);
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("serve") => return upa_server::daemon::main("upa-cli serve", argv.skip(1)),
        Some("query") => {
            let args =
                upa_cli::remote::QueryArgs::parse(argv.skip(1)).unwrap_or_else(|msg| fail(&msg, 2));
            match upa_cli::remote::run_remote_query(&args) {
                Ok(release) => {
                    println!("{}", upa_cli::remote::render_remote(&release));
                    if args.stats {
                        print_stats(release.reply.audit.as_ref());
                    }
                }
                Err(msg) => fail(&format!("error: {msg}"), 1),
            }
        }
        Some("ingest") => {
            let args = upa_cli::store_cmd::IngestArgs::parse(argv.skip(1))
                .unwrap_or_else(|msg| fail(&msg, 2));
            match upa_cli::store_cmd::run_ingest(&args) {
                Ok(report) => println!("{report}"),
                Err(msg) => fail(&format!("error: {msg}"), 1),
            }
        }
        Some("datasets") => {
            let args = upa_cli::store_cmd::DatasetsArgs::parse(argv.skip(1))
                .unwrap_or_else(|msg| fail(&msg, 2));
            match upa_cli::store_cmd::run_datasets(&args) {
                Ok(listing) => println!("{listing}"),
                Err(msg) => fail(&format!("error: {msg}"), 1),
            }
        }
        Some("metrics") => {
            let args = upa_cli::remote::MetricsArgs::parse(argv.skip(1))
                .unwrap_or_else(|msg| fail(&msg, 2));
            if let Err(msg) = upa_cli::remote::run_metrics(&args) {
                fail(&format!("error: {msg}"), 1);
            }
        }
        _ => {
            let args = upa_cli::Args::parse(argv).unwrap_or_else(|msg| fail(&msg, 2));
            match upa_cli::run_release(&args) {
                Ok(release) => {
                    println!("{}", upa_cli::render_output(&release.output, &args));
                    if args.stats {
                        print_stats(release.audit.as_ref());
                    }
                }
                Err(msg) => fail(&format!("error: {msg}"), 1),
            }
        }
    }
    ExitCode::SUCCESS
}
