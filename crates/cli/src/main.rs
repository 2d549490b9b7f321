//! The `upa-cli` binary; all logic lives in the library for testability.
//!
//! Six commands:
//!
//! * default — release an aggregate over a local CSV file;
//! * `serve` — run the `upa-server` daemon, an alias of `upa-serverd`
//!   (`upa_server::daemon::main`) over CSV files, synthetic datasets
//!   and/or a persistent columnar store;
//! * `query` — release an aggregate from a running daemon;
//! * `metrics` — scrape (or `--watch`) a running daemon's metrics;
//! * `ingest` — publish a CSV into a persistent columnar store;
//! * `datasets` — list a store directory's or a daemon's datasets.
//!
//! Each command is one `upa_server::flags::Command`, whose `main` prints
//! `--help`, a bad command line and a failed run the same way for all six.

use std::process::ExitCode;
use upa_cli::{remote, store_cmd};
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

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let command = argv.peek().cloned().unwrap_or_default();
    let program = format!("upa-cli {command}");
    match command.as_str() {
        "serve" => upa_server::daemon::main(&program, argv.skip(1)),
        "query" => remote::QUERY.main(&program, argv.skip(1), |args| {
            let release = remote::run_remote_query(&args)?;
            println!("{}", remote::render_remote(&release));
            if args.stats {
                print_stats(release.reply.audit.as_ref());
            }
            Ok(())
        }),
        "metrics" => {
            remote::METRICS.main(&program, argv.skip(1), |args| remote::run_metrics(&args))
        }
        "ingest" => store_cmd::INGEST.main(&program, argv.skip(1), |args| {
            println!("{}", store_cmd::run_ingest(&args)?);
            Ok(())
        }),
        "datasets" => store_cmd::DATASETS.main(&program, argv.skip(1), |args| {
            println!("{}", store_cmd::run_datasets(&args)?);
            Ok(())
        }),
        _ => upa_cli::RELEASE.main("upa-cli", argv, |args| {
            let release = upa_cli::run_release(&args)?;
            println!("{}", upa_cli::render_output(&release.output, &args));
            if args.stats {
                print_stats(release.audit.as_ref());
            }
            Ok(())
        }),
    }
}
