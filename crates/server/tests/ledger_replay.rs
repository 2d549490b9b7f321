//! Property tests of the ledger ↔ accountant round trip: replaying a
//! ledger must reconstruct exactly the budget state the spends were
//! originally charged against.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use upa_core::budget::BudgetAccountant;
use upa_server::{GroupCommitLedger, Ledger, SpendRecord};

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("upa_ledger_replay_tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(format!("{tag}_{}.jsonl", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For an arbitrary accepted spend sequence, a ledger written spend
    /// by spend and then replayed reconstructs `spent()` (and therefore
    /// `remaining()`) within float tolerance.
    #[test]
    fn replay_reconstructs_spent(
        charges in prop::collection::vec(0.001f64..0.3, 1..40),
        total in 0.5f64..8.0,
        case in 0u64..u64::MAX,
    ) {
        let path = temp_path(&format!("prop_{case}"));
        let _ = std::fs::remove_file(&path);
        let (mut ledger, initial) = Ledger::open(&path).unwrap();
        prop_assert!(initial.is_empty());
        let live = BudgetAccountant::new(total);
        for (i, eps) in charges.iter().enumerate() {
            if live.try_spend(*eps).is_ok() {
                ledger.append(&SpendRecord {
                    dataset: "data".into(),
                    query_id: format!("data/sum/col{i}"),
                    epsilon: *eps,
                }).unwrap();
            }
        }
        drop(ledger);

        let (_, replayed) = Ledger::open(&path).unwrap();
        let spent = upa_server::ledger::spent_by_dataset(&replayed);
        let replayed_spent = spent.get("data").copied().unwrap_or(0.0);
        prop_assert!(
            (replayed_spent - live.spent()).abs() < 1e-9,
            "replayed {} vs live {}", replayed_spent, live.spent()
        );
        let restored = BudgetAccountant::restore(total, replayed_spent);
        prop_assert!((restored.remaining() - live.remaining()).abs() < 1e-9);
        let _ = std::fs::remove_file(&path);
    }

    /// Group commit changes batching and on-disk interleaving, never
    /// accounting: N spends submitted concurrently through the
    /// group-commit front replay to the same accountant state as the
    /// same N spends charged serially.
    #[test]
    fn concurrent_group_commit_replays_like_serial(
        charges in prop::collection::vec(0.001f64..0.2, 1..24),
        case in 0u64..u64::MAX,
    ) {
        // Serial baseline: one accountant charged in order. The total is
        // sized so every charge fits — acceptance is not under test here,
        // durability-equivalence is.
        let total = 16.0;
        let serial = BudgetAccountant::new(total);
        for eps in &charges {
            serial.try_spend(*eps).expect("all charges fit");
        }

        let path = temp_path(&format!("group_{case}"));
        let _ = std::fs::remove_file(&path);
        let (ledger, initial) = Ledger::open(&path).unwrap();
        prop_assert!(initial.is_empty());
        let group = Arc::new(GroupCommitLedger::new(ledger, None));
        let mut threads = Vec::new();
        for (i, eps) in charges.iter().enumerate() {
            let group = Arc::clone(&group);
            let eps = *eps;
            threads.push(std::thread::spawn(move || {
                group.submit(&SpendRecord {
                    dataset: "data".into(),
                    query_id: format!("data/sum/col{i}"),
                    epsilon: eps,
                })
            }));
        }
        for t in threads {
            t.join().unwrap().expect("group submit succeeds");
        }
        drop(group);

        let (_, replayed) = Ledger::open(&path).unwrap();
        prop_assert_eq!(replayed.len(), charges.len());
        let spent = upa_server::ledger::spent_by_dataset(&replayed);
        let replayed_spent = spent.get("data").copied().unwrap_or(0.0);
        prop_assert!(
            (replayed_spent - serial.spent()).abs() < 1e-9,
            "concurrent replay {} vs serial {}", replayed_spent, serial.spent()
        );
        let restored = BudgetAccountant::restore(total, replayed_spent);
        prop_assert!((restored.remaining() - serial.remaining()).abs() < 1e-9);
        let _ = std::fs::remove_file(&path);
    }
}

/// The accumulation edge case the accountant's tolerance exists for: ten
/// 0.1-charges exactly fill a 1.0 budget, and that must survive a ledger
/// round trip — the eleventh charge stays refused after replay.
#[test]
fn ten_tenth_charges_fill_one_exactly_across_replay() {
    let path = temp_path("tenths");
    let _ = std::fs::remove_file(&path);
    let (mut ledger, _) = Ledger::open(&path).unwrap();
    let live = BudgetAccountant::new(1.0);
    for i in 0..10 {
        live.try_spend(0.1).expect("all ten tenths fit");
        ledger
            .append(&SpendRecord {
                dataset: "data".into(),
                query_id: format!("data/count/{i}"),
                epsilon: 0.1,
            })
            .unwrap();
    }
    drop(ledger);

    let (_, replayed) = Ledger::open(&path).unwrap();
    assert_eq!(replayed.len(), 10);
    let spent = upa_server::ledger::spent_by_dataset(&replayed)["data"];
    let restored = BudgetAccountant::restore(1.0, spent);
    assert!(
        restored.remaining() < 1e-9,
        "budget is exactly exhausted after replay, remaining = {}",
        restored.remaining()
    );
    assert!(
        restored.try_spend(0.1).is_err(),
        "an eleventh tenth is still refused after replay"
    );
    let _ = std::fs::remove_file(&path);
}

/// A torn final append (the crash-mid-write artefact) never resurrects a
/// partial spend, while every fully written spend survives.
#[test]
fn torn_tail_drops_only_the_partial_spend() {
    let path = temp_path("torn_tail");
    let _ = std::fs::remove_file(&path);
    let (mut ledger, _) = Ledger::open(&path).unwrap();
    for eps in [0.2, 0.3] {
        ledger
            .append(&SpendRecord {
                dataset: "data".into(),
                query_id: "data/sum/v".into(),
                epsilon: eps,
            })
            .unwrap();
    }
    drop(ledger);
    // Simulate a crash mid-write: half a record, no newline, at the
    // logical end (the first zero byte), where the next batch would go.
    let mut contents = std::fs::read(&path).unwrap();
    let end = contents.iter().position(|&b| b == 0).unwrap();
    let torn = b"{\"dataset\":\"data\",\"query_id\":\"data/su";
    contents[end..end + torn.len()].copy_from_slice(torn);
    std::fs::write(&path, contents).unwrap();

    let (_, replayed) = Ledger::open(&path).unwrap();
    assert_eq!(replayed.len(), 2, "both durable spends survive");
    let spent = upa_server::ledger::spent_by_dataset(&replayed)["data"];
    assert!((spent - 0.5).abs() < 1e-12);
    let _ = std::fs::remove_file(&path);
}
