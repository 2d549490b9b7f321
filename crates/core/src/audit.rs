//! Per-query audit records — `EXPLAIN ANALYZE` for the UPA pipeline.
//!
//! Every successful release ([`crate::Upa::run`], [`crate::Upa::release`],
//! [`crate::Upa::run_join`]) produces a [`QueryAudit`]: where the wall
//! clock went (one [`StageSpan`] per Algorithm 1 phase), what the engine
//! did (stages, shuffles, shuffle bytes, retries), what RANGE ENFORCER
//! decided, and what the release cost in privacy budget. Scalable DP
//! query systems treat per-query cost/budget accounting as a first-class
//! output; the audit is this reproduction's version of that, and the
//! substrate later performance work is measured against.
//!
//! The record is retrievable from [`crate::Upa::last_audit`] /
//! [`crate::api::DpSession::last_audit`], rendered by `upa-cli --stats`,
//! and travels as JSON (its rows below, through the `upa-json` codec) in
//! the serving protocol's `audit` replies.

use dataflow::{MetricsSnapshot, StageSpan};
use upa_json::{put_list, put_name, take, Json, Via};

/// The audit record of one released query.
#[derive(Debug, Clone)]
pub struct QueryAudit {
    /// The query name (from [`crate::query::MapReduceQuery::name`]).
    pub query: String,
    /// Privacy budget ε charged for this release.
    pub epsilon: f64,
    /// Budget remaining after the charge, when an accountant is attached.
    pub budget_remaining: Option<f64>,
    /// Per-component inferred local sensitivity.
    pub sensitivity: Vec<f64>,
    /// The enforced output range `Ô_f`, per component.
    pub range: Vec<(f64, f64)>,
    /// Whether RANGE ENFORCER clamped the output into the range.
    pub clamped: bool,
    /// Whether a repeated query on a neighbouring dataset was suspected.
    pub attack_detected: bool,
    /// Records removed by RANGE ENFORCER to separate the datasets.
    pub removed_records: usize,
    /// Effective sample size `n`.
    pub sample_size: usize,
    /// Group size `g` (1 = the paper's iDP setting).
    pub group_size: usize,
    /// Stage spans in completion order (a child scope closes before its
    /// parent, so children precede parents).
    pub spans: Vec<StageSpan>,
    /// Engine counters attributable to this query: the preparation's own
    /// reduce stage and record exchange, and the records it read — for a
    /// query with exact half totals, its sample, plus the source when the
    /// preparation scanned it for the totals. A joinDP query reports the
    /// [`dataflow::Context`]'s counter delta over its join rounds, which
    /// also counts stages other queries ran on that context meanwhile.
    pub engine: MetricsSnapshot,
    /// Total wall-clock nanoseconds across the root stage spans.
    pub total_nanos: u64,
}

impl QueryAudit {
    /// Cumulative nanoseconds of every span whose *leaf* name is `name`
    /// (e.g. `"sample"` matches `prepare/sample`), or 0 when absent.
    pub fn stage_nanos(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos)
            .sum()
    }

    /// The spans re-rooted under `prefix` (each path becomes
    /// `prefix/path`, depth + 1), for grafting the engine's stage tree
    /// under an outer trace — e.g. a server request trace.
    pub fn spans_rebased(&self, prefix: &str) -> Vec<StageSpan> {
        self.spans.iter().map(|s| s.rebased(prefix)).collect()
    }

    /// Renders the audit as an `EXPLAIN ANALYZE`-style report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Query: {}  (ε = {}, n = {}, g = {})\n",
            self.query, self.epsilon, self.sample_size, self.group_size
        ));
        out.push_str(&format!("  total: {}\n", fmt_ms(self.total_nanos)));
        out.push_str(&format!(
            "  sensitivity: {:?}\n  range: {:?}\n",
            self.sensitivity, self.range
        ));
        out.push_str(&format!(
            "  enforcer: attack={} removed={} clamped={}\n",
            yn(self.attack_detected),
            self.removed_records,
            yn(self.clamped)
        ));
        match self.budget_remaining {
            Some(rem) => out.push_str(&format!("  budget remaining: {rem}\n")),
            None => out.push_str("  budget remaining: (no accountant)\n"),
        }
        out.push_str("  stages:\n");
        for span in display_order(&self.spans) {
            let indent = "  ".repeat(span.depth + 2);
            let mut line = format!("{indent}{:<24}{:>12}", span.name, fmt_ms(span.nanos));
            if span.records > 0 {
                line.push_str(&format!("  {} records", span.records));
            }
            if span.calls > 1 {
                line.push_str(&format!("  ({} calls)", span.calls));
            }
            out.push_str(&line);
            out.push('\n');
        }
        out.push_str(&format!("  engine: {}\n", self.engine));
        out
    }
}

upa_json::body! {
    QueryAudit {
        query,
        epsilon,
        budget_remaining,
        sensitivity,
        range,
        clamped,
        attack_detected,
        removed_records,
        sample_size,
        group_size,
        total_nanos,
        spans [via DisplayOrder],
        engine,
    }
}

/// The spans row: written in display order, read back as written.
struct DisplayOrder;

impl Via<Vec<StageSpan>> for DisplayOrder {
    fn put(out: &mut String, name: &str, spans: &Vec<StageSpan>) {
        put_name(out, name);
        put_list(out, display_order(spans));
    }
    fn take(v: &Json, name: &str) -> Result<Vec<StageSpan>, String> {
        take(v, name)
    }
}

/// The spans reordered depth-first, parents before children, for
/// display. Recorded order is completion order (children first).
fn display_order(spans: &[StageSpan]) -> Vec<&StageSpan> {
    fn emit<'a>(span: &'a StageSpan, all: &'a [StageSpan], out: &mut Vec<&'a StageSpan>) {
        out.push(span);
        let prefix = format!("{}/", span.path);
        for child in all
            .iter()
            .filter(|c| c.depth == span.depth + 1 && c.path.starts_with(&prefix))
        {
            emit(child, all, out);
        }
    }
    let mut out = Vec::new();
    for root in spans.iter().filter(|s| s.depth == 0) {
        emit(root, spans, &mut out);
    }
    out
}

fn yn(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

fn fmt_ms(nanos: u64) -> String {
    format!("{:.3} ms", nanos as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use upa_json::Body;

    fn span(name: &str, path: &str, depth: usize, nanos: u64) -> StageSpan {
        StageSpan {
            name: name.to_string(),
            path: path.to_string(),
            depth,
            nanos,
            records: 0,
            calls: 1,
        }
    }

    fn sample_audit() -> QueryAudit {
        QueryAudit {
            query: "count".to_string(),
            epsilon: 0.1,
            budget_remaining: Some(0.9),
            sensitivity: vec![2.0],
            range: vec![(10.0, 20.0)],
            clamped: true,
            attack_detected: false,
            removed_records: 0,
            sample_size: 100,
            group_size: 1,
            spans: vec![
                span("sample", "prepare/sample", 1, 50),
                span("map", "prepare/map", 1, 60),
                span("prepare", "prepare", 0, 200),
                span("enforce", "release/enforce", 1, 10),
                span("release", "release", 0, 40),
            ],
            engine: MetricsSnapshot {
                stages: 3,
                tasks: 12,
                task_retries: 0,
                shuffles: 1,
                shuffle_records: 500,
                shuffle_bytes: 4000,
                records_processed: 1000,
            },
            total_nanos: 240,
        }
    }

    #[test]
    fn stage_nanos_sums_by_leaf_name() {
        let a = sample_audit();
        assert_eq!(a.stage_nanos("sample"), 50);
        assert_eq!(a.stage_nanos("enforce"), 10);
        assert_eq!(a.stage_nanos("missing"), 0);
    }

    #[test]
    fn render_orders_parents_before_children() {
        let a = sample_audit();
        let text = a.render();
        let prepare = text.find("prepare").expect("prepare span shown");
        let sample = text.find("sample").expect("sample span shown");
        assert!(prepare < sample, "parent precedes child in {text}");
        assert!(text.contains("Query: count"));
        assert!(text.contains("attack=no"));
        assert!(text.contains("clamped=yes"));
        assert!(text.contains("shuffle_bytes=4000"));
    }

    #[test]
    fn json_has_expected_fields() {
        let a = sample_audit();
        let json = a.to_json();
        for needle in [
            "\"query\":\"count\"",
            "\"epsilon\":0.1",
            "\"budget_remaining\":0.9",
            "\"sensitivity\":[2]",
            "\"range\":[[10,20]]",
            "\"clamped\":true",
            "\"attack_detected\":false",
            "\"sample_size\":100",
            "\"shuffle_bytes\":4000",
            "\"path\":\"prepare/sample\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn json_escapes_and_handles_non_finite() {
        let mut a = sample_audit();
        a.query = "a\"b\\c\n".into();
        a.budget_remaining = None;
        a.range = vec![(f64::NEG_INFINITY, f64::INFINITY)];
        let json = a.to_json();
        assert!(json.contains("\"query\":\"a\\\"b\\\\c\\n\""), "{json}");
        assert!(json.contains("\"budget_remaining\":null"));
        assert!(json.contains("\"range\":[[null,null]]"));
    }

    #[test]
    fn json_round_trips() {
        let mut original = sample_audit();
        original.spans[0].records = 200;
        original.spans[0].calls = 2;
        let parsed = upa_json::parse(&original.to_json()).expect("to_json parses");
        let rebuilt = QueryAudit::take_fields(&parsed).expect("audit reconstructs");
        // The shared renderer is the contract: remote audits must render
        // identically to local ones.
        assert_eq!(rebuilt.render(), original.render());
        assert_eq!(rebuilt.query, original.query);
        assert_eq!(rebuilt.epsilon, original.epsilon);
        assert_eq!(rebuilt.budget_remaining, original.budget_remaining);
        assert_eq!(rebuilt.sensitivity, original.sensitivity);
        assert_eq!(rebuilt.range, original.range);
        assert_eq!(rebuilt.spans.len(), original.spans.len());
        assert_eq!(rebuilt.engine.shuffle_bytes, original.engine.shuffle_bytes);
        assert_eq!(rebuilt.total_nanos, original.total_nanos);
    }

    #[test]
    fn truncated_json_is_rejected_not_zeroed() {
        let parsed = upa_json::parse(r#"{"query":"count","epsilon":0.1}"#).unwrap();
        let err = QueryAudit::take_fields(&parsed).unwrap_err();
        assert!(err.contains("'budget_remaining'"), "{err}");
    }
}
