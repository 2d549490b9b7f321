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
//! and travels as JSON ([`QueryAudit::to_json`] /
//! [`QueryAudit::from_json`]) in the serving protocol's `audit` replies.

use dataflow::{MetricsSnapshot, StageSpan};
use upa_json::{json_num, json_str, Json};

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
    /// Engine counters attributable to this query. Counters are
    /// per-[`dataflow::Context`], so sessions sharing one context see
    /// each other's stages in this delta.
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

    /// The spans reordered depth-first, parents before children, for
    /// display. Recorded order is completion order (children first).
    fn display_order(&self) -> Vec<&StageSpan> {
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
        for root in self.spans.iter().filter(|s| s.depth == 0) {
            emit(root, &self.spans, &mut out);
        }
        out
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
        for span in self.display_order() {
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

    /// Serialises the audit as a JSON object (hand-rolled; this workspace
    /// deliberately has no serde dependency).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"query\":{},", json_str(&self.query)));
        s.push_str(&format!("\"epsilon\":{},", json_num(self.epsilon)));
        match self.budget_remaining {
            Some(rem) => s.push_str(&format!("\"budget_remaining\":{},", json_num(rem))),
            None => s.push_str("\"budget_remaining\":null,"),
        }
        s.push_str(&format!(
            "\"sensitivity\":[{}],",
            self.sensitivity
                .iter()
                .map(|v| json_num(*v))
                .collect::<Vec<_>>()
                .join(",")
        ));
        s.push_str(&format!(
            "\"range\":[{}],",
            self.range
                .iter()
                .map(|(lo, hi)| format!("[{},{}]", json_num(*lo), json_num(*hi)))
                .collect::<Vec<_>>()
                .join(",")
        ));
        s.push_str(&format!("\"clamped\":{},", self.clamped));
        s.push_str(&format!("\"attack_detected\":{},", self.attack_detected));
        s.push_str(&format!("\"removed_records\":{},", self.removed_records));
        s.push_str(&format!("\"sample_size\":{},", self.sample_size));
        s.push_str(&format!("\"group_size\":{},", self.group_size));
        s.push_str(&format!("\"total_nanos\":{},", self.total_nanos));
        s.push_str(&format!(
            "\"spans\":[{}],",
            self.display_order()
                .iter()
                .map(|sp| span_to_json(sp))
                .collect::<Vec<_>>()
                .join(",")
        ));
        s.push_str(&format!(
            "\"engine\":{{\"stages\":{},\"tasks\":{},\"task_retries\":{},\"shuffles\":{},\"shuffle_records\":{},\"shuffle_bytes\":{},\"records_processed\":{}}}",
            self.engine.stages,
            self.engine.tasks,
            self.engine.task_retries,
            self.engine.shuffles,
            self.engine.shuffle_records,
            self.engine.shuffle_bytes,
            self.engine.records_processed
        ));
        s.push('}');
        s
    }

    /// Reconstructs an audit from its [`QueryAudit::to_json`] form.
    /// Returns `None` when required fields are missing, so a truncated or
    /// foreign object never silently becomes a zeroed audit.
    pub fn from_json(v: &Json) -> Option<QueryAudit> {
        let engine = v.get("engine")?;
        let counter = |name: &str| engine.get(name).and_then(Json::as_u64).unwrap_or(0);
        // `json_num` writes non-finite floats as null; map them back to NaN
        // rather than inventing a finite value.
        let num_or_nan = |field: &Json| field.as_f64().unwrap_or(f64::NAN);
        Some(QueryAudit {
            query: v.str_of("query")?.to_string(),
            epsilon: v.num_of("epsilon")?,
            budget_remaining: v.num_of("budget_remaining"),
            sensitivity: v
                .get("sensitivity")?
                .as_arr()?
                .iter()
                .map(num_or_nan)
                .collect(),
            range: v
                .get("range")?
                .as_arr()?
                .iter()
                .filter_map(|pair| {
                    let pair = pair.as_arr()?;
                    Some((num_or_nan(pair.first()?), num_or_nan(pair.get(1)?)))
                })
                .collect(),
            clamped: v.bool_of("clamped")?,
            attack_detected: v.bool_of("attack_detected")?,
            removed_records: v.get("removed_records").and_then(Json::as_u64)? as usize,
            sample_size: v.get("sample_size").and_then(Json::as_u64)? as usize,
            group_size: v.get("group_size").and_then(Json::as_u64)? as usize,
            spans: spans_from_json(v.get("spans")?)?,
            engine: MetricsSnapshot {
                stages: counter("stages"),
                tasks: counter("tasks"),
                task_retries: counter("task_retries"),
                shuffles: counter("shuffles"),
                shuffle_records: counter("shuffle_records"),
                shuffle_bytes: counter("shuffle_bytes"),
                records_processed: counter("records_processed"),
            },
            total_nanos: v.get("total_nanos").and_then(Json::as_u64)?,
        })
    }
}

/// Writes one [`StageSpan`] as its six-field JSON object: the one span
/// codec, shared by audits and the server's request traces.
pub fn span_to_json(span: &StageSpan) -> String {
    format!(
        "{{\"name\":{},\"path\":{},\"depth\":{},\"nanos\":{},\"records\":{},\"calls\":{}}}",
        json_str(&span.name),
        json_str(&span.path),
        span.depth,
        span.nanos,
        span.records,
        span.calls
    )
}

/// Parses a JSON array of [`span_to_json`] objects; `None` when any
/// span is missing a field, so a truncated span never reads as zero.
pub fn spans_from_json(v: &Json) -> Option<Vec<StageSpan>> {
    v.as_arr()?
        .iter()
        .map(|sp| {
            Some(StageSpan {
                name: sp.str_of("name")?.to_string(),
                path: sp.str_of("path")?.to_string(),
                depth: sp.get("depth").and_then(Json::as_u64)? as usize,
                nanos: sp.get("nanos").and_then(Json::as_u64)?,
                records: sp.get("records").and_then(Json::as_u64)?,
                calls: sp.get("calls").and_then(Json::as_u64)?,
            })
        })
        .collect()
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
        let rebuilt = QueryAudit::from_json(&parsed).expect("audit reconstructs");
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
        assert!(QueryAudit::from_json(&parsed).is_none());
    }
}
