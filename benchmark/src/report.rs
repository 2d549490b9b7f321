//! What one run produces, and how it is printed.

use crate::json::Json;
use crate::spec::{self, MetricSet};
use crate::stats::Trials;

/// One correctness check; a failed one fails the run's exit code.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Short name (`budget_spent`, `laplace_scale`, …).
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

impl Check {
    /// A check with its verdict.
    pub fn new(name: &str, passed: bool, detail: String) -> Check {
        Check {
            name: name.to_string(),
            passed,
            detail,
        }
    }
}

/// Everything one `run` measured.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this was the traced (per-layer) run.
    pub traced: bool,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// The correctness checks.
    pub checks: Vec<Check>,
    /// Metric values.
    pub metrics: MetricSet,
    /// Per-trial spread of every metric that is a median of trials.
    pub trials: Vec<(String, Trials)>,
    /// Sizes and counts that make the numbers interpretable: rows, op
    /// counts, percentile sample counts.
    pub facts: Vec<(String, Json)>,
}

impl RunReport {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The declared metrics this run reports.
    pub fn specs(&self) -> Vec<spec::MetricSpec> {
        if self.traced {
            spec::per_layer()
        } else {
            spec::end_to_end()
        }
    }

    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", self.metrics.to_json(&self.specs()))
            .to_line()
    }

    /// The run as one object of the `all` document.
    pub fn to_json(&self) -> Json {
        let checks = self
            .checks
            .iter()
            .map(|c| {
                Json::obj()
                    .with("name", c.name.as_str())
                    .with("passed", c.passed)
                    .with("detail", c.detail.as_str())
            })
            .collect::<Vec<_>>();
        let trials = Json::Obj(
            self.trials
                .iter()
                .map(|(name, s)| {
                    let values: Vec<Json> = s.values.iter().map(|&v| Json::from(v)).collect();
                    let entry = Json::obj()
                        .with("median", s.median)
                        .with("min", s.min)
                        .with("max", s.max)
                        .with("values", values);
                    (name.clone(), entry)
                })
                .collect(),
        );
        Json::obj()
            .with("workload", self.workload)
            .with("traced", self.traced)
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", self.metrics.to_json(&self.specs()))
            .with("trials", trials)
            .with("facts", Json::Obj(self.facts.clone()))
            .with("checks", checks)
    }

    /// Prints every metric as `name value unit`, the per-trial spread,
    /// the facts and the checks — human-readable, above the result line.
    pub fn print(&self) {
        println!(
            "== {} ({}) ==",
            self.workload,
            if self.traced {
                "traced, per-layer"
            } else {
                "untraced, end-to-end"
            }
        );
        for (spec, value) in self.metrics.in_order(&self.specs()) {
            println!("{} {} {}", spec.name, value, spec.unit);
        }
        for (name, s) in &self.trials {
            println!(
                "trials {name}: median {} min {} max {} over {}",
                s.median,
                s.min,
                s.max,
                s.values.len()
            );
        }
        for (name, value) in &self.facts {
            println!("fact {name}: {}", value.to_line());
        }
        for c in &self.checks {
            println!(
                "check {}: {} ({})",
                c.name,
                if c.passed { "ok" } else { "FAILED" },
                c.detail
            );
        }
        println!(
            "attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
    }
}

/// The environment stamp every document carries.
pub fn environment(seed: u64, seconds: u64, smoke: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj()
        .with("commit", command_line("git", &["rev-parse", "HEAD"]))
        .with("nproc", nproc)
        .with("rustc", command_line("rustc", &["--version"]))
        .with("seed", seed)
        .with("seconds", seconds)
        .with("trials", crate::TRIALS)
        .with("smoke", smoke)
        .with(
            "comparable",
            if smoke {
                "no: smoke runs use a fraction of the operations and rows"
            } else {
                "yes"
            },
        )
}

/// First stdout line of a command, `unknown` when it cannot run (the
/// driver's checkout is not a git repository).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use upa_server::wire;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = RunReport {
            workload: "serve_warm",
            attempted: 10,
            failed: 1,
            ..RunReport::default()
        };
        report.metrics.set("qps", 1234.5678);
        report
            .checks
            .push(Check::new("budget_spent", true, String::new()));
        let parsed = wire::parse(&report.result_line()).expect("valid JSON");
        let wire::Json::Obj(fields) = &parsed else {
            panic!("an object")
        };
        let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.bool_of("correct"), Some(true));
        assert_eq!(
            parsed.get("attempted").and_then(wire::Json::as_u64),
            Some(10)
        );
        let qps = parsed
            .get("metrics")
            .and_then(|m| m.get("qps"))
            .expect("qps");
        assert_eq!(qps.num_of("value"), Some(1234.5678));
        assert_eq!(qps.str_of("unit"), Some("1/s"));

        report
            .checks
            .push(Check::new("cache_state", false, "3 misses".into()));
        assert!(!report.correct());
        assert!(wire::parse(&report.to_json().to_line()).is_ok());
    }

    #[test]
    fn environment_stamp_is_complete() {
        let env = wire::parse(&environment(7, 10, true).to_line()).expect("valid JSON");
        for key in [
            "commit", "nproc", "rustc", "seed", "seconds", "trials", "smoke",
        ] {
            assert!(env.get(key).is_some(), "missing {key}");
        }
        assert_eq!(env.bool_of("smoke"), Some(true));
    }
}
