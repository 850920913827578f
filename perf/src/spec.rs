//! The benchmark's declared surface, read from two files embedded at build
//! time: the repo's `BENCHMARK.json` (workload names, the contract's
//! end-to-end metrics with their units and relative bounds, the per-layer
//! metrics with their units) and `perf/extra_end_to_end.json` (the
//! end-to-end numbers the contract cannot bound, with the kind of bound
//! `--repeat` / `--check` hold them to). Every name, unit and bound the
//! program prints or judges by comes from one of the two.

use serde::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const EXTRA_JSON: &str = include_str!("../extra_end_to_end.json");

/// How far a metric may move before `--check` calls it a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Worse by at most this share of the reference value.
    Relative(f64),
    /// Worse by at most this much.
    Absolute(f64),
    /// Deterministic in the seed: must repeat exactly.
    Exact,
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a larger value is the better one.
    pub higher_is_better: bool,
    /// End-to-end metrics only.
    pub bound: Option<Bound>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    /// `BENCHMARK.json`'s end-to-end metrics: every untraced run owes them.
    pub end_to_end: Vec<MetricSpec>,
    /// `BENCHMARK.json`'s per-layer metrics: the traced runs' table.
    pub per_layer: Vec<MetricSpec>,
    /// `extra_end_to_end.json`: reported by the workloads that define them.
    pub extra: Vec<MetricSpec>,
}

fn metric_list(doc: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    let text_of = |m: &Value, field: &str| {
        m.get(field)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("`{key}`: missing string `{field}`"))
    };
    doc.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("missing array `{key}`"))?
        .iter()
        .map(|m| {
            let number = m.get("bound").and_then(Value::as_f64);
            let bound = match (m.get("kind").and_then(Value::as_str), number) {
                (Some("exact"), None) => Some(Bound::Exact),
                (Some("absolute"), Some(b)) => Some(Bound::Absolute(b)),
                // `BENCHMARK.json` has no `kind`: its bounds are relative.
                (Some("relative") | None, Some(b)) => Some(Bound::Relative(b)),
                (None, None) => None,
                (kind, _) => return Err(format!("`{key}`: bad kind/bound {kind:?} / {number:?}")),
            };
            Ok(MetricSpec {
                name: text_of(m, "name")?,
                unit: text_of(m, "unit")?,
                higher_is_better: text_of(m, "better")? == "higher",
                bound,
            })
        })
        .collect()
}

impl Spec {
    pub fn load() -> Self {
        Self::parse(BENCHMARK_JSON, EXTRA_JSON).expect("the embedded metric files are well-formed")
    }

    pub fn parse(benchmark: &str, extra: &str) -> Result<Self, String> {
        let doc = serde_json::parse_value_str(benchmark).map_err(|e| e.to_string())?;
        let extra = serde_json::parse_value_str(extra).map_err(|e| e.to_string())?;
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("missing array `workloads`")?
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).map(str::to_owned))
            .collect::<Option<_>>()
            .ok_or("a workload without a `name`")?;
        Ok(Self {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_u64)
                .ok_or("missing number `run_seconds`")?,
            workloads,
            end_to_end: metric_list(&doc, "end_to_end")?,
            per_layer: metric_list(&doc, "per_layer")?,
            extra: metric_list(&extra, "end_to_end")?,
        })
    }

    /// The metric list a run with the given trace setting must print.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Every end-to-end number the trajectory keeps and `--repeat` /
    /// `--check` judge: the contract's, then the extra ones.
    pub fn judged(&self) -> impl Iterator<Item = &MetricSpec> {
        self.end_to_end.iter().chain(&self.extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_embedded_files_parse_and_names_are_unique() {
        let spec = Spec::load();
        assert!(spec.workloads.len() >= 2);
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .chain(spec.workloads.iter().map(String::as_str))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| matches!(m.bound, Some(Bound::Relative(b)) if b > 0.0 && b <= 0.25)));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn extra_metrics_are_bounded_and_agree_with_their_per_layer_twins() {
        let spec = Spec::load();
        assert!(!spec.extra.is_empty());
        for m in &spec.extra {
            assert!(m.bound.is_some(), "{} has no bound", m.name);
            assert!(
                spec.end_to_end.iter().all(|e| e.name != m.name),
                "{} is declared twice",
                m.name
            );
            // The traced run reports some of them as per-layer metrics too.
            if let Some(twin) = spec.per_layer.iter().find(|p| p.name == m.name) {
                assert_eq!((&twin.unit, twin.higher_is_better), (&m.unit, m.higher_is_better));
            }
        }
    }

    #[test]
    fn a_missing_key_or_a_bad_kind_is_an_error() {
        let extra = r#"{"end_to_end": []}"#;
        assert!(Spec::parse("{}", extra).is_err());
        assert!(Spec::parse(r#"{"run_seconds": 1, "workloads": [{"name": 3}]}"#, extra).is_err());
        let bench = r#"{"run_seconds": 1, "workloads": [], "end_to_end": [], "per_layer": []}"#;
        assert!(Spec::parse(bench, extra).is_ok());
        let exact_with_bound = r#"{"end_to_end": [
            {"name": "m", "unit": "u", "better": "lower", "kind": "exact", "bound": 0.1}]}"#;
        assert!(Spec::parse(bench, exact_with_bound).is_err());
        let unknown_kind = r#"{"end_to_end": [
            {"name": "m", "unit": "u", "better": "lower", "kind": "fuzzy", "bound": 0.1}]}"#;
        assert!(Spec::parse(bench, unknown_kind).is_err());
    }
}
