//! Output of the benchmark: the one-line result of a workload run, the
//! printed metric table, the trajectory file (`history.jsonl`) and the
//! `--repeat` / `--check` verdicts.

use std::io::Write as _;
use std::path::PathBuf;

use serde::Value;

use crate::spec::{Bound, MetricSpec, Spec};
use crate::stats::{median, spread};

/// The shims serialize types, not raw documents; this carries one through.
struct Document(Value);

impl serde::Serialize for Document {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Compact JSON text of a document whose numbers are all finite.
pub fn to_json(document: Value) -> String {
    serde_json::to_string(&Document(document)).expect("every number is finite")
}

fn unit_of<'a>(specs: &'a [MetricSpec], name: &str) -> &'a str {
    specs.iter().find(|m| m.name == name).map_or("", |m| m.unit.as_str())
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn number_map(pairs: &[(String, f64)]) -> Value {
    Value::Obj(pairs.iter().map(|(k, v)| (k.clone(), Value::Float(*v))).collect())
}

fn numbers(v: Option<&Value>) -> Vec<(String, f64)> {
    v.and_then(Value::as_obj)
        .map(|o| o.iter().filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x))).collect())
        .unwrap_or_default()
}

fn strings(v: Option<&Value>) -> Vec<String> {
    v.and_then(Value::as_arr)
        .map(|a| a.iter().filter_map(|s| s.as_str().map(str::to_owned)).collect())
        .unwrap_or_default()
}

/// One workload run as the parent process sees it.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics the run measured, in declared order.
    pub metrics: Vec<(String, f64)>,
    /// Traced run: per-layer metrics of layers this workload bypasses. The
    /// contract's result line owes every declared metric a number, so they
    /// read 0 there; everywhere else they are left out.
    pub not_applicable: Vec<String>,
    pub notes: Vec<(String, f64)>,
    pub flags: Vec<String>,
    pub errors: Vec<String>,
}

impl RunReport {
    /// A metric, or the note of that name (the extra end-to-end numbers of
    /// an untraced run travel as notes).
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().chain(&self.notes).find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The contract's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, every metric of `specs` with its value and unit.
    pub fn result_line(&self, specs: &[MetricSpec]) -> String {
        let metrics = specs
            .iter()
            .map(|m| {
                let value =
                    self.metrics.iter().find(|(n, _)| *n == m.name).map_or(0.0, |&(_, v)| v);
                let entry =
                    obj(vec![("value", Value::Float(value)), ("unit", Value::Str(m.unit.clone()))]);
                (m.name.clone(), entry)
            })
            .collect();
        let line = obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("metrics", Value::Obj(metrics)),
        ]);
        to_json(line)
    }

    /// Context that does not belong in the result line (sample counts,
    /// validity flags, gate failures), as a `detail {json}` line.
    pub fn detail_line(&self) -> String {
        let text = |v: &[String]| Value::Arr(v.iter().cloned().map(Value::Str).collect());
        let detail = obj(vec![
            ("notes", number_map(&self.notes)),
            ("not_applicable", text(&self.not_applicable)),
            ("flags", text(&self.flags)),
            ("errors", text(&self.errors)),
        ]);
        format!("detail {}", to_json(detail))
    }

    /// Rebuild a report from a child's standard output.
    pub fn parse(stdout: &str) -> Result<Self, String> {
        let last = stdout.lines().last().ok_or("no output")?;
        let result = serde_json::parse_value_str(last).map_err(|e| format!("result line: {e}"))?;
        let detail = stdout
            .lines()
            .rev()
            .find_map(|l| l.strip_prefix("detail "))
            .and_then(|d| serde_json::parse_value_str(d).ok());
        let detail = |key: &str| detail.as_ref().and_then(|d| d.get(key));
        let not_applicable = strings(detail("not_applicable"));
        let metrics = result.get("metrics").and_then(Value::as_obj).ok_or("no `metrics`")?;
        Ok(Self {
            correct: result.get("correct").and_then(Value::as_bool).ok_or("no `correct`")?,
            attempted: result.get("attempted").and_then(Value::as_u64).ok_or("no `attempted`")?,
            failed: result.get("failed").and_then(Value::as_u64).ok_or("no `failed`")?,
            metrics: metrics
                .iter()
                .filter(|(k, _)| !not_applicable.contains(k))
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect(),
            notes: numbers(detail("notes")),
            flags: strings(detail("flags")),
            errors: strings(detail("errors")),
            not_applicable,
        })
    }

    pub fn to_value(&self) -> Value {
        obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("metrics", number_map(&self.metrics)),
            ("notes", number_map(&self.notes)),
            ("flags", Value::Arr(self.flags.iter().cloned().map(Value::Str).collect())),
        ])
    }
}

/// Print metrics, one `workload metric value unit` row each.
pub fn print_table(workload: &str, metrics: &[(String, f64)], specs: &[MetricSpec]) {
    for (name, value) in metrics {
        println!("{workload:<14} {name:<42} {value:>16.4} {}", unit_of(specs, name));
    }
}

/// Print the context lines of a run (sample counts, flags, failures).
pub fn print_context(workload: &str, report: &RunReport) {
    for (name, value) in &report.notes {
        println!("  note  {workload}: {name} = {value}");
    }
    for flag in &report.flags {
        println!("  flag  {workload}: {flag}");
    }
    for error in &report.errors {
        println!("  FAIL  {workload}: {error}");
    }
}

// ---- trajectory -------------------------------------------------------------

pub fn history_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("history.jsonl")
}

pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One line of `history.jsonl`: every end-to-end number of one full run.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryLine {
    pub git_sha: String,
    pub seed: u64,
    pub nproc: u64,
    pub seconds: f64,
    /// `(workload, [(metric, value)])`.
    pub workloads: Vec<(String, Vec<(String, f64)>)>,
}

impl HistoryLine {
    /// Gather the line from one untraced run per workload: every judged
    /// metric the workload reported, and the failure share of its result.
    pub fn gather(spec: &Spec, seed: u64, seconds: f64, runs: &[(String, RunReport)]) -> Self {
        let workloads = runs
            .iter()
            .map(|(workload, report)| {
                let row = spec
                    .judged()
                    .filter_map(|m| {
                        let value = match m.name.as_str() {
                            "fail_share" => Some(report.fail_share()),
                            name => report.get(name),
                        };
                        Some((m.name.clone(), value?))
                    })
                    .collect();
                (workload.clone(), row)
            })
            .collect();
        Self { git_sha: git_sha(), seed, nproc: crate::nproc() as u64, seconds, workloads }
    }

    pub fn get(&self, workload: &str, metric: &str) -> Option<f64> {
        let (_, row) = self.workloads.iter().find(|(w, _)| w == workload)?;
        row.iter().find(|(m, _)| m == metric).map(|&(_, v)| v)
    }

    pub fn to_json(&self) -> String {
        let workloads = Value::Obj(
            self.workloads.iter().map(|(w, row)| (w.clone(), number_map(row))).collect(),
        );
        let line = obj(vec![
            ("git_sha", Value::Str(self.git_sha.clone())),
            ("seed", Value::UInt(self.seed)),
            ("nproc", Value::UInt(self.nproc)),
            ("seconds", Value::Float(self.seconds)),
            ("workloads", workloads),
        ]);
        to_json(line)
    }

    pub fn parse(line: &str) -> Option<Self> {
        let v = serde_json::parse_value_str(line).ok()?;
        Some(Self {
            git_sha: v.get("git_sha")?.as_str()?.to_owned(),
            seed: v.get("seed")?.as_u64()?,
            nproc: v.get("nproc")?.as_u64()?,
            seconds: v.get("seconds")?.as_f64()?,
            workloads: v
                .get("workloads")?
                .as_obj()?
                .iter()
                .map(|(w, row)| (w.clone(), numbers(Some(row))))
                .collect(),
        })
    }

    /// The last line of the trajectory file, if any.
    pub fn last() -> Option<Self> {
        let text = std::fs::read_to_string(history_path()).ok()?;
        text.lines().rev().find_map(Self::parse)
    }

    pub fn append(&self) -> std::io::Result<()> {
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(history_path())?;
        writeln!(file, "{}", self.to_json())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The run-to-run spread is wider than the bound: nothing can be said.
    Unresolved,
    Regress,
}

/// How far repeats of a metric lie apart, in the terms of its bound: the
/// contract's spread for a relative bound, the range for an absolute one.
fn apart(m: &MetricSpec, values: &[f64]) -> f64 {
    match m.bound {
        Some(Bound::Relative(_)) => spread(values),
        _ => {
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            values.iter().copied().fold(f64::NEG_INFINITY, f64::max) - lo
        }
    }
}

/// Whether repeats of a metric agree within its bound.
fn repeats(m: &MetricSpec, values: &[f64]) -> bool {
    let allowed = match m.bound {
        Some(Bound::Relative(b) | Bound::Absolute(b)) => b,
        Some(Bound::Exact) | None => 0.0,
    };
    values.len() < 2 || apart(m, values) <= allowed
}

/// Judge `values` (one per repeat) of a metric against `reference`.
pub fn judge(m: &MetricSpec, values: &[f64], reference: f64) -> Verdict {
    let current = median(values);
    let worse_by = if m.higher_is_better { reference - current } else { current - reference };
    let allowed = match m.bound {
        Some(Bound::Relative(b)) => b * reference.abs(),
        Some(Bound::Absolute(b)) => b,
        Some(Bound::Exact) => {
            let same = values.iter().all(|&v| v == reference);
            return if same { Verdict::Ok } else { Verdict::Regress };
        }
        None => return Verdict::Ok,
    };
    if !repeats(m, values) {
        Verdict::Unresolved
    } else if worse_by > allowed {
        Verdict::Regress
    } else {
        Verdict::Ok
    }
}

/// `--repeat`: per (metric, workload) min / median / max over the repeats
/// and whether they agree within the metric's bound.
pub fn print_repeat_table(spec: &Spec, lines: &[HistoryLine]) {
    println!("\n== repeatability over {} runs ==", lines.len());
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>14} {:>8} {:>14}  inside",
        "workload", "metric", "min", "median", "max", "apart", "bound"
    );
    for workload in &spec.workloads {
        for m in spec.judged() {
            let values: Vec<f64> = lines.iter().filter_map(|l| l.get(workload, &m.name)).collect();
            if values.is_empty() {
                continue;
            }
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let bound = match m.bound {
                Some(Bound::Relative(b)) => format!("{b} relative"),
                Some(Bound::Absolute(b)) => format!("{b} absolute"),
                Some(Bound::Exact) | None => "exact".to_owned(),
            };
            println!(
                "{workload:<14} {:<18} {lo:>14.4} {:>14.4} {hi:>14.4} {:>8.4} {bound:>14}  {}",
                m.name,
                median(&values),
                apart(m, &values),
                if repeats(m, &values) { "yes" } else { "NO (unresolved)" }
            );
        }
    }
}

/// `--check`: compare this invocation's runs against the previous history
/// line. Returns the number of regressions.
pub fn check_against(spec: &Spec, previous: &HistoryLine, lines: &[HistoryLine]) -> usize {
    println!(
        "\n== check against {} (seed {}, {} s) ==",
        previous.git_sha, previous.seed, previous.seconds
    );
    if lines.iter().any(|l| l.seconds != previous.seconds || l.nproc != previous.nproc) {
        println!("  note: run length or nproc differs from the reference line");
    }
    let same_seed = lines.iter().all(|l| l.seed == previous.seed);
    let mut regressions = 0;
    for workload in &spec.workloads {
        // Exact metrics are deterministic in the seed, and only in the seed.
        for m in spec.judged().filter(|m| same_seed || m.bound != Some(Bound::Exact)) {
            let values: Vec<f64> = lines.iter().filter_map(|l| l.get(workload, &m.name)).collect();
            let Some(before) = previous.get(workload, &m.name).filter(|_| !values.is_empty())
            else {
                continue;
            };
            let verdict = judge(m, &values, before);
            let word = match verdict {
                Verdict::Ok => "ok",
                Verdict::Unresolved => "unresolved",
                Verdict::Regress => "REGRESS",
            };
            regressions += usize::from(verdict == Verdict::Regress);
            let now = median(&values);
            println!("  {word:<10} {workload:<14} {:<18} {before:>14.4} -> {now:>14.4}", m.name);
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher: bool, bound: Bound) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn judge_separates_regress_unresolved_and_ok() {
        let rel = |higher| spec(higher, Bound::Relative(0.10));
        assert_eq!(judge(&rel(true), &[100.0], 105.0), Verdict::Ok);
        assert_eq!(judge(&rel(true), &[90.0], 105.0), Verdict::Regress);
        assert_eq!(judge(&rel(true), &[200.0], 105.0), Verdict::Ok);
        assert_eq!(judge(&rel(false), &[120.0], 100.0), Verdict::Regress);
        assert_eq!(judge(&rel(false), &[109.0], 100.0), Verdict::Ok);
        // Two runs 30 % apart cannot resolve a 10 % bound either way.
        assert_eq!(judge(&rel(true), &[80.0, 110.0], 100.0), Verdict::Unresolved);
        assert_eq!(judge(&rel(true), &[99.0, 101.0], 100.0), Verdict::Ok);
    }

    #[test]
    fn absolute_and_exact_bounds() {
        let abs = spec(false, Bound::Absolute(0.001));
        assert_eq!(judge(&abs, &[0.0005], 0.0), Verdict::Ok);
        assert_eq!(judge(&abs, &[0.002], 0.0), Verdict::Regress);
        assert_eq!(judge(&abs, &[0.0, 0.004], 0.0), Verdict::Unresolved);
        let exact = spec(false, Bound::Exact);
        assert_eq!(judge(&exact, &[9.07, 9.07], 9.07), Verdict::Ok);
        // Better or worse, a deterministic outcome that moved is reported.
        assert_eq!(judge(&exact, &[9.07, 9.06], 9.07), Verdict::Regress);
        assert!(repeats(&exact, &[1.0, 1.0]) && !repeats(&exact, &[1.0, 1.5]));
    }

    #[test]
    fn result_and_detail_lines_round_trip() {
        let report = RunReport {
            correct: true,
            attempted: 10,
            failed: 1,
            metrics: vec![("m".into(), 1.25)],
            not_applicable: vec!["bypassed".into()],
            notes: vec![("n".into(), 3.0)],
            flags: vec!["not_saturated".into()],
            errors: vec![],
        };
        let bypassed = MetricSpec { name: "bypassed".into(), ..spec(true, Bound::Exact) };
        let specs = [spec(true, Bound::Relative(0.1)), bypassed];
        let text = format!("noise\n{}\n{}\n", report.detail_line(), report.result_line(&specs));
        let line = text.lines().last().unwrap();
        let keys: Vec<String> = serde_json::parse_value_str(line)
            .unwrap()
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains(r#""m":{"value":1.25,"unit":"u"}"#), "{line}");
        // The result line owes every declared metric a number; the report
        // read back knows which of them were not measured.
        assert!(line.contains(r#""bypassed":{"value":0"#), "{line}");
        let back = RunReport::parse(&text).unwrap();
        assert_eq!(back.metrics, report.metrics);
        assert_eq!(back.not_applicable, report.not_applicable);
        assert_eq!(back.notes, report.notes);
        assert_eq!(back.flags, report.flags);
        assert!((back.fail_share() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn history_lines_gather_the_judged_numbers_and_round_trip() {
        let spec = Spec::load();
        let report = RunReport {
            attempted: 200,
            failed: 1,
            metrics: vec![("goodput_tps".into(), 1234.5), ("undeclared".into(), 1.0)],
            notes: vec![("lat_p99_us".into(), 77.0), ("calls".into(), 200.0)],
            ..RunReport::default()
        };
        let line = HistoryLine::gather(&spec, 7, 16.0, &[("w".into(), report)]);
        assert_eq!(line.get("w", "goodput_tps"), Some(1234.5));
        assert_eq!(line.get("w", "lat_p99_us"), Some(77.0));
        assert_eq!(line.get("w", "fail_share"), Some(0.005));
        assert_eq!(line.get("w", "undeclared"), None);
        assert_eq!(line.get("w", "calls"), None);
        assert_eq!(line.get("w", "tune_dfo_pct"), None);
        assert_eq!(HistoryLine::parse(&line.to_json()), Some(line));
    }
}
