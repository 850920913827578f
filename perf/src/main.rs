//! `perf_profile` — one command for the whole benchmark.
//!
//! ```text
//! perf_profile --seed 1 [--trace] [--layers] [--repeat N] [--check] [--smoke]
//! perf_profile --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Without `--workload` it runs every workload of `BENCHMARK.json`, each in
//! a process of its own (so peak RSS is per workload), prints every metric
//! by name with its unit, checks the outputs, appends the run to
//! `perf/history.jsonl` and exits non-zero if a correctness check failed.
//! With `--workload` it is that one process: it runs the workload for
//! `--seconds` and prints, as its last line, the result object the
//! benchmark contract describes.

use std::process::{Command, ExitCode, Stdio};

use perf::report::{self, HistoryLine, RunReport};
use perf::spec::Spec;
use perf::{layers, workloads, RunArgs};
use serde::Value;

const USAGE: &str = "\
usage: perf_profile [--seed N] [--seconds S] [--smoke] [--trace] [--layers] [--repeat N] [--check]
       perf_profile --workload NAME [--seed N] [--seconds S] [--trace 0|1]

  --workload NAME  run one workload in this process and end with the result line
  --seed N         seed of every generated input (default 1)
  --seconds S      total length of each workload's timed phases (default: BENCHMARK.json)
  --smoke          4-second workloads, for structural checks; not recorded in the history
  --trace [0|1]    also run each workload traced: per-layer metrics, trace_overhead_pct,
                   spans in perf/out/trace_<workload>.jsonl
  --layers         --trace, and the traced runs' isolated micro rows again as one table
  --repeat N       run the untraced set N times and report min / median / max / spread
  --check          compare against the previous line of perf/history.jsonl";

#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    layers: bool,
    repeat: usize,
    check: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        layers: false,
        repeat: 1,
        check: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a name")?),
            "--seed" => {
                cli.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                cli.seconds = Some(s);
            }
            "--repeat" => {
                cli.repeat = value("a count")?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=100).contains(&cli.repeat) {
                    return Err(format!("--repeat must be in 1..=100, got {}", cli.repeat));
                }
            }
            // `--trace` alone switches tracing on; `--trace 0|1` sets it.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    cli.trace = false;
                }
                Some("1") => {
                    it.next();
                    cli.trace = true;
                }
                _ => cli.trace = true,
            },
            "--smoke" => cli.smoke = true,
            "--layers" => cli.layers = true,
            "--check" => cli.check = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// One workload, in this process. The last line printed is the result.
fn run_workload(spec: &Spec, name: &str, args: &RunArgs) -> ExitCode {
    let Some(mut result) = workloads::run(name, args) else {
        eprintln!("unknown workload {name}; BENCHMARK.json lists {:?}", spec.workloads);
        return ExitCode::from(2);
    };
    let wanted = spec.metrics(args.trace);
    if !args.trace {
        // Untraced only: the recorder's spans would be most of it.
        result.metric("peak_rss_mb", perf::peak_rss_mb());
    }
    let undeclared: Vec<&str> = result
        .metrics
        .iter()
        .map(|&(n, _)| n)
        .filter(|n| !wanted.iter().any(|m| m.name == *n))
        .collect();
    result.check(undeclared.is_empty(), || format!("undeclared metrics {undeclared:?}"));
    // Declared order, so every run prints the same table. The untraced run
    // owes every end-to-end metric; a traced run measures the layers its
    // workload exercises and names the rest as not applicable.
    let (mut metrics, mut not_applicable) = (Vec::new(), Vec::new());
    for m in wanted {
        match result.get(&m.name) {
            Some(v) if v.is_finite() => metrics.push((m.name.clone(), v)),
            Some(v) => result.errors.push(format!("{} is not a finite number: {v}", m.name)),
            None if args.trace => not_applicable.push(m.name.clone()),
            None => result.errors.push(format!("{} was not measured", m.name)),
        }
    }
    let report = RunReport {
        correct: result.errors.is_empty(),
        attempted: result.attempted.max(1),
        failed: result.failed,
        metrics,
        not_applicable,
        notes: result.notes,
        flags: result.flags,
        errors: result.errors,
    };
    println!(
        "# perf_profile {name}: seed {} · {} s · trace {} · nproc {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        perf::nproc()
    );
    report::print_table(name, &report.metrics, wanted);
    report::print_context(name, &report);
    println!("{}", report.detail_line());
    println!("{}", report.result_line(wanted));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload in a child process and parse what it printed.
fn spawn_workload(name: &str, args: &RunArgs) -> Result<RunReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let report = RunReport::parse(&stdout)
        .map_err(|e| format!("{name} (exit {:?}): {e}\n{stdout}", output.status.code()))?;
    if report.correct != output.status.success() {
        return Err(format!("{name}: exit status {:?} contradicts its result", output.status));
    }
    Ok(report)
}

fn run_all(spec: &Spec, cli: &Cli) -> Result<bool, String> {
    let seconds = match (cli.smoke, cli.seconds) {
        (_, Some(s)) => s,
        (true, None) => 4.0,
        (false, None) => spec.run_seconds as f64,
    };
    let args = |trace| RunArgs { seed: cli.seed, seconds, trace };
    println!(
        "# perf_profile: seed {} · {seconds} s per workload · nproc {} · no holds, no simulated work",
        cli.seed,
        perf::nproc()
    );
    let mut all_correct = true;
    let previous = HistoryLine::last();
    let mut lines = Vec::new();
    let mut last_runs = Vec::new();
    for repeat in 0..cli.repeat {
        if cli.repeat > 1 {
            println!("\n== untraced set {} of {} ==", repeat + 1, cli.repeat);
        }
        let mut runs = Vec::new();
        for workload in &spec.workloads {
            let report = spawn_workload(workload, &args(false))?;
            all_correct &= report.correct;
            runs.push((workload.clone(), report));
        }
        let line = HistoryLine::gather(spec, cli.seed, seconds, &runs);
        for ((workload, report), (_, row)) in runs.iter().zip(&line.workloads) {
            report::print_table(workload, &report.metrics, &spec.end_to_end);
            // The end-to-end numbers BENCHMARK.json cannot carry.
            let extra: Vec<(String, f64)> = row
                .iter()
                .filter(|(name, _)| spec.extra.iter().any(|m| m.name == *name))
                .cloned()
                .collect();
            report::print_table(workload, &extra, &spec.extra);
            report::print_context(workload, report);
        }
        if !cli.smoke {
            line.append().map_err(|e| format!("appending to history.jsonl: {e}"))?;
        }
        lines.push(line);
        last_runs = runs;
    }

    let mut traced_runs = Vec::new();
    if cli.trace || cli.layers {
        println!("\n== traced set (bench-side recorder on) ==");
        for (workload, untraced) in &last_runs {
            let report = spawn_workload(workload, &args(true))?;
            report::print_table(workload, &report.metrics, &spec.per_layer);
            // What tracing costs: the traced run's throughput against the
            // untraced run's (both carry it as the `goodput_tps` note).
            if let (Some(plain), Some(traced)) =
                (untraced.get("goodput_tps"), report.get("goodput_tps"))
            {
                let overhead = 100.0 * (plain - traced) / plain;
                println!("{workload:<14} {:<42} {overhead:>16.4} %", "trace_overhead_pct");
            }
            report::print_context(workload, &report);
            all_correct &= report.correct;
            traced_runs.push((workload.clone(), report));
        }
    }

    // The micro rows of all the traced runs, as one table.
    let is_row = |name: &str| layers::ROWS.iter().any(|r| r.name == name);
    let layer_rows: Vec<(String, f64)> = traced_runs
        .iter()
        .flat_map(|(_, report)| report.metrics.iter().filter(|(name, _)| is_row(name)).cloned())
        .collect();
    if cli.layers {
        println!("\n== isolated layer rows (one thread, min of 5 batches of >= 100 ms) ==");
        report::print_table("layers", &layer_rows, &spec.per_layer);
    }

    if cli.repeat > 1 {
        report::print_repeat_table(spec, &lines);
    }
    let mut regressions = 0;
    if cli.check {
        match &previous {
            Some(previous) => regressions = report::check_against(spec, previous, &lines),
            None => println!("\n== check: history.jsonl has no earlier line to compare against =="),
        }
    }

    let by_workload = |runs: &[(String, RunReport)]| {
        Value::Obj(runs.iter().map(|(w, r)| (w.clone(), r.to_value())).collect())
    };
    let summary = Value::Obj(vec![
        ("git_sha".to_owned(), Value::Str(report::git_sha())),
        ("seed".to_owned(), Value::UInt(cli.seed)),
        ("seconds".to_owned(), Value::Float(seconds)),
        ("nproc".to_owned(), Value::UInt(perf::nproc() as u64)),
        ("correct".to_owned(), Value::Bool(all_correct)),
        ("end_to_end".to_owned(), by_workload(&last_runs)),
        ("per_layer".to_owned(), by_workload(&traced_runs)),
        (
            "layers".to_owned(),
            Value::Obj(layer_rows.iter().map(|(n, v)| (n.clone(), Value::Float(*v))).collect()),
        ),
    ]);
    let text = report::to_json(summary);
    let path = perf::out_dir().join("report.json");
    std::fs::create_dir_all(perf::out_dir())
        .and_then(|()| std::fs::write(&path, &text))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("\n{text}");
    Ok(all_correct && regressions == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("perf_profile: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::load();
    if let Some(name) = &cli.workload {
        let seconds = cli.seconds.unwrap_or(spec.run_seconds as f64);
        return run_workload(&spec, name, &RunArgs { seed: cli.seed, seconds, trace: cli.trace });
    }
    match run_all(&spec, &cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perf_profile: {message}");
            ExitCode::FAILURE
        }
    }
}
