//! `--smoke` integration test: the one command runs every workload of
//! `BENCHMARK.json`, untraced and traced, and prints every declared metric
//! exactly once per reporting workload in the section it belongs to.
//!
//! Takes about a minute and a half: five workloads, twice, at 4 s each plus
//! set-up and the micro rows.

use std::process::Command;

use perf::spec::Spec;

/// `(workload, metric)` of every table row in `section`.
fn rows<'a>(section: &'a str, spec: &Spec) -> Vec<(&'a str, &'a str)> {
    section
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            let (workload, metric) = (words.next()?, words.next()?);
            spec.workloads.iter().any(|w| w == workload).then_some((workload, metric))
        })
        .collect()
}

#[test]
fn smoke_prints_every_declared_name_exactly_once_per_workload() {
    let spec = Spec::load();
    let output = Command::new(env!("CARGO_BIN_EXE_perf_profile"))
        .args(["--smoke", "--trace", "--seed", "3"])
        .output()
        .expect("running perf_profile");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "perf_profile failed:\n{stdout}");

    let (untraced, traced) =
        stdout.split_once("== traced set").expect("the traced section follows the untraced one");
    let count = |rows: &[(&str, &str)], workload: Option<&str>, metric: &str| {
        rows.iter().filter(|&&(w, n)| workload.is_none_or(|x| x == w) && n == metric).count()
    };

    // Untraced: every workload owes every end-to-end metric of the contract,
    // its tail latency and its failure share; the tuner's own numbers come
    // from the workload that defines them.
    let plain = rows(untraced, &spec);
    for workload in &spec.workloads {
        let everywhere = ["lat_p99_us", "fail_share"];
        for name in spec.end_to_end.iter().map(|m| m.name.as_str()).chain(everywhere) {
            let seen = count(&plain, Some(workload), name);
            assert_eq!(seen, 1, "end-to-end metric {name} on {workload} printed {seen} times");
        }
    }
    for m in &spec.extra {
        assert!(
            count(&plain, None, &m.name) >= 1,
            "extra end-to-end metric {} never printed",
            m.name
        );
    }

    // Traced: a per-layer metric appears once for each workload that
    // exercises its layer, and never for one that bypasses it; a micro row
    // appears exactly once, beside its workload.
    let layered = rows(traced, &spec);
    for m in &spec.per_layer {
        assert!(count(&layered, None, &m.name) >= 1, "per-layer metric {} never printed", m.name);
        for workload in &spec.workloads {
            let seen = count(&layered, Some(workload), &m.name);
            assert!(seen <= 1, "per-layer metric {} on {workload} printed {seen} times", m.name);
        }
    }
    for row in perf::layers::ROWS {
        assert_eq!(count(&layered, None, row.name), 1, "micro row {}", row.name);
        assert_eq!(count(&layered, Some(row.beside), row.name), 1, "micro row {}", row.name);
    }
    for (workload, bypassed) in
        [("tune_replay", "pnstm.abort_ratio"), ("closed_hot", "ingress.wait_p50_us")]
    {
        assert_eq!(count(&layered, Some(workload), bypassed), 0, "{bypassed} on {workload}");
    }
    for workload in &spec.workloads {
        let overheads = traced
            .lines()
            .filter(|l| l.starts_with(workload.as_str()) && l.contains("trace_overhead_pct"))
            .count();
        assert_eq!(overheads, 1, "trace_overhead_pct on {workload}");
    }

    // The last line is the whole report as one JSON document.
    let report = serde_json::parse_value_str(stdout.lines().last().expect("some output"))
        .expect("the last line is JSON");
    assert_eq!(report.get("correct").and_then(serde::Value::as_bool), Some(true));
    for section in ["end_to_end", "per_layer"] {
        let by_workload = report.get(section).and_then(serde::Value::as_obj).expect(section);
        let names: Vec<&str> = by_workload.iter().map(|(w, _)| w.as_str()).collect();
        assert_eq!(names, spec.workloads.iter().map(String::as_str).collect::<Vec<_>>());
    }
}

#[test]
fn an_unknown_workload_or_flag_is_refused() {
    for args in [&["--workload", "nope"][..], &["--frobnicate"][..], &["--seconds", "0"][..]] {
        let output = Command::new(env!("CARGO_BIN_EXE_perf_profile"))
            .args(args)
            .output()
            .expect("running perf_profile");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
