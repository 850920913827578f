//! Integration tests for the observability layer: a full tuning session on
//! the simulated and the live system must emit a well-ordered, parseable
//! event stream covering the whole Fig.-2 loop.

use std::sync::Arc;
use std::time::Duration;

use autopn::monitor::AdaptiveMonitor;
use autopn::{
    AutoPn, AutoPnConfig, Controller, JsonlSink, SearchSpace, SloTunableSystem, TestSink, TraceBus,
    TraceEvent,
};
use ingress::{ArrivalProcess, Ingress, IngressConfig, TransferService};
use pnstm::{child, ChildTask, ParallelismDegree, Stm, StmConfig};
use simtm::{MachineParams, SimWorkload};
use workloads::array::{ArrayParams, ArrayWorkload};
use workloads::{LiveStmSystem, SimSystem};

fn sim_workload() -> SimWorkload {
    SimWorkload::builder("trace-sim")
        .top_work_us(30.0)
        .child_count(4)
        .child_work_us(80.0)
        .top_footprint(6, 2)
        .child_footprint(8, 2)
        .data_items(10_000)
        .build()
}

#[test]
fn sim_session_emits_ordered_event_stream() {
    let machine = MachineParams::new(8);
    let mut sys = SimSystem::new(&sim_workload(), &machine, 7);
    let mut tuner = AutoPn::new(SearchSpace::new(machine.n_cores), AutoPnConfig::default());
    let mut policy = AdaptiveMonitor::default();

    let sink = Arc::new(TestSink::default());
    let trace = TraceBus::new();
    trace.subscribe(sink.clone());

    let outcome = Controller::tune_traced(&mut sys, &mut tuner, &mut policy, &trace);
    let events = sink.events();

    // Bracketing: the session events delimit the stream.
    assert!(
        matches!(events.first(), Some(TraceEvent::SessionStart { .. })),
        "first event must be session_start, got {:?}",
        events.first()
    );
    match events.last() {
        Some(TraceEvent::SessionEnd { best_t, best_c, explored, fallback, .. }) => {
            assert_eq!((*best_t as usize, *best_c as usize), (outcome.best.t, outcome.best.c));
            assert_eq!(*explored as usize, outcome.explored.len());
            assert!(!fallback);
        }
        other => panic!("last event must be session_end, got {other:?}"),
    }

    // Window bracketing and per-window ordering.
    let mut open = false;
    let mut proposals = 0usize;
    let mut windows = 0usize;
    let mut phase_transitions = Vec::new();
    for ev in events.iter() {
        match ev {
            TraceEvent::WindowOpen { .. } => {
                assert!(!open, "window_open while a window is open");
                open = true;
            }
            TraceEvent::WindowClose { .. } => {
                assert!(open, "window_close without window_open");
                open = false;
                windows += 1;
            }
            TraceEvent::WindowSample { .. } => assert!(open, "sample outside window"),
            TraceEvent::Proposal { t, c, .. } => {
                proposals += 1;
                assert!(
                    (*t as usize) * (*c as usize) <= machine.n_cores,
                    "proposal ({t},{c}) outside admissible space"
                );
            }
            TraceEvent::OptimizerPhase { from, to } => phase_transitions.push((*from, *to)),
            _ => {}
        }
    }
    assert!(!open, "window left open at session end");
    assert_eq!(windows, outcome.explored.len(), "one window per explored config");
    assert_eq!(proposals, outcome.explored.len(), "one proposal per explored config");
    // The optimizer must have reported leaving initial sampling.
    assert!(
        phase_transitions.iter().any(|(from, _)| *from == "initial-sampling"),
        "no phase transition out of initial sampling: {phase_transitions:?}"
    );
}

#[test]
fn live_session_emits_parseable_jsonl_trace() {
    let path = std::env::temp_dir().join(format!("autopn-trace-{}.jsonl", std::process::id()));

    let stm = Stm::new(StmConfig {
        degree: ParallelismDegree::new(1, 1),
        worker_threads: 2,
        ..StmConfig::default()
    });
    let wl = Arc::new(ArrayWorkload::new(
        &stm,
        "trace-live",
        ArrayParams { size: 128, write_fraction: 0.5, chunks: 2 },
    ));
    let mut system = LiveStmSystem::start(stm.clone(), wl, 4).expect("spawn live workers");

    // Subscribe the JSONL sink on the STM's own bus so runtime events
    // (reconfigure, tx commits, semaphore waits) and controller events
    // (session/window) interleave in one stream.
    let trace = system.trace_bus().clone();
    trace.subscribe(Arc::new(JsonlSink::create(&path).expect("create trace file")));

    let mut tuner = AutoPn::new(SearchSpace::new(4), AutoPnConfig::default());
    let mut policy = AdaptiveMonitor::new(0.25, 4);
    let outcome = Controller::tune_traced(&mut system, &mut tuner, &mut policy, &trace);
    system.shutdown();
    trace.flush();

    let text = std::fs::read_to_string(&path).expect("read trace file");
    let _ = std::fs::remove_file(&path);
    assert!(!text.is_empty(), "trace file is empty");

    let known = [
        "tx_begin",
        "tx_commit",
        "tx_abort",
        "sem_wait",
        "commit_stripe_contention",
        "read_path",
        "reconfigure",
        "window_open",
        "window_sample",
        "window_close",
        "proposal",
        "optimizer_phase",
        "session_start",
        "session_end",
        "change_detected",
        "cm_decision",
        "mem_pressure",
        "mem_degraded",
        "sched_batch",
    ];
    let mut seen = std::collections::HashSet::new();
    let mut saw_session_end = false;
    for (i, line) in text.lines().enumerate() {
        let v = serde_json::parse_value_str(line)
            .unwrap_or_else(|e| panic!("line {} is not valid JSON ({e}): {line}", i + 1));
        let ev = v.get("ev").and_then(|x| x.as_str()).expect("every event has an \"ev\" tag");
        assert!(known.contains(&ev), "unknown event tag {ev:?}");
        seen.insert(ev.to_string());
        // Application threads run until `shutdown()`, so runtime events may
        // trail the session close — but no *controller* event may.
        let controller_ev = matches!(
            ev,
            "session_start"
                | "window_open"
                | "window_sample"
                | "window_close"
                | "proposal"
                | "optimizer_phase"
        );
        assert!(!(saw_session_end && controller_ev), "controller event {ev:?} after session_end");
        // Spot-check per-event schema invariants.
        match ev {
            "reconfigure" => {
                let to = v.get("to").and_then(|x| x.as_arr()).expect("reconfigure.to");
                let t = to[0].as_u64().unwrap();
                let c = to[1].as_u64().unwrap();
                assert!(t * c <= 4, "reconfigure to ({t},{c}) exceeds core budget");
            }
            "window_close" => {
                assert!(v.get("commits").and_then(|x| x.as_u64()).is_some());
                assert!(v.get("throughput").is_some());
            }
            "session_end" => {
                let t = v.get("best_t").and_then(|x| x.as_u64()).unwrap();
                let c = v.get("best_c").and_then(|x| x.as_u64()).unwrap();
                assert_eq!((t as usize, c as usize), (outcome.best.t, outcome.best.c));
                saw_session_end = true;
            }
            "sched_batch" => {
                // The hand-off decision is part of the recorded session; only
                // a published batch can have helper-executed tasks.
                let handed_off = v.get("handed_off").and_then(|x| x.as_bool());
                let stolen = v.get("stolen").and_then(|x| x.as_u64()).expect("sched_batch.stolen");
                assert!(handed_off.is_some(), "sched_batch without handed_off: {line}");
                assert!(handed_off == Some(true) || stolen == 0, "stolen from a withheld batch");
            }
            "cm_decision" => {
                // One contention manager: the event names the site, no policy.
                assert!(v.get("policy").is_none(), "cm_decision carries a policy: {line}");
                assert!(v.get("site").and_then(|x| x.as_str()).is_some(), "cm_decision.site");
                assert!(v.get("waited_ns").and_then(|x| x.as_u64()).is_some());
            }
            _ => {}
        }
    }
    assert!(saw_session_end, "no session_end in the live trace");
    for must in [
        "session_start",
        "session_end",
        "window_open",
        "window_close",
        "proposal",
        "reconfigure",
        "tx_begin",
        "tx_commit",
    ] {
        assert!(seen.contains(must), "no {must:?} event in the live trace; saw {seen:?}");
    }
}

#[test]
fn ingress_window_event_round_trips_through_jsonl() {
    let path = std::env::temp_dir().join(format!("ingress-window-{}.jsonl", std::process::id()));
    let stm = Stm::new(StmConfig {
        degree: ParallelismDegree::new(2, 1),
        worker_threads: 2,
        ..StmConfig::default()
    });
    stm.trace_bus().subscribe(Arc::new(JsonlSink::create(&path).expect("create trace file")));
    let service = Arc::new(TransferService::new(&stm, 64, 10_000, 9, 64, 2, 100));
    let config = IngressConfig {
        process: ArrivalProcess::Poisson { rate_hz: 2_000.0 },
        ..IngressConfig::default()
    };
    let mut ing = Ingress::start(stm.clone(), service, config).expect("spawn ingress");
    ing.begin_slo_window();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while ing.snapshot().completed < 100 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let kpi = ing.end_slo_window();
    ing.shutdown();
    stm.trace_bus().flush();

    let text = std::fs::read_to_string(&path).expect("read trace file");
    let _ = std::fs::remove_file(&path);
    let windows: Vec<_> = text
        .lines()
        .map(|line| serde_json::parse_value_str(line).expect("every line is valid JSON"))
        .filter(|v| v.get("ev").and_then(|x| x.as_str()) == Some("ingress_window"))
        .collect();
    assert_eq!(windows.len(), 1, "one SLO window, one event");
    let field = |name: &str| {
        windows[0].get(name).and_then(|x| x.as_u64()).unwrap_or_else(|| panic!("no {name}"))
    };
    assert_eq!(field("completed"), kpi.completed);
    assert_eq!(field("p99_ns"), kpi.p99_ns);
    // The wait ahead of the dequeue, divided: both parts are inside the whole.
    for part in ["gen_lag", "queue_wait"] {
        let (p50, p99) = (field(&format!("{part}_p50_ns")), field(&format!("{part}_p99_ns")));
        assert!(p50 <= p99, "{part}: p50 {p50} > p99 {p99}");
        assert!(p99 <= field("p999_ns"), "{part} p99 {p99} exceeds the whole latency's p999");
    }
}

/// Every `parallel()` call emits exactly one `sched_batch` event, however
/// its batch ran: handed off eagerly by a pool with no history, run inline
/// by its parent (`handed_off: false, stolen: 0`, at `c = 2` once the pool
/// has learnt the children are short, and always at `c = 1`), or published
/// late after its first child outlasted the hand-off cost.
#[test]
fn each_parallel_call_emits_one_sched_batch() {
    let stm = Stm::new(StmConfig {
        degree: ParallelismDegree::new(1, 2),
        worker_threads: 1,
        ..StmConfig::default()
    });
    let sink = Arc::new(TestSink::new());
    stm.trace_bus().subscribe(sink.clone());
    // One `parallel()` call of `n` children sleeping `nap` each; returns its
    // `(tasks, stolen, handed_off)` events.
    let one_call = |n: usize, nap: Duration| {
        sink.take();
        stm.atomic(|tx| {
            let tasks: Vec<ChildTask<()>> = (0..n)
                .map(|_| {
                    child(move |_ct| {
                        if !nap.is_zero() {
                            std::thread::sleep(nap);
                        }
                        Ok(())
                    })
                })
                .collect();
            tx.parallel(tasks).map(drop)
        })
        .expect("uncontended children commit");
        let events: Vec<(u32, u32, bool)> = sink
            .take()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::SchedBatch { tasks, stolen, handed_off, .. } => {
                    Some((tasks, stolen, handed_off))
                }
                _ => None,
            })
            .collect();
        assert_eq!(events.len(), 1, "one parallel() call, {} sched_batch events", events.len());
        events[0]
    };

    let (tasks, _, handed_off) = one_call(2, Duration::ZERO);
    assert_eq!((tasks, handed_off), (2, true), "a pool with no history hands off eagerly");

    // Teach the pool that children are short. A preempted parent publishes
    // late now and then (and the batches after it go eager while `d̄`
    // decays), so only require that the withheld shape shows up.
    let mut inline = 0;
    for _ in 0..1_000 {
        let (tasks, stolen, handed_off) = one_call(2, Duration::ZERO);
        assert_eq!(tasks, 2);
        if !handed_off {
            assert_eq!(stolen, 0, "nobody helps an inline batch");
            inline += 1;
        }
    }
    assert!(inline > 0, "no short batch stayed inline in 1000 calls");

    let (tasks, _, handed_off) = one_call(4, Duration::from_millis(5));
    assert_eq!((tasks, handed_off), (4, true), "a long batch is published late");

    stm.set_degree(ParallelismDegree::new(1, 1));
    assert_eq!(one_call(3, Duration::ZERO), (3, 0, false), "c = 1 runs inline");
}
