//! Bounded memory under sustained load: the version-heap gauge must plateau
//! under a write-heavy open loop with one pinned long-running reader.
//!
//! Three runs over the same single-threaded (t = 1) open loop:
//!
//! * **background + leases** — the shipped configuration. The parked
//!   reader's lease expires, it is evicted, the collector prunes past it and
//!   the gauge settles at O(boxes) no matter how many commits follow.
//! * **inline + leases** — the differential GC oracle. Same pruning
//!   decisions, but sweeps run on the commit path; its commit-latency tail
//!   is the baseline the background driver must beat (or match).
//! * **inline + leases off** — the pre-lease behaviour: the parked reader
//!   pins the watermark forever, so retained versions grow linearly with
//!   commits. This is the unbounded baseline the ceiling is measured against.
//!
//! Usage (cargo bench -p bench --bench mem_ceiling -- [flags]):
//!   --boxes N        heap width, version boxes (default 2048)
//!   --ops N          committed write transactions per run (default 20000)
//!   --writes N       boxes written per transaction (default 4)
//!   --lease-ms N     parked reader's lease, milliseconds (default 40)
//!   --check          assert the acceptance bars (see CHECK PASSED line)
//!   --smoke          tiny run that still crosses the lease deadline

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use pnstm::{MemConfig, Oracle, ParallelismDegree, Stm, StmConfig, VBox};

struct Config {
    boxes: usize,
    ops: u64,
    writes: usize,
    lease_ms: u64,
    check: bool,
    smoke: bool,
}

fn parse_args() -> Config {
    let mut cfg =
        Config { boxes: 2048, ops: 20_000, writes: 4, lease_ms: 40, check: false, smoke: false };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match arg.as_str() {
            "--boxes" => cfg.boxes = value("--boxes").parse().expect("--boxes"),
            "--ops" => cfg.ops = value("--ops").parse().expect("--ops"),
            "--writes" => cfg.writes = value("--writes").parse().expect("--writes"),
            "--lease-ms" => cfg.lease_ms = value("--lease-ms").parse().expect("--lease-ms"),
            "--check" => cfg.check = true,
            "--smoke" => cfg.smoke = true,
            "--bench" | "--quick" => {} // cargo-bench passthrough flags
            other => panic!("unknown flag {other:?}"),
        }
    }
    if cfg.smoke {
        cfg.boxes = 256;
        cfg.ops = 4_000;
        cfg.lease_ms = 25;
    }
    cfg
}

struct RunStats {
    commits_per_sec: f64,
    p99_us: f64,
    retained_final: u64,
    retained_peak: u64,
    evictions: u64,
    reader_evicted: bool,
}

/// The open loop: `ops` write transactions over `boxes` boxes while one
/// reader registered before the first commit stays parked to the end. With
/// leases on, the run extends past `ops` (unmeasured) until the reader's
/// eviction has been detected and pruned past, so the final gauge reading is
/// the plateau and not a race with the lease clock.
fn run(mode: Option<Oracle>, leases: bool, cfg: &Config) -> RunStats {
    let lease = leases.then(|| Duration::from_millis(cfg.lease_ms));
    let config = StmConfig {
        degree: ParallelismDegree::new(1, 1),
        worker_threads: 1,
        gc_interval: 64,
        mem: MemConfig { snapshot_lease: lease, ..MemConfig::default() },
        ..StmConfig::default()
    };
    let stm = Stm::with_oracle(config, mode);
    let boxes: Arc<Vec<VBox<u64>>> = Arc::new((0..cfg.boxes).map(|_| stm.new_vbox(0u64)).collect());

    // The pinned long-running reader: registers, reports in, parks.
    let stop = Arc::new(AtomicBool::new(false));
    let (ready_tx, ready_rx) = mpsc::channel();
    let reader = {
        let stm = stm.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            stm.read_only(|snap| {
                ready_tx.send(()).unwrap();
                while !stop.load(Ordering::Acquire) {
                    std::thread::park_timeout(Duration::from_millis(2));
                }
                snap.is_evicted()
            })
        })
    };
    ready_rx.recv().expect("reader registered");

    let commit = |i: u64| {
        let boxes = Arc::clone(&boxes);
        let writes = cfg.writes;
        stm.atomic(move |tx| {
            // Cheap LCG spread over the heap; every commit installs `writes`
            // fresh versions.
            let mut slot = (i.wrapping_mul(2_654_435_761)) as usize;
            for w in 0..writes {
                let b = &boxes[(slot + w * 97) % boxes.len()];
                let v = tx.read(b);
                tx.write(b, v + 1);
                slot = slot.wrapping_add(13);
            }
            Ok(())
        })
        .expect("open-loop commit")
    };

    let mut lat_us: Vec<f64> = Vec::with_capacity(cfg.ops as usize);
    let mut retained_peak = 0u64;
    let started = Instant::now();
    for i in 0..cfg.ops {
        let t0 = Instant::now();
        commit(i);
        lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if i % 256 == 0 {
            retained_peak = retained_peak.max(stm.heap_gauge().retained_versions());
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    // Settle (unmeasured): with leases on, wait out eviction + pruning so the
    // final reading is the plateau; then one synchronous sweep either way.
    if leases {
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut i = cfg.ops;
        while stm.stats().snapshot().snapshot_evictions == 0 {
            assert!(Instant::now() < deadline, "parked reader was never evicted");
            commit(i);
            stm.gc();
            i += 1;
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    stm.gc();
    let retained_final = stm.heap_gauge().retained_versions();
    retained_peak = retained_peak.max(retained_final);

    stop.store(true, Ordering::Release);
    let reader_evicted = reader.join().expect("reader thread");
    let s = stm.stats().snapshot();
    RunStats {
        commits_per_sec: cfg.ops as f64 / elapsed,
        p99_us: bench::percentile(&lat_us, 99.0),
        retained_final,
        retained_peak,
        evictions: s.snapshot_evictions,
        reader_evicted,
    }
}

fn main() {
    let cfg = parse_args();
    println!("# mem_ceiling: version-heap bound under sustained writes + one parked reader");
    println!(
        "# {} boxes, {} ops x {} writes, lease {} ms, gc every 64 commits",
        cfg.boxes, cfg.ops, cfg.writes, cfg.lease_ms
    );

    let report = |tag: &str, r: &RunStats| {
        println!(
            "{{\"mode\":\"{tag}\",\"commits_per_sec\":{:.0},\"p99_us\":{:.1},\
             \"retained_final\":{},\"retained_peak\":{},\"evictions\":{},\
             \"reader_evicted\":{}}}",
            r.commits_per_sec,
            r.p99_us,
            r.retained_final,
            r.retained_peak,
            r.evictions,
            r.reader_evicted
        );
    };

    // Interleaved pairs with median pairwise ratios: on a loaded 1-core
    // container a single descheduled run can sink either side of the
    // comparison, and the median over interleaved reps is immune to one
    // noisy pair (same hazard treatment as the scaling benches).
    let mut pairs = Vec::new();
    for rep in 0..3 {
        let b = run(None, true, &cfg);
        report(&format!("background+leases/{rep}"), &b);
        let i = run(Some(Oracle::InlineGc), true, &cfg);
        report(&format!("inline+leases/{rep}"), &i);
        pairs.push((b, i));
    }
    let unbounded = run(Some(Oracle::InlineGc), false, &cfg);
    report("inline+no-leases", &unbounded);

    let ratio = bench::paired_median(
        &pairs.iter().map(|(b, i)| b.commits_per_sec / i.commits_per_sec).collect::<Vec<_>>(),
    );
    let p99_ratio =
        bench::paired_median(&pairs.iter().map(|(b, i)| b.p99_us / i.p99_us).collect::<Vec<_>>());
    let background = &pairs[0].0;
    println!(
        "{{\"mode\":\"summary\",\"throughput_ratio_vs_inline\":{ratio:.3},\
         \"p99_ratio_vs_inline\":{p99_ratio:.3}}}"
    );

    if cfg.check {
        let bound = 2 * cfg.boxes as u64;
        for (b, _) in &pairs {
            assert!(
                b.reader_evicted && b.evictions >= 1,
                "the parked reader must be lease-evicted under the background driver"
            );
            assert!(
                b.retained_final <= bound,
                "gauge did not plateau: {} retained versions after eviction (bound {bound})",
                b.retained_final
            );
        }
        assert!(
            unbounded.retained_final >= cfg.boxes as u64 + cfg.ops,
            "leases-off baseline must grow linearly with commits: {} retained",
            unbounded.retained_final
        );
        assert!(
            unbounded.retained_final >= 10 * background.retained_final.max(1),
            "the ceiling is not demonstrated: unbounded {} vs leased {}",
            unbounded.retained_final,
            background.retained_final
        );
        assert!(
            p99_ratio <= 1.5,
            "background commit p99 regressed vs inline sweeps (median ratio {p99_ratio:.3})"
        );
        assert!(
            ratio >= 0.95,
            "background GC costs more than 5% raw t=1 throughput (ratio {ratio:.3})"
        );
        println!(
            "CHECK PASSED: plateau {} <= {bound}, unbounded {}, p99 ratio {p99_ratio:.3}, \
             throughput ratio {ratio:.3}",
            background.retained_final, unbounded.retained_final
        );
        let config = format!(
            "boxes={}, ops={}, writes={}, lease_ms={}, plateau={}, unbounded={}, p99_ratio={:.3}",
            cfg.boxes,
            cfg.ops,
            cfg.writes,
            cfg.lease_ms,
            background.retained_final,
            unbounded.retained_final,
            p99_ratio
        );
        match bench::write_bench_report("mem_ceiling", &config, background.commits_per_sec, ratio) {
            Ok(path) => println!("# report: {}", path.display()),
            Err(e) => eprintln!("warning: could not write bench report: {e}"),
        }
    }
}
