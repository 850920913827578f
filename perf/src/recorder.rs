//! The bench-side trace recorder of the traced run: spans around the calls
//! into each layer and counter samples at phase edges and every 10 ms, kept
//! in memory and written as JSONL when the workload ends.
//!
//! Nothing here reaches into the program: spans are built from clock reads
//! the benchmark takes around public calls, samples from the public
//! `StatsSnapshot` / `IngressSnapshot` / `queue_len()` / `heap_gauge()`
//! counters. Spans *inside* the program are a later change.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use ingress::Ingress;
use pnstm::trace::now_ns;
use pnstm::Stm;

/// How often the traced run samples the public counters.
pub const SAMPLE_EVERY_NS: u64 = 10_000_000;

/// At most this many requests per phase have their spans written out (every
/// k-th request is kept); the percentiles are computed from all of them.
pub const MAX_TRACED_REQUESTS: usize = 10_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    /// 0 = no parent.
    pub parent: u32,
    pub name: &'static str,
    /// Request (or block / session) index the span belongs to; spans of one
    /// request share it.
    pub request: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One reading of the public counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    pub t_ns: u64,
    pub offered: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub completed: u64,
    pub queue_len: u64,
    pub top_commits: u64,
    pub top_aborts: u64,
    pub retained_versions: u64,
}

impl Sample {
    pub fn take(stm: &Stm, ingress: Option<&Ingress>) -> Self {
        let stats = stm.stats().snapshot();
        let mut s = Sample {
            t_ns: now_ns(),
            top_commits: stats.top_commits,
            top_aborts: stats.top_aborts,
            retained_versions: stm.heap_gauge().retained_versions(),
            ..Sample::default()
        };
        if let Some(ingress) = ingress {
            let snap = ingress.snapshot();
            s.offered = snap.offered;
            s.accepted = snap.accepted;
            s.rejected = snap.rejected;
            s.completed = snap.completed;
            s.queue_len = ingress.queue_len() as u64;
        }
        s
    }
}

/// Sleep until `deadline_ns` on the `now_ns` clock; when `sample` is given,
/// wake every [`SAMPLE_EVERY_NS`] to take one.
pub fn wait_until(deadline_ns: u64, mut sample: Option<&mut dyn FnMut()>) {
    loop {
        let now = now_ns();
        if now >= deadline_ns {
            return;
        }
        let mut nap = deadline_ns - now;
        if let Some(sample) = sample.as_mut() {
            sample();
            nap = nap.min(SAMPLE_EVERY_NS);
        }
        std::thread::sleep(std::time::Duration::from_nanos(nap));
    }
}

/// In-memory trace of one workload run. Disabled (the untraced run) it
/// records nothing and costs one branch per call.
#[derive(Debug, Default)]
pub struct Recorder {
    enabled: bool,
    spans: Vec<Span>,
    samples: Vec<(&'static str, Sample)>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, ..Self::default() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record a finished span; returns its id (0 when disabled) for use as
    /// the parent of its children.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: u32,
        request: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span { id, parent, name, request, start_ns, end_ns });
        id
    }

    pub fn sample(&mut self, phase: &'static str, sample: Sample) {
        if self.enabled {
            self.samples.push((phase, sample));
        }
    }

    pub fn samples<'a>(&'a self, phase: &'a str) -> impl Iterator<Item = &'a Sample> + 'a {
        self.samples.iter().filter(move |(p, _)| *p == phase).map(|(_, s)| s)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Write every span and sample as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for s in &self.spans {
            line.clear();
            let _ = write!(
                line,
                r#"{{"kind":"span","id":{},"parent":{},"name":"{}","start_ns":{},"end_ns":{}"#,
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
            if let Some(r) = s.request {
                let _ = write!(line, r#","request":{r}"#);
            }
            line.push_str("}\n");
            out.write_all(line.as_bytes())?;
        }
        for (phase, s) in &self.samples {
            line.clear();
            let _ = writeln!(
                line,
                r#"{{"kind":"sample","phase":"{phase}","t_ns":{},"offered":{},"accepted":{},"rejected":{},"completed":{},"queue_len":{},"top_commits":{},"top_aborts":{},"retained_versions":{}}}"#,
                s.t_ns,
                s.offered,
                s.accepted,
                s.rejected,
                s.completed,
                s.queue_len,
                s.top_commits,
                s.top_aborts,
                s.retained_versions
            );
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        assert_eq!(r.span("x", 0, None, 1, 2), 0);
        r.sample("p", Sample::default());
        assert_eq!(r.span_count(), 0);
        assert_eq!(r.samples("p").count(), 0);
    }

    #[test]
    fn spans_nest_by_id_and_round_trip_through_jsonl() {
        let mut r = Recorder::new(true);
        let root = r.span("request", 0, Some(7), 10, 50);
        let kid = r.span("pnstm.txn", root, Some(7), 30, 50);
        assert_eq!((root, kid), (1, 2));
        r.sample("steady", Sample { t_ns: 5, offered: 3, ..Sample::default() });
        let dir = crate::out_dir().join(format!("test-recorder-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        r.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let span = serde_json::parse_value_str(lines[1]).unwrap();
        assert_eq!(span.get("parent").and_then(serde::Value::as_u64), Some(1));
        assert_eq!(span.get("request").and_then(serde::Value::as_u64), Some(7));
        let sample = serde_json::parse_value_str(lines[2]).unwrap();
        assert_eq!(sample.get("offered").and_then(serde::Value::as_u64), Some(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
