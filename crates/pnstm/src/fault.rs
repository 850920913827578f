//! Deterministic fault injection for chaos-testing the tuning stack.
//!
//! AutoPN's value proposition is surviving hostile operating points —
//! starving configurations, abort storms, stalled children, panicking
//! workload code — but none of those pathologies occur on demand in a
//! healthy test machine. This module creates them reproducibly:
//!
//! * A [`FaultPlan`] maps each [`FaultKind`] to a [`FaultRule`] (activation
//!   probability, delay magnitude, activation schedule, injection budget).
//! * Every decision is a pure function of `(seed, kind, consultation index)`
//!   — no wall-clock, no global RNG — so a single-threaded driver (the
//!   `simtm` adapter, a replay) produces *byte-identical* injected-fault
//!   sequences for the same seed, and a multi-threaded run draws the same
//!   multiset of decisions in whatever order its interleaving visits them.
//! * Each injection is published as [`TraceEvent::FaultInjected`] on the
//!   owning [`TraceBus`], so JSONL traces show exactly which faults fired
//!   where, interleaved with the runtime and control-plane events.
//!
//! The runtime consults the plan at **named injection sites** (see the table
//! in `DESIGN.md` §5c): top-level admission ([`FaultKind::AdmissionStall`]),
//! commit validation ([`FaultKind::ValidationAbort`]), the commit-lock
//! critical section ([`FaultKind::CommitHold`]), child-task execution in the
//! shared pool ([`FaultKind::ChildStall`]), application worker loops
//! ([`FaultKind::WorkerPanic`]), commit-timestamp reads
//! ([`FaultKind::ClockJitter`]) and throttle reconfiguration
//! ([`FaultKind::ReconfigFail`]).
//!
//! **Hot-path cost when disabled:** a site holds a [`FaultCtx`] whose plan is
//! `None`; [`FaultCtx::inject`] is then a single inlined branch (see the
//! `fault/site_check` benchmark, which budgets it like `commit/hook_dispatch`).

use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::trace::{self, TraceBus, TraceEvent};

/// The failure modes the runtime knows how to manufacture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Force a top-level commit validation to report a conflict (abort
    /// storm). Site: `Txn::commit_top`.
    ValidationAbort,
    /// Sleep while *holding* the committing transaction's write-set stripe
    /// locks (a stuck committer: back-pressures committers sharing a stripe,
    /// while disjoint-stripe commits keep flowing). Under the global-lock
    /// oracle the stall holds the global commit lock instead and
    /// back-pressures every committer.
    /// Site: `Txn::commit_top`.
    CommitHold,
    /// Sleep at child-task dispatch (stalled child / slow dispatch). Site:
    /// the scheduler's task-claim path, after the lock-free claim (stalled
    /// dispatches overlap). The mutex-pool oracle takes it inside the queue
    /// critical section (a stalled dispatch holds the batch queue); the
    /// contrast is what `sched_scaling` measures.
    ChildStall,
    /// Sleep before acquiring the top-level admission semaphore (admission
    /// starvation). Site: `Stm::atomic`. The sim chaos wrapper interprets
    /// this as a swallowed commit (the system looks stalled to the monitor).
    AdmissionStall,
    /// Panic in an application worker's transaction body (a crashing
    /// workload closure). Site: `LiveStmSystem` worker loop.
    WorkerPanic,
    /// Perturb a commit-event timestamp by up to `delay_ns` (pathological
    /// measurements feeding the monitor). Site: commit-hook timestamping.
    ClockJitter,
    /// Make a `(t, c)` reconfiguration attempt fail (exercises the
    /// controller's retry/backoff/fallback ladder). Site:
    /// `Throttle::try_reconfigure`.
    ReconfigFail,
    /// Sleep during an ancestor-scope read probe (a slow read walking the
    /// nesting ladder): sibling stalls overlap. Under the locked-read oracle
    /// the stall is taken while holding the ancestor-level locks and
    /// back-pressures every sibling reading through that level. Site: `Txn::read` ancestor-level probe.
    ReadHold,
    /// Sleep inside the background GC's slice loop (a stalled collector:
    /// retained versions accumulate, but commits must keep flowing — the GC
    /// thread never holds a lock across a slice). Site: the GC slice loop in
    /// `runtime.rs` (both the background thread and inline sweeps consult
    /// it). The chaos suite uses this to prove a wedged collector degrades
    /// memory, not throughput.
    GcStall,
}

/// Number of distinct fault kinds (array sizing).
pub const FAULT_KINDS: usize = 9;

impl FaultKind {
    /// Every kind, in stable order (index = position).
    pub const ALL: [FaultKind; FAULT_KINDS] = [
        FaultKind::ValidationAbort,
        FaultKind::CommitHold,
        FaultKind::ChildStall,
        FaultKind::AdmissionStall,
        FaultKind::WorkerPanic,
        FaultKind::ClockJitter,
        FaultKind::ReconfigFail,
        FaultKind::ReadHold,
        FaultKind::GcStall,
    ];

    /// Stable dense index of this kind.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            FaultKind::ValidationAbort => 0,
            FaultKind::CommitHold => 1,
            FaultKind::ChildStall => 2,
            FaultKind::AdmissionStall => 3,
            FaultKind::WorkerPanic => 4,
            FaultKind::ClockJitter => 5,
            FaultKind::ReconfigFail => 6,
            FaultKind::ReadHold => 7,
            FaultKind::GcStall => 8,
        }
    }

    /// Stable kebab-case tag (used by the JSONL trace schema and the
    /// `--fault-plan` CLI spec).
    pub fn tag(self) -> &'static str {
        match self {
            FaultKind::ValidationAbort => "validation-abort",
            FaultKind::CommitHold => "commit-hold",
            FaultKind::ChildStall => "child-stall",
            FaultKind::AdmissionStall => "admission-stall",
            FaultKind::WorkerPanic => "worker-panic",
            FaultKind::ClockJitter => "clock-jitter",
            FaultKind::ReconfigFail => "reconfig-fail",
            FaultKind::ReadHold => "read-hold",
            FaultKind::GcStall => "gc-stall",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

impl FromStr for FaultKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FaultKind::ALL
            .into_iter()
            .find(|k| k.tag() == s)
            .ok_or_else(|| format!("unknown fault kind '{s}'"))
    }
}

/// Per-kind injection policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// Probability that one consultation of the site fires, in `[0, 1]`.
    pub probability: f64,
    /// Delay magnitude for stall/hold kinds; jitter amplitude for
    /// [`FaultKind::ClockJitter`]. Ignored by abort/panic/fail kinds.
    pub delay_ns: u64,
    /// Skip the first `after` consultations (lets a session start healthy
    /// and degrade mid-flight).
    pub after: u64,
    /// Maximum number of injections before the rule goes quiet
    /// (`u64::MAX` = unbounded).
    pub budget: u64,
}

impl FaultRule {
    /// A rule firing with `probability`, no delay, immediately, unbounded.
    pub fn with_probability(probability: f64) -> Self {
        Self { probability: probability.clamp(0.0, 1.0), delay_ns: 0, after: 0, budget: u64::MAX }
    }

    /// Builder: set the delay/jitter magnitude.
    pub fn delay_ns(mut self, delay_ns: u64) -> Self {
        self.delay_ns = delay_ns;
        self
    }

    /// Builder: skip the first `after` consultations.
    pub fn after(mut self, after: u64) -> Self {
        self.after = after;
        self
    }

    /// Builder: cap the number of injections.
    pub fn budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }
}

/// One granted injection: what a site should actually do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultAction {
    /// 1-based injection sequence number within this kind.
    pub seq: u64,
    /// The rule's delay magnitude (0 for non-delay kinds).
    pub delay_ns: u64,
    /// Deterministic per-injection entropy, for sites that need extra
    /// decisions (e.g. jitter sign/size) without another RNG.
    pub bits: u64,
}

impl FaultAction {
    /// Deterministic jitter in `[0, delay_ns]` derived from [`Self::bits`].
    pub fn jitter_ns(&self) -> u64 {
        if self.delay_ns == 0 {
            0
        } else {
            self.bits % (self.delay_ns + 1)
        }
    }

    /// Signed jitter in `[-delay_ns, +delay_ns]` (sign from a spare bit).
    pub fn signed_jitter_ns(&self) -> i64 {
        let j = self.jitter_ns() as i64;
        if self.bits & (1 << 63) != 0 {
            -j
        } else {
            j
        }
    }

    /// Sleep for `delay_ns` (no-op when 0). Sites that can block call this.
    pub fn stall(&self) {
        if self.delay_ns > 0 {
            std::thread::sleep(std::time::Duration::from_nanos(self.delay_ns));
        }
    }
}

/// SplitMix64 finalizer over `(seed, kind, index)`: the sole entropy source
/// of the fault layer, so every decision replays exactly.
#[inline]
fn mix(seed: u64, kind: u64, index: u64) -> u64 {
    let mut z =
        seed ^ kind.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded, deterministic schedule of faults to inject.
///
/// Cheap to share (`Arc` it into [`crate::StmConfig::fault`]); consultation
/// counters are atomic, so any number of threads may consult concurrently.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: [Option<FaultRule>; FAULT_KINDS],
    consults: [AtomicU64; FAULT_KINDS],
    injections: [AtomicU64; FAULT_KINDS],
}

impl FaultPlan {
    /// An empty plan (no rules, nothing ever fires) with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// The seed all decisions derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Builder: attach `rule` for `kind`.
    pub fn with_rule(mut self, kind: FaultKind, rule: FaultRule) -> Self {
        self.rules[kind.index()] = Some(rule);
        self
    }

    /// The rule for `kind`, if any.
    pub fn rule(&self, kind: FaultKind) -> Option<&FaultRule> {
        self.rules[kind.index()].as_ref()
    }

    /// Whether any rule is configured.
    pub fn is_empty(&self) -> bool {
        self.rules.iter().all(Option::is_none)
    }

    /// How many injections of `kind` have fired so far.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        let i = kind.index();
        let n = self.injections[i].load(Ordering::Relaxed);
        match self.rules[i] {
            Some(r) => n.min(r.budget),
            None => n,
        }
    }

    /// Total injections across all kinds.
    pub fn injected_total(&self) -> u64 {
        FaultKind::ALL.into_iter().map(|k| self.injected(k)).sum()
    }

    /// Consult the plan at a site of `kind`: returns the action to perform
    /// if this consultation draws an injection, `None` otherwise.
    ///
    /// Deterministic: the decision for consultation `i` of a kind depends
    /// only on `(seed, kind, i)`; the atomic counter just hands out `i`.
    pub fn check(&self, kind: FaultKind) -> Option<FaultAction> {
        let i = kind.index();
        let rule = self.rules[i].as_ref()?;
        let idx = self.consults[i].fetch_add(1, Ordering::Relaxed);
        if idx < rule.after {
            return None;
        }
        let bits = mix(self.seed, i as u64, idx);
        // 53 uniform mantissa bits in [0, 1), same construction as the rand
        // shim's gen_bool, so probability 1.0 always fires and 0.0 never.
        let draw = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if draw >= rule.probability {
            return None;
        }
        let n = self.injections[i].fetch_add(1, Ordering::Relaxed);
        if n >= rule.budget {
            return None;
        }
        Some(FaultAction { seq: n + 1, delay_ns: rule.delay_ns, bits })
    }

    /// Parse a CLI fault-plan spec.
    ///
    /// Format: comma-separated `key=value` entries. `seed=<u64>` sets the
    /// seed (default 0); every other key is a [`FaultKind`] tag with value
    /// `<probability>[:<delay>][:<budget>]`, where `<delay>` takes `ns`,
    /// `us`, `ms` or `s` suffixes (bare numbers are nanoseconds).
    ///
    /// ```
    /// use pnstm::fault::{FaultKind, FaultPlan};
    /// let p = FaultPlan::parse("seed=7,validation-abort=0.2,commit-hold=0.1:2ms:5").unwrap();
    /// assert_eq!(p.seed(), 7);
    /// let r = p.rule(FaultKind::CommitHold).unwrap();
    /// assert_eq!((r.probability, r.delay_ns, r.budget), (0.1, 2_000_000, 5));
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut seed = 0u64;
        let mut rules: Vec<(FaultKind, FaultRule)> = Vec::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault-plan entry '{entry}' is not key=value"))?;
            if key == "seed" {
                seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?;
                continue;
            }
            let kind: FaultKind = key.parse()?;
            let mut parts = value.split(':');
            let prob: f64 = parts
                .next()
                .unwrap_or_default()
                .parse()
                .map_err(|_| format!("bad probability in '{entry}'"))?;
            if !(0.0..=1.0).contains(&prob) {
                return Err(format!("probability {prob} out of [0,1] in '{entry}'"));
            }
            let mut rule = FaultRule::with_probability(prob);
            if let Some(delay) = parts.next() {
                rule.delay_ns = parse_duration_ns(delay)?;
            }
            if let Some(budget) = parts.next() {
                rule.budget = budget.parse().map_err(|_| format!("bad budget in '{entry}'"))?;
            }
            if parts.next().is_some() {
                return Err(format!("too many ':' fields in '{entry}'"));
            }
            rules.push((kind, rule));
        }
        let mut plan = FaultPlan::new(seed);
        for (kind, rule) in rules {
            plan = plan.with_rule(kind, rule);
        }
        Ok(plan)
    }
}

fn parse_duration_ns(s: &str) -> Result<u64, String> {
    let (num, mul) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1u64)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1_000)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1_000_000)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1_000_000_000)
    } else {
        (s, 1)
    };
    let v: f64 = num.trim().parse().map_err(|_| format!("bad duration '{s}'"))?;
    if v < 0.0 {
        return Err(format!("negative duration '{s}'"));
    }
    Ok((v * mul as f64) as u64)
}

/// An injection context a site holds: the (optional) plan plus the trace bus
/// injections are published on.
///
/// `FaultCtx` is what actually lives in the runtime structures, so the
/// disabled configuration costs one branch per consultation (`plan.is_none()`)
/// and zero allocation.
#[derive(Clone, Default)]
pub struct FaultCtx {
    plan: Option<Arc<FaultPlan>>,
    trace: TraceBus,
}

impl FaultCtx {
    /// A context that injects per `plan` and traces on `trace`.
    pub fn new(plan: Option<Arc<FaultPlan>>, trace: TraceBus) -> Self {
        Self { plan, trace }
    }

    /// A context that never injects (the production default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// The underlying plan, if any.
    pub fn plan(&self) -> Option<&Arc<FaultPlan>> {
        self.plan.as_ref()
    }

    /// Whether a plan is attached (sites may use this to skip setup work).
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.plan.is_some()
    }

    /// Consult the plan for `kind`; on an injection, emit
    /// [`TraceEvent::FaultInjected`] (stamped with the process trace clock)
    /// and return the action.
    #[inline]
    pub fn inject(&self, kind: FaultKind) -> Option<FaultAction> {
        let plan = self.plan.as_ref()?;
        self.inject_slow(plan, kind)
    }

    #[cold]
    fn inject_slow(&self, plan: &Arc<FaultPlan>, kind: FaultKind) -> Option<FaultAction> {
        let action = plan.check(kind)?;
        self.trace.emit(TraceEvent::FaultInjected {
            kind,
            seq: action.seq,
            delay_ns: action.delay_ns,
            at_ns: trace::now_ns(),
        });
        Some(action)
    }

    /// [`FaultCtx::inject`] stamping the trace event with a caller-supplied
    /// clock (virtual-time drivers use this so traces replay byte-identically).
    pub fn inject_at(&self, kind: FaultKind, at_ns: u64) -> Option<FaultAction> {
        let plan = self.plan.as_ref()?;
        let action = plan.check(kind)?;
        self.trace.emit(TraceEvent::FaultInjected {
            kind,
            seq: action.seq,
            delay_ns: action.delay_ns,
            at_ns,
        });
        Some(action)
    }
}

impl std::fmt::Debug for FaultCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultCtx").field("armed", &self.is_armed()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TestSink;

    fn decisions(plan: &FaultPlan, kind: FaultKind, n: usize) -> Vec<Option<FaultAction>> {
        (0..n).map(|_| plan.check(kind)).collect()
    }

    #[test]
    fn same_seed_same_decision_sequence() {
        let mk = || {
            FaultPlan::new(42)
                .with_rule(FaultKind::ValidationAbort, FaultRule::with_probability(0.3))
                .with_rule(FaultKind::CommitHold, FaultRule::with_probability(0.7).delay_ns(500))
        };
        let (a, b) = (mk(), mk());
        for kind in [FaultKind::ValidationAbort, FaultKind::CommitHold] {
            assert_eq!(decisions(&a, kind, 500), decisions(&b, kind, 500));
        }
        assert_eq!(a.injected_total(), b.injected_total());
        assert!(a.injected_total() > 0, "p=0.3/0.7 over 500 draws must fire");
    }

    #[test]
    fn different_seeds_diverge() {
        let a =
            FaultPlan::new(1).with_rule(FaultKind::ChildStall, FaultRule::with_probability(0.5));
        let b =
            FaultPlan::new(2).with_rule(FaultKind::ChildStall, FaultRule::with_probability(0.5));
        assert_ne!(
            decisions(&a, FaultKind::ChildStall, 200),
            decisions(&b, FaultKind::ChildStall, 200)
        );
    }

    #[test]
    fn probability_extremes() {
        let p = FaultPlan::new(9)
            .with_rule(FaultKind::WorkerPanic, FaultRule::with_probability(0.0))
            .with_rule(FaultKind::ClockJitter, FaultRule::with_probability(1.0));
        for _ in 0..100 {
            assert_eq!(p.check(FaultKind::WorkerPanic), None);
            assert!(p.check(FaultKind::ClockJitter).is_some());
        }
        // Unruled kinds never fire and count nothing.
        assert_eq!(p.check(FaultKind::CommitHold), None);
        assert_eq!(p.injected(FaultKind::ClockJitter), 100);
    }

    #[test]
    fn after_and_budget_bound_the_schedule() {
        let p = FaultPlan::new(3).with_rule(
            FaultKind::AdmissionStall,
            FaultRule::with_probability(1.0).after(10).budget(4),
        );
        let fired: Vec<bool> =
            (0..30).map(|_| p.check(FaultKind::AdmissionStall).is_some()).collect();
        assert!(fired[..10].iter().all(|f| !f), "first 10 consultations are quiet");
        assert_eq!(fired.iter().filter(|f| **f).count(), 4, "budget caps injections");
        assert_eq!(p.injected(FaultKind::AdmissionStall), 4);
    }

    #[test]
    fn probability_is_roughly_honored() {
        let p = FaultPlan::new(0xC0FFEE)
            .with_rule(FaultKind::ValidationAbort, FaultRule::with_probability(0.25));
        let n = 10_000;
        let hits = (0..n).filter(|_| p.check(FaultKind::ValidationAbort).is_some()).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn actions_carry_deterministic_entropy() {
        let mk = || {
            FaultPlan::new(5)
                .with_rule(FaultKind::ClockJitter, FaultRule::with_probability(1.0).delay_ns(1000))
        };
        let (a, b) = (mk(), mk());
        for _ in 0..50 {
            let (x, y) = (
                a.check(FaultKind::ClockJitter).unwrap(),
                b.check(FaultKind::ClockJitter).unwrap(),
            );
            assert_eq!(x, y);
            assert!(x.jitter_ns() <= 1000);
            assert!(x.signed_jitter_ns().unsigned_abs() <= 1000);
        }
    }

    #[test]
    fn parse_round_trip_and_errors() {
        let p = FaultPlan::parse(
            "seed=99, validation-abort=0.5, commit-hold=0.25:2ms:7, child-stall=1:750us, clock-jitter=0.1:1s",
        )
        .unwrap();
        assert_eq!(p.seed(), 99);
        assert_eq!(p.rule(FaultKind::ValidationAbort).unwrap().probability, 0.5);
        let hold = p.rule(FaultKind::CommitHold).unwrap();
        assert_eq!((hold.delay_ns, hold.budget), (2_000_000, 7));
        assert_eq!(p.rule(FaultKind::ChildStall).unwrap().delay_ns, 750_000);
        assert_eq!(p.rule(FaultKind::ClockJitter).unwrap().delay_ns, 1_000_000_000);
        assert_eq!(p.rule(FaultKind::WorkerPanic), None);

        assert!(FaultPlan::parse("bogus-kind=0.5").is_err());
        assert!(FaultPlan::parse("validation-abort").is_err());
        assert!(FaultPlan::parse("validation-abort=1.5").is_err());
        assert!(FaultPlan::parse("commit-hold=0.5:1ms:3:extra").is_err());
        assert!(FaultPlan::parse("seed=notanumber").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn kind_tags_round_trip() {
        for kind in FaultKind::ALL {
            assert_eq!(kind.tag().parse::<FaultKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.tag());
        }
    }

    #[test]
    fn ctx_emits_trace_events_and_disabled_is_silent() {
        let bus = TraceBus::new();
        let sink = Arc::new(TestSink::new());
        bus.subscribe(sink.clone());
        let plan = Arc::new(
            FaultPlan::new(1)
                .with_rule(FaultKind::CommitHold, FaultRule::with_probability(1.0).delay_ns(3)),
        );
        let ctx = FaultCtx::new(Some(plan), bus.clone());
        let action = ctx.inject(FaultKind::CommitHold).unwrap();
        assert_eq!(action.seq, 1);
        match sink.events().as_slice() {
            [TraceEvent::FaultInjected {
                kind: FaultKind::CommitHold, seq: 1, delay_ns: 3, ..
            }] => {}
            other => panic!("unexpected events {other:?}"),
        }

        let off = FaultCtx::disabled();
        assert!(!off.is_armed());
        assert_eq!(off.inject(FaultKind::CommitHold), None);
        assert_eq!(sink.len(), 1, "disabled ctx emits nothing");
    }

    #[test]
    fn concurrent_consultations_draw_the_same_multiset() {
        use std::collections::BTreeSet;
        let plan = Arc::new(
            FaultPlan::new(77).with_rule(FaultKind::ChildStall, FaultRule::with_probability(0.4)),
        );
        let mut handles = Vec::new();
        for _ in 0..4 {
            let plan = Arc::clone(&plan);
            handles.push(std::thread::spawn(move || {
                (0..250).filter(|_| plan.check(FaultKind::ChildStall).is_some()).count()
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        // Reference: the same 1000 indices drawn single-threaded.
        let reference =
            FaultPlan::new(77).with_rule(FaultKind::ChildStall, FaultRule::with_probability(0.4));
        let expect = (0..1000).filter(|_| reference.check(FaultKind::ChildStall).is_some()).count();
        assert_eq!(total, expect, "interleaving must not change the decision multiset");
        let _ = BTreeSet::from([0u8]); // keep use
    }
}
