//! Contention management: *when* an aborted transaction retries.
//!
//! Aborts used to retry immediately at every site — the top-level driver,
//! the nested sibling-conflict loop, and (transitively) the striped-commit
//! revalidation failure path — which lets two writers with overlapping
//! footprints invalidate each other's snapshots forever under sustained
//! contention (the `commit-hold` chaos livelock). This module makes the
//! retry delay a policy, following the commit/read/scheduler ladder pattern:
//! a [`ContentionManager`] trait with four rungs selected by
//! [`crate::StmConfig::cm_mode`] and switchable at runtime
//! ([`crate::Stm::set_cm_mode`]) so the AutoPN tuner can treat the policy as
//! a discrete knob:
//!
//! * [`CmMode::Immediate`] — retry with no delay: the original behaviour,
//!   retained as the differential oracle and bench baseline.
//! * [`CmMode::ExpBackoff`] — the default. The first abort of a chain
//!   retries at once; from the second consecutive abort on, a jittered
//!   exponential delay doubling per abort (capped at 2⁶×). The jitter is a
//!   pure function of `(ticket, attempt)` (same SplitMix64 idiom as
//!   [`crate::fault`]), so runs replay deterministically.
//! * [`CmMode::Karma`] — priority accrues with every aborted attempt plus
//!   the work it had done (read + write footprint); the loser waits
//!   proportionally to its gap below the highest-karma active transaction,
//!   so long transactions that keep losing eventually stop being starved.
//! * [`CmMode::Greedy`] — timestamp seniority: the oldest active transaction
//!   (smallest begin ticket) never waits; a junior loser waits an escalating
//!   quantum per abort for as long as a strictly more senior transaction is
//!   active. (The classic eager-CM "never waits twice" rule assumes the
//!   winner can abort the loser outright; in a lazy abort-and-retry STM the
//!   only lever is who pauses, so seniority is enforced by making juniors —
//!   and only juniors — yield the conflict window.)
//!
//! Decisions with a nonzero wait are counted per policy in
//! [`crate::Stats`] (plus a log2 wait histogram) and emitted as
//! [`crate::TraceEvent::CmDecision`] events. The waits themselves are
//! executed by the runtime in small interruptible slices so admission
//! shutdown cuts a backoff short promptly.

use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::Duration;

/// Number of contention-manager policies (the length of [`CmMode::ALL`]).
pub const CM_POLICIES: usize = 4;

/// Base delay of the exponential-backoff rung: the wait after a chain's
/// second consecutive abort.
pub const DEFAULT_BACKOFF_BASE_NS: u64 = 20_000;

/// Exponent cap of the backoff rung: the delay doubles per consecutive
/// abort up to `base << BACKOFF_MAX_EXP`.
pub const BACKOFF_MAX_EXP: u64 = 6;

/// Wait per unit of karma gap ([`karma_wait_ns`]).
pub const KARMA_UNIT_WAIT_NS: u64 = 2_000;

/// Karma-gap cap: bounds the karma rung's wait at
/// `KARMA_UNIT_WAIT_NS * KARMA_GAP_CAP` (~1 ms).
pub const KARMA_GAP_CAP: u64 = 512;

/// Base quantum a junior transaction waits under the greedy rung; doubles
/// per consecutive abort up to `GREEDY_WAIT_NS << GREEDY_MAX_EXP`.
pub const GREEDY_WAIT_NS: u64 = 200_000;

/// Exponent cap of the greedy rung's escalating junior wait (~3.2 ms).
pub const GREEDY_MAX_EXP: u64 = 4;

/// A CM wait at least this long releases the top-level admission permit
/// before sleeping and re-acquires it before retrying, so a backing-off
/// transaction does not occupy an admission slot it is not using.
pub const PERMIT_RELEASE_THRESHOLD_NS: u64 = 100_000;

/// Slice length of [`sleep_interruptible`]: the granularity at which a CM
/// wait notices admission shutdown.
const WAIT_SLICE: Duration = Duration::from_micros(200);

/// Which contention-management policy decides post-abort retry delays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CmMode {
    /// Retry immediately (the pre-CM behaviour; differential oracle and
    /// bench baseline).
    Immediate,
    /// Retry the first abort at once, then jittered exponential backoff,
    /// doubling per further consecutive abort. The default.
    #[default]
    ExpBackoff,
    /// Priority accrued per aborted attempt and work done; the loser waits
    /// proportionally to its priority gap.
    Karma,
    /// Timestamp seniority: the oldest active transaction never waits;
    /// junior losers wait escalating quanta while their senior is active.
    Greedy,
}

impl CmMode {
    /// Every policy, in [`CmMode::index`] order.
    pub const ALL: [CmMode; CM_POLICIES] =
        [CmMode::Immediate, CmMode::ExpBackoff, CmMode::Karma, CmMode::Greedy];

    /// Dense index, for per-policy counters.
    pub fn index(&self) -> usize {
        match self {
            CmMode::Immediate => 0,
            CmMode::ExpBackoff => 1,
            CmMode::Karma => 2,
            CmMode::Greedy => 3,
        }
    }

    /// Inverse of [`CmMode::index`] (`None` out of range).
    pub fn from_index(i: usize) -> Option<CmMode> {
        Self::ALL.get(i).copied()
    }

    /// Short kebab-case tag (the `"policy"` field of the trace schema).
    pub fn tag(&self) -> &'static str {
        match self {
            CmMode::Immediate => "immediate",
            CmMode::ExpBackoff => "exp-backoff",
            CmMode::Karma => "karma",
            CmMode::Greedy => "greedy",
        }
    }
}

impl std::fmt::Display for CmMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// Where an abort consulted the contention manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortSite {
    /// The top-level retry loop, for a conflict surfaced by the transaction
    /// body (a child that exhausted its sibling-retry budget, or a panic).
    Top,
    /// The top-level retry loop, for a striped- or global-commit validation
    /// failure (including the post-reservation revalidation path).
    Commit,
    /// The nested sibling-conflict retry loop in the child driver.
    Nested,
    /// The top-level retry loop, for an attempt whose snapshot lease expired
    /// under memory pressure and was evicted from the registry. The retry
    /// begins on a fresh snapshot; the conflict is with the GC, not another
    /// transaction.
    Evicted,
}

impl AbortSite {
    /// Short tag (the `"site"` field of the trace schema).
    pub fn tag(&self) -> &'static str {
        match self {
            AbortSite::Top => "top",
            AbortSite::Commit => "commit",
            AbortSite::Nested => "nested",
            AbortSite::Evicted => "evicted",
        }
    }
}

/// Per-attempt-chain contention-manager state: one per `atomic()` call and
/// one per child task, spanning every retry of that chain.
#[derive(Debug)]
pub struct CmTx {
    /// Begin ticket: globally unique, monotonically increasing. Doubles as
    /// the greedy rung's seniority stamp and the backoff rung's jitter seed.
    pub ticket: u64,
    /// Accrued karma (aborted attempts + work done), karma rung only.
    pub karma: u64,
    /// Whether this chain is registered in the greedy seniority set (and
    /// must be deregistered at finish).
    pub greedy_registered: bool,
}

/// A policy rung: decides how long an aborted transaction waits before its
/// next attempt. Implementations must be cheap — `on_abort` runs on the
/// abort path of every conflicted attempt.
pub trait ContentionManager: Send + Sync {
    /// The rung this manager implements.
    fn mode(&self) -> CmMode;

    /// Called once when an attempt chain starts (after its ticket is
    /// minted). Default: nothing.
    fn on_begin(&self, tx: &mut CmTx) {
        let _ = tx;
    }

    /// Decide the delay before the chain's next attempt. `attempt` counts
    /// aborts so far in the chain (≥ 1); `work` is the aborted attempt's
    /// read + write footprint.
    fn on_abort(&self, tx: &mut CmTx, site: AbortSite, attempt: u64, work: usize) -> Duration;
}

/// SplitMix64-style mix of two words: the jitter source. A pure function,
/// so identical histories produce identical delays (mirrors
/// [`crate::fault`]'s replayable decision function).
fn mix2(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The backoff rung's delay. The first abort of a chain retries at once: a
/// lone low-conflict abort is cheaper to retry than to sleep on, since a
/// `thread::sleep` overshoots a 20 µs wait several times over. From the
/// second consecutive abort on (repeated conflict, where backoff pays), the
/// delay is `base << min(attempt - 2, BACKOFF_MAX_EXP)` nanoseconds,
/// jittered by ±25% as a pure function of `(ticket, attempt)`. Saturating
/// throughout — no overflow for any input.
pub fn exp_backoff_ns(base_ns: u64, ticket: u64, attempt: u64) -> u64 {
    if base_ns == 0 || attempt < 2 {
        return 0;
    }
    let exp = (attempt - 2).min(BACKOFF_MAX_EXP);
    let nominal = base_ns.saturating_mul(1u64 << exp);
    // Jitter uniformly over [nominal - nominal/4, nominal + nominal/4]:
    // desynchronizes losers that aborted on the same conflict.
    let span = (nominal / 2).max(1);
    let j = mix2(ticket, attempt) % span;
    nominal.saturating_sub(nominal / 4).saturating_add(j)
}

/// The karma rung's delay: proportional to how far the loser's karma lies
/// below the highest karma observed among active transactions, capped at
/// [`KARMA_GAP_CAP`] units. The current karma leader gets a zero wait.
pub fn karma_wait_ns(max_karma: u64, karma: u64) -> u64 {
    let gap = max_karma.saturating_sub(karma);
    KARMA_UNIT_WAIT_NS.saturating_mul(gap.min(KARMA_GAP_CAP))
}

/// Karma priority total order: does priority `a = (karma, ticket)` beat
/// `b`? Higher karma wins; equal karma falls back to seniority (the smaller
/// ticket wins), so any two distinct transactions are strictly ordered —
/// tickets are unique.
pub fn karma_wins(a: (u64, u64), b: (u64, u64)) -> bool {
    (a.0, std::cmp::Reverse(a.1)) > (b.0, std::cmp::Reverse(b.1))
}

/// State shared by all rungs of one [`CmEngine`].
struct CmCore {
    /// Base delay of the backoff rung (ns).
    base_backoff_ns: u64,
    /// Begin-ticket source.
    next_ticket: AtomicU64,
    /// Highest karma observed among active transactions (reset by the
    /// leader when it finishes).
    max_karma: AtomicU64,
    /// Begin tickets of active chains, greedy rung only (registered at
    /// begin while the greedy rung is active, so the other rungs pay
    /// nothing for it).
    active: Mutex<BTreeSet<u64>>,
}

/// Immediate rung: the pre-CM behaviour — zero delay, no state.
struct ImmediateCm;

impl ContentionManager for ImmediateCm {
    fn mode(&self) -> CmMode {
        CmMode::Immediate
    }
    fn on_abort(&self, _tx: &mut CmTx, _site: AbortSite, _attempt: u64, _work: usize) -> Duration {
        Duration::ZERO
    }
}

/// Exponential-backoff rung (see [`exp_backoff_ns`]).
struct ExpBackoffCm {
    core: std::sync::Arc<CmCore>,
}

impl ContentionManager for ExpBackoffCm {
    fn mode(&self) -> CmMode {
        CmMode::ExpBackoff
    }
    fn on_abort(&self, tx: &mut CmTx, _site: AbortSite, attempt: u64, _work: usize) -> Duration {
        Duration::from_nanos(exp_backoff_ns(self.core.base_backoff_ns, tx.ticket, attempt))
    }
}

/// Karma rung: accrue priority per abort and per unit of wasted work; wait
/// proportionally to the gap below the current leader.
struct KarmaCm {
    core: std::sync::Arc<CmCore>,
}

impl ContentionManager for KarmaCm {
    fn mode(&self) -> CmMode {
        CmMode::Karma
    }
    fn on_abort(&self, tx: &mut CmTx, _site: AbortSite, _attempt: u64, work: usize) -> Duration {
        tx.karma = tx.karma.saturating_add(1 + work as u64);
        let observed = self.core.max_karma.fetch_max(tx.karma, Ordering::Relaxed).max(tx.karma);
        Duration::from_nanos(karma_wait_ns(observed, tx.karma))
    }
}

/// Greedy rung: the most senior active chain retries immediately; junior
/// losers wait an escalating quantum per abort while their senior lives, so
/// the senior eventually gets a junior-free conflict window however long its
/// commit takes.
struct GreedyCm {
    core: std::sync::Arc<CmCore>,
}

impl GreedyCm {
    fn is_most_senior(&self, ticket: u64) -> bool {
        self.core.active.lock().iter().next().is_none_or(|&min| min >= ticket)
    }
}

/// The greedy rung's junior delay: `GREEDY_WAIT_NS << min(attempt - 1,
/// GREEDY_MAX_EXP)`. Deterministic — the senior/junior asymmetry itself
/// provides the desynchronization, no jitter needed.
pub fn greedy_wait_ns(attempt: u64) -> u64 {
    if attempt == 0 {
        return 0;
    }
    GREEDY_WAIT_NS.saturating_mul(1u64 << attempt.saturating_sub(1).min(GREEDY_MAX_EXP))
}

impl ContentionManager for GreedyCm {
    fn mode(&self) -> CmMode {
        CmMode::Greedy
    }
    fn on_begin(&self, tx: &mut CmTx) {
        self.core.active.lock().insert(tx.ticket);
        tx.greedy_registered = true;
    }
    fn on_abort(&self, tx: &mut CmTx, _site: AbortSite, attempt: u64, _work: usize) -> Duration {
        if self.is_most_senior(tx.ticket) {
            return Duration::ZERO;
        }
        Duration::from_nanos(greedy_wait_ns(attempt))
    }
}

/// The runtime's contention manager: all four rungs plus the live mode
/// switch. One per [`crate::Stm`] instance.
pub(crate) struct CmEngine {
    mode: AtomicU8,
    core: std::sync::Arc<CmCore>,
    rungs: [Box<dyn ContentionManager>; CM_POLICIES],
}

impl CmEngine {
    pub(crate) fn new(mode: CmMode, base_backoff_ns: u64) -> Self {
        let core = std::sync::Arc::new(CmCore {
            base_backoff_ns,
            next_ticket: AtomicU64::new(1),
            max_karma: AtomicU64::new(0),
            active: Mutex::new(BTreeSet::new()),
        });
        let rungs: [Box<dyn ContentionManager>; CM_POLICIES] = [
            Box::new(ImmediateCm),
            Box::new(ExpBackoffCm { core: std::sync::Arc::clone(&core) }),
            Box::new(KarmaCm { core: std::sync::Arc::clone(&core) }),
            Box::new(GreedyCm { core: std::sync::Arc::clone(&core) }),
        ];
        Self { mode: AtomicU8::new(mode.index() as u8), core, rungs }
    }

    /// The policy currently in force.
    pub(crate) fn mode(&self) -> CmMode {
        CmMode::from_index(self.mode.load(Ordering::Relaxed) as usize)
            .expect("mode index always stored from a valid CmMode")
    }

    /// Switch policy live. In-flight chains keep their accrued state; they
    /// consult the new policy from their next abort on.
    pub(crate) fn set_mode(&self, mode: CmMode) {
        self.mode.store(mode.index() as u8, Ordering::Relaxed);
    }

    /// Start an attempt chain: mint a ticket and let the active rung
    /// initialize per-chain state. Pair with [`CmEngine::finish`] (or use
    /// [`CmEngine::begin_guard`]).
    pub(crate) fn begin(&self) -> CmTx {
        let ticket = self.core.next_ticket.fetch_add(1, Ordering::Relaxed);
        let mut tx = CmTx { ticket, karma: 0, greedy_registered: false };
        self.rungs[self.mode().index()].on_begin(&mut tx);
        tx
    }

    /// RAII [`CmEngine::begin`]: finishes the chain on drop, on every exit
    /// path of the retry drivers.
    pub(crate) fn begin_guard(&self) -> CmTxGuard<'_> {
        CmTxGuard { engine: self, tx: self.begin() }
    }

    /// Consult the active rung after an aborted attempt. Returns the
    /// deciding policy together with the wait it chose (zero = retry
    /// immediately).
    pub(crate) fn decide(
        &self,
        tx: &mut CmTx,
        site: AbortSite,
        attempt: u64,
        work: usize,
    ) -> (CmMode, Duration) {
        let mode = self.mode();
        let wait = self.rungs[mode.index()].on_abort(tx, site, attempt, work);
        (mode, wait)
    }

    /// End an attempt chain: deregister greedy seniority and let the karma
    /// leader's priority ceiling re-form from the remaining active chains.
    /// Rung-independent (guarded by the chain's own flags) so a chain that
    /// outlived a live policy switch still cleans up.
    pub(crate) fn finish(&self, tx: &mut CmTx) {
        if tx.greedy_registered {
            self.core.active.lock().remove(&tx.ticket);
            tx.greedy_registered = false;
        }
        if tx.karma > 0 {
            let _ = self.core.max_karma.compare_exchange(
                tx.karma,
                0,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            tx.karma = 0;
        }
    }
}

/// RAII wrapper around a [`CmTx`]: finishes the chain when dropped.
pub(crate) struct CmTxGuard<'a> {
    engine: &'a CmEngine,
    tx: CmTx,
}

impl CmTxGuard<'_> {
    pub(crate) fn decide(
        &mut self,
        site: AbortSite,
        attempt: u64,
        work: usize,
    ) -> (CmMode, Duration) {
        self.engine.decide(&mut self.tx, site, attempt, work)
    }
}

impl Drop for CmTxGuard<'_> {
    fn drop(&mut self) {
        self.engine.finish(&mut self.tx);
    }
}

/// Sleep `dur` in [`WAIT_SLICE`] slices, returning early once `cancelled`
/// turns true. Returns `(waited_ns, was_cancelled)`.
pub(crate) fn sleep_interruptible(dur: Duration, cancelled: impl Fn() -> bool) -> (u64, bool) {
    let start = std::time::Instant::now();
    loop {
        if cancelled() {
            return (start.elapsed().as_nanos() as u64, true);
        }
        let elapsed = start.elapsed();
        if elapsed >= dur {
            return (elapsed.as_nanos() as u64, false);
        }
        std::thread::sleep(WAIT_SLICE.min(dur - elapsed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_index_round_trips() {
        for m in CmMode::ALL {
            assert_eq!(CmMode::from_index(m.index()), Some(m));
        }
        assert_eq!(CmMode::from_index(CM_POLICIES), None);
        assert_eq!(CmMode::default(), CmMode::ExpBackoff);
        let tags: Vec<&str> = CmMode::ALL.iter().map(|m| m.tag()).collect();
        assert_eq!(tags, ["immediate", "exp-backoff", "karma", "greedy"]);
        assert_eq!(CmMode::Karma.to_string(), "karma");
    }

    #[test]
    fn abort_site_tags() {
        assert_eq!(AbortSite::Top.tag(), "top");
        assert_eq!(AbortSite::Commit.tag(), "commit");
        assert_eq!(AbortSite::Nested.tag(), "nested");
        assert_eq!(AbortSite::Evicted.tag(), "evicted");
    }

    #[test]
    fn exp_backoff_doubles_and_caps() {
        let base = 1_000;
        let at = |attempt| exp_backoff_ns(base, 7, attempt);
        // From the second abort on, every delay lands within ±25% of its
        // nominal value.
        for attempt in 2..=20u64 {
            let nominal = base << (attempt - 2).min(BACKOFF_MAX_EXP);
            let d = at(attempt);
            assert!(d >= nominal - nominal / 4, "attempt {attempt}: {d} < 0.75x{nominal}");
            assert!(d <= nominal + nominal / 4, "attempt {attempt}: {d} > 1.25x{nominal}");
        }
        // Capped at 2^BACKOFF_MAX_EXP from attempt 8 on: same nominal band.
        assert!(at(20) <= (base << BACKOFF_MAX_EXP) + (base << BACKOFF_MAX_EXP) / 4);
        // Deterministic: same inputs, same delay.
        assert_eq!(exp_backoff_ns(base, 42, 3), exp_backoff_ns(base, 42, 3));
        // Jitter varies by ticket.
        let spread: std::collections::HashSet<u64> =
            (0..32).map(|t| exp_backoff_ns(base, t, 4)).collect();
        assert!(spread.len() > 1, "jitter must depend on the ticket");
        // Disabled base and zero attempt are zero-delay.
        assert_eq!(exp_backoff_ns(0, 1, 5), 0);
        assert_eq!(exp_backoff_ns(base, 1, 0), 0);
    }

    #[test]
    fn exp_backoff_first_abort_is_free() {
        let base = DEFAULT_BACKOFF_BASE_NS;
        // A lone abort retries at once, for every ticket.
        for ticket in 0..64 {
            assert_eq!(exp_backoff_ns(base, ticket, 1), 0, "ticket {ticket}");
        }
        // The second consecutive abort waits base ±25%.
        for ticket in 0..64 {
            let d = exp_backoff_ns(base, ticket, 2);
            assert!((base - base / 4..=base + base / 4).contains(&d), "ticket {ticket}: {d}");
        }
        // The cap still holds.
        let cap = base << BACKOFF_MAX_EXP;
        assert!(exp_backoff_ns(base, 3, u64::MAX) <= cap + cap / 4);
        assert!(exp_backoff_ns(base, 3, u64::MAX) >= cap - cap / 4);
    }

    #[test]
    fn exp_backoff_never_overflows() {
        // Saturating math: extreme bases and attempts stay finite.
        let _ = exp_backoff_ns(u64::MAX, u64::MAX, u64::MAX);
        let _ = exp_backoff_ns(u64::MAX / 2, 0, BACKOFF_MAX_EXP + 1);
        let _ = exp_backoff_ns(1, u64::MAX, 1);
    }

    #[test]
    fn karma_wait_is_proportional_and_capped() {
        assert_eq!(karma_wait_ns(10, 10), 0, "the leader never waits");
        assert_eq!(karma_wait_ns(10, 12), 0, "above the observed max: no wait");
        assert_eq!(karma_wait_ns(10, 7), 3 * KARMA_UNIT_WAIT_NS);
        assert_eq!(karma_wait_ns(u64::MAX, 0), KARMA_GAP_CAP * KARMA_UNIT_WAIT_NS);
        // No overflow at the extremes.
        let _ = karma_wait_ns(u64::MAX, u64::MAX);
        let _ = karma_wait_ns(u64::MAX, 0);
    }

    #[test]
    fn karma_priority_is_a_total_order() {
        // Higher karma wins.
        assert!(karma_wins((5, 9), (3, 1)));
        assert!(!karma_wins((3, 1), (5, 9)));
        // Ties broken by seniority: the smaller ticket wins.
        assert!(karma_wins((5, 1), (5, 2)));
        assert!(!karma_wins((5, 2), (5, 1)));
        // Distinct transactions (tickets unique) are always strictly
        // ordered: exactly one of the two wins.
        let prios = [(0u64, 1u64), (0, 2), (5, 3), (5, 4), (u64::MAX, 5), (u64::MAX, 6)];
        for a in prios {
            assert!(!karma_wins(a, a), "irreflexive");
            for b in prios {
                if a != b {
                    assert!(karma_wins(a, b) != karma_wins(b, a), "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn karma_rung_accrues_and_waits_by_gap() {
        let engine = CmEngine::new(CmMode::Karma, 1_000);
        let mut rich = engine.begin();
        let mut poor = engine.begin();
        // The rich chain aborts with a large footprint: accrues karma and,
        // as the leader, retries with no wait.
        let (mode, wait) = engine.decide(&mut rich, AbortSite::Commit, 1, 99);
        assert_eq!(mode, CmMode::Karma);
        assert_eq!(rich.karma, 100);
        assert_eq!(wait, Duration::ZERO);
        // The poor chain aborts with no work done: waits by its gap.
        let (_, wait) = engine.decide(&mut poor, AbortSite::Top, 1, 0);
        assert_eq!(poor.karma, 1);
        assert_eq!(wait, Duration::from_nanos(99 * KARMA_UNIT_WAIT_NS));
        // The leader finishing releases the ceiling: the poor chain's next
        // abort sees itself as leader and retries immediately.
        engine.finish(&mut rich);
        let (_, wait) = engine.decide(&mut poor, AbortSite::Top, 2, 0);
        assert_eq!(wait, Duration::ZERO);
    }

    #[test]
    fn greedy_rung_senior_wins_juniors_wait_escalating() {
        let engine = CmEngine::new(CmMode::Greedy, 1_000);
        let mut senior = engine.begin();
        let mut junior = engine.begin();
        assert!(senior.ticket < junior.ticket);
        assert!(senior.greedy_registered && junior.greedy_registered);
        // The senior chain never waits.
        for attempt in 1..=3 {
            let (mode, wait) = engine.decide(&mut senior, AbortSite::Commit, attempt, 1);
            assert_eq!(mode, CmMode::Greedy);
            assert_eq!(wait, Duration::ZERO);
        }
        // The junior chain waits a doubling quantum per abort, capped.
        for attempt in 1..=8u64 {
            let (_, w) = engine.decide(&mut junior, AbortSite::Commit, attempt, 1);
            let want = GREEDY_WAIT_NS << (attempt - 1).min(GREEDY_MAX_EXP);
            assert_eq!(w, Duration::from_nanos(want), "attempt {attempt}");
        }
        // Once the senior finishes, the junior is the most senior active
        // chain: it stops waiting, while a fresh junior behind it waits.
        engine.finish(&mut senior);
        let (_, w) = engine.decide(&mut junior, AbortSite::Commit, 9, 1);
        assert_eq!(w, Duration::ZERO, "promoted to most senior");
        let mut newer = engine.begin();
        let (_, w) = engine.decide(&mut newer, AbortSite::Top, 1, 0);
        assert_eq!(w, Duration::from_nanos(GREEDY_WAIT_NS));
        engine.finish(&mut junior);
        engine.finish(&mut newer);
        assert!(engine.core.active.lock().is_empty(), "all chains deregistered");
    }

    #[test]
    fn greedy_wait_escalates_and_never_overflows() {
        assert_eq!(greedy_wait_ns(0), 0);
        assert_eq!(greedy_wait_ns(1), GREEDY_WAIT_NS);
        assert_eq!(greedy_wait_ns(2), 2 * GREEDY_WAIT_NS);
        assert_eq!(greedy_wait_ns(GREEDY_MAX_EXP + 1), GREEDY_WAIT_NS << GREEDY_MAX_EXP);
        assert_eq!(greedy_wait_ns(u64::MAX), GREEDY_WAIT_NS << GREEDY_MAX_EXP);
    }

    #[test]
    fn immediate_rung_is_stateless_and_instant() {
        let engine = CmEngine::new(CmMode::Immediate, 1_000);
        let mut tx = engine.begin();
        assert!(!tx.greedy_registered);
        for attempt in 1..=10 {
            let (mode, wait) = engine.decide(&mut tx, AbortSite::Top, attempt, 1_000);
            assert_eq!(mode, CmMode::Immediate);
            assert_eq!(wait, Duration::ZERO);
        }
        assert_eq!(tx.karma, 0, "immediate accrues nothing");
    }

    #[test]
    fn live_mode_switch_applies_from_next_abort() {
        let engine = CmEngine::new(CmMode::Immediate, 1_000);
        let mut tx = engine.begin();
        assert_eq!(engine.decide(&mut tx, AbortSite::Top, 1, 0).1, Duration::ZERO);
        engine.set_mode(CmMode::ExpBackoff);
        assert_eq!(engine.mode(), CmMode::ExpBackoff);
        let (mode, wait) = engine.decide(&mut tx, AbortSite::Top, 2, 0);
        assert_eq!(mode, CmMode::ExpBackoff);
        assert!(wait > Duration::ZERO);
        // A chain begun before a switch to Greedy is simply treated as
        // junior; chains begun after register normally.
        engine.set_mode(CmMode::Greedy);
        let mut newer = engine.begin();
        assert!(newer.greedy_registered);
        engine.finish(&mut newer);
        engine.finish(&mut tx);
    }

    #[test]
    fn guard_finishes_on_drop() {
        let engine = CmEngine::new(CmMode::Greedy, 1_000);
        {
            let _guard = engine.begin_guard();
            assert_eq!(engine.core.active.lock().len(), 1);
        }
        assert!(engine.core.active.lock().is_empty());
    }

    #[test]
    fn interruptible_sleep_completes_and_cancels() {
        let (waited, cancelled) = sleep_interruptible(Duration::from_micros(300), || false);
        assert!(!cancelled);
        assert!(waited >= 300_000, "slept the full duration: {waited}");
        let start = std::time::Instant::now();
        let (_, cancelled) = sleep_interruptible(Duration::from_secs(60), || true);
        assert!(cancelled);
        assert!(start.elapsed() < Duration::from_secs(5), "cancellation is prompt");
    }
}
