//! Contention management: *when* an aborted transaction retries.
//!
//! Aborts used to retry immediately at every site — the top-level driver,
//! the nested sibling-conflict loop, and (transitively) the striped-commit
//! revalidation failure path — which lets two writers with overlapping
//! footprints invalidate each other's snapshots forever under sustained
//! contention (the `commit-hold` chaos livelock). Every abort site now
//! consults one policy, jittered exponential backoff ([`exp_backoff_ns`]):
//! the first abort of a chain retries at once; from the second consecutive
//! abort on, the delay doubles per abort (capped at 2⁶×). The jitter is a
//! pure function of `(ticket, attempt)` (same SplitMix64 idiom as
//! [`crate::fault`]), so runs replay deterministically. (The original
//! immediate retry, which livelocks, is the `oracle` feature's
//! `Oracle::ImmediateCm`, kept as the differential oracle and bench
//! baseline.)
//!
//! Nonzero waits are counted in [`crate::Stats`] and emitted as
//! [`crate::TraceEvent::CmDecision`] events. The waits themselves are
//! executed by the runtime in small interruptible slices so admission
//! shutdown cuts a backoff short promptly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Base delay of the exponential backoff: the wait after a chain's second
/// consecutive abort.
pub const DEFAULT_BACKOFF_BASE_NS: u64 = 20_000;

/// Exponent cap of the backoff: the delay doubles per consecutive abort up
/// to `base << BACKOFF_MAX_EXP`.
pub const BACKOFF_MAX_EXP: u64 = 6;

/// A CM wait at least this long releases the top-level admission permit
/// before sleeping and re-acquires it before retrying, so a backing-off
/// transaction does not occupy an admission slot it is not using.
pub const PERMIT_RELEASE_THRESHOLD_NS: u64 = 100_000;

/// Slice length of [`sleep_interruptible`]: the granularity at which a CM
/// wait notices admission shutdown.
const WAIT_SLICE: Duration = Duration::from_micros(200);

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

/// The backoff delay. The first abort of a chain retries at once: a lone
/// low-conflict abort is cheaper to retry than to sleep on, since a
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

/// The runtime's contention manager: the backoff base plus the begin-ticket
/// source that seeds each chain's jitter. One per [`crate::Stm`] instance.
pub(crate) struct CmEngine {
    /// Base delay of the backoff (ns); zero retries every abort at once.
    base_backoff_ns: u64,
    next_ticket: AtomicU64,
}

impl CmEngine {
    pub(crate) fn new(base_backoff_ns: u64) -> Self {
        Self { base_backoff_ns, next_ticket: AtomicU64::new(1) }
    }

    /// Start an attempt chain (one per `atomic()` call and one per child
    /// task, spanning every retry of that chain): mint its ticket, globally
    /// unique and monotonically increasing.
    pub(crate) fn begin(&self) -> u64 {
        self.next_ticket.fetch_add(1, Ordering::Relaxed)
    }

    /// The wait before chain `ticket`'s next attempt, `attempt` aborts in
    /// (zero = retry immediately).
    pub(crate) fn backoff(&self, ticket: u64, attempt: u64) -> Duration {
        Duration::from_nanos(exp_backoff_ns(self.base_backoff_ns, ticket, attempt))
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
    fn engine_mints_unique_tickets_and_backs_off_by_them() {
        let engine = CmEngine::new(1_000);
        let (a, b) = (engine.begin(), engine.begin());
        assert!(a < b, "tickets increase");
        assert_eq!(engine.backoff(a, 1), Duration::ZERO, "first abort is free");
        assert_eq!(engine.backoff(a, 3), Duration::from_nanos(exp_backoff_ns(1_000, a, 3)));
        // A zero base (the immediate-retry oracle) never waits.
        let immediate = CmEngine::new(0);
        let t = immediate.begin();
        assert!((1..=10).all(|attempt| immediate.backoff(t, attempt).is_zero()));
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
