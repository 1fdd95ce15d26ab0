//! Self-healing supervision: heartbeat ledger, stall classification, and
//! the quarantine state machine (DESIGN.md §16).
//!
//! The runtime already survives *death* — a panicking worker drops a
//! `DeathNotice` and the supervisor respawns it. This module covers the
//! failure class death-based supervision cannot see: a worker that
//! *wedges* without panicking (blocked on I/O, livelocked, stuck in a
//! pathological input) and silently strands every request routed to its
//! shard. Workers bump a per-replica progress counter at the
//! claim/batch/respond boundaries; the supervisor's existing poll loop
//! doubles as the watchdog tick and walks each replica through
//!
//! ```text
//! Healthy → Suspect → Quarantined → Probation → Healthy
//! ```
//!
//! The decision logic here is pure (`Instant`s in, verdicts out) so it
//! can be unit-tested without threads. The dispatch core (`dispatch.rs`)
//! applies the drain verdicts and owns the routing mask; the supervisor
//! (`supervisor.rs`) owns the watchdog tick and respawns.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

use crate::config::HealthPolicy;

/// Where a replica stands in the self-healing state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Serving normally.
    Healthy,
    /// Holding work but silent past the missed-heartbeat budget; the
    /// deadline-aware grace clock is running.
    Suspect,
    /// Abandoned: routing detours around it, its queue and in-flight
    /// batch were drained, its thread is disowned, a replacement is
    /// pending under backoff.
    Quarantined,
    /// Respawned and serving again, but not yet trusted: it must answer
    /// `probation_probes` batches before rejoining the healthy set.
    Probation,
}

impl HealthState {
    /// Stable snake_case name (mirrors the ObsEvent kinds).
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Suspect => "suspect",
            HealthState::Quarantined => "quarantined",
            HealthState::Probation => "probation",
        }
    }

    pub(crate) fn as_u8(self) -> u8 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Suspect => 1,
            HealthState::Quarantined => 2,
            HealthState::Probation => 3,
        }
    }

    pub(crate) fn from_u8(v: u8) -> HealthState {
        match v {
            1 => HealthState::Suspect,
            2 => HealthState::Quarantined,
            3 => HealthState::Probation,
            _ => HealthState::Healthy,
        }
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Shared per-replica health ledger: written by the worker (heartbeats,
/// answers, steals) and the supervisor (state, episode counters), read by
/// `stats()`. Plain atomics: no lock is ever taken to update it.
#[derive(Debug, Default)]
pub(crate) struct HealthSlot {
    /// Monotonic progress counter — the heartbeat. Bumped at claim,
    /// inference and respond boundaries; the watchdog compares
    /// successive reads, so the absolute value is meaningless.
    pub progress: AtomicU64,
    /// Batches answered successfully (every request got `Ok`). Probation
    /// counts these as probes.
    pub ok_batches: AtomicU64,
    /// Current [`HealthState`] as `u8`.
    pub state: AtomicU8,
    /// Times this replica has been quarantined.
    pub quarantines: AtomicU64,
    /// Requests hedged *away from* this replica at quarantine drain.
    pub hedged_away: AtomicU64,
    /// Requests this replica answered successfully (full or degraded).
    pub served: AtomicU64,
    /// Micro-batches this replica stole from siblings.
    pub steals: AtomicU64,
    /// Requests carried by those stolen batches.
    pub stolen_requests: AtomicU64,
}

impl HealthSlot {
    pub fn beat(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }

    pub fn state(&self) -> HealthState {
        HealthState::from_u8(self.state.load(Ordering::SeqCst))
    }

    pub fn set_state(&self, s: HealthState) {
        self.state.store(s.as_u8(), Ordering::SeqCst);
    }
}

/// What the watchdog should do about one replica this tick. Pure verdict
/// from [`classify_stall`]; the supervisor applies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StallVerdict {
    /// Progressing, or idle with nothing to do.
    Fine,
    /// Silent past the stall budget while holding work.
    Suspect,
    /// Silent past the budget *and* past the deadline-aware grace: no
    /// outcome it could still produce would matter. Condemn it.
    Quarantine,
}

/// Classify a replica's silence. `last_progress_at` is when the watchdog
/// last saw its progress counter move (or last saw it idle);
/// `latest_inflight_deadline` is the latest deadline among requests
/// parked in its in-flight slot, if any.
///
/// A replica busy on a huge batch is Suspect once silent past
/// `stall_budget`, but is only Quarantined once even its
/// longest-deadlined in-flight request (plus `deadline_grace`) could no
/// longer be answered in time — slow is not wedged. A silent replica
/// with work queued but *nothing* in flight (wedged between batches) has
/// no deadline to wait out, so it is condemned `stall_budget +
/// deadline_grace` after its last progress.
pub(crate) fn classify_stall(
    now: Instant,
    last_progress_at: Instant,
    latest_inflight_deadline: Option<Instant>,
    policy: &HealthPolicy,
) -> StallVerdict {
    let suspect_at = last_progress_at + policy.stall_budget;
    if now < suspect_at {
        return StallVerdict::Fine;
    }
    let condemn_at = match latest_inflight_deadline {
        Some(deadline) => suspect_at.max(deadline + policy.deadline_grace),
        None => suspect_at + policy.deadline_grace,
    };
    if now >= condemn_at {
        StallVerdict::Quarantine
    } else {
        StallVerdict::Suspect
    }
}

/// Fate of one request drained off a quarantined replica. Pure
/// verdict from [`drain_verdict`]; never `Lost` — every stranded request
/// resolves to exactly one typed outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DrainFate {
    /// Deadline already passed: `ServeError::DeadlineExceeded`.
    Expired,
    /// Re-dispatch to a healthy sibling — deadline budget remains, the
    /// request has not been hedged before, and a sibling exists.
    Hedge,
    /// Give up deliberately: `ServeError::Abandoned`.
    Abandon,
}

/// Decide what happens to a stranded request: `remaining` is its
/// deadline budget (`None` when already expired), `already_hedged` caps
/// re-dispatch at one hop, `has_healthy_target` says whether any healthy
/// sibling exists to hedge to.
pub(crate) fn drain_verdict(
    remaining: Option<Duration>,
    already_hedged: bool,
    has_healthy_target: bool,
    policy: &HealthPolicy,
) -> DrainFate {
    match remaining {
        None => DrainFate::Expired,
        Some(budget) => {
            if !already_hedged && has_healthy_target && budget >= policy.hedge_min_budget {
                DrainFate::Hedge
            } else {
                DrainFate::Abandon
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> HealthPolicy {
        HealthPolicy {
            stall_budget: Duration::from_millis(100),
            deadline_grace: Duration::from_millis(40),
            probation_probes: 2,
            hedge_min_budget: Duration::from_millis(5),
        }
    }

    #[test]
    fn state_round_trips_and_names_are_stable() {
        for s in [
            HealthState::Healthy,
            HealthState::Suspect,
            HealthState::Quarantined,
            HealthState::Probation,
        ] {
            assert_eq!(HealthState::from_u8(s.as_u8()), s);
        }
        assert_eq!(HealthState::Healthy.as_str(), "healthy");
        assert_eq!(HealthState::Suspect.as_str(), "suspect");
        assert_eq!(HealthState::Quarantined.as_str(), "quarantined");
        assert_eq!(HealthState::Probation.as_str(), "probation");
    }

    #[test]
    fn silence_inside_budget_is_fine() {
        let pol = policy();
        let t0 = Instant::now();
        let verdict = classify_stall(t0 + Duration::from_millis(99), t0, None, &pol);
        assert_eq!(verdict, StallVerdict::Fine);
    }

    #[test]
    fn busy_on_a_live_deadline_is_suspect_not_condemned() {
        let pol = policy();
        let t0 = Instant::now();
        // Silent past the budget, but its in-flight batch has a deadline
        // far in the future: the work could still matter.
        let deadline = t0 + Duration::from_millis(1000);
        let now = t0 + Duration::from_millis(200);
        assert_eq!(
            classify_stall(now, t0, Some(deadline), &pol),
            StallVerdict::Suspect
        );
        // Once the deadline plus grace has passed, nothing it could
        // produce matters: condemn.
        let later = deadline + pol.deadline_grace;
        assert_eq!(
            classify_stall(later, t0, Some(deadline), &pol),
            StallVerdict::Quarantine
        );
    }

    #[test]
    fn wedged_with_nothing_in_flight_gets_budget_plus_grace() {
        let pol = policy();
        let t0 = Instant::now();
        let suspect = t0 + Duration::from_millis(110);
        assert_eq!(
            classify_stall(suspect, t0, None, &pol),
            StallVerdict::Suspect
        );
        let condemn = t0 + pol.stall_budget + pol.deadline_grace;
        assert_eq!(
            classify_stall(condemn, t0, None, &pol),
            StallVerdict::Quarantine
        );
    }

    #[test]
    fn expired_inflight_deadline_never_extends_the_clock() {
        let pol = policy();
        let t0 = Instant::now();
        // In-flight deadline already behind the suspect threshold: the
        // max() keeps the condemn point at suspect_at, not earlier.
        let stale = t0 + Duration::from_millis(10);
        let now = t0 + pol.stall_budget;
        assert_eq!(
            classify_stall(now, t0, Some(stale), &pol),
            StallVerdict::Quarantine
        );
    }

    #[test]
    fn drain_fates_cover_expired_hedge_and_abandon() {
        let pol = policy();
        assert_eq!(drain_verdict(None, false, true, &pol), DrainFate::Expired);
        assert_eq!(
            drain_verdict(Some(Duration::from_millis(50)), false, true, &pol),
            DrainFate::Hedge
        );
        // Budget below the hedge floor: re-dispatch would be wasted.
        assert_eq!(
            drain_verdict(Some(Duration::from_millis(1)), false, true, &pol),
            DrainFate::Abandon
        );
        // One hedge per request.
        assert_eq!(
            drain_verdict(Some(Duration::from_millis(50)), true, true, &pol),
            DrainFate::Abandon
        );
        // Nowhere to go.
        assert_eq!(
            drain_verdict(Some(Duration::from_millis(50)), false, false, &pol),
            DrainFate::Abandon
        );
    }
}
