//! Circuit breaker with explicit degraded modes.
//!
//! The serving runtime never hides a failing model behind retries: it
//! *degrades*. Repeated generator failures (worker panics or rationale
//! collapse, judged by the same [`GuardPolicy`] band the training guards
//! use) step the breaker down a ladder of modes:
//!
//! ```text
//!   Closed ──generator failures──▶ Degraded ──predictor failures──▶ Open
//!     ▲                               │                              │
//!     │◀──────full-path probe ok──────┘            sheds accumulate  │
//!     │                                                              ▼
//!     └──────────probe ok────────── HalfOpen ◀───probe budget────────┘
//! ```
//!
//! * **Closed** — full DAR output (rationale + prediction).
//! * **Degraded** — predictor-only: requests are answered from the
//!   model's full-text path ([`predict_full_text`]), skipping the broken
//!   generator. After a run of degraded successes the breaker risks one
//!   full-path probe batch; success closes it again.
//! * **Open** — nothing is computed; submissions are shed with a typed
//!   error (503-style). After a budget of sheds the breaker moves to
//!   HalfOpen to let one probe through.
//! * **HalfOpen** — a single request is admitted on the full path. Success
//!   closes the breaker; failure re-opens it.
//!
//! Every transition is recorded as a [`BreakerEvent`] so a chaos test can
//! assert the exact scripted sequence.
//!
//! [`predict_full_text`]: dar_core::RationaleModel::predict_full_text

use dar_core::GuardPolicy;

/// Thresholds for the mode ladder.
#[derive(Debug, Clone, Copy)]
pub struct BreakerPolicy {
    /// Consecutive full-path failures (panic or collapse) that trip
    /// Closed → Degraded.
    pub failure_threshold: usize,
    /// Consecutive predictor-path failures that trip Degraded → Open.
    pub degraded_threshold: usize,
    /// Successful degraded responses before risking one full-path probe
    /// from Degraded.
    pub probe_after_degraded: usize,
    /// Shed submissions before Open relaxes to HalfOpen.
    pub probe_after_sheds: usize,
    /// Collapse band shared with the training guards: a full-path batch
    /// whose selected fraction falls in the band counts as a generator
    /// failure.
    pub collapse: GuardPolicy,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            failure_threshold: 3,
            degraded_threshold: 3,
            probe_after_degraded: 16,
            probe_after_sheds: 8,
            collapse: GuardPolicy::default(),
        }
    }
}

/// Breaker states. `Degraded` still serves (predictor-only); `Open` sheds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    Closed,
    Degraded,
    Open,
    HalfOpen,
}

/// Why a transition fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionCause {
    /// `failure_threshold` consecutive generator panics/collapses. With
    /// taint tracking on, `origin` names the op that first produced the
    /// non-finite value behind the most recent failure in the streak.
    GeneratorFailures { origin: Option<&'static str> },
    /// `degraded_threshold` consecutive predictor-path failures.
    DegradedFailures,
    /// A full-path probe (from Degraded or HalfOpen) failed.
    ProbeFailed,
    /// `probe_after_sheds` submissions were shed while Open.
    ShedBudget,
    /// A full-path probe succeeded.
    ProbeRecovered,
}

/// One recorded transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerEvent {
    pub from: BreakerState,
    pub to: BreakerState,
    pub cause: TransitionCause,
}

/// What a worker should do with its next batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPlan {
    /// Full DAR path. `probe: true` means this batch is the breaker's
    /// recovery attempt (capped to one request) and its outcome decides a
    /// transition.
    Full { probe: bool },
    /// Predictor-only path.
    PredictorOnly,
    /// Don't compute — shed whatever is queued.
    Shed,
}

/// The state machine. Callers hold it behind a mutex; methods are cheap.
#[derive(Debug)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    state: BreakerState,
    /// Consecutive full-path failures while Closed.
    failures: usize,
    /// Consecutive predictor failures while Degraded.
    degraded_failures: usize,
    /// Successful degraded responses since entering Degraded.
    degraded_served: usize,
    /// Sheds since entering Open.
    sheds: usize,
    /// Taint origin of the most recent full-path failure (if reported).
    last_origin: Option<&'static str>,
    events: Vec<BreakerEvent>,
}

impl CircuitBreaker {
    pub fn new(policy: BreakerPolicy) -> Self {
        CircuitBreaker {
            policy,
            state: BreakerState::Closed,
            failures: 0,
            degraded_failures: 0,
            degraded_served: 0,
            sheds: 0,
            last_origin: None,
            events: Vec::new(),
        }
    }

    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Transition log since construction.
    pub fn events(&self) -> &[BreakerEvent] {
        &self.events
    }

    fn transition(&mut self, to: BreakerState, cause: TransitionCause) {
        self.events.push(BreakerEvent {
            from: self.state,
            to,
            cause,
        });
        dar_obs::event(dar_obs::ObsEvent::BreakerTransition {
            from: format!("{:?}", self.state),
            to: format!("{to:?}"),
            cause: format!("{cause:?}"),
        });
        dar_obs::inc("serve.breaker_transitions");
        self.state = to;
        self.failures = 0;
        self.degraded_failures = 0;
        self.degraded_served = 0;
        self.sheds = 0;
    }

    /// Decide the path for the next batch.
    pub fn plan_batch(&self) -> BatchPlan {
        match self.state {
            BreakerState::Closed => BatchPlan::Full { probe: false },
            BreakerState::Degraded => {
                if self.degraded_served >= self.policy.probe_after_degraded {
                    BatchPlan::Full { probe: true }
                } else {
                    BatchPlan::PredictorOnly
                }
            }
            BreakerState::Open => BatchPlan::Shed,
            BreakerState::HalfOpen => BatchPlan::Full { probe: true },
        }
    }

    /// Whether submissions should be rejected outright (Open only —
    /// HalfOpen admits so the probe has something to run on).
    pub fn shedding(&self) -> bool {
        self.state == BreakerState::Open
    }

    /// A full-path batch succeeded. Probes close the breaker; ordinary
    /// successes just clear the failure streak.
    pub fn on_full_success(&mut self, probe: bool) {
        match self.state {
            BreakerState::Closed => {
                self.failures = 0;
                self.last_origin = None;
            }
            BreakerState::Degraded | BreakerState::HalfOpen if probe => {
                self.transition(BreakerState::Closed, TransitionCause::ProbeRecovered);
            }
            _ => {}
        }
    }

    /// A full-path batch failed: worker panic or rationale collapse.
    pub fn on_full_failure(&mut self, probe: bool) {
        self.on_full_failure_with(probe, None);
    }

    /// [`on_full_failure`](Self::on_full_failure) carrying a taint origin:
    /// the op name the numeric taint layer attributed the failure to, if
    /// the worker had one. The Closed → Degraded transition records the
    /// most recent origin of its failure streak.
    pub fn on_full_failure_with(&mut self, probe: bool, origin: Option<&'static str>) {
        if origin.is_some() {
            self.last_origin = origin;
        }
        match self.state {
            BreakerState::Closed => {
                self.failures += 1;
                if self.failures >= self.policy.failure_threshold {
                    let origin = self.last_origin.take();
                    self.transition(
                        BreakerState::Degraded,
                        TransitionCause::GeneratorFailures { origin },
                    );
                }
            }
            BreakerState::HalfOpen => {
                self.transition(BreakerState::Open, TransitionCause::ProbeFailed);
            }
            BreakerState::Degraded if probe => {
                // Failed recovery probe: stay Degraded, restart the
                // served counter so the next probe is earned again.
                self.degraded_served = 0;
            }
            _ => {}
        }
    }

    /// A predictor-only batch succeeded.
    pub fn on_degraded_success(&mut self) {
        if self.state == BreakerState::Degraded {
            self.degraded_failures = 0;
            self.degraded_served += 1;
        }
    }

    /// A predictor-only batch failed (panic, or the model has no
    /// full-text path at all).
    pub fn on_degraded_failure(&mut self) {
        if self.state == BreakerState::Degraded {
            self.degraded_failures += 1;
            if self.degraded_failures >= self.policy.degraded_threshold {
                self.transition(BreakerState::Open, TransitionCause::DegradedFailures);
            }
        }
    }

    /// A submission was shed while Open. Enough sheds earn a HalfOpen
    /// probe slot.
    pub fn on_shed(&mut self) {
        if self.state == BreakerState::Open {
            self.sheds += 1;
            if self.sheds >= self.policy.probe_after_sheds {
                self.transition(BreakerState::HalfOpen, TransitionCause::ShedBudget);
            }
        }
    }

    /// Batch-size cap for the current state (probes run one at a time).
    pub fn batch_cap(&self, configured: usize) -> usize {
        match self.plan_batch() {
            BatchPlan::Full { probe: true } => 1,
            _ => configured,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight() -> BreakerPolicy {
        BreakerPolicy {
            failure_threshold: 2,
            degraded_threshold: 2,
            probe_after_degraded: 3,
            probe_after_sheds: 2,
            collapse: GuardPolicy::default(),
        }
    }

    #[test]
    fn walks_the_whole_ladder() {
        let mut b = CircuitBreaker::new(tight());
        assert_eq!(b.plan_batch(), BatchPlan::Full { probe: false });

        // Closed → Degraded after two generator failures.
        b.on_full_failure(false);
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_full_failure(false);
        assert_eq!(b.state(), BreakerState::Degraded);
        assert_eq!(b.plan_batch(), BatchPlan::PredictorOnly);

        // Degraded → Open after two predictor failures.
        b.on_degraded_failure();
        b.on_degraded_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.shedding());

        // Open → HalfOpen after the shed budget.
        b.on_shed();
        b.on_shed();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.plan_batch(), BatchPlan::Full { probe: true });
        assert_eq!(b.batch_cap(64), 1);

        // HalfOpen probe success → Closed.
        b.on_full_success(true);
        assert_eq!(b.state(), BreakerState::Closed);

        let causes: Vec<_> = b.events().iter().map(|e| e.cause).collect();
        assert_eq!(
            causes,
            vec![
                TransitionCause::GeneratorFailures { origin: None },
                TransitionCause::DegradedFailures,
                TransitionCause::ShedBudget,
                TransitionCause::ProbeRecovered,
            ]
        );
    }

    #[test]
    fn generator_failure_transition_names_the_taint_origin() {
        let mut b = CircuitBreaker::new(tight());
        b.on_full_failure_with(false, Some("div"));
        b.on_full_failure_with(false, None); // panic with no taint report
        assert_eq!(b.state(), BreakerState::Degraded);
        assert_eq!(
            b.events()[0].cause,
            TransitionCause::GeneratorFailures {
                origin: Some("div")
            }
        );
        // A later clean streak must not resurrect the stale origin.
        b.on_full_success(true);
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_full_failure(false);
        b.on_full_failure(false);
        assert_eq!(
            b.events().last().unwrap().cause,
            TransitionCause::GeneratorFailures { origin: None }
        );
    }

    #[test]
    fn failed_halfopen_probe_reopens() {
        let mut b = CircuitBreaker::new(tight());
        b.on_full_failure(false);
        b.on_full_failure(false);
        b.on_degraded_failure();
        b.on_degraded_failure();
        b.on_shed();
        b.on_shed();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_full_failure(true);
        assert_eq!(b.state(), BreakerState::Open);
        // The shed counter restarted: another budget earns another probe.
        b.on_shed();
        b.on_shed();
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn degraded_earns_and_spends_recovery_probes() {
        let mut b = CircuitBreaker::new(tight());
        b.on_full_failure(false);
        b.on_full_failure(false);
        assert_eq!(b.state(), BreakerState::Degraded);

        // Not yet earned a probe.
        for _ in 0..3 {
            assert_eq!(b.plan_batch(), BatchPlan::PredictorOnly);
            b.on_degraded_success();
        }
        assert_eq!(b.plan_batch(), BatchPlan::Full { probe: true });

        // A failed probe restarts the earning period, still Degraded.
        b.on_full_failure(true);
        assert_eq!(b.state(), BreakerState::Degraded);
        assert_eq!(b.plan_batch(), BatchPlan::PredictorOnly);

        // Earn again, succeed → Closed.
        for _ in 0..3 {
            b.on_degraded_success();
        }
        b.on_full_success(true);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn closed_success_clears_failure_streak() {
        let mut b = CircuitBreaker::new(tight());
        b.on_full_failure(false);
        b.on_full_success(false);
        b.on_full_failure(false);
        assert_eq!(b.state(), BreakerState::Closed, "streak was not reset");
        assert!(b.events().is_empty());
    }
}
