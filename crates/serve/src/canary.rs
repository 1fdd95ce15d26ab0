//! Canary evaluation (DESIGN.md §13): the comparison contract and the
//! one in-progress run.
//!
//! A candidate generation serves a deterministic slice of traffic
//! ([`routes_to_canary`], routed by the dispatch core) while the
//! incumbent serves the rest. Both arms accumulate *commutative* counts
//! — correct labels, rationale confusion cells, degraded/fault/error
//! tallies — against the planted ground truth each [`Review`] carries,
//! so the verdict is independent of worker interleaving, thread budget
//! and wall clock. The thread-free `CanaryRun` says when the verdict is
//! due and what it is, and [`CanaryDecision::settled`] applies the
//! durability veto; the server only carries the decision out.

use dar_data::Review;

use crate::request::ServeOutput;

/// SplitMix64 — the deterministic hash behind canary routing and the
/// supervisor's respawn jitter.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic canary routing: request `seq` goes to the candidate iff
/// `splitmix64(seq) % slice_modulus == 0`. Hashing the sequence number
/// (instead of using it raw) decorrelates the slice from any periodicity
/// in the traffic — the synthetic datasets alternate labels for exact
/// balance, and a raw `seq % 2` would hand each arm a disjoint label
/// population.
pub fn routes_to_canary(seq: u64, slice_modulus: u64) -> bool {
    slice_modulus >= 2 && splitmix64(seq).is_multiple_of(slice_modulus)
}

/// How a canary ended (journaled via `ObsEvent`s `candidate_promoted`
/// and `candidate_rolled_back`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromotionPhase {
    /// The candidate won and is now the incumbent.
    Promoted,
    /// The candidate lost; the incumbent was never displaced.
    RolledBack,
}

/// Why a candidate was rolled back. `as_str` values are stable — they
/// appear in the byte-compared deterministic journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RollbackCause {
    /// Candidate accuracy fell more than `max_acc_drop` below incumbent.
    AccuracyRegressed,
    /// Candidate rationale-F1 fell more than `max_f1_drop` below incumbent.
    RationaleRegressed,
    /// Candidate produced more degraded / non-finite / errored answers
    /// than the fault budget allows.
    CandidateFaults,
    /// The canary was aborted before a verdict (operator or safety cap).
    Aborted,
    /// The verdict said promote, but the durable journal could not
    /// commit the promotion record — without a durable record the
    /// promotion must not take effect (DESIGN.md §15).
    DurabilityFailed,
    /// A replica was quarantined while the canary window was open
    /// (DESIGN.md §16). Arm stats collected across a quarantine mix
    /// healthy and wedged traffic, so the round is voided rather than
    /// judged on corrupted numbers.
    ReplicaQuarantined,
}

impl RollbackCause {
    pub fn as_str(&self) -> &'static str {
        match self {
            RollbackCause::AccuracyRegressed => "accuracy_regressed",
            RollbackCause::RationaleRegressed => "rationale_regressed",
            RollbackCause::CandidateFaults => "candidate_faults",
            RollbackCause::Aborted => "aborted",
            RollbackCause::DurabilityFailed => "durability_failed",
            RollbackCause::ReplicaQuarantined => "replica_quarantined",
        }
    }
}

/// The settled outcome of one canary, handed to the durability
/// pre-commit hook *before* it takes effect in memory: the hook gets to
/// journal the decision (or veto a promotion by failing).
#[derive(Debug, Clone)]
pub struct CanaryDecision {
    /// WeightStore version of the candidate under evaluation.
    pub candidate_version: u64,
    /// `Ok` to promote, or the rollback cause.
    pub verdict: Result<(), RollbackCause>,
}

impl CanaryDecision {
    /// What takes effect once the durability hook has run: a promotion
    /// whose record did not commit becomes a `DurabilityFailed` rollback
    /// (a crash would forget it); a rollback keeps its own cause.
    pub fn settled(&self, journaled: bool) -> Result<(), RollbackCause> {
        match self.verdict {
            Ok(()) if !journaled => Err(RollbackCause::DurabilityFailed),
            verdict => verdict,
        }
    }
}

impl std::fmt::Display for RollbackCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Verdict thresholds for one canary evaluation.
#[derive(Debug, Clone)]
pub struct CanaryPolicy {
    /// One request in `slice_modulus` goes to the candidate (see
    /// [`routes_to_canary`]); clamped to ≥ 2 so the incumbent always
    /// keeps traffic.
    pub slice_modulus: u64,
    /// Minimum outcomes (answers + errors) *per arm* before a verdict.
    pub window: u64,
    /// Tolerated accuracy drop, candidate vs incumbent.
    pub max_acc_drop: f32,
    /// Tolerated rationale-F1 drop, candidate vs incumbent.
    pub max_f1_drop: f32,
    /// Degraded + non-finite + errored answers the candidate arm may
    /// produce before it is rolled back outright.
    pub max_candidate_faults: u64,
}

impl Default for CanaryPolicy {
    fn default() -> Self {
        CanaryPolicy {
            slice_modulus: 2,
            window: 48,
            max_acc_drop: 0.02,
            max_f1_drop: 0.05,
            max_candidate_faults: 0,
        }
    }
}

/// Commutative per-arm counters: insensitive to response ordering.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArmStats {
    /// Answered requests (full or degraded).
    pub served: u64,
    /// Answers whose label matched the review's planted label.
    pub correct: u64,
    /// Degraded answers (collapse fallback or non-finite logits).
    pub degraded: u64,
    /// Answers produced while the numeric taint latch held an origin.
    pub faults: u64,
    /// Requests that resolved to a typed failure instead of an answer.
    pub errors: u64,
    /// Rationale confusion cells vs the planted token-level rationale.
    pub tp: u64,
    pub fp: u64,
    pub fneg: u64,
}

impl ArmStats {
    /// Total verdicts this arm has produced — what the window counts.
    pub fn outcomes(&self) -> u64 {
        self.served + self.errors
    }

    pub fn accuracy(&self) -> f32 {
        if self.served == 0 {
            0.0
        } else {
            self.correct as f32 / self.served as f32
        }
    }

    pub fn rationale_f1(&self) -> f32 {
        let denom = 2 * self.tp + self.fp + self.fneg;
        if denom == 0 {
            0.0
        } else {
            2.0 * self.tp as f32 / denom as f32
        }
    }

    pub(crate) fn record_output(&mut self, review: &Review, out: &ServeOutput, tainted: bool) {
        self.served += 1;
        if out.label == review.label {
            self.correct += 1;
        }
        if out.degraded {
            self.degraded += 1;
        } else {
            for (&gold, &got) in review.rationale.iter().zip(&out.rationale) {
                match (gold, got) {
                    (true, true) => self.tp += 1,
                    (false, true) => self.fp += 1,
                    (true, false) => self.fneg += 1,
                    (false, false) => {}
                }
            }
        }
        if tainted {
            self.faults += 1;
        }
    }

    pub(crate) fn record_error(&mut self, n: u64, tainted: bool) {
        self.errors += n;
        if tainted {
            self.faults += n;
        }
    }
}

/// Both arms at one instant, plus the versions they identify.
#[derive(Debug, Clone)]
pub struct CanarySnapshot {
    pub candidate_version: u64,
    pub incumbent_version: u64,
    pub candidate: ArmStats,
    pub incumbent: ArmStats,
}

/// Terminal record of one canary evaluation.
#[derive(Debug, Clone)]
pub struct CanaryOutcome {
    /// The candidate's version.
    pub version: u64,
    /// `Promoted` or `RolledBack`.
    pub phase: PromotionPhase,
    /// Set iff `phase == RolledBack`.
    pub cause: Option<RollbackCause>,
    /// The arm stats the verdict was computed from.
    pub snapshot: CanarySnapshot,
}

/// The pure comparison contract: gates are checked in severity order
/// (faults, accuracy, then rationale-F1), so the journaled cause is
/// deterministic when several would fire.
pub fn decide(policy: &CanaryPolicy, snap: &CanarySnapshot) -> Result<(), RollbackCause> {
    let c = &snap.candidate;
    let i = &snap.incumbent;
    if c.degraded + c.faults + c.errors > policy.max_candidate_faults {
        return Err(RollbackCause::CandidateFaults);
    }
    if c.accuracy() + policy.max_acc_drop < i.accuracy() {
        return Err(RollbackCause::AccuracyRegressed);
    }
    if c.rationale_f1() + policy.max_f1_drop < i.rationale_f1() {
        return Err(RollbackCause::RationaleRegressed);
    }
    Ok(())
}

/// The arm a claimed batch belongs to, stamped by the dispatch core at
/// claim time: the candidate slice (or the incumbent's rest) of the
/// canary with candidate version `version`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Arm {
    pub version: u64,
    pub candidate: bool,
}

/// One in-progress canary evaluation. Pure: the server keeps it behind
/// its canary lock and acts on what it says.
pub(crate) struct CanaryRun {
    policy: CanaryPolicy,
    /// Both arms' stats so far.
    pub stats: CanarySnapshot,
    /// A replica was quarantined inside the window (DESIGN.md §16).
    interrupted: bool,
}

impl CanaryRun {
    /// Candidate `candidate_version` against `incumbent_version`, the
    /// slice modulus clamped to ≥ 2.
    pub fn new(policy: CanaryPolicy, candidate_version: u64, incumbent_version: u64) -> Self {
        CanaryRun {
            policy: CanaryPolicy {
                slice_modulus: policy.slice_modulus.max(2),
                ..policy
            },
            stats: CanarySnapshot {
                candidate_version,
                incumbent_version,
                candidate: ArmStats::default(),
                incumbent: ArmStats::default(),
            },
            interrupted: false,
        }
    }

    /// The slice modulus the dispatch core routes by.
    pub fn slice_modulus(&self) -> u64 {
        self.policy.slice_modulus
    }

    /// The stats a batch claimed for `arm` records into — `None` when
    /// another canary routed it.
    pub fn arm(&mut self, arm: Arm) -> Option<&mut ArmStats> {
        if arm.version != self.stats.candidate_version {
            return None;
        }
        Some(if arm.candidate {
            &mut self.stats.candidate
        } else {
            &mut self.stats.incumbent
        })
    }

    /// A quarantine landed inside the window: the arm stats mix healthy
    /// and wedged traffic, so no verdict may be computed from them.
    pub fn interrupt(&mut self) {
        self.interrupted = true;
    }

    /// The verdict once it is due: `ReplicaQuarantined` as soon as the
    /// run was interrupted (window filled or not), else `None` until
    /// both arms fill the window, then [`decide`].
    pub fn verdict(&self) -> Option<Result<(), RollbackCause>> {
        if self.interrupted {
            return Some(Err(RollbackCause::ReplicaQuarantined));
        }
        let window = self.policy.window;
        if self.stats.candidate.outcomes() < window || self.stats.incumbent.outcomes() < window {
            return None;
        }
        Some(decide(&self.policy, &self.stats))
    }

    /// The decision to settle on: a `forced` cause (an abort) wins over
    /// everything, else the verdict once it is due.
    pub fn decision(&self, forced: Option<RollbackCause>) -> Option<CanaryDecision> {
        let verdict = match forced {
            Some(cause) => Err(cause),
            None => self.verdict()?,
        };
        Some(CanaryDecision {
            candidate_version: self.stats.candidate_version,
            verdict,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arm(served: u64, correct: u64, tp: u64, fp: u64, fneg: u64) -> ArmStats {
        ArmStats {
            served,
            correct,
            tp,
            fp,
            fneg,
            ..ArmStats::default()
        }
    }

    fn snap(candidate: ArmStats, incumbent: ArmStats) -> CanarySnapshot {
        CanarySnapshot {
            candidate_version: 2,
            incumbent_version: 1,
            candidate,
            incumbent,
        }
    }

    #[test]
    fn equal_arms_promote() {
        let s = snap(arm(50, 40, 10, 2, 3), arm(50, 40, 10, 2, 3));
        assert_eq!(decide(&CanaryPolicy::default(), &s), Ok(()));
    }

    #[test]
    fn gates_fire_in_severity_order() {
        let pol = CanaryPolicy::default();

        // A single degraded answer outweighs a better accuracy.
        let mut c = arm(50, 50, 10, 0, 0);
        c.degraded = 1;
        let s = snap(c, arm(50, 30, 10, 2, 3));
        assert_eq!(decide(&pol, &s), Err(RollbackCause::CandidateFaults));

        // Accuracy before rationale-F1.
        let s = snap(arm(50, 30, 0, 50, 50), arm(50, 45, 10, 0, 0));
        assert_eq!(decide(&pol, &s), Err(RollbackCause::AccuracyRegressed));

        // Rationale-F1 alone.
        let s = snap(arm(50, 45, 0, 50, 50), arm(50, 45, 10, 0, 0));
        assert_eq!(decide(&pol, &s), Err(RollbackCause::RationaleRegressed));
    }

    #[test]
    fn accuracy_tolerance_is_respected() {
        let pol = CanaryPolicy::default(); // max_acc_drop 0.02
        let s = snap(arm(100, 79, 10, 1, 1), arm(100, 80, 10, 1, 1));
        assert_eq!(decide(&pol, &s), Ok(()), "1% drop is inside tolerance");
        let s = snap(arm(100, 70, 10, 1, 1), arm(100, 80, 10, 1, 1));
        assert_eq!(decide(&pol, &s), Err(RollbackCause::AccuracyRegressed));
    }

    /// A run whose window is `window` outcomes per arm.
    fn run(window: u64) -> CanaryRun {
        let policy = CanaryPolicy {
            window,
            ..CanaryPolicy::default()
        };
        CanaryRun::new(policy, 2, 1)
    }

    const CANDIDATE: Arm = Arm {
        version: 2,
        candidate: true,
    };
    const INCUMBENT: Arm = Arm {
        version: 2,
        candidate: false,
    };

    #[test]
    fn verdict_waits_for_both_windows_then_decides() {
        let mut r = run(2);
        assert_eq!(r.verdict(), None, "nothing recorded yet");
        r.arm(CANDIDATE).unwrap().record_error(2, false);
        assert_eq!(r.verdict(), None, "the incumbent's window is still open");
        r.arm(INCUMBENT).unwrap().served = 2;
        assert_eq!(
            r.verdict(),
            Some(Err(RollbackCause::CandidateFaults)),
            "both windows full: decide's verdict"
        );
        assert_eq!(r.stats.candidate.errors, 2);
    }

    #[test]
    fn interrupt_voids_the_run_with_or_without_a_full_window() {
        let mut r = run(10_000);
        r.interrupt();
        assert_eq!(r.verdict(), Some(Err(RollbackCause::ReplicaQuarantined)));

        // Even a window that would promote is voided.
        let mut r = run(1);
        r.arm(CANDIDATE).unwrap().served = 1;
        r.arm(INCUMBENT).unwrap().served = 1;
        assert_eq!(r.verdict(), Some(Ok(())));
        r.interrupt();
        assert_eq!(r.verdict(), Some(Err(RollbackCause::ReplicaQuarantined)));
    }

    #[test]
    fn a_batch_counts_only_toward_the_canary_that_routed_it() {
        let mut r = run(1);
        let stale = Arm {
            version: 7,
            candidate: true,
        };
        assert!(r.arm(stale).is_none());
        r.arm(CANDIDATE).unwrap().served += 1;
        assert_eq!(r.stats.candidate.served, 1);
        assert_eq!(r.stats.incumbent.served, 0);
    }

    #[test]
    fn slice_modulus_is_clamped_so_the_incumbent_keeps_traffic() {
        let policy = CanaryPolicy {
            slice_modulus: 0,
            ..CanaryPolicy::default()
        };
        assert_eq!(CanaryRun::new(policy, 2, 1).slice_modulus(), 2);
        assert_eq!(run(1).slice_modulus(), 2);
    }

    #[test]
    fn a_forced_cause_wins_over_the_verdict() {
        let mut r = run(1);
        assert!(r.decision(None).is_none(), "not due yet");
        let d = r.decision(Some(RollbackCause::Aborted)).unwrap();
        assert_eq!(d.verdict, Err(RollbackCause::Aborted));
        assert_eq!(d.candidate_version, 2);

        r.arm(CANDIDATE).unwrap().served = 1;
        r.arm(INCUMBENT).unwrap().served = 1;
        assert_eq!(r.decision(None).unwrap().verdict, Ok(()));
        r.interrupt();
        let d = r.decision(Some(RollbackCause::Aborted)).unwrap();
        assert_eq!(d.verdict, Err(RollbackCause::Aborted));
    }

    #[test]
    fn a_failed_durable_record_vetoes_a_promotion_only() {
        let decision = |verdict| CanaryDecision {
            candidate_version: 2,
            verdict,
        };
        let promote = decision(Ok(()));
        assert_eq!(promote.settled(true), Ok(()));
        assert_eq!(promote.settled(false), Err(RollbackCause::DurabilityFailed));
        let rollback = decision(Err(RollbackCause::AccuracyRegressed));
        assert_eq!(
            rollback.settled(true),
            Err(RollbackCause::AccuracyRegressed)
        );
        assert_eq!(
            rollback.settled(false),
            Err(RollbackCause::AccuracyRegressed),
            "a rollback keeps its own cause"
        );
    }

    #[test]
    fn f1_counts_match_the_usual_definition() {
        let a = arm(1, 1, 6, 2, 2);
        assert!((a.rationale_f1() - 0.75).abs() < 1e-6);
        assert_eq!(ArmStats::default().rationale_f1(), 0.0);
        assert_eq!(ArmStats::default().accuracy(), 0.0);
    }
}
