//! The closed-loop controller: wire a background trainer's candidate
//! stream into canary evaluation.
//!
//! [`run_online_loop`] is the single-threaded controller the `dar-loop`
//! binary and the chaos suite share. It drains
//! [`CandidateMsg`](dar_core::stream::CandidateMsg)s from the trainer,
//! begins a canary for each candidate checkpoint, drives traffic until
//! the verdict is due, and records the outcome. Because one thread
//! submits all traffic and emits all promotion events, the promotion
//! event sequence in the deterministic obs section is a pure function of
//! the inputs — byte-identical across thread budgets.
//!
//! Given a [`DurableState`], the same loop is crash-safe (DESIGN.md
//! §15): every verdict is journaled by the server's pre-commit hook
//! before it takes effect, rounds with a durable verdict are skipped,
//! and the feed cursor advances once a round is settled.
//!
//! Trainer failures are *messages*, not faults: a `Skipped` round or a
//! `TrainerDied` leaves serving untouched (the loop still drives a wave
//! of traffic to prove liveness).

use std::path::Path;
use std::sync::mpsc::Receiver;

use dar_core::stream::CandidateMsg;
use dar_data::Review;
use dar_store::DurableState;
use dar_tensor::DarResult;

use crate::canary::{CanaryDecision, CanaryOutcome, CanaryPolicy, PromotionPhase};
use crate::server::Server;

/// Knobs for [`run_online_loop`].
#[derive(Debug, Clone)]
pub struct OnlineLoopConfig {
    /// Verdict thresholds for every canary this loop runs.
    pub policy: CanaryPolicy,
    /// Requests submitted (sequentially) between verdict checks.
    pub wave: usize,
    /// Safety cap: waves per canary before a forced abort — guards
    /// against a window that cannot fill (e.g. all workers gone).
    pub max_waves: usize,
}

impl Default for OnlineLoopConfig {
    fn default() -> Self {
        OnlineLoopConfig {
            policy: CanaryPolicy::default(),
            wave: 16,
            max_waves: 256,
        }
    }
}

/// What happened to one trainer round.
#[derive(Debug, Default)]
pub struct RoundReport {
    pub round: usize,
    /// The canary verdict, if a candidate reached evaluation.
    pub outcome: Option<CanaryOutcome>,
    /// Offer/trainer-side failure text (rejected checkpoint, skipped
    /// round, trainer death), if any.
    pub note: Option<String>,
    /// Requests answered / failed while this round was evaluated.
    pub served_ok: u64,
    pub failed: u64,
}

/// Aggregate of one [`run_online_loop`] call.
#[derive(Debug, Default)]
pub struct LoopReport {
    pub rounds: Vec<RoundReport>,
    pub promoted: u64,
    pub rolled_back: u64,
    pub offers_rejected: u64,
    pub trainer_died: bool,
    pub final_version: u64,
}

/// Submit one wave of reviews from `traffic` (cycling, strictly
/// sequentially — submit, wait, next), so batch composition and canary
/// routing are reproducible, counting the outcomes into `rr`.
fn drive(
    server: &Server,
    traffic: &[Review],
    cursor: &mut usize,
    wave: usize,
    rr: &mut RoundReport,
) {
    for _ in 0..wave.max(1) {
        let review = traffic[*cursor % traffic.len()].clone();
        *cursor += 1;
        match server.submit(review).wait() {
            Ok(_) => rr.served_ok += 1,
            Err(_) => rr.failed += 1,
        }
    }
}

/// Journal a settled canary decision into the durable state, if there is
/// one: a promotion lands the incumbent copy + WAL record + manifest swap
/// (the WAL append is the commit point — see `dar_store`); a rollback
/// appends its terminal record. Called from the server's pre-commit
/// hook, *before* the decision takes effect in memory.
fn journal_decision(
    state: Option<&mut DurableState>,
    round: usize,
    candidate: &Path,
    decision: &CanaryDecision,
) -> DarResult<()> {
    let Some(state) = state else { return Ok(()) };
    match decision.verdict {
        Ok(()) => state.log_promoted(round, candidate).map(|_| ()),
        Err(cause) => state.log_rolled_back(round, cause.as_str()),
    }
}

/// Run the promotion side of the closed loop until the trainer's channel
/// closes (or sends `Finished`). See the module docs.
///
/// With `state`, the loop is journaled: every promotion/rollback verdict
/// is committed to the write-ahead journal *before* it takes effect (a
/// promotion whose record cannot commit is vetoed into a
/// `durability_failed` rollback), rounds that already have a durable
/// terminal verdict are skipped, and the feed cursor record advances
/// only once a round is settled — together, exactly-once promotion
/// across crash/restart (DESIGN.md §15).
pub fn run_online_loop(
    server: &Server,
    candidates: &Receiver<CandidateMsg>,
    traffic: &[Review],
    cfg: &OnlineLoopConfig,
    mut state: Option<&mut DurableState>,
) -> LoopReport {
    assert!(!traffic.is_empty(), "online loop needs traffic to canary");
    let mut report = LoopReport::default();
    let mut cursor = 0usize;

    for msg in candidates.iter() {
        match msg {
            CandidateMsg::Candidate { round, path, .. } => {
                let mut rr = RoundReport {
                    round,
                    ..RoundReport::default()
                };
                if let Some(st) = state.as_deref_mut() {
                    if st.is_terminal(round) {
                        // This round already has a durable verdict (we
                        // are replaying after a crash): never re-canary.
                        rr.note = Some("already settled in the durable journal".into());
                        report.rounds.push(rr);
                        continue;
                    }
                    // Best-effort intent record; the terminal record is
                    // the one that must commit.
                    st.log_canary_started(round).ok();
                }
                match server.begin_canary(&path, cfg.policy.clone()) {
                    Ok(_) => {
                        let mut waves = 0usize;
                        // Set by the hook, which runs once per settled
                        // round: the verdict's record committed.
                        let mut journaled = false;
                        let mut hook = |d: &CanaryDecision| {
                            let r = journal_decision(state.as_deref_mut(), round, &path, d);
                            journaled = r.is_ok();
                            r
                        };
                        let outcome = loop {
                            drive(server, traffic, &mut cursor, cfg.wave, &mut rr);
                            if let Some(outcome) = server.try_conclude_canary_with(&mut hook) {
                                break Some(outcome);
                            }
                            waves += 1;
                            if waves >= cfg.max_waves {
                                break server.abort_canary_with(&mut hook);
                            }
                        };
                        match &outcome {
                            Some(o) if o.phase == PromotionPhase::Promoted => report.promoted += 1,
                            Some(_) => report.rolled_back += 1,
                            None => {}
                        }
                        if journaled {
                            if let Some(st) = state.as_deref_mut() {
                                st.log_feed_cursor(round + 1).ok();
                            }
                        }
                        rr.outcome = outcome;
                    }
                    Err(e) => {
                        // Rejected offer (journaled as `offer_rejected`):
                        // the incumbent serves on; prove it with a wave.
                        report.offers_rejected += 1;
                        rr.note = Some(format!("offer rejected: {e}"));
                        if let Some(st) = state.as_deref_mut() {
                            if st.log_round_skipped(round, "offer_rejected").is_ok() {
                                st.log_feed_cursor(round + 1).ok();
                            }
                        }
                        drive(server, traffic, &mut cursor, cfg.wave, &mut rr);
                    }
                }
                report.rounds.push(rr);
            }
            CandidateMsg::Skipped { round, cause } => {
                if let Some(st) = state.as_deref_mut() {
                    if !st.is_terminal(round) && st.log_round_skipped(round, &cause).is_ok() {
                        st.log_feed_cursor(round + 1).ok();
                    }
                }
                let mut rr = RoundReport {
                    round,
                    note: Some(format!("skipped: {cause}")),
                    ..RoundReport::default()
                };
                drive(server, traffic, &mut cursor, cfg.wave, &mut rr);
                report.rounds.push(rr);
            }
            CandidateMsg::TrainerDied { msg } => {
                report.trainer_died = true;
                let mut rr = RoundReport {
                    round: usize::MAX,
                    note: Some(format!("trainer died: {msg}")),
                    ..RoundReport::default()
                };
                drive(server, traffic, &mut cursor, cfg.wave, &mut rr);
                report.rounds.push(rr);
            }
            CandidateMsg::Finished => break,
        }
    }
    report.final_version = server.weights_version();
    report
}
