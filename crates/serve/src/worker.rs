//! Replica workers: one thread per replica slot that claims micro-batches
//! from the dispatch core, runs them through the breaker's current mode
//! on the thread's own model copy, and resolves every request it gets
//! back.
//!
//! A full-path batch runs the model's served answer
//! ([`RationaleModel::answer`]): the rationale masks and the logits the
//! label comes from. `infer` adds the full-text alignment probe, which
//! only eval reads, so a server never runs it; every answer still equals
//! a solo `infer`'s, because `infer` is that same answer plus the probe.
//!
//! `Tensor` is `Rc`-based and deliberately not `Send`, so each worker
//! builds its own model from the [`ModelFactory`] and keeps it aligned
//! with the published weight generation by re-applying weights between
//! batches — never inside one, which is the no-torn-read guarantee.
//!
//! A worker never owns a request. Its batch stays parked in its in-flight
//! slot while inference runs, and [`Core::complete`] hands it back only
//! while the worker's generation still owns the slot: a worker the
//! watchdog quarantined mid-batch gets nothing back and exits, so late
//! outputs are discarded instead of answered twice.
//!
//! [`Core::complete`]: crate::dispatch::Core::complete

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dar_core::models::RationaleModel;
use dar_data::{Batch, Review};
use dar_obs::ObsEvent;
use dar_tensor::no_grad;

use crate::breaker::{BatchPlan, CircuitBreaker};
use crate::canary::{Arm, ArmStats};
use crate::dispatch::Claim;
use crate::request::{Count, ServeError, ServeOutput, Verdict};
use crate::server::{ModelFactory, Shared};

/// How long an idle replica sleeps before looking for work to steal
/// again, unless a submit wakes it first.
const IDLE_POLL: Duration = Duration::from_millis(20);

/// Sends the worker's slot index and generation to the supervisor if the
/// thread dies unwinding — the only signal a hard death leaves behind.
/// The generation lets the supervisor ignore the eventual death of an
/// already-quarantined zombie (its slot has a new worker by then).
struct DeathNotice {
    slot: usize,
    gen: u64,
    tx: mpsc::Sender<(usize, u64)>,
}

impl Drop for DeathNotice {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.tx.send((self.slot, self.gen));
        }
    }
}

/// Static span names so per-replica timings stay `&'static str` (the
/// obs registry interns nothing).
const REPLICA_SPANS: [&str; 8] = [
    "serve_replica/0",
    "serve_replica/1",
    "serve_replica/2",
    "serve_replica/3",
    "serve_replica/4",
    "serve_replica/5",
    "serve_replica/6",
    "serve_replica/7",
];

fn replica_span(slot: usize) -> &'static str {
    REPLICA_SPANS.get(slot).unwrap_or(&"serve_replica/overflow")
}

/// Authorize a fresh generation for `slot` and start its worker thread
/// (at server start and at every respawn).
pub(crate) fn start(
    shared: &Arc<Shared>,
    factory: &ModelFactory,
    slot: usize,
    death_tx: &mpsc::Sender<(usize, u64)>,
) -> JoinHandle<()> {
    let gen = shared.core().respawn(slot);
    let (shared, factory, tx) = (Arc::clone(shared), Arc::clone(factory), death_tx.clone());
    std::thread::Builder::new()
        .name(format!("dar-serve-worker-{slot}"))
        .spawn(move || worker_loop(&shared, &factory, DeathNotice { slot, gen, tx }))
        .expect("spawning dar-serve worker")
}

fn worker_loop(shared: &Shared, factory: &ModelFactory, death: DeathNotice) {
    let (slot, gen) = (death.slot, death.gen);
    let health = &shared.ledger.replicas[slot];
    let mut model: Box<dyn RationaleModel> = factory();
    let mut version = 0u64;

    loop {
        let max_batch = shared.cfg.max_batch;
        let cap = shared.breaker.lock().unwrap().batch_cap(max_batch);
        let mut core = shared.core();
        let (claim, expired) = core.claim(slot, gen, cap, Instant::now());
        let batch = match claim {
            Claim::Batch(batch) => batch,
            Claim::Stop => {
                // Shutdown, or this worker was quarantined away. Pass a
                // wakeup on in case it reached this zombie instead of the
                // slot's live worker.
                shared.wake[slot].notify_one();
                drop(core);
                shared.ledger.fail_all(expired);
                return;
            }
            Claim::Idle if !expired.is_empty() => {
                drop(core);
                shared.ledger.fail_all(expired);
                continue;
            }
            Claim::Idle => {
                let _ = shared.wake[slot].wait_timeout(core, IDLE_POLL);
                continue;
            }
        };
        drop(core);
        shared.ledger.fail_all(expired);
        // Heartbeat: claim boundary.
        health.beat();
        let n = batch.reviews.len() as u64;
        if let Some(victim) = batch.stolen_from {
            shared.ledger.count(Count::Steals, 1);
            shared.ledger.count(Count::StolenRequests, n);
            health.steals.fetch_add(1, Ordering::Relaxed);
            health.stolen_requests.fetch_add(n, Ordering::Relaxed);
            dar_obs::event(ObsEvent::ReplicaSteal {
                thief: slot as u64,
                victim: victim as u64,
                n,
            });
        }
        // The plan is read *after* claiming: the claim may have waited
        // through a breaker transition, and requests must be served by
        // the mode in force now. (The cap above may be stale in the same
        // way; a probe batch larger than 1 is acceptable, a stale path
        // decision is not.)
        let plan = shared.breaker.lock().unwrap().plan_batch();

        if matches!(plan, BatchPlan::Shed) {
            // The breaker opened while these were queued.
            let mut b = shared.breaker.lock().unwrap();
            (0..n).for_each(|_| b.on_shed());
            drop(b);
            let Some(owned) = shared.core().complete(slot, gen) else {
                return;
            };
            shared
                .ledger
                .fail_all(owned.into_iter().map(|p| (p, ServeError::Shed)));
            continue;
        }

        // Per-replica span around the whole batch (timing section only —
        // never part of the byte-compared deterministic section).
        let _rspan = dar_obs::span(replica_span(slot));
        // The queue wait spans two threads (submit → claim), so it is
        // recorded as an external duration rather than a scoped span.
        for waited in &batch.waited {
            dar_obs::record_micros("serve/queue_wait", waited.as_micros() as u64);
        }

        let assembled = {
            let _span = dar_obs::span("serve_assemble");
            let refs: Vec<&Review> = batch.reviews.iter().map(|r| &**r).collect();
            Batch::from_reviews_bounded(&refs, shared.cfg.vocab_size, shared.cfg.max_len)
        };
        let inputs = match assembled {
            Ok(inputs) => inputs,
            Err(e) => {
                // Unreachable after admission; belt and braces.
                let Some(owned) = shared.core().complete(slot, gen) else {
                    return;
                };
                let msg = e.to_string();
                shared
                    .ledger
                    .fail_all(owned.into_iter().map(|p| (p, rejected(&msg))));
                continue;
            }
        };

        // Between-batch weight sync: the only place a swap is observed.
        // The steady state is a single lock-free version-hint check
        // (`refresh`). A candidate-arm batch targets its canary's slot
        // (falling back to the incumbent if the slot was settled after
        // the claim — the request still resolves, just on the
        // incumbent). An apply failure leaves the replica on its old
        // weights; the store never publishes a shape-mismatched set for
        // a healthy factory.
        let weights = &shared.weights;
        let sync = match batch.arm {
            Some(arm) if arm.candidate => Some(
                weights
                    .canary()
                    .filter(|w| w.version == arm.version)
                    .unwrap_or_else(|| weights.current()),
            ),
            _ => weights.refresh(version),
        };
        if let Some(w) = sync {
            if w.version != version && w.apply(&model.params()).is_ok() {
                version = w.version;
            }
        }

        let born = Instant::now();
        // Heartbeat: inference boundary.
        health.beat();
        // Per-batch taint latch: anything recorded during this inference
        // was produced by this batch's ops (tensors are built on this
        // thread, so the thread-local latch sees every node).
        if dar_tensor::taint_enabled() {
            dar_tensor::clear_taint();
        }
        let outcome = {
            let _span = dar_obs::span("serve_infer");
            catch_unwind(AssertUnwindSafe(|| match plan {
                BatchPlan::Full { .. } => run_full(shared, model.as_ref(), &inputs, version),
                BatchPlan::PredictorOnly => {
                    run_predictor(model.as_ref(), &inputs, version).map(|outs| (outs, true))
                }
                BatchPlan::Shed => unreachable!("shed handled before assembly"),
            }))
        };

        // Whatever the outcome, the latch now names the op that first went
        // non-finite during this batch (None if nothing did).
        let origin = dar_tensor::first_taint().map(|t| t.op);
        let succeeded = match &outcome {
            Ok(Ok((_, degraded))) => !degraded || matches!(plan, BatchPlan::PredictorOnly),
            _ => false,
        };
        let lethal = match &outcome {
            Err(payload) => {
                shared.ledger.count(Count::Panics, 1);
                is_lethal(shared, payload.as_ref())
            }
            Ok(_) => false,
        };
        let _respond_span = matches!(outcome, Ok(Ok(_))).then(|| dar_obs::span("serve_respond"));
        // A lethal panic dies for real below, leaving its batch parked for
        // the supervisor's panic drain. Otherwise take the batch back; a
        // worker quarantined mid-inference gets nothing — the watchdog
        // already answered its victims — and exits, its breaker opinion
        // discarded with its outputs.
        let owned = if lethal {
            Vec::new()
        } else {
            match shared.core().complete(slot, gen) {
                Some(owned) => owned,
                None => return,
            }
        };
        breaker_feedback(&mut shared.breaker.lock().unwrap(), plan, succeeded, origin);
        let tainted = origin.is_some();
        match outcome {
            Ok(Ok((outs, _))) => {
                with_canary_arm(shared, batch.arm, |arm| {
                    for (p, out) in owned.iter().zip(&outs) {
                        arm.record_output(&p.review, out, tainted);
                    }
                });
                for (p, out) in owned.into_iter().zip(outs) {
                    shared.ledger.resolve(p, Verdict::Served(out, slot, born));
                }
                // A fully answered batch is also a probation probe.
                health.ok_batches.fetch_add(1, Ordering::Relaxed);
            }
            Ok(Err(err)) => {
                // Typed failure (no full-text path): the whole batch gets
                // the same verdict, and a candidate that only ever fails
                // still fills its canary window.
                with_canary_arm(shared, batch.arm, |arm| arm.record_error(n, tainted));
                let msg = err.to_string();
                shared
                    .ledger
                    .fail_all(owned.into_iter().map(|p| (p, rejected(&msg))));
            }
            Err(payload) if lethal => resume_unwind(payload),
            Err(_) => {
                // Soft recovery: answer the victims and rebuild the
                // replica in place (the model may be mid-panic
                // inconsistent).
                with_canary_arm(shared, batch.arm, |arm| arm.record_error(n, tainted));
                let panicked = owned.into_iter().map(|p| (p, ServeError::WorkerPanicked));
                shared.ledger.fail_all(panicked);
                model = factory();
                version = 0; // force a weight re-sync next batch
            }
        }
        // Heartbeat: respond boundary — answered, failed typed, or
        // rebuilding, the worker is making progress.
        health.beat();
    }
}

/// The verdict for a request whose batch failed typed (`msg` says why).
fn rejected(msg: &str) -> ServeError {
    ServeError::Rejected(dar_tensor::DarError::InvalidData(msg.to_owned()))
}

/// Tell the breaker how a batch run under `plan` went.
fn breaker_feedback(
    b: &mut CircuitBreaker,
    plan: BatchPlan,
    succeeded: bool,
    origin: Option<&'static str>,
) {
    match (plan, succeeded) {
        (BatchPlan::Full { probe }, true) => b.on_full_success(probe),
        (BatchPlan::Full { probe }, false) => b.on_full_failure_with(probe, origin),
        (BatchPlan::PredictorOnly, true) => b.on_degraded_success(),
        (BatchPlan::PredictorOnly, false) => b.on_degraded_failure(),
        (BatchPlan::Shed, _) => unreachable!("shed batches never run"),
    }
}

/// Outputs for a full-path batch: per-row label + rationale. Falls back
/// to the predictor path row-set-wide if the selector collapsed.
fn run_full(
    shared: &Shared,
    model: &dyn RationaleModel,
    batch: &Batch,
    version: u64,
) -> Result<(Vec<ServeOutput>, bool), ServeError> {
    let inf = no_grad(|| model.answer(batch));
    // Selected fraction over real tokens — the breaker's collapse signal.
    let mut selected = 0usize;
    let mut total = 0usize;
    for (i, &len) in batch.lengths.iter().enumerate() {
        selected += inf.masks[i][..len].iter().filter(|&&v| v > 0.5).count();
        total += len;
    }
    let frac = selected as f32 / total.max(1) as f32;
    if shared.cfg.breaker.collapse.is_collapsed(frac) {
        // The selector degenerated: answer this batch from the full-text
        // path rather than shipping an empty/total "rationale".
        let outs = run_predictor(model, batch, version)?;
        return Ok((outs, true));
    }
    let logits = inf
        .logits
        .or(inf.full_logits)
        .ok_or(ServeError::DegradedUnavailable)?;
    if logits.to_vec().iter().any(|v| !v.is_finite()) {
        // Numerically poisoned scores: answer from the predictor path and
        // let the caller report a generator failure (with taint origin).
        let outs = run_predictor(model, batch, version)?;
        return Ok((outs, true));
    }
    let labels = logits.argmax_rows();
    let outs = batch
        .lengths
        .iter()
        .enumerate()
        .map(|(i, &len)| ServeOutput {
            label: labels[i],
            rationale: inf.masks[i][..len].iter().map(|&v| v > 0.5).collect(),
            degraded: false,
            weights_version: version,
        })
        .collect();
    Ok((outs, false))
}

/// Outputs for a predictor-only batch: label from the full-text path, no
/// rationale.
fn run_predictor(
    model: &dyn RationaleModel,
    batch: &Batch,
    version: u64,
) -> Result<Vec<ServeOutput>, ServeError> {
    let logits =
        no_grad(|| model.predict_full_text(batch)).ok_or(ServeError::DegradedUnavailable)?;
    let answer = |label| ServeOutput {
        label,
        rationale: Vec::new(),
        degraded: true,
        weights_version: version,
    };
    Ok(logits.argmax_rows().into_iter().map(answer).collect())
}

/// Record into the arm a batch was claimed for — only while that
/// canary's run is still active. A batch claimed with no canary routing
/// never touches the canary lock.
fn with_canary_arm(shared: &Shared, arm: Option<Arm>, record: impl FnOnce(&mut ArmStats)) {
    let Some(arm) = arm else { return };
    if let Some(stats) = shared
        .canary
        .lock()
        .unwrap()
        .as_mut()
        .and_then(|run| run.arm(arm))
    {
        record(stats);
    }
}

/// Whether a caught panic carries the configured lethal marker.
fn is_lethal(shared: &Shared, payload: &(dyn std::any::Any + Send)) -> bool {
    let msg = match (
        payload.downcast_ref::<&str>(),
        payload.downcast_ref::<String>(),
    ) {
        (Some(s), _) => s,
        (_, Some(s)) => s.as_str(),
        _ => "",
    };
    let marker = shared.cfg.lethal_panic_marker.as_deref();
    marker.is_some_and(|m| msg.contains(m))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_spans_are_static_and_bounded() {
        assert_eq!(replica_span(0), "serve_replica/0");
        assert_eq!(replica_span(7), "serve_replica/7");
        assert_eq!(replica_span(64), "serve_replica/overflow");
    }
}
