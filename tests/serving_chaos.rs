//! Seeded chaos harness for the serving runtime (DESIGN.md §10).
//!
//! Faults are injected through [`ChaosModel`] trigger tokens and through
//! corrupted checkpoint files offered mid-swap. The token faults (panics,
//! rationale collapse, slow inference) fire in `RationaleModel::answer`,
//! the served path, so the predictor-only degraded path stays clean; only
//! the full-panic token reaches `predict_full_text` too, to drive the
//! breaker into a full shed. The invariants under test:
//!
//! * **Exactly one outcome** — every submitted request resolves to one
//!   terminal verdict; `ServeError::Lost` is never observed.
//! * **Scripted breaker ladder** — Closed → Degraded → Open → HalfOpen →
//!   Closed, with the exact transition causes recorded.
//! * **Hot swap safety** — a corrupted or shape-mismatched checkpoint is
//!   rejected while serving continues on the old weights.
//! * **Batching invariance** — a review's label and rationale do not
//!   depend on which micro-batch it landed in.
//! * **Supervisor respawn** — a worker thread dying for real is replaced
//!   and service continues.
//!
//! Replica-invariant scenarios run both single-replica and at 4 replicas
//! (sharded queues + work stealing in play); the scripted breaker walks
//! stay at 1 replica, where the fault schedule is exact.
//! `tests/scale_out.rs` holds the scale-out layer to its own invariants.

mod common;

use std::time::Duration;

use common::ServeFixture;
use dar::data::Review;
use dar::prelude::*;
use dar::serve::{BreakerPolicy, BreakerState, ServeConfig, ServeError, Server, TransitionCause};
use dar::tensor::serial::{self, Checkpoint};
use dar::Tensor;

/// Every request gets exactly one terminal outcome — under worker
/// panics, malformed inputs, oversized inputs, and tight deadlines, with
/// multiple replicas racing.
fn exactly_one_outcome_at(replicas: usize) {
    let fx = ServeFixture::new(500);
    let panic_tok = fx.trigger(0);
    let factory = fx.factory(ChaosPlan {
        panic_token: Some(panic_tok),
        ..Default::default()
    });
    let cfg = ServeConfig {
        max_batch: 4,
        ..fx.serve_cfg(replicas)
    };
    let server = Server::start(cfg, factory);

    let mut tickets = Vec::new();
    for i in 0..48 {
        let review = match i % 6 {
            // Worker-killing request.
            5 => fx.triggered(i, panic_tok),
            // Out-of-vocabulary ids → rejected at admission.
            4 => dar::core::fault::malformed_review(fx.vocab_rows, 500 + i as u64),
            // Empty input → rejected at admission.
            3 => Review {
                ids: Vec::new(),
                label: 0,
                rationale: Vec::new(),
                first_sentence_end: 0,
            },
            // Over-length input → rejected at admission.
            2 => Review {
                ids: vec![1; fx.ml + 7],
                label: 0,
                rationale: vec![false; fx.ml + 7],
                first_sentence_end: 1,
            },
            // Ordinary traffic.
            _ => fx.clean(i),
        };
        tickets.push(server.submit(review));
    }

    let (mut ok, mut rejected, mut panicked, mut other) = (0, 0, 0, 0);
    for t in tickets {
        match t.wait() {
            Ok(out) => {
                assert!(out.label < 2);
                ok += 1;
            }
            Err(ServeError::Lost) => panic!("a response was lost"),
            Err(ServeError::Rejected(_)) => rejected += 1,
            Err(ServeError::WorkerPanicked) => panicked += 1,
            Err(_) => other += 1,
        }
    }
    assert_eq!(ok + rejected + panicked + other, 48);
    assert_eq!(rejected, 24, "8 malformed + 8 empty + 8 over-length");
    // The rest resolve as served or as typed worker-panic verdicts —
    // which is which depends on micro-batch composition and on whether
    // the breaker degraded (the predictor path ignores the panic token),
    // but nothing may land anywhere else, and nothing may be Lost.
    assert_eq!(other, 0, "only Ok/Rejected/WorkerPanicked are reachable");
    assert_eq!(ok + panicked, 24);
    assert!(panicked >= 1, "at least the first panic batch fails typed");
    let stats = server.shutdown();
    assert!(stats.panics >= 1);
    common::assert_ledger_balances(&stats);
}

#[test]
fn every_request_gets_exactly_one_outcome() {
    exactly_one_outcome_at(2);
}

/// The same chaos mix with 4 replica shards: the burst all routes to
/// tenant 0's home shard and idle siblings steal it down, so outcomes
/// flow through the steal path too.
#[test]
fn every_request_gets_exactly_one_outcome_scaled_out() {
    exactly_one_outcome_at(4);
}

/// The breaker walks the scripted ladder with the exact transition
/// causes, and outputs reflect the mode that produced them.
#[test]
fn breaker_walks_closed_degraded_open_halfopen_closed() {
    let fx = ServeFixture::new(510);
    let panic_tok = fx.trigger(0);
    let full_panic_tok = fx.trigger(1);
    let factory = fx.factory(ChaosPlan {
        panic_token: Some(panic_tok),
        full_panic_token: Some(full_panic_tok),
        ..Default::default()
    });
    let cfg = ServeConfig {
        max_batch: 1,
        breaker: BreakerPolicy {
            failure_threshold: 2,
            degraded_threshold: 2,
            probe_after_degraded: 100, // keep Degraded stable in step (c)
            probe_after_sheds: 3,
            ..BreakerPolicy::default()
        },
        ..fx.serve_cfg(1)
    };
    let server = Server::start(cfg, factory);

    // (a) Closed: full service with a rationale.
    let out = server.submit(fx.clean(0)).wait().expect("closed serves");
    assert!(!out.degraded);
    assert!(!out.rationale.is_empty());

    // (b) Two generator panics → Degraded.
    for i in 0..2 {
        let err = server
            .submit(fx.triggered(i, panic_tok))
            .wait()
            .expect_err("panic batch fails");
        assert!(matches!(err, ServeError::WorkerPanicked));
    }
    assert_eq!(server.breaker_state(), BreakerState::Degraded);

    // (c) Degraded still answers — predictor-only, no rationale.
    let out = server.submit(fx.clean(1)).wait().expect("degraded serves");
    assert!(out.degraded);
    assert!(out.rationale.is_empty());

    // (d) Two predictor-path panics → Open.
    for i in 0..2 {
        let err = server
            .submit(fx.triggered(i, full_panic_tok))
            .wait()
            .expect_err("full-panic batch fails");
        assert!(matches!(err, ServeError::WorkerPanicked));
    }
    assert_eq!(server.breaker_state(), BreakerState::Open);

    // (e) Open sheds at the door; the shed budget earns a probe slot.
    for _ in 0..3 {
        let err = server.submit(fx.clean(2)).wait().expect_err("open sheds");
        assert!(matches!(err, ServeError::Shed));
    }
    assert_eq!(server.breaker_state(), BreakerState::HalfOpen);

    // (f) The HalfOpen probe succeeds → Closed, full service again.
    let out = server.submit(fx.clean(3)).wait().expect("probe serves");
    assert!(!out.degraded);
    assert_eq!(server.breaker_state(), BreakerState::Closed);

    let causes: Vec<TransitionCause> = server.breaker_events().iter().map(|e| e.cause).collect();
    assert_eq!(
        causes,
        vec![
            TransitionCause::GeneratorFailures { origin: None },
            TransitionCause::DegradedFailures,
            TransitionCause::ShedBudget,
            TransitionCause::ProbeRecovered,
        ]
    );
    server.shutdown();
}

/// Rationale collapse — the guard.rs signal, not a panic — trips the
/// breaker too, and the collapsed batch is answered from the full-text
/// path instead of shipping an empty rationale.
#[test]
fn rationale_collapse_degrades_with_predictor_fallback() {
    let fx = ServeFixture::new(520);
    let collapse_tok = fx.trigger(2);
    let factory = fx.factory(ChaosPlan {
        collapse_token: Some(collapse_tok),
        ..Default::default()
    });
    let cfg = ServeConfig {
        max_batch: 1,
        breaker: BreakerPolicy {
            failure_threshold: 1,
            ..BreakerPolicy::default()
        },
        ..fx.serve_cfg(1)
    };
    let server = Server::start(cfg, factory);

    // The collapsed batch still gets an answer — degraded, no rationale.
    let out = server
        .submit(fx.triggered(0, collapse_tok))
        .wait()
        .expect("collapse falls back, not fails");
    assert!(out.degraded);
    assert!(out.rationale.is_empty());
    assert_eq!(server.breaker_state(), BreakerState::Degraded);
    let events = server.breaker_events();
    assert!(matches!(
        events[0].cause,
        TransitionCause::GeneratorFailures { .. }
    ));
    server.shutdown();
}

/// Hot swap: a validated checkpoint flips the served generation between
/// batches; corrupted and shape-mismatched offers are rejected while
/// serving continues on the old weights.
#[test]
fn hot_swap_is_atomic_and_rejects_corruption() {
    let fx = ServeFixture::new(530);
    let factory = fx.factory(ChaosPlan::default());
    let cfg = ServeConfig {
        max_batch: 2,
        ..fx.serve_cfg(1)
    };
    let server = Server::start(cfg, factory.clone());
    assert_eq!(server.weights_version(), 1);

    let out = server.submit(fx.clean(0)).wait().expect("v1 serves");
    assert_eq!(out.weights_version, 1);

    // Build a same-shaped checkpoint with visibly different weights.
    let tmp = std::env::temp_dir().join(format!("dar_chaos_swap_{}", std::process::id()));
    {
        let model = factory();
        for p in model.params() {
            let n = p.len();
            p.set_values(vec![0.05; n]);
        }
        serial::save_checkpoint_path(&tmp, &Checkpoint::new(model.params(), Vec::new())).unwrap();
    }
    assert_eq!(server.offer_checkpoint(&tmp).unwrap(), 2);
    let out = server.submit(fx.clean(1)).wait().expect("v2 serves");
    assert_eq!(out.weights_version, 2, "swap picked up between batches");

    // A bit-flipped file fails CRC validation and changes nothing.
    dar::core::fault::corrupt_bitflip(&tmp, 9).unwrap();
    assert!(server.offer_checkpoint(&tmp).is_err());
    assert_eq!(server.weights_version(), 2);

    // A shape-mismatched (but well-formed) file is rejected too.
    serial::save_checkpoint_path(
        &tmp,
        &Checkpoint::new(vec![Tensor::param(vec![1.0; 4], &[4])], Vec::new()),
    )
    .unwrap();
    assert!(server.offer_checkpoint(&tmp).is_err());
    assert_eq!(server.weights_version(), 2);

    // Serving never blinked.
    let out = server.submit(fx.clean(2)).wait().expect("still serving");
    assert_eq!(out.weights_version, 2);
    std::fs::remove_file(&tmp).ok();
    server.shutdown();
}

/// A review's verdict must not depend on micro-batch composition: a
/// one-request-per-batch server and a batching multi-replica server give
/// identical labels and rationales for identical inputs. The batched
/// server's compared reviews queue behind a lead request that holds its
/// replica, and its counters show that mixed batches formed.
fn batching_invariance_at(replicas: usize) {
    let fx = ServeFixture::new(540);
    let reviews: Vec<Review> = (0..10).map(|i| fx.clean(i)).collect();

    let solo = Server::start(
        ServeConfig {
            max_batch: 1,
            ..fx.serve_cfg(1)
        },
        fx.factory(ChaosPlan::default()),
    );
    let solo_outs: Vec<_> = reviews
        .iter()
        .map(|r| solo.submit(r.clone()).wait().expect("solo serves"))
        .collect();
    solo.shutdown();

    let batched = Server::start(
        ServeConfig {
            max_batch: 8,
            ..fx.serve_cfg(replicas)
        },
        fx.factory(fx.hold_plan()),
    );
    let lead = batched.submit(fx.lead());
    let tickets: Vec<_> = reviews.iter().map(|r| batched.submit(r.clone())).collect();
    let batched_outs: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("batched serves"))
        .collect();
    lead.wait().expect("the lead request serves");
    common::assert_mixed_batches(&batched.shutdown());

    for (i, (a, b)) in solo_outs.iter().zip(&batched_outs).enumerate() {
        assert_eq!(a.label, b.label, "label of review {i} depends on batching");
        assert_eq!(
            a.rationale, b.rationale,
            "rationale of review {i} depends on batching"
        );
    }
}

#[test]
fn outputs_are_invariant_to_batching() {
    batching_invariance_at(2);
}

/// Batching invariance must survive stealing too: whichever replica ends
/// up running a stolen batch, the verdicts are the solo verdicts.
#[test]
fn outputs_are_invariant_to_batching_scaled_out() {
    batching_invariance_at(4);
}

/// A worker thread dying for real (panic re-raised past the recovery
/// layer) is respawned by the supervisor; its in-flight requests get
/// typed errors and service continues.
fn supervisor_respawn_at(replicas: usize) {
    let fx = ServeFixture::new(550);
    let panic_tok = fx.trigger(3);
    let factory = fx.factory(ChaosPlan {
        panic_token: Some(panic_tok),
        ..Default::default()
    });
    let cfg = ServeConfig {
        max_batch: 1,
        lethal_panic_marker: Some("chaos: panic token".to_owned()),
        ..fx.serve_cfg(replicas)
    };
    let server = Server::start(cfg, factory);

    // Kill the lethal requests' home replica, twice — each death must be
    // survivable (and with siblings present, must not take them along).
    for i in 0..2 {
        let err = server
            .submit(fx.triggered(i, panic_tok))
            .wait()
            .expect_err("lethal batch fails");
        assert!(matches!(err, ServeError::WorkerPanicked));
        let out = server
            .submit(fx.clean(i))
            .wait()
            .expect("respawned worker serves");
        // Interleaved successes keep the failure streak below the default
        // threshold, so service stays full-path throughout.
        assert!(!out.degraded);
    }
    let stats = server.shutdown();
    assert_eq!(stats.panics, 2);
    assert!(stats.served_full + stats.served_degraded >= 2);
}

#[test]
fn supervisor_respawns_dead_workers() {
    supervisor_respawn_at(1);
}

#[test]
fn supervisor_respawns_dead_workers_scaled_out() {
    supervisor_respawn_at(4);
}

/// A weight swap racing breaker recovery: the checkpoint lands while the
/// breaker is Open (worker idle), so the HalfOpen probe batch is the
/// first to run on the new generation. The probe must both recover the
/// breaker *and* pick up the swapped weights — neither state machine may
/// clobber the other.
#[test]
fn half_open_probe_recovers_across_a_concurrent_swap() {
    let fx = ServeFixture::new(570);
    let panic_tok = fx.trigger(0);
    let full_panic_tok = fx.trigger(1);
    let factory = fx.factory(ChaosPlan {
        panic_token: Some(panic_tok),
        full_panic_token: Some(full_panic_tok),
        ..Default::default()
    });
    let cfg = ServeConfig {
        max_batch: 1,
        breaker: BreakerPolicy {
            failure_threshold: 2,
            degraded_threshold: 2,
            probe_after_degraded: 100,
            probe_after_sheds: 3,
            ..BreakerPolicy::default()
        },
        ..fx.serve_cfg(1)
    };
    let server = Server::start(cfg, factory.clone());
    assert_eq!(server.weights_version(), 1);

    // Walk the breaker down: Closed → Degraded → Open.
    for i in 0..2 {
        let err = server
            .submit(fx.triggered(i, panic_tok))
            .wait()
            .expect_err("panic batch fails");
        assert!(matches!(err, ServeError::WorkerPanicked));
    }
    for i in 0..2 {
        let err = server
            .submit(fx.triggered(i, full_panic_tok))
            .wait()
            .expect_err("full-panic batch fails");
        assert!(matches!(err, ServeError::WorkerPanicked));
    }
    assert_eq!(server.breaker_state(), BreakerState::Open);

    // Swap while Open: same weights as the factory replica (identical
    // behavior, new generation), accepted with the worker idle.
    let tmp = std::env::temp_dir().join(format!("dar_chaos_probe_swap_{}", std::process::id()));
    serial::save_checkpoint_path(&tmp, &Checkpoint::new(factory().params(), Vec::new())).unwrap();
    assert_eq!(server.offer_checkpoint(&tmp).unwrap(), 2);

    // Spend the shed budget to earn the probe slot…
    for _ in 0..3 {
        let err = server.submit(fx.clean(0)).wait().expect_err("open sheds");
        assert!(matches!(err, ServeError::Shed));
    }
    assert_eq!(server.breaker_state(), BreakerState::HalfOpen);

    // …and the probe serves full-path on the *new* generation.
    let out = server.submit(fx.clean(1)).wait().expect("probe serves");
    assert!(!out.degraded);
    assert_eq!(out.weights_version, 2, "probe ran on the swapped weights");
    assert_eq!(server.breaker_state(), BreakerState::Closed);

    let causes: Vec<TransitionCause> = server.breaker_events().iter().map(|e| e.cause).collect();
    assert_eq!(
        causes,
        vec![
            TransitionCause::GeneratorFailures { origin: None },
            TransitionCause::DegradedFailures,
            TransitionCause::ShedBudget,
            TransitionCause::ProbeRecovered,
        ]
    );
    std::fs::remove_file(&tmp).ok();
    server.shutdown();
}

/// Deadlines and the bounded queue produce typed verdicts, not hangs:
/// a slow worker lets queued requests expire, and submissions beyond the
/// queue cap bounce immediately.
#[test]
fn deadlines_and_backpressure_resolve_typed() {
    let fx = ServeFixture::new(560);
    let slow_tok = fx.trigger(4);
    let factory = fx.factory(ChaosPlan {
        slow_token: Some((slow_tok, 400)),
        ..Default::default()
    });
    let cfg = ServeConfig {
        max_batch: 1,
        queue_cap: 2,
        ..fx.serve_cfg(1)
    };
    let server = Server::start(cfg, factory);

    // Occupy the worker with a slow request…
    let slow = server.submit_with_deadline(fx.triggered(0, slow_tok), Duration::from_secs(5));
    std::thread::sleep(Duration::from_millis(100)); // let it get claimed

    // …then a request that will expire while the worker sleeps…
    let doomed = server.submit_with_deadline(fx.clean(0), Duration::from_millis(50));
    // …fill the queue…
    let queued = server.submit(fx.clean(1));
    // …and overflow it.
    let bounced = server.submit(fx.clean(2));
    assert!(matches!(bounced.wait(), Err(ServeError::QueueFull)));

    assert!(matches!(doomed.wait(), Err(ServeError::DeadlineExceeded)));
    assert!(slow.wait().is_ok(), "slow but within deadline");
    assert!(
        queued.wait().is_ok(),
        "queued request served after the slow one"
    );

    let stats = server.shutdown();
    assert_eq!(stats.queue_full, 1);
    assert_eq!(stats.deadline_exceeded, 1);
    common::assert_ledger_balances(&stats);
}

/// Shutdown answers everything still queued, and the ledger counts it:
/// with one slow request in flight and six queued behind it, `shutdown()`
/// resolves the six as `Shutdown`, the slow one finishes, and
/// `submitted` equals the sum of the outcome counters.
#[test]
fn shutdown_answers_queued_requests_and_balances_the_ledger() {
    let fx = ServeFixture::new(580);
    let slow_tok = fx.trigger(4);
    let server = Server::start(
        ServeConfig {
            max_batch: 1,
            ..fx.serve_cfg(1)
        },
        fx.factory(ChaosPlan {
            slow_token: Some((slow_tok, 300)),
            ..Default::default()
        }),
    );
    let slow = server.submit(fx.triggered(0, slow_tok));
    // The replica's first heartbeat is its claim of the slow request:
    // from then on it is busy for 300ms, and everything else queues.
    while server.stats().replicas[0].heartbeats == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let queued: Vec<_> = (0..6).map(|i| server.submit(fx.clean(i))).collect();

    let stats = server.shutdown();
    assert!(slow.wait().is_ok(), "the in-flight request finishes");
    for (i, t) in queued.into_iter().enumerate() {
        assert!(
            matches!(t.wait(), Err(ServeError::Shutdown)),
            "queued request {i} must resolve Shutdown"
        );
    }
    assert_eq!(stats.submitted, 7);
    assert_eq!(stats.shutdown, 6, "six Shutdown outcomes");
    assert_eq!(stats.served_full + stats.served_degraded, 1);
    common::assert_ledger_balances(&stats);
}
