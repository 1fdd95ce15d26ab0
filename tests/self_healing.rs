//! Self-healing chaos suite (DESIGN.md §16): heartbeat watchdog,
//! stuck-replica quarantine, and hedged re-dispatch, exercised with
//! stall faults the panic-based supervision layer cannot see.
//!
//! The invariants under test:
//!
//! * **Every stranded request resolves typed** — when a replica wedges
//!   (sticky livelock), the watchdog quarantines it within the heartbeat
//!   budget and every request on its shard gets exactly one typed
//!   outcome: hedged to a healthy sibling when deadline budget remains,
//!   `DeadlineExceeded`/`Abandoned` otherwise. Never `Lost`, at any
//!   replica count.
//! * **Quarantine is not exile** — after a one-shot stall the respawned
//!   replica passes probation probes and rejoins, and routing for its
//!   tenants returns to the home shard.
//! * **A canary window spanning a quarantine is void** — the round
//!   rolls back with the typed cause `replica_quarantined`; arm stats
//!   that mixed healthy and wedged traffic never produce a verdict.
//! * **Expired requests never wait for a wedged owner** — the
//!   supervisor's deadline sweep answers them even when the backlog sits
//!   below the steal threshold and the watchdog's stall budget is far
//!   out of reach.
//! * **The watchdog is silent on healthy traffic** — with supervision
//!   enabled, a clean run produces the exact golden deterministic obs
//!   bytes of the pre-watchdog runtime.
//!
//! Every test takes one global lock: the obs registry is process-global,
//! and serializing the suites keeps stall timings honest.

mod common;

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use common::ServeFixture;
use dar::core::guard::GuardPolicy;
use dar::prelude::*;
use dar::serve::{
    route_tenant, route_tenant_healthy, BreakerPolicy, CanaryPolicy, HealthPolicy, HealthState,
    PromotionPhase, RollbackCause, ServeConfig, ServeError, Server,
};
use dar::tensor::serial::{self, Checkpoint};

static SUITE_LOCK: Mutex<()> = Mutex::new(());

fn suite_lock() -> MutexGuard<'static, ()> {
    SUITE_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Guards wide open so clean traffic never degrades.
fn open_policy() -> GuardPolicy {
    GuardPolicy {
        spike_sigmas: f32::INFINITY,
        collapse_low: -1.0,
        collapse_high: 2.0,
        ..GuardPolicy::default()
    }
}

/// Test-speed watchdog: tight budgets so detection lands in hundreds of
/// milliseconds, still wide enough that a healthy batch on a loaded CI
/// box never trips it.
fn fast_health() -> HealthPolicy {
    HealthPolicy {
        stall_budget: Duration::from_millis(120),
        deadline_grace: Duration::from_millis(80),
        probation_probes: 1,
        hedge_min_budget: Duration::from_millis(1),
    }
}

/// Poll until `pred` holds, failing the test after `timeout`.
fn wait_until(timeout: Duration, what: &str, mut pred: impl FnMut() -> bool) -> Duration {
    let start = Instant::now();
    while !pred() {
        assert!(
            start.elapsed() < timeout,
            "timed out after {timeout:?} waiting for: {what}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    start.elapsed()
}

/// A sticky livelock wedges one replica; the watchdog walks it
/// Healthy→Suspect→Quarantined within the heartbeat budget, and every
/// request on the wedged shard resolves to exactly one typed outcome:
/// the wedged request itself to `DeadlineExceeded`, the queued victims
/// hedged to a healthy sibling (2+ replicas) or `Abandoned` (1 replica).
#[test]
fn sticky_stall_quarantines_and_resolves_every_request_typed() {
    let _g = suite_lock();
    let fx = ServeFixture::new(810);
    let spin_tok = fx.trigger(1);
    for width in [1usize, 2, 4] {
        let server = Server::start(
            ServeConfig {
                max_batch: 4,
                steal: false,
                health: fast_health(),
                ..fx.serve_cfg(width)
            },
            fx.factory(ChaosPlan {
                stall: StallPlan {
                    spin_token: Some((spin_tok, 1500)),
                    sticky: true,
                    ..Default::default()
                },
                ..Default::default()
            }),
        );
        let tenant = 1u64;
        let home = route_tenant(tenant, width);

        let submitted = Instant::now();
        let wedge = server.submit_for_tenant(
            fx.triggered(0, spin_tok),
            tenant,
            Duration::from_millis(250),
        );
        std::thread::sleep(Duration::from_millis(60)); // let the batch get claimed
        let victims: Vec<_> = (0..6)
            .map(|i| server.submit_for_tenant(fx.clean(i), tenant, Duration::from_secs(5)))
            .collect();

        // Detection: budget (120ms) + wedge deadline (250ms) + grace
        // (80ms) + watchdog tick — well under a second even loaded.
        wait_until(Duration::from_secs(3), "quarantine detection", || {
            server.stats().quarantines >= 1
        });
        let detection = submitted.elapsed();
        assert!(
            detection < Duration::from_millis(1500),
            "width {width}: detection took {detection:?}, over the heartbeat budget"
        );

        // The wedged request's deadline (250ms) is necessarily behind
        // the quarantine instant (deadline + grace), so its verdict is
        // the deadline, not abandonment.
        assert!(
            matches!(wedge.wait(), Err(ServeError::DeadlineExceeded)),
            "width {width}: the wedged request resolves to its deadline"
        );
        for (i, t) in victims.into_iter().enumerate() {
            match t.wait() {
                Ok(out) if width >= 2 => assert!(out.label < 2),
                Err(ServeError::Abandoned) if width == 1 => {}
                other => panic!(
                    "width {width}: victim {i} got {:?}, want {} (never Lost)",
                    other.map(|o| o.label),
                    if width >= 2 {
                        "Ok (hedged)"
                    } else {
                        "Abandoned"
                    }
                ),
            }
        }

        let stats = server.shutdown();
        assert!(stats.stalls >= 1, "width {width}: a stall episode opened");
        assert_eq!(stats.quarantines, 1, "width {width}: one quarantine");
        assert!(
            stats.deadline_exceeded >= 1,
            "width {width}: the wedge expired"
        );
        if width >= 2 {
            assert_eq!(stats.hedged, 6, "width {width}: all victims hedged");
            assert_eq!(stats.abandoned, 0, "width {width}: nobody abandoned");
            assert_eq!(
                stats.replicas[home].hedged_away, 6,
                "width {width}: hedges attributed to the wedged replica"
            );
        } else {
            assert_eq!(stats.hedged, 0, "width 1: nowhere to hedge");
            assert_eq!(stats.abandoned, 6, "width 1: victims abandoned, typed");
        }
        common::assert_ledger_balances(&stats);
    }
}

/// After a one-shot stall the quarantined replica respawns, answers its
/// probation probes, and rejoins: state returns to Healthy, the routing
/// mask clears, and the stalled tenant's traffic lands back on its home
/// shard.
#[test]
fn one_shot_stall_rejoins_after_probation_and_restores_routing() {
    let _g = suite_lock();
    let fx = ServeFixture::new(820);
    let spin_tok = fx.trigger(2);
    let width = 2usize;
    let server = Server::start(
        ServeConfig {
            max_batch: 4,
            steal: false,
            health: fast_health(),
            ..fx.serve_cfg(width)
        },
        fx.factory(ChaosPlan {
            stall: StallPlan {
                spin_token: Some((spin_tok, 800)),
                sticky: false, // one-shot: the respawned replica is clean
                ..Default::default()
            },
            ..Default::default()
        }),
    );
    let tenant = 1u64;
    let home = route_tenant(tenant, width);

    let wedge = server.submit_for_tenant(
        fx.triggered(0, spin_tok),
        tenant,
        Duration::from_millis(250),
    );
    wait_until(Duration::from_secs(3), "quarantine detection", || {
        server.stats().quarantines >= 1
    });
    assert!(wedge.wait().is_err(), "the wedged request fails typed");

    // Feed the tenant until the replacement clears probation. Every
    // submission must serve: detoured while masked, home afterwards.
    let mut i = 0usize;
    wait_until(Duration::from_secs(5), "probation rejoin", || {
        let t = server.submit_for_tenant(fx.clean(i), tenant, Duration::from_secs(5));
        i += 1;
        t.wait().expect("traffic serves across the rejoin");
        server.health_states()[home] == HealthState::Healthy
    });

    assert_eq!(server.quarantined_mask(), 0, "the routing mask cleared");
    assert_eq!(
        route_tenant_healthy(tenant, width, server.quarantined_mask()),
        home,
        "the tenant routes home again"
    );
    let before = server.stats().replicas[home].served;
    server
        .submit_for_tenant(fx.clean(0), tenant, Duration::from_secs(5))
        .wait()
        .expect("post-rejoin traffic serves");
    let stats = server.shutdown();
    assert!(
        stats.replicas[home].served > before,
        "post-rejoin traffic landed on the home replica"
    );
    assert!(stats.rejoins >= 1, "the rejoin was counted");
    assert_eq!(stats.replicas[home].health, "healthy");
    common::assert_ledger_balances(&stats);
}

/// A quarantine inside a canary window voids the round: the controller
/// thread concludes it as a typed rollback (`replica_quarantined`)
/// without waiting for the window to fill, and the incumbent weights
/// stay live.
#[test]
fn quarantine_mid_canary_rolls_back_with_typed_cause() {
    let _g = suite_lock();
    let fx = ServeFixture::new(830);
    let spin_tok = fx.trigger(3);
    let factory = fx.factory(ChaosPlan {
        stall: StallPlan {
            spin_token: Some((spin_tok, 800)),
            sticky: false,
            ..Default::default()
        },
        ..Default::default()
    });
    let server = Server::start(
        ServeConfig {
            max_batch: 4,
            breaker: BreakerPolicy {
                collapse: open_policy(),
                ..BreakerPolicy::default()
            },
            health: fast_health(),
            ..fx.serve_cfg(2)
        },
        factory.clone(),
    );

    // A same-shaped candidate checkpoint.
    let tmp = std::env::temp_dir().join(format!("dar_heal_canary_{}", std::process::id()));
    {
        let model = factory();
        for p in model.params() {
            let n = p.len();
            p.set_values(vec![0.05; n]);
        }
        serial::save_checkpoint_path(&tmp, &Checkpoint::new(model.params(), Vec::new())).unwrap();
    }
    let policy = CanaryPolicy {
        window: 10_000, // far more than this test ever serves
        slice_modulus: 2,
        ..CanaryPolicy::default()
    };
    assert_eq!(server.begin_canary(&tmp, policy).expect("canary begins"), 2);

    // Some canary-era traffic, then the stall.
    for i in 0..8 {
        server
            .submit_for_tenant(fx.clean(i), i as u64, Duration::from_secs(10))
            .wait()
            .expect("canary-era traffic serves");
    }
    assert!(
        server.try_conclude_canary().is_none(),
        "the window is nowhere near filled"
    );
    let wedge = server.submit_for_tenant(fx.triggered(0, spin_tok), 1, Duration::from_millis(250));
    wait_until(Duration::from_secs(3), "quarantine detection", || {
        server.stats().quarantines >= 1
    });
    assert!(wedge.wait().is_err(), "the wedged request fails typed");

    let outcome = server
        .try_conclude_canary()
        .expect("a quarantined window concludes immediately");
    assert_eq!(outcome.phase, PromotionPhase::RolledBack);
    assert_eq!(outcome.cause, Some(RollbackCause::ReplicaQuarantined));
    assert_eq!(outcome.version, 2);

    // The incumbent survived the voided round.
    let out = server
        .submit_for_tenant(fx.clean(0), 0, Duration::from_secs(10))
        .wait()
        .expect("post-rollback traffic serves");
    assert_eq!(out.weights_version, 1, "the incumbent weights stay live");
    let stats = server.shutdown();
    common::assert_ledger_balances(&stats);
    std::fs::remove_file(&tmp).ok();
}

/// Regression (stranded-deadline bug): a backlog at or below the steal
/// threshold is invisible to thieves, so when its home replica is
/// wedged its expired requests used to wait for an owner that never
/// came. The supervisor's deadline sweep answers them on time — with
/// a watchdog stall budget far above the wedge, so the sweep alone is on
/// the hook.
#[test]
fn deadline_sweep_rescues_sub_threshold_backlog_from_a_wedged_owner() {
    let _g = suite_lock();
    let fx = ServeFixture::new(840);
    let sleep_tok = fx.trigger(4);
    let server = Server::start(
        ServeConfig {
            // Steal threshold 5, above the backlog this test builds: no
            // thief bites.
            max_batch: 4,
            // A stall budget far above the 1.2s wedge: the watchdog never
            // condemns the owner, so the sweep alone must rescue the
            // stranded requests.
            health: HealthPolicy {
                stall_budget: Duration::from_secs(60),
                ..HealthPolicy::default()
            },
            ..fx.serve_cfg(2)
        },
        fx.factory(ChaosPlan {
            stall: StallPlan {
                sleep_token: Some((sleep_tok, 1200)),
                sticky: false,
                ..Default::default()
            },
            ..Default::default()
        }),
    );
    let tenant = 1u64;

    // Wedge the home replica, then strand three short-deadline requests
    // behind it — a backlog of 3 against a steal threshold of 5.
    let wedge =
        server.submit_for_tenant(fx.triggered(0, sleep_tok), tenant, Duration::from_secs(10));
    std::thread::sleep(Duration::from_millis(60)); // let the batch get claimed
    let started = Instant::now();
    let stranded: Vec<_> = (0..3)
        .map(|i| server.submit_for_tenant(fx.clean(i), tenant, Duration::from_millis(150)))
        .collect();
    for (i, t) in stranded.into_iter().enumerate() {
        assert!(
            matches!(t.wait(), Err(ServeError::DeadlineExceeded)),
            "stranded request {i} must expire typed"
        );
    }
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_millis(900),
        "expired requests waited {waited:?} — the sweep must not depend on \
         the wedged owner (1.2s) or on work stealing"
    );
    assert!(wedge.wait().is_ok(), "slow but within its own deadline");

    let stats = server.shutdown();
    assert_eq!(stats.deadline_exceeded, 3);
    assert_eq!(
        stats.quarantines, 0,
        "the watchdog's budget was never reached"
    );
    assert_eq!(stats.abandoned, 0);
    common::assert_ledger_balances(&stats);
}

/// With the watchdog enabled (default policy), a clean sequential run
/// produces the exact golden deterministic obs bytes of the
/// pre-watchdog runtime: no stall events, no health counters, nothing.
/// CI re-runs this binary under `DAR_THREADS=1` and `=4` asserting the
/// same bytes.
#[test]
fn clean_run_with_watchdog_enabled_keeps_golden_obs_bytes() {
    let _g = suite_lock();
    dar::obs::reset();
    dar::obs::set_enabled(true);

    let fx = ServeFixture::new(850);
    let cfg = ServeConfig {
        breaker: BreakerPolicy {
            collapse: open_policy(),
            ..BreakerPolicy::default()
        },
        ..fx.serve_cfg(4)
    };
    let server = Server::start(cfg, fx.factory(ChaosPlan::default()));
    for i in 0..100 {
        server.submit(fx.clean(i)).wait().expect("request failed");
    }
    for (slot, s) in server.health_states().into_iter().enumerate() {
        assert_eq!(s, HealthState::Healthy, "replica {slot} never left Healthy");
    }
    let stats = server.shutdown();
    assert_eq!(
        (
            stats.stalls,
            stats.quarantines,
            stats.hedged,
            stats.abandoned
        ),
        (0, 0, 0, 0),
        "clean traffic trips nothing"
    );
    for r in &stats.replicas {
        assert!(
            r.served == 0 || r.heartbeats > 0,
            "a serving replica heartbeats"
        );
        assert_eq!(r.health, "healthy");
    }

    let det = dar::obs::snapshot("serve").deterministic_json();
    assert_eq!(
        det,
        "{\"counters\":{\"serve.served_full\":100,\"serve.submitted\":100},\
         \"gauges\":{},\"events\":[],\"events_dropped\":0}",
        "the watchdog must not perturb the golden deterministic section"
    );
}
