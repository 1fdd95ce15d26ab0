//! Chaos + saturation suite for horizontal serving scale-out
//! (DESIGN.md §14): replica pools with sharded tenant routing,
//! work-stealing micro-batchers, fair-share admission, and one shared
//! read-only weight publication.
//!
//! The invariants under test:
//!
//! * **Saturation scales sanely** — sweeping 1/2/4/8 replicas over the
//!   same multi-tenant trace serves everything, and throughput never
//!   collapses from scale-out overhead (this box may have a single core,
//!   so the assertion is no-collapse, not linear speedup).
//! * **Exactly one outcome survives stealing** — the chaos mix from the
//!   single-replica harness holds at every replica count, with batches
//!   provably flowing through the steal path.
//! * **Weight publication is atomic across replicas** — a hot swap and a
//!   canary promotion each flip every replica between batches with zero
//!   blips: no request ever observes a version outside the two live
//!   generations, and post-quiesce traffic is uniformly on the new one.
//! * **One hot tenant cannot starve its shard-mates** — fair-share
//!   admission throttles the flood with typed errors while a cold tenant
//!   on the same shard sails through.
//! * **The deterministic obs section is replica-count-invariant** — a
//!   clean sequential run at 4 replicas produces the same golden bytes
//!   as 1 replica under any `DAR_THREADS` (CI runs this binary under
//!   `=1` and `=4`).
//!
//! Every test takes one global lock: the obs registry is process-global,
//! and serializing the suites keeps saturation timings honest.

mod common;

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use common::ServeFixture;
use dar::core::guard::GuardPolicy;
use dar::prelude::*;
use dar::serve::{
    route_tenant, BreakerPolicy, CanaryPolicy, PromotionPhase, ServeConfig, ServeError, Server,
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

/// Saturation sweep: the same 16-tenant, submit-everything-up-front
/// trace at 1, 2, 4, and 8 replicas. Every width serves every request,
/// and no width loses more than ~2/3 of single-replica throughput to
/// scale-out overhead — the floor is deliberately loose because this
/// suite runs on anything from 1 core up, under any `DAR_THREADS`. Each
/// width's rps is printed (`-- --nocapture`) as the replica-scaling
/// measurement.
#[test]
fn saturation_sweep_serves_everything_at_every_width() {
    let _g = suite_lock();
    const N: usize = 512;
    const TENANTS: u64 = 16;
    let fx = ServeFixture::light(700);
    let mut rps = Vec::new();
    for width in [1usize, 2, 4, 8] {
        let server = Server::start(
            ServeConfig {
                max_batch: 128,
                queue_cap: N + 16,
                ..fx.serve_cfg(width)
            },
            fx.factory(ChaosPlan::default()),
        );
        let started = Instant::now();
        let tickets: Vec<_> = (0..N)
            .map(|i| {
                server.submit_for_tenant(fx.clean(i), i as u64 % TENANTS, Duration::from_secs(60))
            })
            .collect();
        let ok = tickets
            .into_iter()
            .map(|t| t.wait())
            .filter(|r| r.is_ok())
            .count();
        let elapsed = started.elapsed();
        let stats = server.shutdown();
        assert_eq!(ok, N, "width {width}: every request must serve");
        assert_eq!(stats.panics, 0, "width {width}: clean trace");
        assert_eq!(
            stats.replicas.len(),
            width,
            "snapshot reports one entry per replica"
        );
        let served: u64 = stats.replicas.iter().map(|r| r.served).sum();
        assert_eq!(served, N as u64, "per-replica served sums to the trace");
        rps.push(ok as f64 / elapsed.as_secs_f64());
    }
    for (i, width) in [1usize, 2, 4, 8].iter().enumerate() {
        println!("saturation sweep: width {width}: {:.1} rps", rps[i]);
        assert!(
            rps[i] >= rps[0] * 0.35,
            "width {width} collapsed: {:.1} rps vs {:.1} at 1 replica ({rps:?})",
            rps[i],
            rps[0]
        );
    }
}

/// The single-replica chaos mix — panics, malformed, empty, over-length,
/// clean — holds at every replica count, with the whole burst aimed at
/// one tenant so idle siblings must steal it down. `Lost` is never
/// observed, and at 2+ replicas the steal path provably carried batches.
#[test]
fn exactly_one_outcome_under_chaos_at_every_width() {
    let _g = suite_lock();
    let fx = ServeFixture::new(710);
    let panic_tok = fx.trigger(0);
    for width in [1usize, 2, 4, 8] {
        let server = Server::start(
            ServeConfig {
                max_batch: 8,
                ..fx.serve_cfg(width)
            },
            fx.factory(ChaosPlan {
                panic_token: Some(panic_tok),
                ..Default::default()
            }),
        );
        let tickets: Vec<_> = (0..96)
            .map(|i| {
                let review = match i % 12 {
                    11 => fx.triggered(i, panic_tok),
                    10 => dar::core::fault::malformed_review(fx.vocab_rows, 710 + i as u64),
                    _ => fx.clean(i),
                };
                server.submit(review)
            })
            .collect();
        let (mut ok, mut rejected, mut panicked) = (0, 0, 0);
        for t in tickets {
            match t.wait() {
                Ok(out) => {
                    assert!(out.label < 2);
                    ok += 1;
                }
                Err(ServeError::Lost) => panic!("width {width}: a response was lost"),
                Err(ServeError::Rejected(_)) => rejected += 1,
                Err(ServeError::WorkerPanicked) => panicked += 1,
                Err(e) => panic!("width {width}: unexpected verdict {e}"),
            }
        }
        assert_eq!(rejected, 8, "width {width}: the malformed eighth bounces");
        assert_eq!(
            ok + panicked,
            88,
            "width {width}: the rest serve or fail typed"
        );
        assert!(
            panicked >= 1,
            "width {width}: first panic batch fails typed"
        );
        let stats = server.shutdown();
        if width >= 2 {
            assert!(
                stats.steals >= 1,
                "width {width}: a 96-deep hot shard with idle siblings must steal \
                 (stats: {} steals, {} stolen requests)",
                stats.steals,
                stats.stolen_requests
            );
            let thief_steals: u64 = stats.replicas.iter().map(|r| r.steals).sum();
            assert_eq!(thief_steals, stats.steals, "per-replica steals sum up");
        } else {
            assert_eq!(stats.steals, 0, "one replica has nobody to steal from");
        }
    }
}

/// Quarantine racing the steal path: the home replica wedges on a
/// sticky livelock while thieves are actively stealing its backlog down,
/// with panic chaos mixed in so thieves die and respawn mid-storm. When
/// the watchdog condemns the victim and force-drains what's left, no
/// request may be double-dispatched: every ticket resolves exactly once,
/// never `Lost`, and the per-replica served counts sum to exactly the
/// `Ok` outcomes — a request served twice would break that ledger.
#[test]
fn mid_steal_quarantine_never_double_dispatches() {
    let _g = suite_lock();
    let fx = ServeFixture::new(750);
    let spin_tok = fx.trigger(1);
    let panic_tok = fx.trigger(0);
    let server = Server::start(
        ServeConfig {
            max_batch: 8,
            queue_cap: 128,
            health: dar::serve::HealthPolicy {
                stall_budget: Duration::from_millis(120),
                deadline_grace: Duration::from_millis(80),
                probation_probes: 1,
                hedge_min_budget: Duration::from_millis(1),
            },
            ..fx.serve_cfg(4)
        },
        fx.factory(ChaosPlan {
            panic_token: Some(panic_tok),
            stall: dar::core::fault::StallPlan {
                spin_token: Some((spin_tok, 1500)),
                sticky: true,
                ..Default::default()
            },
            ..Default::default()
        }),
    );
    let tenant = 1u64;
    // Wedge the home replica first so the flood piles up behind it.
    let wedge = server.submit_for_tenant(
        fx.triggered(0, spin_tok),
        tenant,
        Duration::from_millis(300),
    );
    std::thread::sleep(Duration::from_millis(50)); // let the stall batch get claimed
    let tickets: Vec<_> = (0..95)
        .map(|i| {
            let review = if i % 12 == 11 {
                fx.triggered(i, panic_tok)
            } else {
                fx.clean(i)
            };
            server.submit_for_tenant(review, tenant, Duration::from_secs(30))
        })
        .collect();

    assert!(
        matches!(wedge.wait(), Err(ServeError::DeadlineExceeded)),
        "the wedged request resolves to its deadline"
    );
    let (mut ok, mut panicked, mut other_typed) = (0usize, 0usize, 0usize);
    for (i, t) in tickets.into_iter().enumerate() {
        match t.wait() {
            Ok(out) => {
                assert!(out.label < 2);
                ok += 1;
            }
            Err(ServeError::Lost) => panic!("request {i}: a response was lost"),
            Err(ServeError::WorkerPanicked) => panicked += 1,
            Err(ServeError::DeadlineExceeded) | Err(ServeError::Abandoned) => other_typed += 1,
            Err(e) => panic!("request {i}: unexpected verdict {e}"),
        }
    }
    assert_eq!(
        ok + panicked + other_typed,
        95,
        "every ticket resolves once"
    );
    assert!(panicked >= 1, "panic chaos fired typed");

    let stats = server.shutdown();
    assert_eq!(stats.quarantines, 1, "the wedged home was condemned");
    assert!(
        stats.steals >= 1,
        "a 95-deep hot shard with idle siblings must steal"
    );
    let served: u64 = stats.replicas.iter().map(|r| r.served).sum();
    assert_eq!(
        served, ok as u64,
        "served ledger must equal Ok outcomes — a double dispatch would \
         serve one request on two replicas"
    );
}

/// Weight publication is atomic across 4 replicas, twice over: a hot
/// swap mid-burst (no request sees anything but {old, new}; post-quiesce
/// traffic is uniformly new) and then a canary promotion of an
/// identical-weights candidate (same two-generation invariant during the
/// evaluation, uniform cut-over after the verdict, zero blips
/// throughout).
#[test]
fn hot_swap_and_canary_promotion_are_atomic_across_replicas() {
    let _g = suite_lock();
    let fx = ServeFixture::new(720);
    let cfg = ServeConfig {
        max_batch: 4,
        breaker: BreakerPolicy {
            collapse: open_policy(),
            ..BreakerPolicy::default()
        },
        ..fx.serve_cfg(4)
    };
    let factory = fx.factory(ChaosPlan::default());
    let server = Server::start(cfg, factory.clone());

    // A same-shaped checkpoint with visibly different weights (v2).
    let tmp = std::env::temp_dir().join(format!("dar_scale_swap_{}", std::process::id()));
    {
        let model = factory();
        for p in model.params() {
            let n = p.len();
            p.set_values(vec![0.05; n]);
        }
        serial::save_checkpoint_path(&tmp, &Checkpoint::new(model.params(), Vec::new())).unwrap();
    }

    // Burst across all shards, swap mid-flight.
    let tickets: Vec<_> = (0..48)
        .map(|i| server.submit_for_tenant(fx.clean(i), i as u64 % 8, Duration::from_secs(30)))
        .collect();
    assert_eq!(server.offer_checkpoint(&tmp).unwrap(), 2);
    for t in tickets {
        let out = t.wait().expect("burst serves across the swap");
        assert!(
            out.weights_version == 1 || out.weights_version == 2,
            "a request observed a torn generation: v{}",
            out.weights_version
        );
    }
    // Post-quiesce: every replica (tenants cover all shards) is on v2.
    for i in 0..8 {
        let out = server
            .submit_for_tenant(fx.clean(i), i as u64, Duration::from_secs(30))
            .wait()
            .expect("post-swap serves");
        assert_eq!(out.weights_version, 2, "replica lagged after the swap");
    }

    // Canary the *same* weights as v3: identical behavior, so the verdict
    // is a pure promote, and the only observable change is the version.
    let policy = CanaryPolicy {
        window: 8,
        slice_modulus: 2,
        max_acc_drop: 1.0,
        max_f1_drop: 1.0,
        ..CanaryPolicy::default()
    };
    assert_eq!(server.begin_canary(&tmp, policy).expect("canary begins"), 3);
    let mut outcome = None;
    for i in 0..4000 {
        let out = server
            .submit_for_tenant(fx.clean(i), i as u64 % 8, Duration::from_secs(30))
            .wait()
            .expect("canary-era traffic serves");
        assert!(
            out.weights_version == 2 || out.weights_version == 3,
            "canary-era request on a torn generation: v{}",
            out.weights_version
        );
        if let Some(o) = server.try_conclude_canary() {
            outcome = Some(o);
            break;
        }
    }
    let outcome = outcome.expect("canary reached a verdict");
    assert_eq!(outcome.phase, PromotionPhase::Promoted);
    assert_eq!(outcome.version, 3);
    for i in 0..8 {
        let out = server
            .submit_for_tenant(fx.clean(i), i as u64, Duration::from_secs(30))
            .wait()
            .expect("post-promotion serves");
        assert_eq!(out.weights_version, 3, "replica lagged after promotion");
    }
    let stats = server.shutdown();
    assert_eq!(stats.panics, 0, "zero blips across both swaps");
    assert_eq!(stats.rejected + stats.shed + stats.deadline_exceeded, 0);
    std::fs::remove_file(&tmp).ok();
}

/// Fair-share admission: with stealing pinned off and the home replica
/// occupied by a slow request, a hot tenant flooding its shard is
/// throttled at its fair share with typed errors, while a cold tenant
/// hashed to the *same* shard submits unimpeded — and everything
/// admitted still serves.
#[test]
fn one_hot_tenant_cannot_starve_its_shard_mates() {
    let _g = suite_lock();
    let fx = ServeFixture::new(730);
    let slow_tok = fx.trigger(4);
    let hot: u64 = 1;
    // A different tenant that hashes onto the hot tenant's home shard.
    let cold: u64 = (2..64)
        .find(|&t| route_tenant(t, 2) == route_tenant(hot, 2))
        .expect("64 tenants cover 2 shards");
    let cfg = ServeConfig {
        max_batch: 4,
        queue_cap: 16,
        tenant_fair_share: Some(0.25), // 4 of 16 slots
        steal: false,
        ..fx.serve_cfg(2)
    };
    let server = Server::start(
        cfg,
        fx.factory(ChaosPlan {
            slow_token: Some((slow_tok, 300)),
            ..Default::default()
        }),
    );

    // Occupy the home replica so the flood actually queues.
    let slow = server.submit_for_tenant(fx.triggered(0, slow_tok), hot, Duration::from_secs(10));
    std::thread::sleep(Duration::from_millis(100)); // let it get claimed

    // Flood: 12 hot submissions against a fair share of 4.
    let flood: Vec<_> = (0..12)
        .map(|i| server.submit_for_tenant(fx.clean(i), hot, Duration::from_secs(10)))
        .collect();
    // The cold shard-mate is untouched by the hot tenant's backlog.
    let cold_tickets: Vec<_> = (0..4)
        .map(|i| server.submit_for_tenant(fx.clean(i), cold, Duration::from_secs(10)))
        .collect();

    let (mut ok, mut throttled) = (0, 0);
    for t in flood {
        match t.wait() {
            Ok(_) => ok += 1,
            Err(ServeError::TenantThrottled) => throttled += 1,
            Err(e) => panic!("unexpected flood verdict: {e}"),
        }
    }
    assert_eq!(ok, 4, "exactly the fair share is admitted");
    assert_eq!(throttled, 8, "the rest is throttled, typed");
    for t in cold_tickets {
        t.wait().expect("the cold shard-mate is never throttled");
    }
    assert!(slow.wait().is_ok(), "slow but within deadline");

    let stats = server.shutdown();
    assert_eq!(stats.throttled, 8);
    assert_eq!(stats.queue_full, 0, "throttling fired before the queue cap");
    assert_eq!(stats.steals, 0, "stealing was pinned off");
}

/// A clean sequential 100-request run at 4 replicas produces the exact
/// golden deterministic obs section of the single-replica runtime: the
/// sequential trace never crosses the steal threshold, so no steal
/// counters or events exist, and per-replica spans stay in the timing
/// section. CI re-runs this binary under `DAR_THREADS=1` and `=4`
/// asserting the same bytes.
#[test]
fn clean_scaled_out_run_matches_single_replica_golden_obs() {
    let _g = suite_lock();
    dar::obs::reset();
    dar::obs::set_enabled(true);

    let fx = ServeFixture::new(740);
    let cfg = ServeConfig {
        breaker: BreakerPolicy {
            collapse: open_policy(),
            ..BreakerPolicy::default()
        },
        ..fx.serve_cfg(4)
    };
    let server = Server::start(cfg, fx.factory(ChaosPlan::default()));
    for i in 0..100 {
        let out = server.submit(fx.clean(i)).wait().expect("request failed");
        assert!(!out.degraded, "collapse band is open; no degraded answers");
    }
    let stats = server.shutdown();
    assert_eq!(stats.steals, 0, "sequential traffic must never steal");

    let det = dar::obs::snapshot("serve").deterministic_json();
    assert_eq!(
        det,
        "{\"counters\":{\"serve.served_full\":100,\"serve.submitted\":100},\
         \"gauges\":{},\"events\":[],\"events_dropped\":0}",
        "the scaled-out deterministic section must be the single-replica golden bytes"
    );
}
