//! The serving runtime's public face: [`Server`] and its statistics.
//!
//! Requests flow from [`Server::submit_for_tenant`] through admission and
//! the circuit breaker into the dispatch core (`dispatch.rs`), which owns
//! them in per-replica queue shards and in-flight slots; replica workers
//! (`worker.rs`) claim micro-batches, run them and answer them; the
//! supervisor (`supervisor.rs`) respawns dead workers, sweeps deadlines
//! and runs the heartbeat watchdog. Every verdict, from any of them,
//! goes through the ledger's one funnel (`request.rs`).
//!
//! Canary promotion is decided by the pure run in `canary.rs` and routed
//! by the dispatch core; the server only holds the run behind its lock
//! and carries out the effects: the `WeightStore` offer, promotion or
//! clear, and the journal events (DESIGN.md §13).
//!
//! ## Sharded routing and work stealing (DESIGN.md §14)
//!
//! Each replica owns one bounded queue shard. A request's tenant id is
//! hashed onto its *home shard* by [`route_tenant`] — stable across
//! restarts and thread budgets — so per-tenant admission (fair-share
//! throttling) is a single-shard check. A free replica claims what its
//! own shard holds at once; when that is empty it steals one whole
//! micro-batch from the longest sibling queue, but only from one holding
//! more than a full batch
//! ([`steal_threshold`](crate::config::ServeConfig::steal_threshold)):
//! strictly sequential traffic never experiences a steal, which keeps
//! the deterministic obs section byte-identical to a single-replica run.
//!
//! ## Exactly one outcome
//!
//! A request is always `Queued(shard)`, `InFlight(replica, gen)` or
//! answered, and every move between those states is one dispatch-core
//! transition under one lock: a steal moves requests from the victim's
//! queue straight into the thief's in-flight slot, and a quarantine
//! revokes, drains and reroutes in the same critical section. Shutdown
//! answers every queued request `Shutdown`; a dead worker's in-flight
//! slot answers `WorkerPanicked`. The chaos harnesses assert `Lost` is
//! never observed, and the ledger makes `submitted == Σ outcomes`
//! checkable in any [`StatsSnapshot`] of a quiet server.
//!
//! ## Lock order
//!
//! The dispatch core, breaker, canary and latency-sample mutexes are
//! never held together: each is taken alone and released before the next.
//! The one nesting is `canary` → the `WeightStore`'s own locks (canary
//! setup). Heartbeats and counters are atomics.
//!
//! [`route_tenant`]: crate::router::route_tenant

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use dar_data::Review;
use dar_obs::ObsEvent;

use crate::breaker::{BreakerEvent, BreakerState, CircuitBreaker};
use crate::canary::{
    CanaryDecision, CanaryOutcome, CanaryPolicy, CanaryRun, CanarySnapshot, PromotionPhase,
    RollbackCause,
};
use crate::config::ServeConfig;
use crate::dispatch::Core;
use crate::health::HealthState;
use crate::request::{Count, Ledger, Pending, ServeError, Ticket, Verdict};
use crate::supervisor::Supervisor;
use crate::weights::{WeightSet, WeightStore};

pub use dar_core::ModelFactory;

/// Per-replica counters inside a [`StatsSnapshot`].
#[derive(Debug, Clone, Default)]
pub struct ReplicaStats {
    /// Requests this replica answered successfully (full or degraded).
    pub served: u64,
    /// Micro-batches this replica stole from siblings.
    pub steals: u64,
    /// Requests carried by those stolen batches.
    pub stolen_requests: u64,
    /// Heartbeat progress counter (claim/batch/respond boundary bumps).
    pub heartbeats: u64,
    /// Micro-batches this replica answered fully successfully.
    pub ok_batches: u64,
    /// Times this replica was quarantined by the watchdog.
    pub quarantines: u64,
    /// Requests hedged away from this replica at quarantine drains.
    pub hedged_away: u64,
    /// Current health state (`healthy`/`suspect`/`quarantined`/
    /// `probation`).
    pub health: String,
}

/// Point-in-time counters plus latency percentiles (microseconds, over
/// successful responses, from batch start — the queue wait excluded).
///
/// Every submitted request lands in exactly one outcome field —
/// `served_full`, `served_degraded`, `rejected`, `queue_full`, `shed`,
/// `deadline_exceeded`, `throttled`, `worker_panicked`, `shutdown` or
/// `abandoned` — so once the server is quiet (after
/// [`Server::shutdown`], for instance) they sum to `submitted`.
#[derive(Debug, Clone, Default)]
pub struct StatsSnapshot {
    /// Requests submitted, whatever became of them.
    pub submitted: u64,
    pub served_full: u64,
    pub served_degraded: u64,
    pub rejected: u64,
    pub queue_full: u64,
    pub shed: u64,
    pub deadline_exceeded: u64,
    /// Submissions refused by per-tenant fair-share admission.
    pub throttled: u64,
    /// Requests answered `WorkerPanicked` (the panics themselves are
    /// counted in `panics`).
    pub worker_panicked: u64,
    /// Requests answered `Shutdown`.
    pub shutdown: u64,
    /// Total micro-batches stolen between replicas.
    pub steals: u64,
    /// Total requests carried by stolen batches.
    pub stolen_requests: u64,
    pub panics: u64,
    /// Stall episodes the watchdog flagged (Healthy → Suspect).
    pub stalls: u64,
    /// Replicas condemned by the watchdog (Suspect → Quarantined).
    pub quarantines: u64,
    /// Respawned replicas that passed probation (Probation → Healthy).
    pub rejoins: u64,
    /// Requests hedged to a healthy sibling off a quarantined replica.
    pub hedged: u64,
    /// Requests given up with `ServeError::Abandoned` at quarantine
    /// drains (no hedge budget or no healthy sibling).
    pub abandoned: u64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
    pub weights_version: u64,
    /// One entry per replica slot.
    pub replicas: Vec<ReplicaStats>,
}

/// State shared by the server handle, the workers and the supervisor.
pub(crate) struct Shared {
    pub cfg: ServeConfig,
    /// Request ownership: shard queues, in-flight slots, generations and
    /// the quarantine mask, behind the one dispatch lock.
    pub core: Mutex<Core>,
    /// One wakeup per replica shard, waited on with the `core` guard.
    pub wake: Vec<Condvar>,
    pub breaker: Mutex<CircuitBreaker>,
    pub weights: WeightStore,
    pub ledger: Ledger,
    /// The active canary run. Workers record into it, the watchdog
    /// interrupts it, and only the controller thread settles it, so the
    /// promotion journal stays single-threaded and deterministic.
    pub canary: Mutex<Option<CanaryRun>>,
}

impl Shared {
    /// Lock the dispatch core. Its transitions never panic while the
    /// lock is held, so a poisoned lock is a runtime bug.
    pub fn core(&self) -> MutexGuard<'_, Core> {
        self.core.lock().expect("dispatch core poisoned")
    }
}

/// The serving runtime. Dropping without [`shutdown`](Server::shutdown)
/// shuts down implicitly.
pub struct Server {
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
}

impl Server {
    /// Build the initial weight generation from one factory call, spawn
    /// one worker per replica shard and the supervisor, and start
    /// serving.
    pub fn start(cfg: ServeConfig, factory: ModelFactory) -> Self {
        let initial = WeightSet::from_params(&factory().params(), 1);
        let replicas = cfg.effective_replicas();
        let shared = Arc::new(Shared {
            core: Mutex::new(Core::new(&cfg, replicas)),
            wake: (0..replicas).map(|_| Condvar::new()).collect(),
            breaker: Mutex::new(CircuitBreaker::new(cfg.breaker)),
            cfg,
            weights: WeightStore::new(initial),
            ledger: Ledger::new(replicas),
            canary: Mutex::new(None),
        });
        let supervisor = Supervisor::start(Arc::clone(&shared), factory);
        let supervisor = std::thread::Builder::new()
            .name("dar-serve-supervisor".into())
            .spawn(move || supervisor.run())
            .expect("spawning dar-serve supervisor");
        Server {
            shared,
            supervisor: Some(supervisor),
        }
    }

    /// Submit with the configured default deadline (tenant 0).
    pub fn submit(&self, review: Review) -> Ticket {
        self.submit_for_tenant(review, 0, self.shared.cfg.default_deadline)
    }

    /// Submit with an explicit deadline (tenant 0).
    pub fn submit_with_deadline(&self, review: Review, deadline: Duration) -> Ticket {
        self.submit_for_tenant(review, 0, deadline)
    }

    /// Submit one review for a tenant. The tenant id picks the home
    /// shard ([`route_tenant`]) and is the fair-share admission key. The
    /// returned ticket resolves to exactly one [`ServeResult`] —
    /// including for immediate rejections, which are decided here on the
    /// caller's thread.
    ///
    /// [`route_tenant`]: crate::router::route_tenant
    /// [`ServeResult`]: crate::request::ServeResult
    pub fn submit_for_tenant(&self, review: Review, tenant: u64, deadline: Duration) -> Ticket {
        let shared = &self.shared;
        // The submission count doubles as the sequence number — the
        // deterministic canary routing key.
        let seq = shared.ledger.count(Count::Submitted, 1);
        let (pending, ticket) = Pending::new(review, deadline, seq, tenant);
        let fail = |p, e| shared.ledger.resolve(p, Verdict::Failed(e));

        // Admission: cheap structural checks before anything is queued.
        let cfg = &shared.cfg;
        if let Err(e) = pending.review.admissible(cfg.vocab_size, cfg.max_len) {
            fail(pending, ServeError::Rejected(e));
            return ticket;
        }
        // Breaker: an Open breaker sheds at the door (and each shed
        // brings the HalfOpen probe closer).
        {
            let mut b = shared.breaker.lock().unwrap();
            if b.shedding() {
                b.on_shed();
                drop(b);
                fail(pending, ServeError::Shed);
                return ticket;
            }
        }
        // Home shard: bounded queue (full means backpressure, not
        // waiting) plus the per-tenant fair-share check, on the tenant's
        // health-aware route.
        let admitted = shared.core().submit(pending);
        match admitted {
            Err(refused) => fail(refused.0, refused.1),
            Ok(a) => {
                // Only wakeups someone waits for: every needless one
                // contends with the next submit for the dispatch lock.
                if a.wake_home {
                    shared.wake[a.shard].notify_one();
                }
                // A backlog that just reached the steal threshold wakes
                // the idle siblings now: they would otherwise look only
                // at their next poll, and a fast model drains a whole
                // burst well within that.
                if a.wake_siblings {
                    for (i, sibling) in shared.wake.iter().enumerate() {
                        if i != a.shard {
                            sibling.notify_one();
                        }
                    }
                }
            }
        }
        ticket
    }

    /// Offer a checkpoint file as the next weight generation; validation
    /// runs on this thread, never on workers. See
    /// [`WeightStore::offer_checkpoint`].
    pub fn offer_checkpoint(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> dar_tensor::DarResult<u64> {
        self.shared.weights.offer_checkpoint(path)
    }

    /// Published weight generation.
    pub fn weights_version(&self) -> u64 {
        self.shared.weights.version()
    }

    /// Begin a canary evaluation: validate `path` into the canary slot
    /// (same CRC/count/shape contract as [`offer_checkpoint`]) and start
    /// routing the deterministic traffic slice to it. Fails if a canary
    /// is already active or validation rejects the checkpoint (the
    /// rejection is journaled as a typed `offer_rejected` event either
    /// way). Returns the candidate's version.
    ///
    /// [`offer_checkpoint`]: Server::offer_checkpoint
    pub fn begin_canary(
        &self,
        path: impl AsRef<std::path::Path>,
        policy: CanaryPolicy,
    ) -> dar_tensor::DarResult<u64> {
        let shared = &self.shared;
        let mut guard = shared.canary.lock().unwrap();
        if guard.is_some() {
            return Err(dar_tensor::DarError::InvalidData(
                "a canary evaluation is already active".into(),
            ));
        }
        let version = shared.weights.offer_canary(path)?;
        let run = CanaryRun::new(policy, version, shared.weights.version());
        let modulus = run.slice_modulus();
        *guard = Some(run);
        drop(guard);
        // Routing starts last, so every routed batch finds its run.
        shared.core().route_canary(version, modulus);
        dar_obs::event(ObsEvent::CanaryStarted { version });
        dar_obs::inc("serve.canaries_started");
        Ok(version)
    }

    /// Both arms' stats so far, or `None` when no canary is active.
    pub fn canary_snapshot(&self) -> Option<CanarySnapshot> {
        let guard = self.shared.canary.lock().unwrap();
        guard.as_ref().map(|run| run.stats.clone())
    }

    /// Conclude the canary once its verdict is due — both arms filled
    /// the policy window, or a quarantine voided the run: promote the
    /// candidate atomically or roll it back, journaling the verdict.
    /// `None` means not enough traffic yet (or no canary).
    ///
    /// The verdict and its journal entry are emitted from the calling
    /// thread, so a single controller thread observes a deterministic
    /// promotion event sequence whatever the worker interleaving.
    pub fn try_conclude_canary(&self) -> Option<CanaryOutcome> {
        self.try_conclude_canary_with(|_| Ok(()))
    }

    /// [`try_conclude_canary`] with a durability pre-commit hook: once
    /// the verdict is computed, `pre_commit` gets the [`CanaryDecision`]
    /// *before* it takes effect in memory. The hook's job is to make the
    /// decision durable (WAL append); if it fails on a promotion verdict
    /// the promotion is vetoed into a rollback with cause
    /// `durability_failed` — no swap without a durable record. A failed
    /// hook on a rollback verdict still rolls back (the conservative
    /// outcome needs no record to be safe).
    ///
    /// [`try_conclude_canary`]: Server::try_conclude_canary
    pub fn try_conclude_canary_with<F>(&self, pre_commit: F) -> Option<CanaryOutcome>
    where
        F: FnOnce(&CanaryDecision) -> dar_tensor::DarResult<()>,
    {
        self.settle_canary(None, pre_commit)
    }

    /// Abort an active canary without a verdict: clear the slot, keep
    /// the incumbent, journal a rollback with cause `aborted`.
    pub fn abort_canary(&self) -> Option<CanaryOutcome> {
        self.abort_canary_with(|_| Ok(()))
    }

    /// [`abort_canary`] with a durability pre-commit hook (see
    /// [`try_conclude_canary_with`]).
    ///
    /// [`abort_canary`]: Server::abort_canary
    /// [`try_conclude_canary_with`]: Server::try_conclude_canary_with
    pub fn abort_canary_with<F>(&self, pre_commit: F) -> Option<CanaryOutcome>
    where
        F: FnOnce(&CanaryDecision) -> dar_tensor::DarResult<()>,
    {
        self.settle_canary(Some(RollbackCause::Aborted), pre_commit)
    }

    /// Detach the active run once its decision is due (see
    /// [`CanaryRun::decision`]), let `pre_commit` journal it, and carry
    /// out what [`CanaryDecision::settled`] says. Routing stops *before*
    /// the weights settle: batches claimed from here on go to the
    /// incumbent, and any canary batch already claimed still resolves
    /// normally (it just stops being counted).
    fn settle_canary<F>(
        &self,
        forced: Option<RollbackCause>,
        pre_commit: F,
    ) -> Option<CanaryOutcome>
    where
        F: FnOnce(&CanaryDecision) -> dar_tensor::DarResult<()>,
    {
        let shared = &self.shared;
        let mut guard = shared.canary.lock().unwrap();
        let decision = guard.as_ref()?.decision(forced)?;
        let snapshot = guard.take()?.stats;
        drop(guard);
        let candidate_version = decision.candidate_version;
        shared.core().stop_canary(candidate_version);
        let verdict = decision.settled(pre_commit(&decision).is_ok());
        Some(match verdict {
            Ok(()) => {
                let version = shared.weights.promote_canary().unwrap_or(candidate_version);
                dar_obs::event(ObsEvent::CandidatePromoted { version });
                dar_obs::inc("serve.promotions");
                CanaryOutcome {
                    version,
                    phase: PromotionPhase::Promoted,
                    cause: None,
                    snapshot,
                }
            }
            Err(cause) => {
                // Rollback is the *absence* of a swap: drop the slot and
                // the incumbent keeps serving, never displaced.
                shared.weights.clear_canary();
                dar_obs::event(ObsEvent::CandidateRolledBack {
                    version: candidate_version,
                    cause: cause.as_str().to_owned(),
                });
                dar_obs::inc("serve.canary_rollbacks");
                CanaryOutcome {
                    version: candidate_version,
                    phase: PromotionPhase::RolledBack,
                    cause: Some(cause),
                    snapshot,
                }
            }
        })
    }

    pub fn breaker_state(&self) -> BreakerState {
        self.shared.breaker.lock().unwrap().state()
    }

    /// Transition log since start.
    pub fn breaker_events(&self) -> Vec<BreakerEvent> {
        self.shared.breaker.lock().unwrap().events().to_vec()
    }

    pub fn stats(&self) -> StatsSnapshot {
        let l = &self.shared.ledger;
        let (p50_us, p99_us, max_us) = l.latency_percentiles();
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        StatsSnapshot {
            submitted: l.get(Count::Submitted),
            served_full: l.get(Count::ServedFull),
            served_degraded: l.get(Count::ServedDegraded),
            rejected: l.get(Count::Rejected),
            queue_full: l.get(Count::QueueFull),
            shed: l.get(Count::Shed),
            deadline_exceeded: l.get(Count::DeadlineExceeded),
            throttled: l.get(Count::Throttled),
            worker_panicked: l.get(Count::WorkerPanicked),
            shutdown: l.get(Count::Shutdown),
            steals: l.get(Count::Steals),
            stolen_requests: l.get(Count::StolenRequests),
            panics: l.get(Count::Panics),
            stalls: l.get(Count::Stalls),
            quarantines: l.get(Count::Quarantines),
            rejoins: l.get(Count::Rejoins),
            hedged: l.get(Count::Hedged),
            abandoned: l.get(Count::Abandoned),
            p50_us,
            p99_us,
            max_us,
            weights_version: self.shared.weights.version(),
            replicas: l
                .replicas
                .iter()
                .map(|h| ReplicaStats {
                    served: load(&h.served),
                    steals: load(&h.steals),
                    stolen_requests: load(&h.stolen_requests),
                    heartbeats: load(&h.progress),
                    ok_batches: load(&h.ok_batches),
                    quarantines: load(&h.quarantines),
                    hedged_away: load(&h.hedged_away),
                    health: h.state().as_str().to_owned(),
                })
                .collect(),
        }
    }

    /// Current health state of every replica slot.
    pub fn health_states(&self) -> Vec<HealthState> {
        self.shared
            .ledger
            .replicas
            .iter()
            .map(|h| h.state())
            .collect()
    }

    /// Bitmask of currently quarantined slots (bit `s` = slot `s`).
    /// Zero in steady state — and zero again after every rejoin, which
    /// is what restores original routing.
    pub fn quarantined_mask(&self) -> u64 {
        self.shared.core().quarantined()
    }

    /// Stop accepting, answer queued requests `Shutdown`, let in-flight
    /// batches finish, and join every worker and the supervisor.
    /// Idempotent via `Drop`.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shutdown_inner();
        self.stats()
    }

    fn shutdown_inner(&mut self) {
        let queued = self.shared.core().shutdown();
        self.shared.ledger.fail_all(queued);
        for wake in &self.shared.wake {
            wake.notify_all();
        }
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}
