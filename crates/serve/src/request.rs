//! Request/response types, the exactly-one-outcome ticket, and the
//! request ledger: the one funnel every verdict passes through.
//!
//! `Ledger::resolve` is the only caller of `Pending::respond`, which is
//! private to this module. Each verdict it delivers bumps exactly one
//! outcome counter (mirrored to the `dar-obs` counter of the same name),
//! so `submitted == Σ outcomes` holds in every [`StatsSnapshot`] taken
//! once the server is quiet, not just in tests.
//!
//! [`StatsSnapshot`]: crate::server::StatsSnapshot

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use dar_data::Review;
use dar_tensor::DarError;

use crate::health::HealthSlot;

/// Successful response for one request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutput {
    /// Predicted class.
    pub label: usize,
    /// Binary rationale mask over the review's tokens. Empty when the
    /// answer came from the predictor-only degraded path — a degraded
    /// answer never fabricates a rationale.
    pub rationale: Vec<bool>,
    /// True when the generator was bypassed (degraded mode or collapse
    /// fallback within a full-path batch).
    pub degraded: bool,
    /// Weight generation the answer was computed on.
    pub weights_version: u64,
}

/// Terminal failure for one request. Every variant is an *answer*: the
/// ticket resolves exactly once whatever happens.
#[derive(Debug)]
pub enum ServeError {
    /// Rejected at admission (empty, over-length, out-of-vocabulary…).
    Rejected(DarError),
    /// The bounded queue was full — backpressure, try later.
    QueueFull,
    /// The request's deadline passed before a worker reached it.
    DeadlineExceeded,
    /// The breaker is Open; nothing is being computed.
    Shed,
    /// The tenant already occupies its fair share of its home shard's
    /// queue (`ServeConfig::tenant_fair_share`) — per-tenant
    /// backpressure, so one hot tenant cannot starve its shard-mates.
    TenantThrottled,
    /// The worker processing this request panicked.
    WorkerPanicked,
    /// Degraded mode was needed but the model has no full-text path.
    DegradedUnavailable,
    /// The server shut down before the request ran.
    Shutdown,
    /// The request was stranded on a quarantined replica with too little
    /// deadline budget left to hedge (or no healthy sibling to hedge to),
    /// and was given up deliberately (DESIGN.md §16). Unlike
    /// `DeadlineExceeded`, the deadline itself had not passed.
    Abandoned,
    /// The response channel died without a verdict — a runtime bug; the
    /// chaos harness asserts this is never produced.
    Lost,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected(e) => write!(f, "rejected at admission: {e}"),
            ServeError::QueueFull => write!(f, "queue full"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::Shed => write!(f, "shed: breaker open"),
            ServeError::TenantThrottled => write!(f, "tenant over its fair queue share"),
            ServeError::WorkerPanicked => write!(f, "worker panicked"),
            ServeError::DegradedUnavailable => write!(f, "no degraded path"),
            ServeError::Shutdown => write!(f, "server shut down"),
            ServeError::Abandoned => write!(f, "abandoned: replica quarantined, no hedge budget"),
            ServeError::Lost => write!(f, "response lost (runtime bug)"),
        }
    }
}

pub type ServeResult = Result<ServeOutput, ServeError>;

/// One submitted request. Owned by exactly one place at a time — a shard
/// queue or a replica's in-flight slot inside the dispatch core — until
/// [`Ledger::resolve`] consumes it.
#[cfg_attr(test, derive(Clone))]
pub(crate) struct Pending {
    /// Shared with the worker that assembles it into a batch; the request
    /// itself stays parked in the core while inference runs.
    pub review: Arc<Review>,
    pub deadline: Instant,
    /// Submission sequence number — the deterministic canary routing key
    /// (`seq % slice_modulus` picks the arm; DESIGN.md §13).
    pub seq: u64,
    /// Tenant id — the sharded-routing key (`route_tenant` picks the
    /// home shard; DESIGN.md §14) and the fair-share admission key.
    pub tenant: u64,
    /// When the request entered the runtime — the start of its queue wait
    /// in the observability timings.
    pub submitted: Instant,
    /// Set when the watchdog re-dispatched this request off a quarantined
    /// replica (DESIGN.md §16). One hedge per request: a hedged request
    /// stranded a second time is abandoned, not bounced around forever.
    pub hedged: bool,
    tx: mpsc::Sender<ServeResult>,
}

impl Pending {
    /// A request submitted now, due within `deadline`.
    pub fn new(review: Review, deadline: Duration, seq: u64, tenant: u64) -> (Self, Ticket) {
        let (tx, rx) = mpsc::channel();
        let submitted = Instant::now();
        (
            Pending {
                review: Arc::new(review),
                deadline: submitted + deadline,
                seq,
                tenant,
                submitted,
                hedged: false,
                tx,
            },
            Ticket { rx },
        )
    }

    pub fn expired(&self, now: Instant) -> bool {
        now >= self.deadline
    }

    /// Deliver the verdict. Consumes the request, so the type system
    /// enforces at-most-once; the dispatch core (queue → in-flight slot →
    /// answered) enforces at-least-once.
    fn respond(self, result: ServeResult) {
        // The client may have dropped its ticket; that's its business.
        let _ = self.tx.send(result);
    }
}

/// The caller's handle: resolves to exactly one [`ServeResult`].
pub struct Ticket {
    rx: mpsc::Receiver<ServeResult>,
}

impl Ticket {
    /// Block until the verdict arrives.
    pub fn wait(self) -> ServeResult {
        self.rx.recv().unwrap_or(Err(ServeError::Lost))
    }

    /// Block up to `timeout`; `None` means still in flight.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<ServeResult> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Some(r),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::Lost)),
        }
    }
}

/// Every number the ledger keeps: submissions, the outcome kinds (exactly
/// one per submitted request), and runtime events. Each mirrors the
/// `dar-obs` counter named by [`Count::obs_name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Count {
    Submitted,
    ServedFull,
    ServedDegraded,
    Rejected,
    QueueFull,
    Shed,
    DeadlineExceeded,
    Throttled,
    WorkerPanicked,
    Shutdown,
    Abandoned,
    Panics,
    Steals,
    StolenRequests,
    Stalls,
    Quarantines,
    Rejoins,
    Hedged,
}

const COUNTS: usize = Count::Hedged as usize + 1;

impl Count {
    pub fn obs_name(self) -> &'static str {
        match self {
            Count::Submitted => "serve.submitted",
            Count::ServedFull => "serve.served_full",
            Count::ServedDegraded => "serve.served_degraded",
            Count::Rejected => "serve.rejected",
            Count::QueueFull => "serve.queue_full",
            Count::Shed => "serve.shed",
            Count::DeadlineExceeded => "serve.deadline_exceeded",
            Count::Throttled => "serve.tenant_throttled",
            Count::WorkerPanicked => "serve.worker_panicked",
            Count::Shutdown => "serve.shutdown",
            Count::Abandoned => "serve.abandoned",
            Count::Panics => "serve.panics",
            Count::Steals => "serve.steals",
            Count::StolenRequests => "serve.stolen_requests",
            Count::Stalls => "serve.replica_stalls",
            Count::Quarantines => "serve.quarantines",
            Count::Rejoins => "serve.rejoins",
            Count::Hedged => "serve.hedged_requests",
        }
    }

    /// The outcome kind a failure verdict counts as.
    fn of_error(e: &ServeError) -> Count {
        match e {
            ServeError::Rejected(_) | ServeError::DegradedUnavailable => Count::Rejected,
            ServeError::QueueFull => Count::QueueFull,
            ServeError::DeadlineExceeded => Count::DeadlineExceeded,
            ServeError::Shed => Count::Shed,
            ServeError::TenantThrottled => Count::Throttled,
            ServeError::WorkerPanicked => Count::WorkerPanicked,
            ServeError::Shutdown => Count::Shutdown,
            ServeError::Abandoned => Count::Abandoned,
            ServeError::Lost => unreachable!("the runtime never answers Lost"),
        }
    }
}

/// How one request resolves.
pub(crate) enum Verdict {
    /// `Served(answer, slot, born)`: answered by replica `slot` from a
    /// batch that started at `born` (latency percentiles start there,
    /// after the queue wait).
    Served(ServeOutput, usize, Instant),
    Failed(ServeError),
}

/// Latency samples kept for exact percentiles; a long-lived server stops
/// sampling past this rather than grow without bound.
const LATENCY_SAMPLES: usize = 1_000_000;

/// The request ledger: outcome and event counters, latency samples, and
/// the per-replica health slots. Written lock-free except for the
/// latency samples, whose mutex is a leaf (nothing is locked under it).
pub(crate) struct Ledger {
    counts: [AtomicU64; COUNTS],
    samples_us: Mutex<Vec<u64>>,
    /// One heartbeat ledger + health state + counters per replica.
    pub replicas: Vec<HealthSlot>,
}

impl Ledger {
    pub fn new(replicas: usize) -> Self {
        Ledger {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            samples_us: Mutex::new(Vec::new()),
            replicas: (0..replicas).map(|_| HealthSlot::default()).collect(),
        }
    }

    /// Add `n` to a counter and its `dar-obs` mirror; returns the value
    /// before the add. Zero adds nothing, so an event that never happens
    /// never appears in a snapshot.
    pub fn count(&self, c: Count, n: u64) -> u64 {
        if n == 0 {
            return self.get(c);
        }
        dar_obs::add(c.obs_name(), n);
        self.counts[c as usize].fetch_add(n, Ordering::Relaxed)
    }

    pub fn get(&self, c: Count) -> u64 {
        self.counts[c as usize].load(Ordering::Relaxed)
    }

    /// Deliver one verdict: count its outcome kind, record a success's
    /// latency and replica, and answer the ticket. The only caller of
    /// `Pending::respond`.
    pub fn resolve(&self, p: Pending, verdict: Verdict) {
        let (kind, result) = match verdict {
            Verdict::Served(out, slot, born) => {
                let us = born.elapsed().as_micros() as u64;
                dar_obs::record_micros("serve/latency", us);
                self.replicas[slot].served.fetch_add(1, Ordering::Relaxed);
                let kind = [Count::ServedFull, Count::ServedDegraded][usize::from(out.degraded)];
                let mut lat = self.samples_us.lock().expect("latency samples poisoned");
                if lat.len() < LATENCY_SAMPLES {
                    lat.push(us);
                }
                (kind, Ok(out))
            }
            Verdict::Failed(e) => (Count::of_error(&e), Err(e)),
        };
        self.count(kind, 1);
        p.respond(result);
    }

    /// Resolve every `(request, error)` pair, e.g. the ones a dispatch
    /// core transition handed back.
    pub fn fail_all(&self, answers: impl IntoIterator<Item = (Pending, ServeError)>) {
        for (p, e) in answers {
            self.resolve(p, Verdict::Failed(e));
        }
    }

    /// Exact `(p50, p99, max)` over the successful answers so far, in µs.
    pub fn latency_percentiles(&self) -> (u64, u64, u64) {
        let mut lat = self
            .samples_us
            .lock()
            .expect("latency samples poisoned")
            .clone();
        if lat.is_empty() {
            return (0, 0, 0);
        }
        lat.sort_unstable();
        let pct = |p: f64| lat[((lat.len() as f64 - 1.0) * p).round() as usize];
        (pct(0.5), pct(0.99), lat[lat.len() - 1])
    }
}
