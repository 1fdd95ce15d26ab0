//! The request-ownership core (DESIGN.md §10, §14, §16): one thread-free
//! state machine that owns every admitted request until its verdict.
//!
//! A request is always in exactly one of three states:
//!
//! ```text
//! Queued(shard) ──claim/steal──▶ InFlight(replica, gen) ──complete──▶ answered
//!      │  ▲                              │
//!      │  └────────── hedge ─────────────┤ quarantine
//!      └── sweep / shutdown / quarantine ┴─ panic-drain / finish ──▶ answered
//! ```
//!
//! [`Core`] holds the shard queues, each replica's in-flight slot, the
//! worker generations and the quarantine mask, and lives behind a single
//! `Mutex` in the server. Its methods are the transitions. None of them
//! blocks, spawns, reads the clock or answers anybody: time-dependent
//! transitions take `now` as an argument, and every transition returns
//! the requests it decided, each with its typed verdict, for the caller
//! to resolve through the ledger once the lock is released. Because a
//! claimed batch is parked in the claimer's in-flight slot inside the
//! same critical section that takes it off a queue — including a batch
//! stolen from a sibling — there is no instant at which a request is
//! owned by two places or by none.
//!
//! A claim never waits for a batch to fill: a free replica takes what
//! its shard holds, up to its cap, at once. Batches grow only with the
//! backlog that builds while a replica is busy.
//!
//! Generations fence abandoned threads. Each worker holds the generation
//! it was started with; quarantine and the panic drain revoke it. A
//! revoked worker's `claim` returns [`Claim::Stop`] and its `complete`
//! returns `None`, so it can never answer a request twice.
//!
//! The core also routes a canary (DESIGN.md §13): while one routes, a
//! claimed batch is pure per arm and carries the [`Arm`] it was claimed
//! for, so only batches claimed while that canary routed count toward
//! it.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dar_data::Review;

use crate::canary::{routes_to_canary, Arm};
use crate::config::{HealthPolicy, ServeConfig};
use crate::health::{drain_verdict, DrainFate};
use crate::request::{Pending, ServeError};
use crate::router::route_tenant_healthy;

/// Requests a transition decided, each with the verdict to answer.
pub(crate) type Answers = Vec<(Pending, ServeError)>;

/// What [`Core::claim`] hands a replica.
pub(crate) enum Claim {
    /// A batch now parked in the caller's in-flight slot.
    Batch(Claimed),
    /// Nothing to claim or steal.
    Idle,
    /// The caller's generation was revoked, or the server is shutting
    /// down: the worker exits.
    Stop,
}

/// A parked batch, as the claiming worker sees it.
pub(crate) struct Claimed {
    /// The requests' reviews, in batch order.
    pub reviews: Vec<Arc<Review>>,
    /// Each request's queue wait, submission to claim.
    pub waited: Vec<Duration>,
    /// The canary arm every request in the batch belongs to, when a
    /// canary routed the claim.
    pub arm: Option<Arm>,
    /// The sibling shard the batch was stolen from, if it was.
    pub stolen_from: Option<usize>,
}

/// Where [`Core::submit`] queued a request, and which replicas to wake.
pub(crate) struct Admitted {
    pub shard: usize,
    /// The shard's queue just became non-empty, so its replica may be
    /// asleep on it; with anything already queued the replica is busy
    /// and claims the rest when it looks next.
    pub wake_home: bool,
    /// The backlog just reached the steal threshold: idle siblings, asleep
    /// on their own empty shards, should look now.
    pub wake_siblings: bool,
}

/// One replica: its queue shard, its in-flight slot and its generation.
#[derive(Default)]
#[cfg_attr(test, derive(Clone))]
struct Slot {
    queue: VecDeque<Pending>,
    inflight: Vec<Pending>,
    /// The authorized worker generation (0 = no worker).
    gen: u64,
}

#[cfg_attr(test, derive(Clone))]
pub(crate) struct Core {
    slots: Vec<Slot>,
    /// The routing canary's candidate version and slice modulus.
    canary: Option<(u64, u64)>,
    /// Newest candidate version whose routing stopped (a begin that lost
    /// a race to its own settle never routes).
    canary_stopped: u64,
    /// Bit `s` set = slot `s` quarantined (slots past 63 never are).
    quarantined: u64,
    next_gen: u64,
    open: bool,
    queue_cap: usize,
    tenant_cap: Option<usize>,
    /// Minimum sibling backlog a thief may steal from; `None` when
    /// stealing is off or there is nobody to steal from.
    steal_threshold: Option<usize>,
    health: HealthPolicy,
}

impl Core {
    pub fn new(cfg: &ServeConfig, replicas: usize) -> Self {
        Core {
            slots: (0..replicas).map(|_| Slot::default()).collect(),
            canary: None,
            canary_stopped: 0,
            quarantined: 0,
            next_gen: 1,
            open: true,
            queue_cap: cfg.queue_cap,
            tenant_cap: cfg.tenant_queue_cap(),
            steal_threshold: (cfg.steal && replicas > 1).then(|| cfg.steal_threshold()),
            health: cfg.health.clone(),
        }
    }

    /// Whether the server still admits requests (false after shutdown).
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Bitmask of quarantined slots.
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// Whether `slot` holds work — queued, or in flight with the latest
    /// deadline among its batch — for the watchdog's stall check.
    pub fn load(&self, slot: usize) -> (bool, Option<Instant>) {
        let s = &self.slots[slot];
        let latest = s.inflight.iter().map(|p| p.deadline).max();
        (!s.queue.is_empty(), latest)
    }

    /// Route one request in `modulus` to canary `version`'s candidate
    /// from the next claim on — unless that canary already stopped.
    pub fn route_canary(&mut self, version: u64, modulus: u64) {
        if version > self.canary_stopped {
            self.canary = Some((version, modulus));
        }
    }

    /// Stop routing canary `version`; a newer one keeps routing.
    pub fn stop_canary(&mut self, version: u64) {
        self.canary_stopped = self.canary_stopped.max(version);
        self.canary = self.canary.filter(|&(v, _)| v > version);
    }

    /// Authorize a fresh worker generation for `slot` (start and
    /// respawn) and make the slot routable again. Any previous
    /// generation is revoked.
    pub fn respawn(&mut self, slot: usize) -> u64 {
        let gen = self.next_gen;
        self.next_gen += 1;
        self.slots[slot].gen = gen;
        if slot < 64 {
            self.quarantined &= !(1u64 << slot);
        }
        gen
    }

    /// Admit `p` to its tenant's shard under health-aware routing, or
    /// hand it back with its admission verdict.
    pub fn submit(&mut self, p: Pending) -> Result<Admitted, Box<(Pending, ServeError)>> {
        if !self.open {
            return Err(Box::new((p, ServeError::Shutdown)));
        }
        let home = route_tenant_healthy(p.tenant, self.slots.len(), self.quarantined);
        let q = &mut self.slots[home].queue;
        if q.len() >= self.queue_cap {
            return Err(Box::new((p, ServeError::QueueFull)));
        }
        if let Some(cap) = self.tenant_cap {
            // O(queue_cap) scan, only when fairness is configured.
            if q.iter().filter(|o| o.tenant == p.tenant).count() >= cap {
                return Err(Box::new((p, ServeError::TenantThrottled)));
            }
        }
        q.push_back(p);
        let len = q.len();
        Ok(Admitted {
            shard: home,
            wake_home: len == 1,
            wake_siblings: self.steal_threshold == Some(len),
        })
    }

    /// Claim the next micro-batch of up to `cap` requests for `slot`'s
    /// worker `gen`, now: from its own shard after answering its expired
    /// requests, or — when that is empty — stolen whole from the longest
    /// sibling backlog past the steal threshold, answering expired
    /// requests found on the way. While a canary routes a batch takes
    /// only requests of its front request's arm.
    pub fn claim(&mut self, slot: usize, gen: u64, cap: usize, now: Instant) -> (Claim, Answers) {
        let mut answers = Vec::new();
        if !self.open || self.slots[slot].gen != gen {
            return (Claim::Stop, answers);
        }
        self.sweep_slot(slot, now, &mut answers);
        let (from, len) = match self.slots[slot].queue.len() {
            0 => match self.steal_victim(slot, now, &mut answers) {
                Some((victim, len)) => (victim, len),
                None => return (Claim::Idle, answers),
            },
            len => (slot, len),
        };
        let batch = self.park(slot, from, len.min(cap.max(1)), now);
        (Claim::Batch(batch), answers)
    }

    /// For idle `thief`: sweep every sibling's expired requests, then pick
    /// the longest backlog that clears the steal threshold.
    fn steal_victim(
        &mut self,
        thief: usize,
        now: Instant,
        answers: &mut Answers,
    ) -> Option<(usize, usize)> {
        let threshold = self.steal_threshold?;
        let mut best: Option<(usize, usize)> = None;
        for victim in (0..self.slots.len()).filter(|&v| v != thief) {
            self.sweep_slot(victim, now, answers);
            let len = self.slots[victim].queue.len();
            if len >= threshold && best.is_none_or(|(_, l)| len > l) {
                best = Some((victim, len));
            }
        }
        best
    }

    /// Move up to `n` requests off `from`'s queue front straight into
    /// `slot`'s in-flight slot, arm-pure while a canary routes.
    fn park(&mut self, slot: usize, from: usize, n: usize, now: Instant) -> Claimed {
        let queue = &mut self.slots[from].queue;
        let (batch, arm) = match self.canary {
            None => (queue.drain(..n).collect::<Vec<_>>(), None),
            Some((version, modulus)) => {
                let candidate = routes_to_canary(queue[0].seq, modulus);
                let mut batch = Vec::with_capacity(n);
                let mut rest = VecDeque::with_capacity(queue.len());
                for p in queue.drain(..) {
                    if batch.len() < n && routes_to_canary(p.seq, modulus) == candidate {
                        batch.push(p);
                    } else {
                        rest.push_back(p);
                    }
                }
                *queue = rest;
                (batch, Some(Arm { version, candidate }))
            }
        };
        let claimed = Claimed {
            reviews: batch.iter().map(|p| Arc::clone(&p.review)).collect(),
            waited: batch
                .iter()
                .map(|p| now.saturating_duration_since(p.submitted))
                .collect(),
            arm,
            stolen_from: (from != slot).then_some(from),
        };
        let inflight = &mut self.slots[slot].inflight;
        debug_assert!(inflight.is_empty(), "a worker claims only with empty hands");
        *inflight = batch;
        claimed
    }

    /// Take `slot`'s in-flight batch back for answering — only while
    /// `gen` still owns the slot. `None` means the generation was
    /// revoked: its requests were already answered elsewhere, and the
    /// worker must discard what it computed.
    pub fn complete(&mut self, slot: usize, gen: u64) -> Option<Vec<Pending>> {
        self.take_inflight(slot, gen, false)
    }

    /// A worker of `slot` died: if `gen` is still the slot's generation,
    /// revoke it and answer its in-flight batch `WorkerPanicked`. `None`
    /// means a stale generation — a quarantined zombie finally unwinding,
    /// whose slot already belongs to a successor.
    pub fn panic_drain(&mut self, slot: usize, gen: u64) -> Option<Answers> {
        let batch = self.take_inflight(slot, gen, true)?;
        Some(
            batch
                .into_iter()
                .map(|p| (p, ServeError::WorkerPanicked))
                .collect(),
        )
    }

    /// The one way a batch leaves an in-flight slot: only for the
    /// generation that owns it, optionally revoking that generation.
    fn take_inflight(&mut self, slot: usize, gen: u64, revoke: bool) -> Option<Vec<Pending>> {
        let s = &mut self.slots[slot];
        if s.gen != gen {
            return None;
        }
        if revoke {
            s.gen = 0;
        }
        Some(std::mem::take(&mut s.inflight))
    }

    /// Condemn `slot` in one step: revoke its generation, detour routing
    /// around it, and give everything it held — in flight and queued — a
    /// fate: the deadline verdict when its budget is gone, a hedged
    /// re-dispatch onto a healthy sibling while budget remains (one hedge
    /// per request), `Abandoned` otherwise. Returns the answers and the
    /// shard each hedged request moved to.
    pub fn quarantine(&mut self, slot: usize, now: Instant) -> (Answers, Vec<usize>) {
        let gen = self.slots[slot].gen;
        let mut stranded = self.take_inflight(slot, gen, true).unwrap_or_default();
        stranded.extend(self.slots[slot].queue.drain(..));
        if slot < 64 {
            self.quarantined |= 1u64 << slot;
        }
        let (mut answers, mut hedges) = (Vec::new(), Vec::new());
        for p in stranded {
            hedges.extend(self.hedge(slot, p, now, &mut answers));
        }
        (answers, hedges)
    }

    /// Re-dispatch one request stranded on quarantined `from`: queue it
    /// on the tenant's healthy detour past `queue_cap` and fair-share (a
    /// displaced victim is not a new arrival) and return that shard, or
    /// answer it.
    fn hedge(
        &mut self,
        from: usize,
        mut p: Pending,
        now: Instant,
        answers: &mut Answers,
    ) -> Option<usize> {
        let target = route_tenant_healthy(p.tenant, self.slots.len(), self.quarantined);
        let has_target =
            target != from && !(target < 64 && self.quarantined & (1u64 << target) != 0);
        let remaining = p.deadline.checked_duration_since(now);
        let verdict = match drain_verdict(remaining, p.hedged, has_target, &self.health) {
            DrainFate::Expired => ServeError::DeadlineExceeded,
            DrainFate::Abandon => ServeError::Abandoned,
            DrainFate::Hedge if !self.open => ServeError::Shutdown,
            DrainFate::Hedge => {
                p.hedged = true;
                self.slots[target].queue.push_back(p);
                return Some(target);
            }
        };
        answers.push((p, verdict));
        None
    }

    /// Answer every queued request whose deadline has passed, whatever
    /// the state of its shard's owner.
    pub fn sweep(&mut self, now: Instant) -> Answers {
        let mut answers = Vec::new();
        for slot in 0..self.slots.len() {
            self.sweep_slot(slot, now, &mut answers);
        }
        answers
    }

    fn sweep_slot(&mut self, slot: usize, now: Instant, answers: &mut Answers) {
        let queue = &mut self.slots[slot].queue;
        if queue.iter().any(|p| p.expired(now)) {
            let (expired, live): (VecDeque<_>, VecDeque<_>) = std::mem::take(queue)
                .into_iter()
                .partition(|p| p.expired(now));
            *queue = live;
            answers.extend(
                expired
                    .into_iter()
                    .map(|p| (p, ServeError::DeadlineExceeded)),
            );
        }
    }

    /// Stop admitting and answer every queued request `Shutdown`.
    /// In-flight batches stay with their workers, which finish them.
    pub fn shutdown(&mut self) -> Answers {
        self.open = false;
        let mut answers = Vec::new();
        for s in &mut self.slots {
            answers.extend(s.queue.drain(..).map(|p| (p, ServeError::Shutdown)));
        }
        answers
    }

    /// After every worker has been joined: whatever is still in flight
    /// belonged to a worker that died unprocessed (`WorkerPanicked`).
    pub fn finish(&mut self) -> Answers {
        let mut answers = self.shutdown();
        for slot in 0..self.slots.len() {
            let gen = self.slots[slot].gen;
            let batch = self.take_inflight(slot, gen, true).unwrap_or_default();
            answers.extend(batch.into_iter().map(|p| (p, ServeError::WorkerPanicked)));
        }
        answers
    }
}

#[cfg(test)]
mod tests;
