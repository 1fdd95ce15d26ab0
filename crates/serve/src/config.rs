//! Serving runtime knobs.

use std::time::Duration;

use crate::breaker::BreakerPolicy;

/// Configuration for [`Server::start`](crate::Server::start).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Replica pools. Each replica owns a full model copy, one bounded
    /// queue shard, and one micro-batcher thread; tenants are hashed
    /// onto shards by [`route_tenant`](crate::router::route_tenant).
    /// `0` derives a budget from the `dar-par` thread policy
    /// (`DAR_THREADS`, clamped to 4) — this is a memory knob as much as
    /// a CPU one.
    pub replicas: usize,
    /// Bounded queue depth *per shard*; submissions beyond it get
    /// `QueueFull` on their home shard (sharded admission — a hot shard
    /// pushes back without starving siblings).
    pub queue_cap: usize,
    /// Most requests one micro-batch carries. A replica claims what its
    /// shard holds, up to this many, the moment it is free: it never
    /// waits for a batch to fill, so batches grow only with the backlog
    /// that builds while it is busy.
    pub max_batch: usize,
    /// Deadline for [`submit`](crate::Server::submit).
    pub default_deadline: Duration,
    /// Vocabulary bound for admission checks.
    pub vocab_size: usize,
    /// Token-length cap for admission checks.
    pub max_len: usize,
    /// Breaker thresholds.
    pub breaker: BreakerPolicy,
    /// When a worker panic's payload contains this marker, the worker
    /// thread dies for real (exercising supervisor respawn) instead of
    /// recovering in place. Chaos-test hook; leave `None` in production.
    pub lethal_panic_marker: Option<String>,
    /// Work stealing between replica queues (DESIGN.md §14): an idle
    /// replica whose own shard is empty takes one whole micro-batch off
    /// the front of the longest sibling queue holding more than one full
    /// batch ([`steal_threshold`](Self::steal_threshold)). `false` pins
    /// every request to its home replica.
    pub steal: bool,
    /// Per-tenant fair-share admission, as a fraction of `queue_cap` a
    /// single tenant may occupy in its home shard. `None` disables the
    /// check (the default — single-tenant traffic is the common case).
    /// Submissions past the cap get `TenantThrottled`.
    pub tenant_fair_share: Option<f32>,
    /// Heartbeat watchdog: stall detection, quarantine, and hedged
    /// re-dispatch for wedged (non-panicking) replicas (DESIGN.md §16).
    pub health: HealthPolicy,
}

/// Watchdog policy for the self-healing layer (DESIGN.md §16). Workers
/// bump a per-replica progress counter at claim/batch/respond
/// boundaries; the supervisor's poll loop doubles as the watchdog tick
/// and walks each replica through `Healthy → Suspect → Quarantined →
/// Probation → Healthy`. The stall budget alone makes a replica
/// *Suspect*; quarantine additionally waits out the deadline-aware
/// grace, so a replica legitimately busy on a huge batch (whose
/// requests still have deadline budget) is never condemned for being
/// slow — only for being silent *past the point its work could still
/// matter*.
#[derive(Debug, Clone)]
pub struct HealthPolicy {
    /// Missed-heartbeat budget: a replica holding work (queued or
    /// in-flight) whose progress counter is silent this long becomes
    /// `Suspect`.
    pub stall_budget: Duration,
    /// Deadline-aware grace: a Suspect replica is `Quarantined` only
    /// once its in-flight requests' latest deadline (plus this grace)
    /// has also passed — "busy on a huge batch" keeps its slot as long
    /// as the batch could still answer within deadline. A Suspect with
    /// *no* in-flight work (wedged between batches while its queue
    /// backs up) is quarantined after `stall_budget + deadline_grace`.
    pub deadline_grace: Duration,
    /// Successful batches a respawned replica must serve in `Probation`
    /// before it is declared `Healthy` again (`replica_rejoined`). `0`
    /// rejoins immediately at respawn.
    pub probation_probes: u64,
    /// Minimum remaining deadline budget for a drained request to be
    /// hedged to a healthy sibling instead of abandoned — re-dispatch
    /// below this is wasted compute.
    pub hedge_min_budget: Duration,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            stall_budget: Duration::from_secs(2),
            deadline_grace: Duration::from_millis(500),
            probation_probes: 2,
            hedge_min_budget: Duration::from_millis(1),
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            replicas: 0,
            queue_cap: 256,
            max_batch: 16,
            default_deadline: Duration::from_secs(5),
            vocab_size: usize::MAX,
            max_len: 512,
            breaker: BreakerPolicy::default(),
            lethal_panic_marker: None,
            steal: true,
            tenant_fair_share: None,
            health: HealthPolicy::default(),
        }
    }
}

impl ServeConfig {
    /// Effective replica count.
    pub fn effective_replicas(&self) -> usize {
        if self.replicas > 0 {
            self.replicas
        } else {
            dar_par::max_threads().clamp(1, 4)
        }
    }

    /// Backlog a sibling must hold before it can be stolen from: one
    /// past a full batch, so a victim with at most one batch queued is
    /// left alone and strictly sequential traffic (submit → wait →
    /// submit) never experiences a steal, which keeps the obs journal
    /// byte-deterministic at any replica count.
    pub fn steal_threshold(&self) -> usize {
        self.max_batch.max(1) + 1
    }

    /// Queued requests one tenant may hold in its home shard, when
    /// fair-share admission is configured.
    pub fn tenant_queue_cap(&self) -> Option<usize> {
        self.tenant_fair_share.map(|share| {
            let cap = (self.queue_cap as f32 * share.clamp(0.0, 1.0)).ceil() as usize;
            cap.max(1)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_threshold_is_one_past_a_full_batch() {
        let cfg = ServeConfig {
            max_batch: 8,
            ..ServeConfig::default()
        };
        assert_eq!(cfg.steal_threshold(), 9);
        let unbatched = ServeConfig {
            max_batch: 0,
            ..cfg
        };
        assert_eq!(unbatched.steal_threshold(), 2, "a batch holds at least one");
    }

    #[test]
    fn tenant_queue_cap_is_a_clamped_ceil_share() {
        let cfg = ServeConfig {
            queue_cap: 16,
            tenant_fair_share: Some(0.25),
            ..ServeConfig::default()
        };
        assert_eq!(cfg.tenant_queue_cap(), Some(4));
        let tiny = ServeConfig {
            queue_cap: 16,
            tenant_fair_share: Some(0.0001),
            ..ServeConfig::default()
        };
        assert_eq!(tiny.tenant_queue_cap(), Some(1), "never caps below 1");
        let off = ServeConfig::default();
        assert_eq!(off.tenant_queue_cap(), None);
    }
}
