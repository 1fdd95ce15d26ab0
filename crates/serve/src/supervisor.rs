//! The supervisor thread: death respawn, the heartbeat watchdog, and the
//! deadline sweep (DESIGN.md §10, §16).
//!
//! One poll loop serves three purposes. It receives the death notices of
//! workers that unwound and respawns them under a bounded exponential
//! backoff. Every tick it sweeps expired requests off every shard, so a
//! queue whose owner is wedged or mid-backoff still gets its deadline
//! verdicts. And it is the watchdog tick, walking each replica through
//!
//! ```text
//! Healthy → Suspect → Quarantined → Probation → Healthy
//! ```
//!
//! on the pure verdicts of `health.rs`. Quarantine itself is one dispatch
//! core transition: the wedged worker's generation is revoked, routing
//! detours around its shard, and everything it held is expired, hedged or
//! abandoned in the same critical section.

use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dar_obs::ObsEvent;

use crate::canary::splitmix64;
use crate::health::{classify_stall, HealthState, StallVerdict};
use crate::request::Count;
use crate::server::{ModelFactory, Shared};
use crate::worker;

/// The supervisor's poll interval: watchdog tick and deadline sweep.
const TICK: Duration = Duration::from_millis(20);

/// First respawn delay of a crash streak.
const RESPAWN_BASE: Duration = Duration::from_millis(10);
/// Respawn delay ceiling, before jitter.
const RESPAWN_CAP: Duration = Duration::from_millis(500);
/// A worker surviving this long ends its slot's crash streak.
const RESPAWN_RESET_AFTER: Duration = Duration::from_secs(5);
/// Seed of the deterministic respawn jitter.
const RESPAWN_JITTER_SEED: u64 = 0xDA2_B0FF;

/// Supervisor-local per-slot bookkeeping. The shared, worker-visible side
/// lives in [`HealthSlot`](crate::health::HealthSlot); this is the
/// supervisor's view of each slot's heartbeat history and pending
/// transitions.
struct SlotWatch {
    /// Live worker thread (`None`: dead or quarantined, respawn pending).
    handle: Option<JoinHandle<()>>,
    /// Last progress-counter value the watchdog observed.
    last_counter: u64,
    /// When the counter last moved (or the replica was last idle).
    last_progress_at: Instant,
    /// A stall episode is open (`replica_stalled` already emitted).
    suspect: bool,
    /// Probation probes still owed before rejoin (0 = not probing).
    probes_pending: u64,
    /// `ok_batches` reading when probation began.
    probation_base: u64,
    /// Scheduled respawn (death backoff or quarantine backoff).
    respawn_at: Option<Instant>,
    /// The pending respawn rejoins through probation (quarantine path)
    /// instead of directly (plain-death path).
    respawn_probation: bool,
    /// Respawns since the last quiet period, driving the backoff.
    attempts: u32,
    last_death: Option<Instant>,
}

pub(crate) struct Supervisor {
    shared: Arc<Shared>,
    factory: ModelFactory,
    death_tx: mpsc::Sender<(usize, u64)>,
    death_rx: mpsc::Receiver<(usize, u64)>,
    watch: Vec<SlotWatch>,
}

impl Supervisor {
    /// Start one worker per replica slot and take charge of them.
    pub fn start(shared: Arc<Shared>, factory: ModelFactory) -> Self {
        let (death_tx, death_rx) = mpsc::channel();
        let now = Instant::now();
        let watch = (0..shared.ledger.replicas.len())
            .map(|slot| SlotWatch {
                handle: Some(worker::start(&shared, &factory, slot, &death_tx)),
                last_counter: 0,
                last_progress_at: now,
                suspect: false,
                probes_pending: 0,
                probation_base: 0,
                respawn_at: None,
                respawn_probation: false,
                attempts: 0,
                last_death: None,
            })
            .collect();
        Supervisor {
            shared,
            factory,
            death_tx,
            death_rx,
            watch,
        }
    }

    /// The poll loop, until shutdown; then join every worker and give
    /// whatever is left its terminal verdict.
    pub fn run(mut self) {
        loop {
            match self.death_rx.recv_timeout(TICK) {
                Ok((slot, gen)) => self.on_death(slot, gen),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
            let now = Instant::now();
            let (expired, open) = {
                let mut core = self.shared.core();
                (core.sweep(now), core.is_open())
            };
            self.shared.ledger.fail_all(expired);
            if !open {
                break;
            }
            self.respawn_due(now);
            self.watchdog(now);
        }
        // Shutdown: join workers (each finishes its in-flight batch), then
        // drain late deaths and whatever a dead worker left in flight.
        for w in &mut self.watch {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
        let mut core = self.shared.core();
        let mut answers = Vec::new();
        while let Ok((slot, gen)) = self.death_rx.try_recv() {
            answers.extend(core.panic_drain(slot, gen).unwrap_or_default());
        }
        answers.extend(core.finish());
        drop(core);
        self.shared.ledger.fail_all(answers);
    }

    /// A worker unwound: collect it, answer its in-flight batch, and
    /// schedule its respawn — unless the generation is stale (a
    /// quarantined zombie finally dying; its slot has a successor).
    fn on_death(&mut self, slot: usize, gen: u64) {
        let (victims, open) = {
            let mut core = self.shared.core();
            (core.panic_drain(slot, gen), core.is_open())
        };
        let Some(victims) = victims else { return };
        if let Some(h) = self.watch[slot].handle.take() {
            let _ = h.join(); // collect the corpse (ignore payload)
        }
        self.shared.ledger.fail_all(victims);
        if open {
            self.schedule_respawn(slot, Instant::now(), false);
        }
    }

    /// Schedule `slot`'s replacement under the respawn backoff. Attempts
    /// since the last quiet period drive a bounded exponential delay, so
    /// a crash-looping replica cannot spin the supervisor. The backoff is
    /// a scheduled respawn, not a sleep: the poll loop stays live for
    /// every other slot.
    fn schedule_respawn(&mut self, slot: usize, now: Instant, probation: bool) {
        let w = &mut self.watch[slot];
        if w.last_death
            .is_some_and(|prev| now.duration_since(prev) > RESPAWN_RESET_AFTER)
        {
            w.attempts = 0;
        }
        w.last_death = Some(now);
        w.attempts += 1;
        let delay = respawn_delay(slot, w.attempts);
        dar_obs::event(ObsEvent::RespawnBackoff {
            slot: slot as u64,
            attempt: w.attempts as u64,
            delay_ms: delay.as_millis() as u64,
        });
        dar_obs::inc("serve.respawn_backoffs");
        w.respawn_at = Some(now + delay);
        w.respawn_probation = probation;
    }

    /// Start replacements whose backoff has elapsed. A replacement for a
    /// quarantined replica serves on probation: its shard is routable
    /// again at once (probes *are* real traffic), but it rejoins the
    /// healthy set only after `probation_probes` good batches.
    fn respawn_due(&mut self, now: Instant) {
        for slot in 0..self.watch.len() {
            if self.watch[slot].respawn_at.is_none_or(|due| now < due) {
                continue;
            }
            let handle = worker::start(&self.shared, &self.factory, slot, &self.death_tx);
            let h = &self.shared.ledger.replicas[slot];
            let w = &mut self.watch[slot];
            w.handle = Some(handle);
            w.respawn_at = None;
            w.last_counter = h.progress.load(Ordering::Relaxed);
            w.last_progress_at = now;
            w.suspect = false;
            if std::mem::take(&mut w.respawn_probation) {
                w.probation_base = h.ok_batches.load(Ordering::Relaxed);
                w.probes_pending = self.shared.cfg.health.probation_probes;
                h.set_state(HealthState::Probation);
                self.try_rejoin(slot);
            } else {
                h.set_state(HealthState::Healthy);
            }
        }
    }

    /// Probation ends once the replica has answered enough batches since
    /// its respawn: it rejoins the healthy set.
    fn try_rejoin(&mut self, slot: usize) {
        let h = &self.shared.ledger.replicas[slot];
        let w = &mut self.watch[slot];
        let ok_batches = h.ok_batches.load(Ordering::Relaxed);
        if ok_batches.saturating_sub(w.probation_base) < w.probes_pending {
            return;
        }
        w.probes_pending = 0;
        h.set_state(HealthState::Healthy);
        self.shared.ledger.count(Count::Rejoins, 1);
        dar_obs::event(ObsEvent::ReplicaRejoined { slot: slot as u64 });
    }

    /// Reset `slot`'s stall clock and close any open stall episode.
    fn progressed(&mut self, slot: usize, now: Instant) {
        let w = &mut self.watch[slot];
        w.last_progress_at = now;
        if std::mem::take(&mut w.suspect) {
            self.shared.ledger.replicas[slot].set_state(if w.probes_pending > 0 {
                HealthState::Probation
            } else {
                HealthState::Healthy
            });
        }
    }

    /// The watchdog tick proper.
    fn watchdog(&mut self, now: Instant) {
        let shared = Arc::clone(&self.shared);
        let pol = &shared.cfg.health;
        for slot in 0..self.watch.len().min(64) {
            if self.watch[slot].handle.is_none() {
                continue; // no worker: dead or quarantined, respawn pending
            }
            if self.watch[slot].probes_pending > 0 {
                self.try_rejoin(slot);
            }
            let h = &shared.ledger.replicas[slot];
            let cur = h.progress.load(Ordering::Relaxed);
            if cur != self.watch[slot].last_counter {
                self.watch[slot].last_counter = cur;
                self.progressed(slot, now);
                continue;
            }
            // Silent — but only silence *while holding work* counts: an
            // idle replica has nothing to heartbeat about.
            let (queued, latest_deadline) = shared.core().load(slot);
            if !queued && latest_deadline.is_none() {
                self.progressed(slot, now);
                continue;
            }
            let w = &mut self.watch[slot];
            let verdict = classify_stall(now, w.last_progress_at, latest_deadline, pol);
            if verdict == StallVerdict::Fine {
                continue;
            }
            if !w.suspect {
                // Healthy → Suspect (also on the way to quarantine, so
                // the journal always shows the full walk).
                w.suspect = true;
                h.set_state(HealthState::Suspect);
                shared.ledger.count(Count::Stalls, 1);
                dar_obs::event(ObsEvent::ReplicaStalled { slot: slot as u64 });
            }
            if verdict == StallVerdict::Quarantine {
                self.quarantine(slot, now);
            }
        }
    }

    /// Suspect → Quarantined: abandon the wedged thread (it may never
    /// unwind, so it is disowned, not joined), let the core revoke,
    /// reroute and drain in one step, and schedule a replacement on
    /// probation.
    fn quarantine(&mut self, slot: usize, now: Instant) {
        let shared = Arc::clone(&self.shared);
        let h = &shared.ledger.replicas[slot];
        self.watch[slot].suspect = false;
        drop(self.watch[slot].handle.take());
        h.set_state(HealthState::Quarantined);
        h.quarantines.fetch_add(1, Ordering::Relaxed);
        shared.ledger.count(Count::Quarantines, 1);
        dar_obs::event(ObsEvent::ReplicaQuarantined { slot: slot as u64 });

        let (answers, hedges) = shared.core().quarantine(slot, now);
        for &to in &hedges {
            shared.wake[to].notify_one();
            dar_obs::event(ObsEvent::RequestHedged {
                from: slot as u64,
                to: to as u64,
            });
        }
        let hedged = hedges.len() as u64;
        shared.ledger.count(Count::Hedged, hedged);
        h.hedged_away.fetch_add(hedged, Ordering::Relaxed);
        shared.ledger.fail_all(answers);

        // A canary window spanning a quarantine is void. Only mark the
        // run: the controller thread settles it and journals the verdict.
        if let Some(run) = shared.canary.lock().unwrap().as_mut() {
            run.interrupt();
        }
        self.schedule_respawn(slot, now, true);
    }
}

/// Backoff for respawn `attempt` (1-based) of `slot`:
/// `min(RESPAWN_BASE · 2^(attempt-1), RESPAWN_CAP)` plus up to +25%
/// jitter from a splitmix64 of `(RESPAWN_JITTER_SEED, slot, attempt)` —
/// deterministic, so a chaos replay sees the identical schedule.
fn respawn_delay(slot: usize, attempt: u32) -> Duration {
    let exp = attempt.saturating_sub(1).min(16);
    let base = RESPAWN_BASE.saturating_mul(1u32 << exp).min(RESPAWN_CAP);
    let x = splitmix64(
        RESPAWN_JITTER_SEED
            .wrapping_add((slot as u64) << 32)
            .wrapping_add(attempt as u64),
    );
    let span = base.as_micros() as u64 / 4;
    let jitter = if span == 0 { 0 } else { x % (span + 1) };
    base + Duration::from_micros(jitter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respawn_backoff_is_bounded_exponential_and_deterministic() {
        let (base, cap) = (RESPAWN_BASE, RESPAWN_CAP);
        let d1 = respawn_delay(0, 1);
        let d2 = respawn_delay(0, 2);
        let d8 = respawn_delay(0, 8);
        assert!(d1 >= base && d1 <= base + base / 4);
        assert!(d2 > d1, "second attempt backs off further");
        assert!(d8 <= cap + cap / 4, "cap bounds the schedule: {d8:?}");
        // Seeded jitter: same inputs, same delay; different slot differs.
        assert_eq!(respawn_delay(0, 3), respawn_delay(0, 3));
        assert_ne!(respawn_delay(0, 3), respawn_delay(1, 3));
        // Attempt counts far past the cap do not overflow.
        assert!(respawn_delay(2, 1_000) <= cap + cap / 4);
        // The schedule itself, in microseconds: slot 0, attempts 1–8.
        let slot0: Vec<u128> = (1..=8).map(|a| respawn_delay(0, a).as_micros()).collect();
        let pinned = [
            11_721, 23_017, 46_675, 81_948, 193_276, 340_784, 554_877, 615_297,
        ];
        assert_eq!(slot0, pinned);
    }
}
