//! Thread-free checks of the dispatch core: an exhaustive search of a
//! small configuration and seeded random interleavings of a larger one.

use std::collections::HashSet;

use super::*;
use crate::canary::{routes_to_canary, splitmix64};
use crate::request::{Count, Ledger, ServeOutput, ServeResult, Ticket, Verdict};
use crate::router::route_tenant;

/// Steal threshold 2 (`max_batch + 1`). The core reads `max_batch`
/// for nothing else: each claim names its own cap.
fn cfg(queue_cap: usize) -> ServeConfig {
    ServeConfig {
        queue_cap,
        max_batch: 1,
        ..ServeConfig::default()
    }
}

/// The first tenant whose home shard among `n` is `shard`.
fn tenant_on(shard: usize, n: usize) -> u64 {
    (0..).find(|&t| route_tenant(t, n) == shard).unwrap()
}

fn request(seq: u64, tenant: u64, deadline: Duration) -> (Pending, Ticket) {
    let review = Review {
        ids: vec![1, 2, 3],
        label: 0,
        rationale: vec![false; 3],
        first_sentence_end: 1,
    };
    Pending::new(review, deadline, seq, tenant)
}

/// One held request: its seq and whether it was hedged.
type Held = Vec<(u64, bool)>;

impl Core {
    /// Test-only view of each slot: queue, in-flight batch, and whether
    /// a generation is live.
    fn view(&self) -> Vec<(Held, Held, bool)> {
        let held = |ps: &mut dyn Iterator<Item = &Pending>| -> Held {
            ps.map(|p| (p.seq, p.hedged)).collect()
        };
        self.slots
            .iter()
            .map(|s| {
                (
                    held(&mut s.queue.iter()),
                    held(&mut s.inflight.iter()),
                    s.gen != 0,
                )
            })
            .collect()
    }

    /// How many places hold each request seq (must be 0 or 1).
    fn holders(&self, n: usize) -> Vec<usize> {
        let mut count = vec![0; n];
        for (queue, inflight, _) in self.view() {
            for (seq, _) in queue.into_iter().chain(inflight) {
                count[seq as usize] += 1;
            }
        }
        count
    }
}

/// A replica thread as the model sees it (its generation, if live).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Worker {
    Gone,
    Idle(u64),
    Holding(u64),
}

impl Worker {
    fn kind(self) -> u8 {
        match self {
            Worker::Gone => 0,
            Worker::Idle(_) => 1,
            Worker::Holding(_) => 2,
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Event {
    Submit(usize),
    /// Claim from the own shard, or steal when it is empty.
    Claim(usize),
    /// The live worker completes with its current generation.
    Complete(usize),
    /// A quarantined zombie comes back with its revoked generation.
    ZombieReturns(usize),
    PanicDrain(usize),
    /// Quarantine, hedging what still has deadline budget.
    Quarantine(usize),
    Respawn(usize),
    /// Time jumps past the short deadline and the supervisor sweeps.
    SweepLater,
    Shutdown,
}

const REQS: usize = 3;
const SLOTS: usize = 2;

/// The exhaustive model: 3 requests (two tenants homed on shard 0,
/// one on shard 1; the first with a deadline that a later sweep finds
/// expired), 2 replicas, queue cap 2, batch cap 2, steal threshold 2.
#[derive(Clone)]
struct World {
    core: Core,
    late: bool,
    closed: bool,
    submitted: [bool; REQS],
    answered: [u8; REQS],
    workers: [Worker; SLOTS],
    zombies: [Worker; SLOTS],
}

impl World {
    fn record(&mut self, answers: Answers) {
        for (p, _) in answers {
            self.answered[p.seq as usize] += 1;
        }
    }

    fn events(&self) -> Vec<Event> {
        let mut evs = Vec::new();
        for r in 0..REQS {
            if !self.submitted[r] {
                evs.push(Event::Submit(r));
            }
        }
        for s in 0..SLOTS {
            match self.workers[s] {
                Worker::Idle(_) => evs.push(Event::Claim(s)),
                Worker::Holding(_) => evs.push(Event::Complete(s)),
                Worker::Gone if !self.closed => evs.push(Event::Respawn(s)),
                Worker::Gone => {}
            }
            if self.workers[s] != Worker::Gone {
                evs.push(Event::PanicDrain(s));
                if self.zombies[s] == Worker::Gone && !self.closed {
                    evs.push(Event::Quarantine(s));
                }
            }
            if self.zombies[s] != Worker::Gone {
                evs.push(Event::ZombieReturns(s));
            }
        }
        if !self.late {
            evs.push(Event::SweepLater);
        }
        if !self.closed {
            evs.push(Event::Shutdown);
        }
        evs
    }

    fn apply(&mut self, ev: Event, reqs: &[Pending], early: Instant, late: Instant) {
        let now = if self.late { late } else { early };
        match ev {
            Event::Submit(r) => {
                self.submitted[r] = true;
                if let Err(refused) = self.core.submit(reqs[r].clone()) {
                    self.record(vec![*refused]);
                }
            }
            Event::Claim(s) => {
                let Worker::Idle(gen) = self.workers[s] else {
                    unreachable!()
                };
                let (claim, answers) = self.core.claim(s, gen, 2, now);
                self.record(answers);
                match claim {
                    Claim::Batch(b) => {
                        assert!(!b.reviews.is_empty() && b.reviews.len() <= 2);
                        assert_eq!(b.reviews.len(), self.core.slots[s].inflight.len());
                        self.workers[s] = Worker::Holding(gen);
                    }
                    Claim::Stop => {
                        assert!(self.closed, "a live generation stops only at shutdown");
                        self.workers[s] = Worker::Gone;
                    }
                    Claim::Idle => {}
                }
            }
            Event::Complete(s) => {
                let Worker::Holding(gen) = self.workers[s] else {
                    unreachable!()
                };
                let batch = self
                    .core
                    .complete(s, gen)
                    .expect("the owner gets its batch");
                for p in batch {
                    self.answered[p.seq as usize] += 1;
                }
                self.workers[s] = Worker::Idle(gen);
            }
            Event::ZombieReturns(s) => {
                match self.zombies[s] {
                    Worker::Holding(gen) => assert!(
                        self.core.complete(s, gen).is_none(),
                        "a revoked generation's complete returns nothing"
                    ),
                    Worker::Idle(gen) => assert!(matches!(
                        self.core.claim(s, gen, 2, now),
                        (Claim::Stop, ref a) if a.is_empty()
                    )),
                    Worker::Gone => unreachable!(),
                }
                self.zombies[s] = Worker::Gone;
            }
            Event::PanicDrain(s) => {
                let (Worker::Idle(gen) | Worker::Holding(gen)) = self.workers[s] else {
                    unreachable!()
                };
                let answers = self.core.panic_drain(s, gen).expect("live generation");
                self.record(answers);
                assert!(self.core.panic_drain(s, gen).is_none(), "drains once");
                self.workers[s] = Worker::Gone;
            }
            Event::Quarantine(s) => {
                let (answers, _) = self.core.quarantine(s, now);
                self.record(answers);
                self.zombies[s] = self.workers[s];
                self.workers[s] = Worker::Gone;
            }
            Event::Respawn(s) => {
                self.workers[s] = Worker::Idle(self.core.respawn(s));
            }
            Event::SweepLater => {
                self.late = true;
                let answers = self.core.sweep(late);
                self.record(answers);
            }
            Event::Shutdown => {
                self.closed = true;
                let answers = self.core.shutdown();
                self.record(answers);
            }
        }
    }

    /// Every submitted request is held in exactly one place or was
    /// answered exactly once; nothing else is anywhere. Summed over
    /// requests this is the ledger: submitted == answered + held.
    fn check(&self, trail: &[Event]) {
        let holders = self.core.holders(REQS);
        for (r, held) in holders.iter().enumerate() {
            assert_eq!(
                held + usize::from(self.answered[r]),
                usize::from(self.submitted[r]),
                "request {r} after {trail:?}: held {held} times, answered {} times",
                self.answered[r]
            );
        }
        if self.closed {
            assert!(self.core.view().iter().all(|(q, ..)| q.is_empty()));
        }
    }

    /// What a shutdown leaves for the end: live workers finish their
    /// batches, then the core's final drain. Every submitted request
    /// must then be answered exactly once.
    fn check_drains(&self, trail: &[Event]) {
        let mut end = self.clone();
        for s in 0..SLOTS {
            if let Worker::Holding(gen) = end.workers[s] {
                for p in end.core.complete(s, gen).unwrap() {
                    end.answered[p.seq as usize] += 1;
                }
            }
        }
        let answers = end.core.finish();
        end.record(answers);
        let submitted = end.submitted.iter().filter(|&&s| s).count();
        let answered: usize = end.answered.iter().map(|&a| usize::from(a)).sum();
        assert_eq!(submitted, answered, "ledger after {trail:?}");
        for r in 0..REQS {
            assert_eq!(
                end.answered[r],
                u8::from(end.submitted[r]),
                "after {trail:?}"
            );
        }
    }

    /// The state up to generation numbers, which matter only by
    /// equality (a live worker's is its slot's; a zombie's is stale).
    fn key(&self) -> String {
        format!(
            "{:?}",
            (
                self.late,
                self.closed,
                self.submitted,
                self.answered,
                self.workers.map(Worker::kind),
                self.zombies.map(Worker::kind),
                self.core.quarantined,
                self.core.view()
            )
        )
    }
}

/// Breadth-first over every reachable state of 3 requests × 2
/// replicas under every core event, deduplicated by `World::key`:
/// 49,368 distinct states reached over 310,041 transitions. Every
/// transition is checked for exactly-one-place ownership, and every
/// closed state for a drain that answers each request exactly once.
#[test]
fn exhaustive_three_requests_two_replicas() {
    let (a, b) = (tenant_on(0, SLOTS), tenant_on(1, SLOTS));
    let deadlines = [
        Duration::from_secs(1),
        Duration::from_secs(3600),
        Duration::from_secs(3600),
    ];
    let reqs: Vec<Pending> = [a, a, b]
        .into_iter()
        .zip(deadlines)
        .enumerate()
        .map(|(seq, (tenant, d))| request(seq as u64, tenant, d).0)
        .collect();
    let early = reqs.iter().map(|p| p.submitted).max().unwrap();
    let late = early + Duration::from_secs(10);

    let mut core = Core::new(&cfg(2), SLOTS);
    let workers = [Worker::Idle(core.respawn(0)), Worker::Idle(core.respawn(1))];
    let start = World {
        core,
        late: false,
        closed: false,
        submitted: [false; REQS],
        answered: [0; REQS],
        workers,
        zombies: [Worker::Gone; SLOTS],
    };
    let mut seen = HashSet::from([start.key()]);
    let mut frontier = VecDeque::from([(start, Vec::new())]);
    let mut transitions = 0usize;
    let mut kinds = HashSet::new();
    while let Some((world, trail)) = frontier.pop_front() {
        for ev in world.events() {
            kinds.insert(std::mem::discriminant(&ev));
            let mut next = world.clone();
            let mut next_trail = trail.clone();
            next_trail.push(ev);
            next.apply(ev, &reqs, early, late);
            next.check(&next_trail);
            transitions += 1;
            if seen.insert(next.key()) {
                if next.closed {
                    next.check_drains(&next_trail);
                }
                frontier.push_back((next, next_trail));
            }
        }
    }
    assert_eq!(kinds.len(), 9, "every event kind fires");
    assert_eq!(
        (seen.len(), transitions),
        (49_368, 310_041),
        "states, transitions"
    );
}

/// A seeded random interleaving of 8 requests over 4 replicas, with
/// the real ledger and tickets: random deadlines, batch caps, canary
/// routing and clock steps, 300 runs of 80 events each. After every
/// event each request is held once or answered once and the ledger
/// balances; every batch claimed while a canary routes is pure per arm
/// and names that canary; after shutdown every ticket holds exactly one
/// verdict.
#[test]
fn random_interleavings_keep_one_owner_and_balance_the_ledger() {
    const N: usize = 8;
    const R: usize = 4;
    let outcomes = [
        Count::ServedFull,
        Count::ServedDegraded,
        Count::Rejected,
        Count::QueueFull,
        Count::Shed,
        Count::DeadlineExceeded,
        Count::Throttled,
        Count::WorkerPanicked,
        Count::Shutdown,
        Count::Abandoned,
    ];
    for seed in 0..300u64 {
        let mut rng = seed;
        let mut next = |n: usize| {
            rng = splitmix64(rng);
            (rng % n as u64) as usize
        };
        let ledger = Ledger::new(R);
        let mut core = Core::new(&cfg(3 + next(4)), R);
        let mut workers: Vec<Worker> = (0..R).map(|s| Worker::Idle(core.respawn(s))).collect();
        let mut zombies: Vec<Option<u64>> = vec![None; R];
        let mut pending = Vec::new();
        let mut tickets = Vec::new();
        for seq in 0..N {
            let deadline = [5, 50, 3_600_000][next(3)];
            let (p, t) = request(seq as u64, next(6) as u64, Duration::from_millis(deadline));
            pending.push(Some(p));
            tickets.push(t);
        }
        let mut now = pending.iter().flatten().map(|p| p.submitted).max().unwrap();
        let mut answered = [false; N];
        // The routing canary (version, modulus), and the last version.
        let mut route: Option<(u64, u64)> = None;
        let mut canary = 0u64;
        let out = ServeOutput {
            label: 0,
            rationale: Vec::new(),
            degraded: false,
            weights_version: 1,
        };

        for _ in 0..80 {
            now += Duration::from_micros([0, 500, 3_000, 20_000][next(4)] as u64);
            let s = next(R);
            match next(10) {
                0..=2 => {
                    if let Some(p) = pending[next(N)].take() {
                        ledger.count(Count::Submitted, 1);
                        if let Err(refused) = core.submit(p) {
                            ledger.fail_all(vec![*refused]);
                        }
                    }
                }
                3 | 4 => match workers[s] {
                    Worker::Idle(gen) => {
                        let (claim, answers) = core.claim(s, gen, 1 + next(4), now);
                        ledger.fail_all(answers);
                        match claim {
                            Claim::Batch(b) => {
                                assert_eq!(b.arm.map(|a| a.version), route.map(|r| r.0));
                                if let (Some(arm), Some((_, m))) = (b.arm, route) {
                                    assert!(core.slots[s]
                                        .inflight
                                        .iter()
                                        .all(|p| routes_to_canary(p.seq, m) == arm.candidate));
                                }
                                workers[s] = Worker::Holding(gen);
                            }
                            Claim::Stop => unreachable!("live and open"),
                            Claim::Idle => {}
                        }
                    }
                    Worker::Holding(gen) => {
                        for p in core.complete(s, gen).expect("owner") {
                            let out = out.clone();
                            ledger.resolve(p, Verdict::Served(out, s, now));
                        }
                        workers[s] = Worker::Idle(gen);
                    }
                    Worker::Gone => {
                        workers[s] = Worker::Idle(core.respawn(s));
                    }
                },
                5 => {
                    if let Worker::Idle(gen) | Worker::Holding(gen) = workers[s] {
                        ledger.fail_all(core.panic_drain(s, gen).expect("live"));
                        workers[s] = Worker::Gone;
                    }
                }
                6 => {
                    if let Worker::Idle(gen) | Worker::Holding(gen) = workers[s] {
                        let (answers, _) = core.quarantine(s, now);
                        ledger.fail_all(answers);
                        zombies[s] = Some(gen);
                        workers[s] = Worker::Gone;
                    }
                }
                7 => {
                    if let Some(gen) = zombies[s].take() {
                        assert!(core.complete(s, gen).is_none(), "revoked gets nothing");
                    }
                }
                8 => match [0, 2, 3][next(3)] {
                    0 => {
                        core.stop_canary(canary);
                        route = None;
                    }
                    modulus => {
                        canary += 1;
                        core.route_canary(canary, modulus);
                        route = Some((canary, modulus));
                    }
                },
                _ => ledger.fail_all(core.sweep(now)),
            }

            for (r, t) in tickets.iter().enumerate() {
                // Once answered, a ticket's channel is closed and
                // empty: any further poll reads a disconnected `Lost`.
                let lost = |v: &ServeResult| matches!(v, Err(ServeError::Lost));
                match t.wait_timeout(Duration::ZERO) {
                    Some(v) if answered[r] => {
                        assert!(lost(&v), "seed {seed}: {r} answered twice")
                    }
                    Some(v) => {
                        assert!(!lost(&v), "seed {seed}: request {r} lost");
                        answered[r] = true;
                    }
                    None => {}
                }
            }
            let holders = core.holders(N);
            for r in 0..N {
                let submitted = pending[r].is_none();
                assert_eq!(
                    holders[r] + usize::from(answered[r]),
                    usize::from(submitted),
                    "seed {seed}: request {r} held {} times",
                    holders[r]
                );
            }
            let resolved: u64 = outcomes.iter().map(|&c| ledger.get(c)).sum();
            let held = holders.iter().sum::<usize>() as u64;
            assert_eq!(ledger.get(Count::Submitted), resolved + held, "seed {seed}");
        }

        // Shutdown: queued requests are answered, live workers finish
        // their batches, and the final drain takes the rest.
        ledger.fail_all(core.shutdown());
        for (s, w) in workers.iter().enumerate() {
            if let Worker::Holding(gen) = *w {
                for p in core.complete(s, gen).expect("owner") {
                    let out = out.clone();
                    ledger.resolve(p, Verdict::Served(out, s, now));
                }
            }
        }
        ledger.fail_all(core.finish());
        for (r, t) in tickets.iter().enumerate() {
            let submitted = pending[r].is_none();
            if submitted && !answered[r] {
                let verdict = t.wait_timeout(Duration::ZERO).expect("answered");
                assert!(
                    !matches!(verdict, Err(ServeError::Lost)),
                    "seed {seed}: {r} lost"
                );
            }
            if submitted {
                assert!(
                    matches!(t.wait_timeout(Duration::ZERO), Some(Err(ServeError::Lost))),
                    "seed {seed}: request {r} has exactly one verdict"
                );
            }
        }
        let resolved: u64 = outcomes.iter().map(|&c| ledger.get(c)).sum();
        assert_eq!(
            ledger.get(Count::Submitted),
            resolved,
            "seed {seed}: ledger"
        );
    }
}

/// Routing follows the newest canary only: a settle stops its own
/// canary and never a newer one, and a canary whose settle already ran
/// never starts routing.
#[test]
fn canary_routing_is_fenced_by_candidate_version() {
    let mut core = Core::new(&cfg(4), 1);
    let gen = core.respawn(0);
    let t = tenant_on(0, 1);
    let arm_of_next_claim = |core: &mut Core, seq: u64| {
        assert!(core
            .submit(request(seq, t, Duration::from_secs(60)).0)
            .is_ok());
        let now = Instant::now() + Duration::from_secs(1);
        let (claim, _) = core.claim(0, gen, 1, now);
        let Claim::Batch(b) = claim else {
            panic!("one queued request is claimable")
        };
        core.complete(0, gen).unwrap();
        b.arm.map(|a| a.version)
    };
    assert_eq!(arm_of_next_claim(&mut core, 0), None);
    core.route_canary(2, 2);
    assert_eq!(arm_of_next_claim(&mut core, 1), Some(2));
    core.route_canary(3, 2);
    core.stop_canary(2);
    assert_eq!(arm_of_next_claim(&mut core, 2), Some(3), "a stale stop");
    core.stop_canary(3);
    assert_eq!(arm_of_next_claim(&mut core, 3), None);
    core.route_canary(3, 2);
    assert_eq!(arm_of_next_claim(&mut core, 4), None, "settled first");
}
