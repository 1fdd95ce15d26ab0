//! # dar-serve — resilient inference serving for rationalization models
//!
//! A serving runtime layered on the workspace's building blocks: replica
//! pools batching requests into [`dar_data::Batch`] tensors, the
//! checkpoint format (CRC-validated hot swap), the training guards'
//! collapse band (breaker signal), and the `dar-par` thread policy
//! (compute budget). Requests are routed to per-replica queue shards by
//! tenant hash and rebalanced by work stealing. DESIGN.md §10 documents
//! the single-replica architecture and §14 the scale-out layer; the
//! chaos harnesses in `tests/serving_chaos.rs` and `tests/scale_out.rs`
//! (workspace root) hold the runtime to its invariants under injected
//! faults.
//!
//! The runtime is split by role. `dispatch` is the thread-free
//! request-ownership core: shard queues, in-flight slots, worker
//! generations, the quarantine mask and canary routing behind one lock.
//! `worker` runs the replica threads, `supervisor` the respawns,
//! deadline sweep and heartbeat watchdog, and [`server`] is the public
//! API. Every verdict goes through the ledger's one funnel in
//! [`request`]. Canary promotion (DESIGN.md §13) is decided by the pure
//! run in [`canary`] and driven by the one controller loop in
//! [`online`], journaled or not.
//!
//! * **Exactly one outcome per request** — admission rejection, typed
//!   failure, or an answer; never silence, never two verdicts. The
//!   dispatch core's tests check it exhaustively without threads, and
//!   [`StatsSnapshot::submitted`] equals the sum of the outcome
//!   counters once the server is quiet.
//! * **No torn reads** — a batch runs start-to-finish on one weight
//!   generation; hot swaps apply only between batches.
//! * **Failure is a mode, not a retry** — the circuit breaker steps
//!   through full → predictor-only → shed, and recovers through probes.
//!
//! ```no_run
//! use std::sync::Arc;
//! use dar_serve::{ServeConfig, Server};
//! # fn factory_fn() -> Box<dyn dar_core::RationaleModel> { unimplemented!() }
//! # fn some_review() -> dar_data::Review { unimplemented!() }
//! let server = Server::start(ServeConfig::default(), Arc::new(factory_fn));
//! let ticket = server.submit(some_review());
//! let verdict = ticket.wait(); // exactly one outcome, whatever happened
//! ```

pub mod breaker;
pub mod canary;
pub mod config;
mod dispatch;
pub mod health;
pub mod online;
pub mod request;
pub mod router;
pub mod server;
mod supervisor;
pub mod weights;
mod worker;

pub use breaker::{
    BatchPlan, BreakerEvent, BreakerPolicy, BreakerState, CircuitBreaker, TransitionCause,
};
pub use canary::{
    decide, routes_to_canary, ArmStats, CanaryDecision, CanaryOutcome, CanaryPolicy,
    CanarySnapshot, PromotionPhase, RollbackCause,
};
pub use config::{HealthPolicy, ServeConfig};
pub use health::HealthState;
pub use online::{run_online_loop, LoopReport, OnlineLoopConfig, RoundReport};
pub use request::{ServeError, ServeOutput, ServeResult, Ticket};
pub use router::{route_tenant, route_tenant_healthy};
pub use server::{ModelFactory, ReplicaStats, Server, StatsSnapshot};
pub use weights::{WeightSet, WeightStore};
