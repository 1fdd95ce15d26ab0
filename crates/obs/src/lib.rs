//! `dar-obs`: the workspace's unified observability layer.
//!
//! Every runtime in this repo emits signals — the trainer's epoch logs,
//! the divergence guards' [`TrainEvent`]s, the serving breaker's
//! transitions, the numeric layer's taint attributions, the bench
//! binaries' JSON points. Before this crate they lived in four
//! incompatible formats. `dar-obs` gives them one substrate:
//!
//! * a **lock-cheap metrics registry** — named [counters](inc),
//!   [gauges](gauge_set), and fixed-bucket latency histograms behind one
//!   global registry (atomic increments after a one-time handle lookup);
//! * **hierarchical span timing** — [`span`] pushes onto a thread-local
//!   stack, so a `matmul` recorded inside `train/epoch` aggregates under
//!   the path `train/epoch/matmul`, separately from the same kernel
//!   timed under `serve/infer`;
//! * a **typed event journal** — [`ObsEvent`] unifies train events,
//!   guard trips, breaker transitions, taint origins, and weight swaps
//!   into one ordered, serializable stream;
//! * a **schema-versioned snapshot** — [`snapshot`] /
//!   [`write_snapshot`] export everything as `results/obs_<run>.json`.
//!
//! # Determinism contract (DESIGN.md §12)
//!
//! The snapshot has two sections. The `deterministic` section — counters,
//! gauges, and the event journal — contains only values that are exact
//! (integer adds are order-independent; events are emitted from
//! deterministic control flow) and is rendered with ascending-order
//! aggregation (maps sorted by name, events in emission order). For a
//! workload whose logical behavior does not depend on the thread budget
//! (every training loop in this repo, per DESIGN.md §9), the section is
//! **byte-identical** under `DAR_THREADS=1` and `=4`; the harness
//! `tests/obs_determinism.rs` holds it to that. All wall-clock material —
//! span durations, percentiles, call counts of timing-dependent stages —
//! is isolated in the `timing` section, which is never byte-compared.
//!
//! # Cost
//!
//! Instrumentation is on by default and can be disabled with `DAR_OBS=0`
//! (or [`set_enabled`]). Disabled sites cost one relaxed atomic load.
//! Enabled spans cost two `Instant` reads plus one short mutex hold at
//! drop; the `obsbench` binary proves end-to-end overhead < 3% against
//! the uninstrumented path and records it in `results/BENCH_obs.json`.
//!
//! [`TrainEvent`]: https://docs.rs/dar-core

mod journal;
mod json;
mod registry;
mod snapshot;
mod span;

pub use journal::ObsEvent;
pub use registry::{add, enabled, event, gauge_set, inc, reset, set_enabled};
pub use snapshot::{snapshot, write_snapshot, Snapshot, SpanSummary};
pub use span::{record_micros, span, Span};

/// Version stamped into every snapshot; bump on any layout change.
pub const SCHEMA_VERSION: u32 = 1;
