//! `dar-store`: the workspace's crash-consistent durability layer
//! (DESIGN.md §15).
//!
//! Everything long-lived that the train-while-serve loop decides —
//! promotion and rollback verdicts, candidate round numbers, the feed
//! cursor, the identity of the incumbent checkpoint — used to live in
//! process memory, so a SIGKILL silently forgot promotions and replayed
//! trainer rounds. This crate gives those decisions a disk contract:
//!
//! * a **write-ahead log** ([`Wal`]) of CRC-framed records with full
//!   fsync discipline (file *and* parent directory), replayed with
//!   torn-tail tolerance: the log is truncated at the first bad frame
//!   and the truncation itself is journaled;
//! * a **monotonic-generation manifest** ([`Manifest`]) pointing at the
//!   durable incumbent checkpoint, swapped atomically
//!   (temp-write → rename → directory fsync);
//! * a **fault-injecting storage** ([`FaultyStorage`]) over the
//!   workspace's storage substrate ([`Storage`], [`RealStorage`],
//!   [`write_atomic`], re-exported from `dar_tensor::storage`, where
//!   checkpoint saves use them too): seeded short writes, torn tails,
//!   bit flips, ENOSPC, failed renames, and an abort-at-Nth-write crash
//!   valve that the chaos harness in `tests/crash_recovery.rs` sweeps
//!   exhaustively;
//! * the **promotion state coordinator** ([`DurableState`]) the online
//!   loop threads its decisions through, giving exactly-once promotion
//!   semantics across restarts (DESIGN.md §15 has the argument).
//!
//! The commit point of a promotion is its WAL record: the incumbent
//! checkpoint bytes are made durable *before* the record is appended,
//! and the manifest swap happens *after*, so recovery can always roll a
//! journaled promotion forward and an unjournaled one simply never
//! happened. Recovery emits typed [`dar_obs::ObsEvent`]s
//! (`recovery_started`, `wal_truncated_tail`, `recovery_complete`) into
//! the byte-deterministic journal section.

pub mod manifest;
pub mod state;
pub mod storage;
pub mod wal;

pub use dar_tensor::storage::{unique_tmp, write_atomic, RealStorage, Storage};
pub use manifest::{load_manifest, store_manifest, Manifest};
pub use state::{DurableState, Recovery, StateRecord, MANIFEST_FILE, WAL_FILE};
pub use storage::{sweep_orphan_tmps, FaultyStorage, StorageFaultPlan};
pub use wal::{Wal, WalReplay};
