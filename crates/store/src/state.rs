//! [`DurableState`]: the promotion state coordinator the online loop
//! threads its decisions through.
//!
//! One state directory holds:
//!
//! ```text
//! state.wal            — the write-ahead journal (crate::wal)
//! MANIFEST             — generation + incumbent pointer (crate::manifest)
//! incumbent_g{N}.ckpt  — durable incumbent checkpoints, one per generation
//! candidate ckpts      — whatever the caller parks here (swept of *.tmp.*)
//! ```
//!
//! # Exactly-once promotion across restarts
//!
//! A promotion executes in this order, each step durable before the next:
//!
//! 1. copy the candidate checkpoint to `incumbent_g{gen}.ckpt`
//!    ([`write_atomic`]: temp → fsync → rename → dir fsync);
//! 2. append `Promoted { round, generation, ckpt }` to the WAL and
//!    fsync — **this append is the commit point**;
//! 3. swap the manifest to the new generation (atomic);
//! 4. publish the weights in memory.
//!
//! A crash before 2 means the promotion never happened (the orphan
//! checkpoint is harmless and gets re-created identically on retry); a
//! crash between 2 and 3 is rolled *forward* on recovery, because the
//! WAL names a generation newer than the manifest and the checkpoint
//! bytes for it are already durable. A round whose terminal record
//! (`Promoted`/`RolledBack`/`RoundSkipped`) replays is never
//! re-evaluated, and the feed cursor record keeps the trainer from
//! re-emitting completed rounds — together: each round reaches exactly
//! one durable verdict, no matter where the process dies.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dar_obs::ObsEvent;
use dar_tensor::serial::codec;
use dar_tensor::storage::{write_atomic, Storage};
use dar_tensor::{DarError, DarResult};

use crate::manifest::{load_manifest, store_manifest, Manifest};
use crate::storage::sweep_orphan_tmps;
use crate::wal::Wal;

/// File name of the WAL inside a state dir.
pub const WAL_FILE: &str = "state.wal";
/// File name of the manifest inside a state dir.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// One journaled fact about the online loop. Encoded as
/// `tag u32 · fields` with the shared little-endian codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateRecord {
    /// Round `round` entered canary evaluation.
    CanaryStarted { round: usize },
    /// Round `round` was promoted as generation `generation`; its
    /// durable checkpoint is `ckpt` (file name inside the state dir).
    Promoted {
        round: usize,
        generation: u64,
        ckpt: String,
    },
    /// Round `round` was rolled back; `cause` is the stable cause string
    /// (e.g. `accuracy_regressed`).
    RolledBack { round: usize, cause: String },
    /// Round `round` was skipped without a canary (e.g. rejected
    /// checkpoint); `cause` says why.
    RoundSkipped { round: usize, cause: String },
    /// The feed may resume at `next_round`; everything below it is done.
    FeedCursor { next_round: usize },
    /// Replay found and removed `lost_bytes` of torn tail. Written by
    /// recovery itself, so the damage is part of the permanent record.
    TailTruncated { lost_bytes: u64 },
}

const TAG_CANARY_STARTED: u32 = 1;
const TAG_PROMOTED: u32 = 2;
const TAG_ROLLED_BACK: u32 = 3;
const TAG_ROUND_SKIPPED: u32 = 4;
const TAG_FEED_CURSOR: u32 = 5;
const TAG_TAIL_TRUNCATED: u32 = 6;

impl StateRecord {
    /// Stable snake_case kind, used in obs events and test assertions.
    pub fn kind(&self) -> &'static str {
        match self {
            StateRecord::CanaryStarted { .. } => "canary_started",
            StateRecord::Promoted { .. } => "promoted",
            StateRecord::RolledBack { .. } => "rolled_back",
            StateRecord::RoundSkipped { .. } => "round_skipped",
            StateRecord::FeedCursor { .. } => "feed_cursor",
            StateRecord::TailTruncated { .. } => "tail_truncated",
        }
    }

    /// The round this record is about, if any.
    pub fn round(&self) -> Option<usize> {
        match self {
            StateRecord::CanaryStarted { round }
            | StateRecord::Promoted { round, .. }
            | StateRecord::RolledBack { round, .. }
            | StateRecord::RoundSkipped { round, .. } => Some(*round),
            StateRecord::FeedCursor { .. } | StateRecord::TailTruncated { .. } => None,
        }
    }

    /// Terminal records end a round's life: it must never be canaried
    /// or promoted again.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            StateRecord::Promoted { .. }
                | StateRecord::RolledBack { .. }
                | StateRecord::RoundSkipped { .. }
        )
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24);
        match self {
            StateRecord::CanaryStarted { round } => {
                codec::put_u32(&mut out, TAG_CANARY_STARTED);
                codec::put_u64(&mut out, *round as u64);
            }
            StateRecord::Promoted {
                round,
                generation,
                ckpt,
            } => {
                codec::put_u32(&mut out, TAG_PROMOTED);
                codec::put_u64(&mut out, *round as u64);
                codec::put_u64(&mut out, *generation);
                codec::put_str(&mut out, ckpt);
            }
            StateRecord::RolledBack { round, cause } => {
                codec::put_u32(&mut out, TAG_ROLLED_BACK);
                codec::put_u64(&mut out, *round as u64);
                codec::put_str(&mut out, cause);
            }
            StateRecord::RoundSkipped { round, cause } => {
                codec::put_u32(&mut out, TAG_ROUND_SKIPPED);
                codec::put_u64(&mut out, *round as u64);
                codec::put_str(&mut out, cause);
            }
            StateRecord::FeedCursor { next_round } => {
                codec::put_u32(&mut out, TAG_FEED_CURSOR);
                codec::put_u64(&mut out, *next_round as u64);
            }
            StateRecord::TailTruncated { lost_bytes } => {
                codec::put_u32(&mut out, TAG_TAIL_TRUNCATED);
                codec::put_u64(&mut out, *lost_bytes);
            }
        }
        out
    }

    pub fn decode(bytes: &[u8]) -> DarResult<StateRecord> {
        let mut c = codec::Cursor::new(bytes);
        let rec = match c.u32()? {
            TAG_CANARY_STARTED => StateRecord::CanaryStarted {
                round: c.u64()? as usize,
            },
            TAG_PROMOTED => StateRecord::Promoted {
                round: c.u64()? as usize,
                generation: c.u64()?,
                ckpt: c.str_()?,
            },
            TAG_ROLLED_BACK => StateRecord::RolledBack {
                round: c.u64()? as usize,
                cause: c.str_()?,
            },
            TAG_ROUND_SKIPPED => StateRecord::RoundSkipped {
                round: c.u64()? as usize,
                cause: c.str_()?,
            },
            TAG_FEED_CURSOR => StateRecord::FeedCursor {
                next_round: c.u64()? as usize,
            },
            TAG_TAIL_TRUNCATED => StateRecord::TailTruncated {
                lost_bytes: c.u64()?,
            },
            tag => {
                return Err(DarError::InvalidData(format!(
                    "unknown state record tag {tag}"
                )))
            }
        };
        if !c.is_empty() {
            return Err(DarError::InvalidData(
                "trailing bytes after state record".to_owned(),
            ));
        }
        Ok(rec)
    }
}

/// What [`DurableState::open`] reconstructed.
#[derive(Debug)]
pub struct Recovery {
    /// Every committed record, in append order (including records this
    /// recovery itself appended, e.g. [`StateRecord::TailTruncated`]).
    pub records: Vec<StateRecord>,
    /// Current incumbent generation (0 = nothing ever promoted).
    pub generation: u64,
    /// File name of the incumbent checkpoint inside the state dir.
    pub incumbent: Option<String>,
    /// First round the feed/trainer should emit.
    pub resume_round: usize,
    /// Torn-tail bytes discarded from the WAL during this open.
    pub truncated_bytes: u64,
    /// Orphaned `*.tmp.*` files swept from the state dir.
    pub orphans_swept: u64,
    /// True when a journaled promotion was newer than the manifest and
    /// the manifest was rolled forward to match.
    pub rolled_forward: bool,
}

/// The durable promotion journal: a WAL + manifest pair under one state
/// directory, with the exactly-once bookkeeping the online loop needs.
pub struct DurableState {
    storage: Arc<dyn Storage>,
    dir: PathBuf,
    wal: Wal,
    generation: u64,
    incumbent: Option<String>,
    terminal_rounds: Vec<usize>,
    resume_round: usize,
}

impl DurableState {
    /// Open (creating if needed) the state dir, replay the WAL, sweep
    /// temp orphans, and reconcile the manifest with the journal —
    /// rolling a committed-but-unswapped promotion forward. Emits
    /// `recovery_started` / `wal_truncated_tail` / `recovery_complete`
    /// obs events into the deterministic journal section.
    pub fn open(storage: Arc<dyn Storage>, dir: impl Into<PathBuf>) -> DarResult<(Self, Recovery)> {
        let dir = dir.into();
        storage.create_dir_all(&dir)?;
        dar_obs::event(ObsEvent::RecoveryStarted);

        let orphans_swept = sweep_orphan_tmps(&*storage, &dir)?;
        let (wal, replay) = Wal::open(Arc::clone(&storage), dir.join(WAL_FILE))?;
        if replay.torn_bytes > 0 {
            dar_obs::event(ObsEvent::WalTruncatedTail {
                lost_bytes: replay.torn_bytes,
            });
        }

        let mut records = Vec::with_capacity(replay.records.len());
        for payload in &replay.records {
            records.push(StateRecord::decode(payload)?);
        }

        let manifest = load_manifest(&*storage, &dir.join(MANIFEST_FILE))?;
        let mut generation = manifest.as_ref().map_or(0, |m| m.generation);
        let mut incumbent = manifest.map(|m| m.incumbent);

        // Roll forward: the WAL is the truth; the manifest only caches it.
        let mut rolled_forward = false;
        let newest_promotion = records
            .iter()
            .filter_map(|r| match r {
                StateRecord::Promoted {
                    generation, ckpt, ..
                } => Some((*generation, ckpt.clone())),
                _ => None,
            })
            .max_by_key(|(g, _)| *g);
        if let Some((wal_gen, ckpt)) = newest_promotion {
            if wal_gen > generation {
                if !storage.exists(&dir.join(&ckpt)) {
                    return Err(DarError::Corrupt(format!(
                        "journaled promotion g{wal_gen} names missing checkpoint {ckpt}"
                    )));
                }
                store_manifest(
                    &*storage,
                    &dir.join(MANIFEST_FILE),
                    &Manifest {
                        generation: wal_gen,
                        incumbent: ckpt.clone(),
                    },
                )?;
                generation = wal_gen;
                incumbent = Some(ckpt);
                rolled_forward = true;
            }
        }

        let mut state = DurableState {
            storage,
            dir,
            wal,
            generation,
            incumbent,
            terminal_rounds: Vec::new(),
            resume_round: 0,
        };
        for rec in &records {
            state.absorb(rec);
        }

        // Journal the tail truncation so the damage is part of the
        // permanent record (and so the next replay sees a clean file).
        if replay.torn_bytes > 0 {
            let rec = StateRecord::TailTruncated {
                lost_bytes: replay.torn_bytes,
            };
            state.append(&rec)?;
            records.push(rec);
        }

        dar_obs::event(ObsEvent::RecoveryComplete {
            records: records.len() as u64,
            generation: state.generation,
        });
        let recovery = Recovery {
            generation: state.generation,
            incumbent: state.incumbent.clone(),
            resume_round: state.resume_round,
            truncated_bytes: replay.torn_bytes,
            orphans_swept,
            rolled_forward,
            records,
        };
        Ok((state, recovery))
    }

    /// Fold one replayed/appended record into the in-memory summary.
    fn absorb(&mut self, rec: &StateRecord) {
        if rec.is_terminal() {
            if let Some(round) = rec.round() {
                if !self.terminal_rounds.contains(&round) {
                    self.terminal_rounds.push(round);
                }
                // A terminal verdict implies the feed is past this round.
                self.resume_round = self.resume_round.max(round + 1);
            }
        }
        if let StateRecord::FeedCursor { next_round } = rec {
            self.resume_round = self.resume_round.max(*next_round);
        }
    }

    fn append(&mut self, rec: &StateRecord) -> DarResult<()> {
        self.wal.append(&rec.encode())?;
        dar_obs::event(ObsEvent::WalAppend { record: rec.kind() });
        self.absorb(rec);
        Ok(())
    }

    /// The state directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current incumbent generation (0 before any promotion).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Incumbent checkpoint file name, if any round was ever promoted.
    pub fn incumbent(&self) -> Option<&str> {
        self.incumbent.as_deref()
    }

    /// Absolute path of the incumbent checkpoint, if any.
    pub fn incumbent_path(&self) -> Option<PathBuf> {
        self.incumbent.as_ref().map(|n| self.dir.join(n))
    }

    /// First round the feed should emit after recovery.
    pub fn resume_round(&self) -> usize {
        self.resume_round
    }

    /// True when `round` already has a durable terminal verdict.
    pub fn is_terminal(&self, round: usize) -> bool {
        self.terminal_rounds.contains(&round)
    }

    /// Journal that `round` entered canary evaluation.
    pub fn log_canary_started(&mut self, round: usize) -> DarResult<()> {
        self.append(&StateRecord::CanaryStarted { round })
    }

    /// Execute a full durable promotion of `round` whose candidate
    /// checkpoint bytes are at `candidate_path`: land the incumbent copy
    /// (step 1), commit the WAL record (step 2 — the commit point), swap
    /// the manifest (step 3). Returns the new generation. Double
    /// promotion of a terminal round is refused.
    ///
    /// Once the record commits the promotion stands: a failed manifest
    /// swap still returns the new generation (and bumps the
    /// `store.manifest_swap_failed` counter), since the next promotion's
    /// swap or the next open's roll-forward repairs the manifest.
    pub fn log_promoted(&mut self, round: usize, candidate_path: &Path) -> DarResult<u64> {
        if self.is_terminal(round) {
            return Err(DarError::InvalidData(format!(
                "round {round} already has a terminal verdict"
            )));
        }
        let generation = self.generation + 1;
        let ckpt = format!("incumbent_g{generation}.ckpt");
        let bytes = self.storage.read(candidate_path)?;
        write_atomic(&*self.storage, &self.dir.join(&ckpt), &bytes)?;
        self.append(&StateRecord::Promoted {
            round,
            generation,
            ckpt: ckpt.clone(),
        })?;
        self.generation = generation;
        self.incumbent = Some(ckpt.clone());
        let manifest = Manifest {
            generation,
            incumbent: ckpt,
        };
        if store_manifest(&*self.storage, &self.dir.join(MANIFEST_FILE), &manifest).is_err() {
            dar_obs::inc("store.manifest_swap_failed");
        }
        Ok(generation)
    }

    /// Journal a rollback verdict for `round`.
    pub fn log_rolled_back(&mut self, round: usize, cause: &str) -> DarResult<()> {
        self.append(&StateRecord::RolledBack {
            round,
            cause: cause.to_owned(),
        })
    }

    /// Journal that `round` was skipped without a canary.
    pub fn log_round_skipped(&mut self, round: usize, cause: &str) -> DarResult<()> {
        self.append(&StateRecord::RoundSkipped {
            round,
            cause: cause.to_owned(),
        })
    }

    /// Journal that the feed may resume at `next_round`.
    pub fn log_feed_cursor(&mut self, next_round: usize) -> DarResult<()> {
        self.append(&StateRecord::FeedCursor { next_round })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{FaultyStorage, StorageFaultPlan};
    use dar_tensor::storage::RealStorage;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dar_store_st_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn real() -> Arc<dyn Storage> {
        Arc::new(RealStorage)
    }

    fn candidate(dir: &Path, name: &str) -> PathBuf {
        let p = dir.join(name);
        std::fs::write(&p, format!("weights:{name}")).unwrap();
        p
    }

    #[test]
    fn records_round_trip_through_encode_decode() {
        let recs = [
            StateRecord::CanaryStarted { round: 3 },
            StateRecord::Promoted {
                round: 3,
                generation: 2,
                ckpt: "incumbent_g2.ckpt".to_owned(),
            },
            StateRecord::RolledBack {
                round: 4,
                cause: "accuracy_regressed".to_owned(),
            },
            StateRecord::RoundSkipped {
                round: 5,
                cause: "crc_mismatch".to_owned(),
            },
            StateRecord::FeedCursor { next_round: 6 },
            StateRecord::TailTruncated { lost_bytes: 17 },
        ];
        for rec in recs {
            assert_eq!(StateRecord::decode(&rec.encode()).unwrap(), rec);
        }
        assert!(StateRecord::decode(&[99, 0, 0, 0]).is_err());
    }

    #[test]
    fn promote_then_reopen_restores_generation_and_incumbent() {
        let d = tmpdir("promote");
        let cand = candidate(&d, "cand.ckpt");
        {
            let (mut st, r) = DurableState::open(real(), &d).unwrap();
            assert_eq!(r.generation, 0);
            st.log_canary_started(0).unwrap();
            assert_eq!(st.log_promoted(0, &cand).unwrap(), 1);
            st.log_feed_cursor(1).unwrap();
        }
        let (st, r) = DurableState::open(real(), &d).unwrap();
        assert_eq!(r.generation, 1);
        assert_eq!(r.incumbent.as_deref(), Some("incumbent_g1.ckpt"));
        assert_eq!(r.resume_round, 1);
        assert!(st.is_terminal(0));
        assert!(!r.rolled_forward);
        assert_eq!(
            std::fs::read(st.incumbent_path().unwrap()).unwrap(),
            b"weights:cand.ckpt"
        );
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn crash_between_wal_commit_and_manifest_swap_rolls_forward() {
        let d = tmpdir("rollfwd");
        let cand = candidate(&d, "cand.ckpt");
        {
            let (mut st, _) = DurableState::open(real(), &d).unwrap();
            st.log_promoted(0, &cand).unwrap();
        }
        // Simulate the crash: rewind the manifest to generation 0 (i.e.
        // the swap never landed) while WAL + checkpoint are durable.
        std::fs::remove_file(d.join(MANIFEST_FILE)).unwrap();
        let (st, r) = DurableState::open(real(), &d).unwrap();
        assert!(r.rolled_forward, "manifest must be rolled forward");
        assert_eq!(st.generation(), 1);
        assert_eq!(st.incumbent(), Some("incumbent_g1.ckpt"));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn double_promotion_of_a_terminal_round_is_refused() {
        let d = tmpdir("double");
        let cand = candidate(&d, "cand.ckpt");
        let (mut st, _) = DurableState::open(real(), &d).unwrap();
        st.log_promoted(2, &cand).unwrap();
        assert!(st.log_promoted(2, &cand).is_err());
        assert!(st.is_terminal(2));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn torn_tail_is_journaled_and_resume_round_survives() {
        let d = tmpdir("tail");
        {
            let (mut st, _) = DurableState::open(real(), &d).unwrap();
            st.log_rolled_back(0, "accuracy_regressed").unwrap();
            st.log_feed_cursor(1).unwrap();
        }
        // Torn half-frame at the WAL tail.
        RealStorage
            .append_sync(&d.join(WAL_FILE), &[44, 0, 0, 0, 7])
            .unwrap();
        let (st, r) = DurableState::open(real(), &d).unwrap();
        assert_eq!(r.truncated_bytes, 5);
        assert!(matches!(
            r.records.last(),
            Some(StateRecord::TailTruncated { lost_bytes: 5 })
        ));
        assert_eq!(st.resume_round(), 1);
        // The truncation record itself is durable: a third open replays it.
        let (_, r) = DurableState::open(real(), &d).unwrap();
        assert!(r
            .records
            .iter()
            .any(|x| matches!(x, StateRecord::TailTruncated { lost_bytes: 5 })));
        assert_eq!(r.truncated_bytes, 0);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn failed_manifest_swap_after_the_commit_keeps_the_promotion() {
        let d = tmpdir("swapfail");
        let cand0 = candidate(&d, "cand0.ckpt");
        let cand1 = candidate(&d, "cand1.ckpt");
        {
            // Rename 0 lands the incumbent copy, rename 1 is the manifest
            // swap — after the WAL append has committed the promotion.
            let faulty = Arc::new(FaultyStorage::new(StorageFaultPlan {
                fail_rename_at: Some(1),
                ..Default::default()
            }));
            let (mut st, _) = DurableState::open(faulty, &d).unwrap();
            assert_eq!(st.log_promoted(0, &cand0).unwrap(), 1);
            assert!(st.is_terminal(0));
            assert_eq!(st.generation(), 1);
            assert_eq!(st.incumbent(), Some("incumbent_g1.ckpt"));
            assert_eq!(st.log_promoted(1, &cand1).unwrap(), 2);
            assert_eq!(st.incumbent(), Some("incumbent_g2.ckpt"));
        }
        let read = |name: &str| std::fs::read(d.join(name)).unwrap();
        assert_eq!(read("incumbent_g1.ckpt"), b"weights:cand0.ckpt");
        assert_eq!(read("incumbent_g2.ckpt"), b"weights:cand1.ckpt");
        let (st, r) = DurableState::open(real(), &d).unwrap();
        assert_eq!(st.generation(), 2);
        assert_eq!(st.incumbent(), Some("incumbent_g2.ckpt"));
        let generations: Vec<u64> = r
            .records
            .iter()
            .filter_map(|x| match x {
                StateRecord::Promoted { generation, .. } => Some(*generation),
                _ => None,
            })
            .collect();
        assert_eq!(generations, [1, 2], "one record per generation");
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn failed_promotion_leaves_no_record_and_no_incumbent_change() {
        let d = tmpdir("failpromo");
        let cand = candidate(&d, "cand.ckpt");
        {
            // Crash valve: WAL creation is op 0, enospc kills the
            // incumbent-copy temp write before anything is journaled.
            let faulty = Arc::new(FaultyStorage::new(StorageFaultPlan {
                enospc_at: Some(1),
                ..Default::default()
            }));
            let (mut st, _) = DurableState::open(faulty, &d).unwrap();
            assert!(st.log_promoted(0, &cand).is_err());
        }
        let (st, r) = DurableState::open(real(), &d).unwrap();
        assert_eq!(st.generation(), 0, "failed promotion must not commit");
        assert!(r.records.iter().all(|x| !x.is_terminal()));
        assert!(!st.is_terminal(0));
        std::fs::remove_dir_all(&d).ok();
    }
}
