//! The fault-injecting side of the storage substrate: a seeded
//! [`FaultyStorage`] for the crash harness, and the orphan-temp sweep
//! recovery runs.
//!
//! The substrate itself — the [`Storage`] trait, [`RealStorage`] and
//! the one atomic write,
//! [`write_atomic`](dar_tensor::storage::write_atomic) — lives in
//! `dar_tensor::storage`, because checkpoint saves run through it too;
//! this crate re-exports those names. [`FaultyStorage`] wraps the real
//! thing and injects the failure modes crashed writers and sick disks
//! produce — short writes, torn tails, bit flips, `ENOSPC`, failed
//! renames — plus an abort-at-Nth-write crash valve: after `n` mutating
//! operations every further mutation fails (and the `n`-th write may
//! tear to a seeded prefix first), which is exactly what a process
//! killed mid-write leaves behind. Production checkpoint saves, the
//! manifest and the WAL all write through the same trait, so every
//! fault it injects hits the code production runs.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dar_tensor::storage::{RealStorage, Storage};
use dar_tensor::{DarError, DarResult};

/// Seeded schedule of storage faults, counted in *mutating operations*
/// (append, write, rename, truncate, remove) since the wrapper was
/// built. All randomness derives from `seed`, so every failure a test
/// provokes is reproducible.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageFaultPlan {
    pub seed: u64,
    /// The op with this index fails `ENOSPC`-style: nothing written.
    pub enospc_at: Option<u64>,
    /// A write op with this index persists only a seeded prefix, then
    /// fails — a short write the caller *sees*.
    pub short_write_at: Option<u64>,
    /// An append op with this index persists only a seeded prefix but
    /// *reports success* — the lying-fsync tear that WAL replay must
    /// absorb by truncating the tail.
    pub torn_tail_at: Option<u64>,
    /// A write op with this index lands with one seeded bit flipped.
    pub bit_flip_at: Option<u64>,
    /// The k-th *rename* (its own counter) fails, source left intact.
    pub fail_rename_at: Option<u64>,
    /// Crash valve: once this many mutating ops have completed, every
    /// further mutation fails with an injected-crash error; the op at
    /// the boundary, if a write, tears to a seeded prefix first. This is
    /// the abort-at-Nth-write sweep's knob.
    pub crash_after_ops: Option<u64>,
}

impl StorageFaultPlan {
    pub fn none() -> Self {
        StorageFaultPlan::default()
    }

    pub fn crash_after(n: u64, seed: u64) -> Self {
        StorageFaultPlan {
            seed,
            crash_after_ops: Some(n),
            ..Default::default()
        }
    }
}

fn injected(kind: &str) -> DarError {
    DarError::Io(std::io::Error::other(format!("{kind} (injected)")))
}

/// Deterministic value in `0..bound` derived from the plan seed and the
/// op index (splitmix64 finalizer).
fn seeded(seed: u64, op: u64, bound: usize) -> usize {
    let mut x = seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % bound.max(1) as u64) as usize
}

/// Wraps [`RealStorage`] and fires a [`StorageFaultPlan`]. Also keeps an
/// ordered op log (`"append:wal.log:23"`, `"sync_dir:state"`, …) so
/// tests can assert fsync *ordering*, not just outcomes.
pub struct FaultyStorage {
    inner: RealStorage,
    plan: StorageFaultPlan,
    ops: AtomicU64,
    renames: AtomicU64,
    log: Mutex<Vec<String>>,
}

impl FaultyStorage {
    pub fn new(plan: StorageFaultPlan) -> Self {
        FaultyStorage {
            inner: RealStorage,
            plan,
            ops: AtomicU64::new(0),
            renames: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Mutating ops completed or attempted so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// The ordered operation log (op:name[:len]).
    pub fn op_log(&self) -> Vec<String> {
        self.log.lock().unwrap().clone()
    }

    fn note(&self, entry: String) {
        self.log.lock().unwrap().push(entry);
    }

    fn name(path: &Path) -> String {
        path.file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string())
    }

    /// Claim the next mutating-op index, applying the crash valve.
    /// Returns `Err` when the plan says this op (or any op after the
    /// crash point) must die outright; `Ok((op, tear))` otherwise, where
    /// `tear` asks a write op to persist only a seeded prefix and fail.
    fn claim(&self, what: &str, path: &Path) -> DarResult<(u64, bool)> {
        let op = self.ops.fetch_add(1, Ordering::SeqCst);
        self.note(format!("{what}:{}", Self::name(path)));
        if let Some(crash) = self.plan.crash_after_ops {
            if op > crash {
                return Err(injected("crashed"));
            }
            if op == crash {
                // The boundary op: a write tears, everything else dies.
                return Ok((op, true));
            }
        }
        if self.plan.enospc_at == Some(op) {
            return Err(injected("no space left on device"));
        }
        Ok((op, false))
    }
}

impl Storage for FaultyStorage {
    fn append_sync(&self, path: &Path, bytes: &[u8]) -> DarResult<()> {
        let (op, crash_tear) = self.claim("append", path)?;
        if crash_tear {
            let keep = seeded(self.plan.seed, op, bytes.len());
            self.inner.append_sync(path, &bytes[..keep]).ok();
            return Err(injected("crashed"));
        }
        if self.plan.short_write_at == Some(op) {
            let keep = seeded(self.plan.seed, op, bytes.len());
            self.inner.append_sync(path, &bytes[..keep]).ok();
            return Err(injected("short write"));
        }
        if self.plan.torn_tail_at == Some(op) {
            let keep = seeded(self.plan.seed, op, bytes.len());
            return self.inner.append_sync(path, &bytes[..keep]);
        }
        if self.plan.bit_flip_at == Some(op) && !bytes.is_empty() {
            let mut flipped = bytes.to_vec();
            let byte = seeded(self.plan.seed, op, flipped.len());
            flipped[byte] ^= 1 << seeded(self.plan.seed ^ 0xB17, op, 8);
            return self.inner.append_sync(path, &flipped);
        }
        self.inner.append_sync(path, bytes)
    }

    fn write_file_sync(&self, path: &Path, bytes: &[u8]) -> DarResult<()> {
        let (op, crash_tear) = self.claim("write_file", path)?;
        if crash_tear {
            let keep = seeded(self.plan.seed, op, bytes.len());
            self.inner.write_file_sync(path, &bytes[..keep]).ok();
            return Err(injected("crashed"));
        }
        if self.plan.short_write_at == Some(op) {
            let keep = seeded(self.plan.seed, op, bytes.len());
            self.inner.write_file_sync(path, &bytes[..keep]).ok();
            return Err(injected("short write"));
        }
        if self.plan.bit_flip_at == Some(op) && !bytes.is_empty() {
            let mut flipped = bytes.to_vec();
            let byte = seeded(self.plan.seed, op, flipped.len());
            flipped[byte] ^= 1 << seeded(self.plan.seed ^ 0xB17, op, 8);
            return self.inner.write_file_sync(path, &flipped);
        }
        self.inner.write_file_sync(path, bytes)
    }

    fn read(&self, path: &Path) -> DarResult<Vec<u8>> {
        self.inner.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> DarResult<()> {
        let (_, crash) = self.claim("rename", to)?;
        if crash {
            return Err(injected("crashed"));
        }
        let k = self.renames.fetch_add(1, Ordering::SeqCst);
        if self.plan.fail_rename_at == Some(k) {
            return Err(injected("rename failed"));
        }
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> DarResult<()> {
        let (_, crash) = self.claim("remove", path)?;
        if crash {
            return Err(injected("crashed"));
        }
        self.inner.remove(path)
    }

    fn truncate(&self, path: &Path, len: u64) -> DarResult<()> {
        let (_, crash) = self.claim("truncate", path)?;
        if crash {
            return Err(injected("crashed"));
        }
        self.inner.truncate(path, len)
    }

    fn sync_dir(&self, dir: &Path) -> DarResult<()> {
        self.note(format!("sync_dir:{}", Self::name(dir)));
        self.inner.sync_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> DarResult<()> {
        self.inner.create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn list(&self, dir: &Path) -> DarResult<Vec<String>> {
        self.inner.list(dir)
    }
}

/// Remove orphaned `*.tmp.*` files a crashed writer left in `dir`.
/// Returns how many were swept. Called during recovery.
pub fn sweep_orphan_tmps(storage: &dyn Storage, dir: &Path) -> DarResult<u64> {
    let mut swept = 0;
    for name in storage.list(dir)? {
        if name.contains(".tmp.") {
            storage.remove(&dir.join(&name)).ok();
            swept += 1;
        }
    }
    Ok(swept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dar_tensor::storage::{sync_parent, write_atomic};
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dar_store_s_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn write_atomic_orders_sync_after_rename_and_leaves_no_tmp() {
        let d = tmpdir("order");
        let s = FaultyStorage::new(StorageFaultPlan::none());
        write_atomic(&s, &d.join("m.bin"), b"payload").unwrap();
        let log = s.op_log();
        let wr = log
            .iter()
            .position(|e| e.starts_with("write_file:"))
            .unwrap();
        let rn = log.iter().position(|e| e.starts_with("rename:")).unwrap();
        let sd = log.iter().position(|e| e.starts_with("sync_dir:")).unwrap();
        assert!(wr < rn && rn < sd, "fsync discipline violated: {log:?}");
        assert!(
            !s.list(&d).unwrap().iter().any(|n| n.contains(".tmp.")),
            "temp file left behind"
        );
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn a_bare_file_name_syncs_the_current_dir() {
        let s = FaultyStorage::new(StorageFaultPlan::none());
        sync_parent(&s, Path::new("MANIFEST")).unwrap();
        assert_eq!(s.op_log(), vec!["sync_dir:."]);
    }

    #[test]
    fn enospc_and_rename_failures_never_touch_the_destination() {
        let d = tmpdir("faults");
        let dest = d.join("m.bin");
        RealStorage.write_file_sync(&dest, b"old").unwrap();

        let s = FaultyStorage::new(StorageFaultPlan {
            enospc_at: Some(0),
            ..Default::default()
        });
        assert!(matches!(
            write_atomic(&s, &dest, b"new"),
            Err(DarError::Io(_))
        ));
        assert_eq!(RealStorage.read(&dest).unwrap(), b"old");

        let s = FaultyStorage::new(StorageFaultPlan {
            fail_rename_at: Some(0),
            ..Default::default()
        });
        assert!(matches!(
            write_atomic(&s, &dest, b"new"),
            Err(DarError::Io(_))
        ));
        assert_eq!(RealStorage.read(&dest).unwrap(), b"old");
        assert!(
            !RealStorage
                .list(&d)
                .unwrap()
                .iter()
                .any(|n| n.contains(".tmp.")),
            "failed rename leaked its temp file"
        );
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn crash_valve_fails_everything_past_the_boundary() {
        let d = tmpdir("crash");
        let s = FaultyStorage::new(StorageFaultPlan::crash_after(1, 7));
        let f = d.join("w.log");
        s.append_sync(&f, b"first").unwrap();
        assert!(s.append_sync(&f, b"second").is_err(), "boundary op dies");
        assert!(s.append_sync(&f, b"third").is_err(), "post-crash op dies");
        let len = RealStorage.read(&f).unwrap().len();
        assert!((5..11).contains(&len), "boundary tear kept {len} bytes");
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn orphan_sweep_removes_only_tmp_droppings() {
        let d = tmpdir("sweep");
        let s = RealStorage;
        s.write_file_sync(&d.join("keep.ckpt"), b"k").unwrap();
        s.write_file_sync(&d.join("a.tmp.123.0"), b"x").unwrap();
        s.write_file_sync(&d.join("b.tmp.123.7"), b"y").unwrap();
        assert_eq!(sweep_orphan_tmps(&s, &d).unwrap(), 2);
        assert_eq!(s.list(&d).unwrap(), vec!["keep.ckpt".to_string()]);
        std::fs::remove_dir_all(&d).ok();
    }
}
