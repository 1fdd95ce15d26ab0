//! The storage substrate every durable file in the workspace is written
//! through: a small trait over the filesystem operations durability
//! needs, the real implementation with full fsync discipline, and the
//! one atomic write.
//!
//! Every mutating operation on [`RealStorage`] is durable when it
//! returns: appends and whole-file writes `fsync` the file, and a new
//! *name* (a create or a rename) becomes durable once [`sync_parent`]
//! has synced the directory holding it. [`write_atomic`] is the only
//! temp-write → rename → directory-sync sequence: checkpoint saves
//! ([`crate::serial::save_checkpoint_path`]), the manifest and the
//! incumbent copies of `dar-store` all land through it. `dar-store`'s
//! `FaultyStorage` implements [`Storage`] too, so its injected faults
//! hit exactly the code production runs.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::DarResult;

/// The filesystem surface durable writes are made against.
/// Implementations must make every mutating call durable before
/// returning `Ok` (or honestly fail); a fault-injecting test double is
/// the one implementation allowed to lie, and only on purpose.
pub trait Storage: Send + Sync {
    /// Append `bytes` to the file at `path` (creating it if absent) and
    /// fsync the file.
    fn append_sync(&self, path: &Path, bytes: &[u8]) -> DarResult<()>;
    /// Create/overwrite the file at `path` with `bytes` and fsync it.
    /// The *name* is not durable until the parent directory is synced.
    fn write_file_sync(&self, path: &Path, bytes: &[u8]) -> DarResult<()>;
    fn read(&self, path: &Path) -> DarResult<Vec<u8>>;
    fn rename(&self, from: &Path, to: &Path) -> DarResult<()>;
    fn remove(&self, path: &Path) -> DarResult<()>;
    fn truncate(&self, path: &Path, len: u64) -> DarResult<()>;
    /// fsync a directory, making renames/creations inside it durable.
    fn sync_dir(&self, dir: &Path) -> DarResult<()>;
    fn create_dir_all(&self, dir: &Path) -> DarResult<()>;
    fn exists(&self, path: &Path) -> bool;
    /// File names (not full paths) inside `dir`.
    fn list(&self, dir: &Path) -> DarResult<Vec<String>>;
}

/// `std::fs` with the fsync discipline the trait demands.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealStorage;

impl Storage for RealStorage {
    fn append_sync(&self, path: &Path, bytes: &[u8]) -> DarResult<()> {
        let mut f = OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        Ok(())
    }

    fn write_file_sync(&self, path: &Path, bytes: &[u8]) -> DarResult<()> {
        let mut f = File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        Ok(())
    }

    fn read(&self, path: &Path) -> DarResult<Vec<u8>> {
        Ok(std::fs::read(path)?)
    }

    fn rename(&self, from: &Path, to: &Path) -> DarResult<()> {
        Ok(std::fs::rename(from, to)?)
    }

    fn remove(&self, path: &Path) -> DarResult<()> {
        Ok(std::fs::remove_file(path)?)
    }

    fn truncate(&self, path: &Path, len: u64) -> DarResult<()> {
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(len)?;
        f.sync_all()?;
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> DarResult<()> {
        File::open(dir)?.sync_all()?;
        Ok(())
    }

    fn create_dir_all(&self, dir: &Path) -> DarResult<()> {
        Ok(std::fs::create_dir_all(dir)?)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn list(&self, dir: &Path) -> DarResult<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            names.push(entry?.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    }
}

/// Per-process unique temp-file counter: two threads writing the same
/// destination must never share a temp name (pid alone is not enough).
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A collision-free sibling temp path for `path`:
/// `<stem>.tmp.<pid>.<counter>`. Recovery sweeps leftovers by the
/// `.tmp.` infix (`dar_store::sweep_orphan_tmps`).
pub fn unique_tmp(path: &Path) -> PathBuf {
    let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    path.with_extension(format!("tmp.{}.{n}", std::process::id()))
}

/// fsync the directory holding `path`, making a create or rename of
/// `path` durable: without it a "successfully saved" file can vanish on
/// power loss. A bare file name lives in `.`.
pub fn sync_parent(storage: &dyn Storage, path: &Path) -> DarResult<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    storage.sync_dir(dir)
}

/// Atomically replace the file at `path` with `bytes`, with full fsync
/// discipline: temp write (fsynced) → rename → parent-directory fsync.
/// On any failure the destination is untouched and the temp file is
/// cleaned up best-effort — a partial file is never visible at `path`.
pub fn write_atomic(storage: &dyn Storage, path: &Path, bytes: &[u8]) -> DarResult<()> {
    let tmp = unique_tmp(path);
    let result = (|| {
        storage.write_file_sync(&tmp, bytes)?;
        storage.rename(&tmp, path)?;
        sync_parent(storage, path)
    })();
    if result.is_err() {
        storage.remove(&tmp).ok();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dar_tensor_s_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn real_storage_appends_and_truncates() {
        let d = tmpdir("real");
        let f = d.join("a.log");
        let s = RealStorage;
        s.append_sync(&f, b"hello").unwrap();
        s.append_sync(&f, b" world").unwrap();
        assert_eq!(s.read(&f).unwrap(), b"hello world");
        s.truncate(&f, 5).unwrap();
        assert_eq!(s.read(&f).unwrap(), b"hello");
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn unique_tmp_never_collides_across_calls() {
        let p = Path::new("/x/y/model.ckpt");
        let a = unique_tmp(p);
        let b = unique_tmp(p);
        assert_ne!(a, b, "per-call suffix must be unique");
        assert!(a.to_string_lossy().contains(".tmp."));
    }
}
