//! CRC-framed write-ahead log with torn-tail-tolerant replay.
//!
//! # File format (little-endian)
//!
//! ```text
//! magic `DARWAL01` (8 bytes)
//! frame*: len u32 · crc u32 (IEEE CRC-32 of payload) · payload bytes
//! ```
//!
//! The frame CRC is the workspace's one CRC-32
//! ([`dar_tensor::serial::crc32`]), and creating the file syncs its
//! parent directory through [`dar_tensor::storage::sync_parent`], so the
//! log's name survives a crash.
//!
//! Every append is a single `append_sync` (write + fsync) of one whole
//! frame, so a crash can only damage the *last* write: either its frame
//! is whole and CRC-clean (committed) or the file ends in a torn prefix
//! of it.
//! Replay walks frames until the first bad one — zero/oversized length,
//! short payload, or CRC mismatch — and reports the byte offset of the
//! damage; [`Wal::open`] then truncates the file there so the log is
//! clean for subsequent appends. Nothing before the tear is ever
//! touched, which is the whole crash-consistency argument: a record is
//! committed exactly when its frame is durable and whole.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dar_tensor::serial::crc32;
use dar_tensor::storage::{sync_parent, Storage};
use dar_tensor::{DarError, DarResult};

const MAGIC: &[u8; 8] = b"DARWAL01";

/// Largest admissible frame payload (1 MiB) — state records are tens of
/// bytes, so anything bigger is corruption, not data.
pub const MAX_FRAME: usize = 1 << 20;

/// What replay found: the committed payloads, where the clean prefix
/// ends, and how many trailing bytes were torn garbage.
#[derive(Debug)]
pub struct WalReplay {
    /// Payloads of every whole, CRC-clean frame, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte offset of the end of the clean prefix (truncation point).
    pub clean_len: u64,
    /// Bytes past `clean_len` that were discarded as a torn tail.
    pub torn_bytes: u64,
}

/// An append-only handle on one WAL file.
pub struct Wal {
    storage: Arc<dyn Storage>,
    path: PathBuf,
}

impl Wal {
    /// Open (creating if absent) the WAL at `path`, replay it, and heal
    /// any torn tail by truncating at the first bad frame. Returns the
    /// handle plus everything the clean prefix contained.
    ///
    /// A file shorter than the magic is treated as a torn *creation*
    /// (the process died while writing the very first bytes) as long as
    /// what is there is a prefix of the magic; it is rewritten. A file
    /// whose first 8 bytes are present but wrong is not a WAL at all
    /// and is a hard [`DarError::Corrupt`].
    pub fn open(
        storage: Arc<dyn Storage>,
        path: impl Into<PathBuf>,
    ) -> DarResult<(Self, WalReplay)> {
        let path = path.into();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            storage.create_dir_all(dir)?;
        }
        let mut replay = WalReplay {
            records: Vec::new(),
            clean_len: MAGIC.len() as u64,
            torn_bytes: 0,
        };
        if !storage.exists(&path) {
            storage.append_sync(&path, MAGIC)?;
            sync_parent(&*storage, &path)?;
            return Ok((Wal { storage, path }, replay));
        }

        let bytes = storage.read(&path)?;
        if bytes.len() < MAGIC.len() {
            if MAGIC.starts_with(&bytes[..]) {
                // Torn creation: rewrite the header.
                storage.truncate(&path, 0)?;
                storage.append_sync(&path, MAGIC)?;
                sync_parent(&*storage, &path)?;
                replay.torn_bytes = bytes.len() as u64;
                return Ok((Wal { storage, path }, replay));
            }
            return Err(DarError::Corrupt(format!(
                "{}: {} bytes that are not a WAL header",
                path.display(),
                bytes.len()
            )));
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(DarError::Corrupt(format!(
                "{}: bad WAL magic",
                path.display()
            )));
        }

        let mut pos = MAGIC.len();
        loop {
            if pos == bytes.len() {
                break; // clean end
            }
            let Some((payload, next)) = Self::frame_at(&bytes, pos) else {
                break; // torn or corrupt tail starts at `pos`
            };
            replay.records.push(payload);
            pos = next;
        }
        replay.clean_len = pos as u64;
        replay.torn_bytes = (bytes.len() - pos) as u64;
        if replay.torn_bytes > 0 {
            storage.truncate(&path, replay.clean_len)?;
        }
        Ok((Wal { storage, path }, replay))
    }

    /// Decode the frame starting at `pos`; `None` if it is torn or
    /// CRC-dirty (i.e. the clean prefix ends at `pos`).
    fn frame_at(bytes: &[u8], pos: usize) -> Option<(Vec<u8>, usize)> {
        let header_end = pos.checked_add(8)?;
        if header_end > bytes.len() {
            return None;
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        if len == 0 || len > MAX_FRAME {
            return None;
        }
        let want_crc = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        let end = header_end.checked_add(len)?;
        if end > bytes.len() {
            return None;
        }
        let payload = &bytes[header_end..end];
        if crc32(payload) != want_crc {
            return None;
        }
        Some((payload.to_vec(), end))
    }

    /// Append one record as a framed, fsynced write. When this returns
    /// `Ok` the record is committed: replay after any later crash will
    /// yield it.
    pub fn append(&self, payload: &[u8]) -> DarResult<()> {
        if payload.is_empty() || payload.len() > MAX_FRAME {
            return Err(DarError::InvalidData(format!(
                "WAL payload of {} bytes (admissible 1..={MAX_FRAME})",
                payload.len()
            )));
        }
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.storage.append_sync(&self.path, &frame)
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dar_tensor::storage::RealStorage;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dar_store_w_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn storage() -> Arc<dyn Storage> {
        Arc::new(RealStorage)
    }

    #[test]
    fn append_then_replay_round_trips() {
        let d = tmpdir("rt");
        let p = d.join("w.wal");
        let (wal, r) = Wal::open(storage(), &p).unwrap();
        assert!(r.records.is_empty());
        wal.append(b"alpha").unwrap();
        wal.append(b"beta").unwrap();
        drop(wal);
        let (_, r) = Wal::open(storage(), &p).unwrap();
        assert_eq!(r.records, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        assert_eq!(r.torn_bytes, 0);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_log_stays_appendable() {
        let d = tmpdir("tear");
        let p = d.join("w.wal");
        let (wal, _) = Wal::open(storage(), &p).unwrap();
        wal.append(b"committed").unwrap();
        drop(wal);
        // Simulate a crash mid-append: garbage half-frame at the tail.
        RealStorage.append_sync(&p, &[9, 0, 0, 0, 1, 2]).unwrap();
        let (wal, r) = Wal::open(storage(), &p).unwrap();
        assert_eq!(r.records, vec![b"committed".to_vec()]);
        assert_eq!(r.torn_bytes, 6);
        wal.append(b"after").unwrap();
        drop(wal);
        let (_, r) = Wal::open(storage(), &p).unwrap();
        assert_eq!(r.records, vec![b"committed".to_vec(), b"after".to_vec()]);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn every_tear_offset_preserves_the_committed_prefix() {
        // Golden file with 3 records, then for every possible truncation
        // length, plus a bit-flip at every byte of the tail frame: replay
        // must never lose a whole earlier record or invent one.
        let d = tmpdir("sweep");
        let p = d.join("w.wal");
        let (wal, _) = Wal::open(storage(), &p).unwrap();
        for r in 0..3u8 {
            wal.append(&[r; 16]).unwrap();
        }
        drop(wal);
        let golden = std::fs::read(&p).unwrap();
        for cut in 0..golden.len() {
            let q = d.join(format!("cut{cut}.wal"));
            std::fs::write(&q, &golden[..cut]).unwrap();
            match Wal::open(storage(), &q) {
                Ok((_, r)) => {
                    let whole = cut.saturating_sub(8) / 24; // frames fully inside the cut
                    assert_eq!(r.records.len(), whole.min(3), "cut at {cut}");
                    for (i, rec) in r.records.iter().enumerate() {
                        assert_eq!(rec, &vec![i as u8; 16], "cut at {cut}");
                    }
                }
                Err(_) => assert!(cut < 8, "hard error only for a non-WAL header"),
            }
        }
        // Bit flips inside the last frame: first two records must survive.
        for byte in (golden.len() - 24)..golden.len() {
            let mut dirty = golden.clone();
            dirty[byte] ^= 0x40;
            let q = d.join(format!("flip{byte}.wal"));
            std::fs::write(&q, &dirty).unwrap();
            let (_, r) = Wal::open(storage(), &q).unwrap();
            assert!(
                r.records.len() >= 2,
                "flip at {byte} lost a committed record"
            );
            assert_eq!(&r.records[0], &vec![0u8; 16]);
            assert_eq!(&r.records[1], &vec![1u8; 16]);
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn non_wal_file_is_a_hard_corrupt_error() {
        let d = tmpdir("notwal");
        let p = d.join("w.wal");
        std::fs::write(&p, b"definitely not a wal").unwrap();
        assert!(matches!(
            Wal::open(storage(), &p),
            Err(DarError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn torn_creation_is_healed() {
        let d = tmpdir("torncreate");
        let p = d.join("w.wal");
        std::fs::write(&p, &MAGIC[..3]).unwrap();
        let (wal, r) = Wal::open(storage(), &p).unwrap();
        assert_eq!(r.torn_bytes, 3);
        wal.append(b"ok").unwrap();
        drop(wal);
        let (_, r) = Wal::open(storage(), &p).unwrap();
        assert_eq!(r.records, vec![b"ok".to_vec()]);
        std::fs::remove_dir_all(&d).ok();
    }
}
