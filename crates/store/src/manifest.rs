//! The generation manifest: a tiny, atomically-swapped file naming the
//! incumbent checkpoint and its monotonic generation number.
//!
//! # Format (little-endian)
//!
//! ```text
//! magic `DARMAN01` (8 bytes) · generation u64 · incumbent str
//! crc32 u32 — IEEE CRC-32 of every preceding byte
//! ```
//!
//! The manifest is only ever replaced via [`write_atomic`]
//! (temp-write → fsync → rename → directory fsync), so a reader sees
//! either the old manifest or the new one, never a half-written hybrid.
//! Because of that, a CRC failure here is *not* a tolerable torn tail
//! the way it is for the WAL — it means real damage (bit rot, a
//! non-atomic writer) and is surfaced as a hard error rather than
//! silently regressing the generation.

use std::path::Path;

use dar_tensor::serial::{codec, crc32};
use dar_tensor::storage::{write_atomic, Storage};
use dar_tensor::{DarError, DarResult};

const MAGIC: &[u8; 8] = b"DARMAN01";

/// Which checkpoint is the incumbent, and how many promotions deep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Monotonic promotion counter; never reused, never goes backwards.
    pub generation: u64,
    /// File name (relative to the state dir) of the incumbent checkpoint.
    pub incumbent: String,
}

/// Encode + atomically land `manifest` at `path`.
pub fn store_manifest(storage: &dyn Storage, path: &Path, manifest: &Manifest) -> DarResult<()> {
    let mut buf = Vec::with_capacity(32 + manifest.incumbent.len());
    buf.extend_from_slice(MAGIC);
    codec::put_u64(&mut buf, manifest.generation);
    codec::put_str(&mut buf, &manifest.incumbent);
    let crc = crc32(&buf);
    codec::put_u32(&mut buf, crc);
    write_atomic(storage, path, &buf)
}

/// Load the manifest at `path`. `Ok(None)` when the file does not exist
/// (a fresh state dir); hard [`DarError::Corrupt`] on any damage, since
/// atomic swaps mean a broken manifest cannot be benign crash residue.
pub fn load_manifest(storage: &dyn Storage, path: &Path) -> DarResult<Option<Manifest>> {
    if !storage.exists(path) {
        return Ok(None);
    }
    let bytes = storage.read(path)?;
    if bytes.len() < MAGIC.len() + 4 || &bytes[..MAGIC.len()] != MAGIC {
        return Err(DarError::Corrupt(format!(
            "{}: not a manifest",
            path.display()
        )));
    }
    let body = &bytes[..bytes.len() - 4];
    let tail = &bytes[bytes.len() - 4..];
    let want = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
    if crc32(body) != want {
        return Err(DarError::Corrupt(format!(
            "{}: manifest CRC mismatch",
            path.display()
        )));
    }
    let mut c = codec::Cursor::new(&body[MAGIC.len()..]);
    let generation = c.u64()?;
    let incumbent = c.str_()?;
    Ok(Some(Manifest {
        generation,
        incumbent,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dar_tensor::storage::RealStorage;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dar_store_m_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn round_trips_and_missing_is_none() {
        let d = tmpdir("rt");
        let p = d.join("MANIFEST");
        let s = RealStorage;
        assert_eq!(load_manifest(&s, &p).unwrap(), None);
        let m = Manifest {
            generation: 7,
            incumbent: "incumbent_g7.ckpt".to_owned(),
        };
        store_manifest(&s, &p, &m).unwrap();
        assert_eq!(load_manifest(&s, &p).unwrap(), Some(m));
        std::fs::remove_dir_all(&d).ok();
    }

    /// The manifest layout, byte for byte.
    #[test]
    fn manifest_bytes_are_pinned() {
        let d = tmpdir("golden");
        let p = d.join("MANIFEST");
        let m = Manifest {
            generation: 2,
            incumbent: "incumbent_g2.ckpt".to_owned(),
        };
        store_manifest(&RealStorage, &p, &m).unwrap();
        let mut want = b"DARMAN01".to_vec(); // magic
        want.extend_from_slice(&[2, 0, 0, 0, 0, 0, 0, 0]); // generation
        want.extend_from_slice(&[17, 0, 0, 0]); // incumbent length
        want.extend_from_slice(b"incumbent_g2.ckpt");
        want.extend_from_slice(&[0xf9, 0x0f, 0x46, 0xf9]); // CRC-32
        assert_eq!(std::fs::read(&p).unwrap(), want);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn any_bit_flip_is_a_hard_corrupt_error() {
        let d = tmpdir("flip");
        let p = d.join("MANIFEST");
        let s = RealStorage;
        store_manifest(
            &s,
            &p,
            &Manifest {
                generation: 3,
                incumbent: "x.ckpt".to_owned(),
            },
        )
        .unwrap();
        let golden = std::fs::read(&p).unwrap();
        for byte in 0..golden.len() {
            let mut dirty = golden.clone();
            dirty[byte] ^= 0x10;
            std::fs::write(&p, &dirty).unwrap();
            match load_manifest(&s, &p) {
                Err(DarError::Corrupt(_)) | Err(DarError::InvalidData(_)) => {}
                other => panic!("flip at {byte} gave {other:?}"),
            }
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn truncation_is_a_hard_corrupt_error() {
        let d = tmpdir("trunc");
        let p = d.join("MANIFEST");
        let s = RealStorage;
        store_manifest(
            &s,
            &p,
            &Manifest {
                generation: 1,
                incumbent: "a.ckpt".to_owned(),
            },
        )
        .unwrap();
        let golden = std::fs::read(&p).unwrap();
        for cut in 1..golden.len() {
            std::fs::write(&p, &golden[..cut]).unwrap();
            assert!(load_manifest(&s, &p).is_err(), "cut at {cut} was accepted");
        }
        std::fs::remove_dir_all(&d).ok();
    }
}
