//! Durable binary (de)serialization for parameter sets — model
//! checkpointing without external dependencies.
//!
//! # Format v2 (little-endian)
//!
//! ```text
//! magic `DART` · version u32=2 · meta_len u32 · meta bytes
//! tensor count u32 · per tensor: rank u32, dims u32×rank, values f32×numel
//! crc32 u32   — IEEE CRC-32 of every preceding byte
//! ```
//!
//! The `meta` section is an opaque blob for the caller (the trainer stores
//! optimizer/RNG/epoch state there). One codec reads and writes the format:
//! a checkpoint is encoded into memory with the [`codec`] helpers and
//! decoded from the file's bytes. Decoding checks the magic and then the
//! CRC footer before it reads the version or any other header field, so
//! any truncation or single-bit flip is a loud [`DarError::Corrupt`]
//! instead of silently garbage weights. Only version 2 is read; any other
//! version is rejected. A CRC is not a signature — a hostile file can
//! carry a valid one — so header fields stay capped ([`MAX_RANK`],
//! [`MAX_NUMEL`], [`MAX_TENSORS`], [`MAX_META_LEN`]) and cannot OOM the
//! loader.
//!
//! Every checkpoint lands through [`save_checkpoint_atomic`], which hands
//! the encoded bytes to [`write_atomic`]: a crash mid-save can never
//! leave a half-written checkpoint under the real name.
//! [`save_checkpoint_path`] is that save on [`RealStorage`].

use std::path::Path;

use crate::error::{DarError, DarResult};
use crate::storage::{write_atomic, RealStorage, Storage};
use crate::Tensor;

const MAGIC: &[u8; 4] = b"DART";
const VERSION: u32 = 2;

/// Largest admissible tensor rank.
pub const MAX_RANK: usize = 8;
/// Largest admissible element count per tensor (256M floats = 1 GiB).
pub const MAX_NUMEL: usize = 1 << 28;
/// Largest admissible tensor count per checkpoint.
pub const MAX_TENSORS: usize = 1 << 16;
/// Largest admissible metadata blob (64 MiB).
pub const MAX_META_LEN: usize = 1 << 26;

/// Little-endian scalar encode/decode helpers, shared by the checkpoint
/// format and by downstream encoders (the trainer's resume state, the
/// WAL records and the manifest of `dar-store`).
pub mod codec {
    use super::*;

    pub fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f32(out: &mut Vec<u8>, v: f32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f32s(out: &mut Vec<u8>, vs: &[f32]) {
        put_u32(out, vs.len() as u32);
        for &v in vs {
            put_f32(out, v);
        }
    }

    /// Length-prefixed byte string.
    pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
        put_u32(out, bytes.len() as u32);
        out.extend_from_slice(bytes);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(out: &mut Vec<u8>, s: &str) {
        put_bytes(out, s.as_bytes());
    }

    /// A bounds-checked cursor over an encoded byte slice.
    pub struct Cursor<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Cursor<'a> {
        pub fn new(buf: &'a [u8]) -> Self {
            Cursor { buf, pos: 0 }
        }

        pub fn is_empty(&self) -> bool {
            self.pos >= self.buf.len()
        }

        fn take(&mut self, n: usize) -> DarResult<&'a [u8]> {
            let end = self
                .pos
                .checked_add(n)
                .filter(|&e| e <= self.buf.len())
                .ok_or_else(|| {
                    DarError::InvalidData(format!("record truncated at byte {}", self.pos))
                })?;
            let s = &self.buf[self.pos..end];
            self.pos = end;
            Ok(s)
        }

        pub fn u32(&mut self) -> DarResult<u32> {
            let b = self.take(4)?;
            Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        }

        pub fn u64(&mut self) -> DarResult<u64> {
            let b = self.take(8)?;
            Ok(u64::from_le_bytes([
                b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
            ]))
        }

        pub fn f32(&mut self) -> DarResult<f32> {
            let b = self.take(4)?;
            Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        }

        pub fn f32s(&mut self) -> DarResult<Vec<f32>> {
            let n = self.u32()? as usize;
            if n > MAX_NUMEL {
                return Err(DarError::InvalidData(format!(
                    "metadata vector of {n} floats"
                )));
            }
            self.f32_n(n)
        }

        /// `n` floats without a length prefix; the caller bounds `n`.
        pub(crate) fn f32_n(&mut self, n: usize) -> DarResult<Vec<f32>> {
            let bytes = self.take(n.saturating_mul(4))?;
            Ok(bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect())
        }

        /// Length-prefixed byte string ([`put_bytes`]).
        pub fn bytes(&mut self) -> DarResult<Vec<u8>> {
            let n = self.u32()? as usize;
            if n > MAX_META_LEN {
                return Err(DarError::InvalidData(format!(
                    "metadata byte string of {n} bytes"
                )));
            }
            Ok(self.take(n)?.to_vec())
        }

        /// Length-prefixed UTF-8 string ([`put_str`]).
        pub fn str_(&mut self) -> DarResult<String> {
            String::from_utf8(self.bytes()?)
                .map_err(|_| DarError::InvalidData("metadata string is not UTF-8".to_owned()))
        }
    }
}

/// IEEE CRC-32 (reflected, poly 0xEDB88320), bytewise: the checkpoint
/// footer, the WAL frames and the manifest of `dar-store` all use it.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    crc ^ 0xFFFF_FFFF
}

/// Tensors plus an opaque caller-owned metadata blob.
#[derive(Debug, Clone, Default)]
pub struct Checkpoint {
    pub tensors: Vec<Tensor>,
    pub meta: Vec<u8>,
}

impl Checkpoint {
    pub fn new(tensors: Vec<Tensor>, meta: Vec<u8>) -> Self {
        Checkpoint { tensors, meta }
    }
}

/// Encode a checkpoint as format v2, CRC footer included.
fn encode(ckpt: &Checkpoint) -> DarResult<Vec<u8>> {
    if ckpt.meta.len() > MAX_META_LEN {
        return Err(DarError::InvalidData(format!(
            "metadata blob of {} bytes (cap {MAX_META_LEN})",
            ckpt.meta.len()
        )));
    }
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    codec::put_u32(&mut out, VERSION);
    codec::put_bytes(&mut out, &ckpt.meta);
    codec::put_u32(&mut out, ckpt.tensors.len() as u32);
    for t in &ckpt.tensors {
        codec::put_u32(&mut out, t.shape().len() as u32);
        for &d in t.shape() {
            codec::put_u32(&mut out, d as u32);
        }
        for &v in t.values().iter() {
            codec::put_f32(&mut out, v);
        }
    }
    let crc = crc32(&out);
    codec::put_u32(&mut out, crc);
    Ok(out)
}

/// Decode the bytes of a v2 checkpoint file. Magic and CRC come first, so
/// damage is always [`DarError::Corrupt`]; a CRC-clean file with an
/// unknown version or an over-cap header field is
/// [`DarError::InvalidData`]. Never returns garbage weights.
fn decode(bytes: &[u8]) -> DarResult<Checkpoint> {
    let (body, footer) = match bytes.len().checked_sub(4) {
        Some(n) if n >= MAGIC.len() => bytes.split_at(n),
        _ => {
            return Err(DarError::Corrupt(
                "file ends mid-record (truncated)".to_owned(),
            ))
        }
    };
    if &body[..MAGIC.len()] != MAGIC {
        return Err(DarError::Corrupt(
            "not a DART checkpoint (bad magic)".to_owned(),
        ));
    }
    let stored = u32::from_le_bytes([footer[0], footer[1], footer[2], footer[3]]);
    let computed = crc32(body);
    if computed != stored {
        return Err(DarError::Corrupt(format!(
            "CRC-32 mismatch: stored {stored:#010x}, computed {computed:#010x}"
        )));
    }

    let mut c = codec::Cursor::new(&body[MAGIC.len()..]);
    let version = c.u32()?;
    if version != VERSION {
        return Err(DarError::InvalidData(format!(
            "unsupported checkpoint version {version}"
        )));
    }
    let meta = c.bytes()?;
    let count = c.u32()? as usize;
    if count > MAX_TENSORS {
        return Err(DarError::InvalidData(format!(
            "checkpoint claims {count} tensors (cap {MAX_TENSORS})"
        )));
    }
    let mut tensors = Vec::with_capacity(count);
    for i in 0..count {
        let rank = c.u32()? as usize;
        if rank > MAX_RANK {
            return Err(DarError::InvalidData(format!(
                "tensor {i} claims rank {rank} (cap {MAX_RANK})"
            )));
        }
        let mut shape = Vec::with_capacity(rank);
        let mut n: usize = 1;
        for _ in 0..rank {
            let d = c.u32()? as usize;
            n = n
                .checked_mul(d)
                .filter(|&n| n <= MAX_NUMEL)
                .ok_or_else(|| {
                    DarError::InvalidData(format!(
                        "tensor {i} dims {shape:?}×{d} exceed the {MAX_NUMEL}-element cap"
                    ))
                })?;
            shape.push(d);
        }
        tensors.push(Tensor::new(c.f32_n(n)?, &shape));
    }
    if !c.is_empty() {
        return Err(DarError::InvalidData(
            "trailing bytes after the tensor block".to_owned(),
        ));
    }
    Ok(Checkpoint { tensors, meta })
}

/// Atomically save a checkpoint through `storage`: the v2 bytes go to a
/// sibling temp file (per-call unique name), which is fsynced, renamed
/// over `path`, and the parent directory fsynced ([`write_atomic`]), so
/// readers never observe a partially written checkpoint at `path` and a
/// crash after return cannot lose the rename.
pub fn save_checkpoint_atomic(
    storage: &dyn Storage,
    path: &Path,
    ckpt: &Checkpoint,
) -> DarResult<()> {
    write_atomic(storage, path, &encode(ckpt)?)
}

/// [`save_checkpoint_atomic`] on the real filesystem.
pub fn save_checkpoint_path(path: impl AsRef<Path>, ckpt: &Checkpoint) -> DarResult<()> {
    save_checkpoint_atomic(&RealStorage, path.as_ref(), ckpt)
}

/// Load a checkpoint from a file path.
pub fn load_checkpoint_path(path: impl AsRef<Path>) -> DarResult<Checkpoint> {
    decode(&std::fs::read(path)?)
}

/// Save a parameter list to a file path (atomic, empty metadata).
pub fn save_path(path: impl AsRef<Path>, tensors: &[Tensor]) -> DarResult<()> {
    save_checkpoint_path(
        path,
        &Checkpoint {
            tensors: tensors.to_vec(),
            meta: Vec::new(),
        },
    )
}

/// Copy loaded tensor values into an existing parameter list (shapes must
/// match pairwise).
pub fn restore_into(loaded: &[Tensor], params: &[Tensor]) -> DarResult<()> {
    if loaded.len() != params.len() {
        return Err(DarError::InvalidData(format!(
            "checkpoint has {} tensors, model has {}",
            loaded.len(),
            params.len()
        )));
    }
    for (src, dst) in loaded.iter().zip(params) {
        if src.shape() != dst.shape() {
            return Err(DarError::ShapeMismatch {
                expected: dst.shape().to_vec(),
                got: src.shape().to_vec(),
            });
        }
    }
    // Validate everything before mutating anything, so a bad checkpoint
    // cannot leave the model half-restored.
    for (src, dst) in loaded.iter().zip(params) {
        dst.set_values(src.to_vec());
    }
    Ok(())
}

/// Load a checkpoint file into an existing parameter list (shapes must
/// match pairwise).
pub fn load_into(path: impl AsRef<Path>, params: &[Tensor]) -> DarResult<()> {
    restore_into(&load_checkpoint_path(path)?.tensors, params)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dar_serial_{name}_{}", std::process::id()));
        p
    }

    /// `body` followed by its CRC-32 footer: a header that passes the
    /// integrity check, so the checks behind it are what is exercised.
    fn with_crc(mut body: Vec<u8>) -> Vec<u8> {
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        body
    }

    /// Magic, version 2 and an empty metadata blob.
    fn v2_header() -> Vec<u8> {
        let mut data = MAGIC.to_vec();
        data.extend_from_slice(&VERSION.to_le_bytes());
        data.extend_from_slice(&0u32.to_le_bytes());
        data
    }

    #[test]
    fn crc32_matches_known_vector() {
        // CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn roundtrip_preserves_values_and_shapes() {
        let a = Tensor::param(vec![1.5, -2.25, 3.125, 0.0], &[2, 2]);
        let b = Tensor::param(vec![7.0; 3], &[3]);
        let path = tmpfile("roundtrip");
        save_path(&path, &[a.clone(), b.clone()]).unwrap();
        let dst_a = Tensor::param(vec![0.0; 4], &[2, 2]);
        let dst_b = Tensor::param(vec![0.0; 3], &[3]);
        load_into(&path, &[dst_a.clone(), dst_b.clone()]).unwrap();
        assert_eq!(dst_a.to_vec(), a.to_vec());
        assert_eq!(dst_b.to_vec(), b.to_vec());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn meta_roundtrips() {
        let ckpt = Checkpoint::new(vec![Tensor::zeros(&[2])], b"trainer state".to_vec());
        let back = decode(&encode(&ckpt).unwrap()).unwrap();
        assert_eq!(back.meta, b"trainer state");
        assert_eq!(back.tensors.len(), 1);
    }

    /// The v2 layout, byte for byte: a change here would make existing
    /// checkpoints unreadable or silently different.
    #[test]
    fn v2_encoding_is_pinned() {
        let ckpt = Checkpoint::new(
            vec![
                Tensor::new(vec![1.0, -2.0], &[2]),
                Tensor::new(vec![0.5], &[1, 1]),
            ],
            b"ab".to_vec(),
        );
        #[rustfmt::skip]
        let want: &[u8] = &[
            b'D', b'A', b'R', b'T',                 // magic
            2, 0, 0, 0,                             // version
            2, 0, 0, 0, b'a', b'b',                 // meta_len, meta
            2, 0, 0, 0,                             // tensor count
            1, 0, 0, 0, 2, 0, 0, 0,                 // rank 1, dims [2]
            0, 0, 0x80, 0x3f, 0, 0, 0, 0xc0,        // 1.0, -2.0
            2, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0,     // rank 2, dims [1, 1]
            0, 0, 0, 0x3f,                          // 0.5
            0xf6, 0xf5, 0xa7, 0x0b,                 // CRC-32
        ];
        assert_eq!(encode(&ckpt).unwrap(), want);
    }

    #[test]
    fn rejects_wrong_magic() {
        assert!(matches!(
            decode(b"NOPE\x01\x00\x00\x00"),
            Err(DarError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_unknown_version() {
        // A real version-1 file (no metadata, no footer) fails the CRC.
        let mut v1 = MAGIC.to_vec();
        for field in [1u32, 1, 1, 2] {
            v1.extend_from_slice(&field.to_le_bytes()); // version, count, rank, dim
        }
        v1.extend_from_slice(&[0; 8]); // two f32 values
        assert!(matches!(decode(&v1), Err(DarError::Corrupt(_))));

        // A CRC-clean header naming any version but 2 is unsupported.
        for version in [1u32, 7] {
            let mut body = MAGIC.to_vec();
            body.extend_from_slice(&version.to_le_bytes());
            body.extend_from_slice(&0u32.to_le_bytes());
            let want = format!("version {version}");
            assert!(matches!(
                decode(&with_crc(body)),
                Err(DarError::InvalidData(msg)) if msg.contains(&want)
            ));
        }
    }

    #[test]
    fn rejects_hostile_rank_and_dims() {
        // rank beyond the cap
        let mut data = v2_header();
        data.extend_from_slice(&1u32.to_le_bytes()); // count
        data.extend_from_slice(&u32::MAX.to_le_bytes()); // rank
        assert!(matches!(
            decode(&with_crc(data)),
            Err(DarError::InvalidData(_))
        ));

        // dims whose product would OOM
        let mut data = v2_header();
        data.extend_from_slice(&1u32.to_le_bytes()); // count
        data.extend_from_slice(&3u32.to_le_bytes()); // rank
        for _ in 0..3 {
            data.extend_from_slice(&100_000u32.to_le_bytes());
        }
        assert!(matches!(
            decode(&with_crc(data)),
            Err(DarError::InvalidData(_))
        ));

        // hostile tensor count
        let mut data = v2_header();
        data.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode(&with_crc(data)),
            Err(DarError::InvalidData(_))
        ));

        // hostile metadata length
        let mut data = MAGIC.to_vec();
        data.extend_from_slice(&VERSION.to_le_bytes());
        data.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode(&with_crc(data)),
            Err(DarError::InvalidData(_))
        ));
    }

    #[test]
    fn truncation_is_corrupt_not_garbage() {
        let ckpt = Checkpoint::new(vec![Tensor::param(vec![1.0; 10], &[10])], vec![1, 2, 3]);
        let buf = encode(&ckpt).unwrap();
        for keep in 0..buf.len() {
            let err = decode(&buf[..keep]).unwrap_err();
            assert!(
                matches!(err, DarError::Corrupt(_)),
                "prefix of {keep} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn bitflip_fails_crc() {
        // Two tensors and no metadata (80 bytes), then one tensor with a
        // metadata blob: every single-bit flip, header fields included,
        // must load as `Corrupt`.
        let ckpts = [
            Checkpoint::new(
                vec![
                    Tensor::param(vec![0.5; 6], &[2, 3]),
                    Tensor::param(vec![-1.0; 4], &[4]),
                ],
                Vec::new(),
            ),
            Checkpoint::new(vec![Tensor::param(vec![0.5; 8], &[2, 4])], vec![9; 16]),
        ];
        for ckpt in &ckpts {
            let buf = encode(ckpt).unwrap();
            for i in 0..buf.len() {
                for bit in 0..8 {
                    let mut bad = buf.clone();
                    bad[i] ^= 1 << bit;
                    let got = decode(&bad);
                    assert!(
                        matches!(got, Err(DarError::Corrupt(_))),
                        "flip of bit {bit} at byte {i} gave {got:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_shape_mismatch() {
        let path = tmpfile("mismatch");
        save_path(&path, &[Tensor::zeros(&[2, 2])]).unwrap();
        let dst = Tensor::zeros(&[4]);
        assert!(matches!(
            load_into(&path, &[dst]),
            Err(DarError::ShapeMismatch { .. })
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_count_mismatch() {
        let path = tmpfile("count");
        save_path(&path, &[Tensor::zeros(&[1])]).unwrap();
        assert!(load_into(&path, &[]).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn atomic_save_leaves_no_temp_droppings() {
        let path = tmpfile("atomic");
        save_path(&path, &[Tensor::zeros(&[3])]).unwrap();
        let dir = path.parent().unwrap();
        let stem = path.file_name().unwrap().to_string_lossy().to_string();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().to_string())
            .filter(|n| n.starts_with(&stem) && n.contains("tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn concurrent_saves_to_one_path_never_collide_on_temp_names() {
        // Regression: the temp suffix used to be pid-only, so two threads
        // saving to the same destination raced on one temp file and could
        // rename each other's half-written bytes into place.
        let path = tmpfile("concurrent");
        let threads: Vec<_> = (0..8u32)
            .map(|i| {
                let path = path.clone();
                std::thread::spawn(move || {
                    let t = Tensor::new(vec![i as f32; 64], &[64]);
                    save_path(&path, &[t]).unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Whatever save won, the file must be whole and CRC-clean…
        let loaded = load_checkpoint_path(&path).unwrap();
        assert_eq!(loaded.tensors[0].shape(), &[64]);
        // …and no temp droppings may remain.
        let dir = path.parent().unwrap();
        let stem = path.file_name().unwrap().to_string_lossy().to_string();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().to_string())
            .filter(|n| n.starts_with(&stem) && n.contains("tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn codec_cursor_roundtrips_and_bounds_checks() {
        let mut buf = Vec::new();
        codec::put_u32(&mut buf, 7);
        codec::put_u64(&mut buf, u64::MAX - 3);
        codec::put_f32(&mut buf, -1.25);
        codec::put_f32s(&mut buf, &[1.0, 2.0, 3.0]);
        codec::put_str(&mut buf, "Dar");
        let mut c = codec::Cursor::new(&buf);
        assert_eq!(c.u32().unwrap(), 7);
        assert_eq!(c.u64().unwrap(), u64::MAX - 3);
        assert_eq!(c.f32().unwrap(), -1.25);
        assert_eq!(c.f32s().unwrap(), vec![1.0, 2.0, 3.0]);
        assert_eq!(c.str_().unwrap(), "Dar");
        assert!(c.is_empty());
        assert!(c.u32().is_err(), "read past end must error");
    }

    #[test]
    fn codec_rejects_non_utf8_strings() {
        let mut buf = Vec::new();
        codec::put_bytes(&mut buf, &[0xFF, 0xFE]);
        assert!(codec::Cursor::new(&buf).str_().is_err());
    }
}
