//! Checksummed, atomically-replaced snapshots of full engine state.
//!
//! File layout (all integers little-endian, `disc_data::binary`
//! conventions):
//!
//! ```text
//! [8-byte magic "DISCSNP1"][u32 version][u32 payload_len][u32 crc32(payload)][payload]
//! payload = [u32-prefixed config blob]      (opaque to this layer)
//!           [schema]                        (binary::encode_schema)
//!           [u64 generation]
//!           [u32 shards]                    (engine shard count)
//!           [rows original][rows current]   (binary::encode_rows)
//!           [u32 n][u64 count     × n]
//!           [u32 n][δ_η list tag  × n]      (0 = outlier, 1 + u32 k + f64 × k)
//!           [u32 p][u64 row       × p]      (pending, ascending)
//! ```
//!
//! Write protocol, one staging function for every image the store
//! writes (its own checkpoints and genesis image, and the leader images
//! a follower installs verbatim): the full image goes to
//! `engine.snap.tmp`, is fsynced, renamed over `engine.snap`, and the
//! directory is fsynced — so the visible snapshot file is always
//! complete. A crash mid-write leaves at worst a stale `.tmp` (cleaned
//! on the next open) and the previous snapshot intact. Because no crash
//! can expose a partial snapshot, *any* validation failure on read is
//! [`Error::Corrupt`].

use std::fs::OpenOptions;
use std::path::Path;

use disc_core::{EngineState, NearestTable};
use disc_data::binary::{self, Reader};
use disc_data::Schema;
use disc_obs::counters;

use crate::crc::crc32;
use crate::error::Error;
use crate::io;

/// First 8 bytes of every snapshot file.
pub const SNAP_MAGIC: &[u8; 8] = b"DISCSNP1";

/// Current snapshot format version. Version 2 added the engine shard
/// count after the generation; version-1 files are refused with a clear
/// error rather than guessed at.
pub const SNAP_VERSION: u32 = 2;

/// Everything a snapshot persists: the schema, an opaque saver-config
/// blob (the CLI stores its `(ε, η, κ, …)` knobs here so `disc recover`
/// needs no flags), and the engine's logical state.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotData {
    /// The dataset schema.
    pub schema: Schema,
    /// Caller-defined saver configuration bytes, returned verbatim.
    pub config: Vec<u8>,
    /// The shard count of the engine that wrote the snapshot. Restoring
    /// honors it by default, so a store reopens with the same partition
    /// layout it closed with; callers may override it (the image itself
    /// is shard-agnostic — any count restores bit-identically).
    pub shards: u32,
    /// The engine image (see [`EngineState`]).
    pub state: EngineState,
}

fn encode_payload(data: &SnapshotData) -> Vec<u8> {
    let mut out = Vec::new();
    binary::put_bytes(&mut out, &data.config);
    binary::encode_schema(&mut out, &data.schema);
    binary::put_u64(&mut out, data.state.generation);
    binary::put_u32(&mut out, data.shards);
    binary::encode_rows(&mut out, &data.state.original);
    binary::encode_rows(&mut out, &data.state.current);
    binary::put_u32(&mut out, data.state.counts.len() as u32);
    for &c in &data.state.counts {
        binary::put_u64(&mut out, c as u64);
    }
    binary::put_u32(&mut out, data.state.nearest.len() as u32);
    for list in data.state.nearest.iter() {
        match list {
            None => out.push(0),
            Some(ds) => {
                out.push(1);
                binary::put_u32(&mut out, ds.len() as u32);
                for &d in ds {
                    binary::put_f64(&mut out, d);
                }
            }
        }
    }
    binary::put_u32(&mut out, data.state.pending.len() as u32);
    for &row in &data.state.pending {
        binary::put_u64(&mut out, row as u64);
    }
    out
}

fn decode_payload(payload: &[u8]) -> Result<SnapshotData, String> {
    let mut r = Reader::new(payload);
    let config = binary::take_bytes(&mut r, "config blob")
        .map_err(|e| e.to_string())?
        .to_vec();
    let schema = binary::decode_schema(&mut r).map_err(|e| e.to_string())?;
    let generation = r.u64("snapshot generation").map_err(|e| e.to_string())?;
    let shards = r.u32("shard count").map_err(|e| e.to_string())?;
    if shards < 1 {
        return Err("shard count must be at least 1".into());
    }
    let original = binary::decode_rows(&mut r).map_err(|e| e.to_string())?;
    let current = binary::decode_rows(&mut r).map_err(|e| e.to_string())?;
    let n = r
        .count(8, "count table length")
        .map_err(|e| e.to_string())?;
    let mut counts = Vec::with_capacity(n);
    for _ in 0..n {
        counts.push(r.u64("neighbor count").map_err(|e| e.to_string())? as usize);
    }
    let n = r
        .count(1, "nearest table length")
        .map_err(|e| e.to_string())?;
    let mut nearest = NearestTable::with_capacity(0, n);
    let mut ds = Vec::new();
    for _ in 0..n {
        match r.u8("δ_η list tag").map_err(|e| e.to_string())? {
            0 => nearest.push(None),
            1 => {
                let k = r.count(8, "δ_η list length").map_err(|e| e.to_string())?;
                ds.clear();
                for _ in 0..k {
                    ds.push(r.f64("δ_η distance").map_err(|e| e.to_string())?);
                }
                nearest.push(Some(&ds));
            }
            tag => return Err(format!("unknown δ_η list tag {tag:#04x}")),
        }
    }
    let p = r
        .count(8, "pending set length")
        .map_err(|e| e.to_string())?;
    let mut pending = Vec::with_capacity(p);
    for _ in 0..p {
        pending.push(r.u64("pending row").map_err(|e| e.to_string())? as usize);
    }
    if !r.is_exhausted() {
        return Err(format!("{} trailing payload bytes", r.remaining()));
    }
    Ok(SnapshotData {
        schema,
        config,
        shards,
        state: EngineState {
            generation,
            original,
            current,
            counts,
            nearest,
            pending,
        },
    })
}

/// The snapshot file within a store directory.
pub fn snapshot_path(dir: &Path) -> std::path::PathBuf {
    dir.join("engine.snap")
}

/// The scratch file a snapshot is staged in before the atomic rename.
pub fn snapshot_tmp_path(dir: &Path) -> std::path::PathBuf {
    dir.join("engine.snap.tmp")
}

/// Encodes `data` as a complete snapshot file image (magic, version,
/// length, checksum, payload) — the exact bytes [`write_snapshot`]
/// stages, and the unit replication ships when a follower bootstraps:
/// shipping the file image rather than a re-encoding means the follower
/// installs bit-for-bit what the leader would recover from.
pub fn snapshot_to_bytes(data: &SnapshotData) -> Vec<u8> {
    let payload = encode_payload(data);
    let mut bytes = Vec::with_capacity(20 + payload.len());
    bytes.extend_from_slice(SNAP_MAGIC);
    binary::put_u32(&mut bytes, SNAP_VERSION);
    binary::put_u32(&mut bytes, payload.len() as u32);
    binary::put_u32(&mut bytes, crc32(&payload));
    bytes.extend_from_slice(&payload);
    bytes
}

/// Fully validates and decodes a snapshot file image — the inverse of
/// [`snapshot_to_bytes`], shared by [`read_snapshot`] and the
/// replication follower (which validates shipped bytes *before* writing
/// them into its own store). The error is a bare detail string; callers
/// attach path or peer context.
pub fn snapshot_from_bytes(bytes: &[u8]) -> Result<SnapshotData, String> {
    if bytes.len() < 20 {
        return Err(format!("file is only {} bytes", bytes.len()));
    }
    if &bytes[..8] != SNAP_MAGIC {
        return Err(format!("bad magic {:?}", &bytes[..8]));
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != SNAP_VERSION {
        return Err(format!(
            "unsupported version {version} (this build reads {SNAP_VERSION})"
        ));
    }
    let len = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
    let crc = u32::from_le_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]);
    let payload = bytes
        .get(20..20 + len)
        .ok_or_else(|| format!("payload truncated: header claims {len} bytes"))?;
    if bytes.len() != 20 + len {
        return Err(format!(
            "{} trailing bytes after payload",
            bytes.len() - 20 - len
        ));
    }
    if crc32(payload) != crc {
        return Err("payload checksum mismatch".into());
    }
    decode_payload(payload).map_err(|e| format!("payload does not decode: {e}"))
}

/// Writes `data` atomically: stage to `engine.snap.tmp`, fsync, rename
/// over `engine.snap`, fsync the directory.
pub fn write_snapshot(dir: &Path, data: &SnapshotData) -> Result<(), Error> {
    stage_snapshot(dir, &snapshot_to_bytes(data))
}

/// Makes `bytes`, a snapshot file image the caller encoded or already
/// validated, the store's snapshot: stage it in `engine.snap.tmp`,
/// fsync, rename over `engine.snap`, fsync the directory. Every
/// snapshot the store writes goes through here: checkpoints, the
/// genesis image, and images a follower installs verbatim.
pub(crate) fn stage_snapshot(dir: &Path, bytes: &[u8]) -> Result<(), Error> {
    let tmp = snapshot_tmp_path(dir);
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)
        .map_err(|e| Error::Io {
            op: "create",
            path: tmp.clone(),
            source: e,
        })?;
    io::write_all(&mut file, bytes, &tmp)?;
    io::fsync(&file, &tmp)?;
    drop(file);
    io::rename(&tmp, &snapshot_path(dir))?;
    io::fsync_dir(dir)?;
    counters::SNAPSHOT_WRITES.incr();
    counters::SNAPSHOT_BYTES_WRITTEN.add(bytes.len() as u64);
    Ok(())
}

/// Reads and fully validates the store's snapshot.
pub fn read_snapshot(dir: &Path) -> Result<SnapshotData, Error> {
    read_snapshot_bytes(dir).map(|(_, data)| data)
}

/// Reads the store's snapshot as a validated file image — what a
/// replication leader ships to a bootstrapping follower. The bytes are
/// fully validated first so a leader can never ship corruption, and the
/// decoded data rides along so the caller learns the generation without
/// decoding twice.
pub fn read_snapshot_bytes(dir: &Path) -> Result<(Vec<u8>, SnapshotData), Error> {
    let path = snapshot_path(dir);
    let bytes = std::fs::read(&path).map_err(|e| Error::Io {
        op: "read",
        path: path.clone(),
        source: e,
    })?;
    let data = snapshot_from_bytes(&bytes).map_err(|detail| Error::Corrupt {
        path: path.clone(),
        detail,
    })?;
    counters::SNAPSHOT_LOADS.incr();
    Ok((bytes, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_distance::Value;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_store(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "disc_persist_snap_tests/{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("mk tempdir");
        dir
    }

    fn sample() -> SnapshotData {
        SnapshotData {
            schema: Schema::numeric(2),
            config: vec![0xDE, 0xAD, 0xBE, 0xEF],
            shards: 3,
            state: EngineState {
                generation: 42,
                original: vec![
                    vec![Value::Num(1.0), Value::Num(-0.0)],
                    vec![Value::Num(2.0), Value::Null],
                ],
                current: vec![
                    vec![Value::Num(1.0), Value::Num(-0.0)],
                    vec![Value::Num(2.5), Value::Null],
                ],
                counts: vec![5, 1],
                nearest: [Some(&[0.1, 0.2, 0.3][..]), None].into_iter().collect(),
                pending: vec![1],
            },
        }
    }

    #[test]
    fn write_read_roundtrip_is_bit_exact() {
        let dir = temp_store("roundtrip");
        let data = sample();
        write_snapshot(&dir, &data).unwrap();
        let back = read_snapshot(&dir).unwrap();
        assert_eq!(back, data);
        assert!(
            !snapshot_tmp_path(&dir).exists(),
            "tmp file must be renamed away"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn byte_image_roundtrips_and_installs() {
        let data = sample();
        let bytes = snapshot_to_bytes(&data);
        assert_eq!(snapshot_from_bytes(&bytes).unwrap(), data);

        // write_snapshot stages exactly this image.
        let dir = temp_store("image");
        write_snapshot(&dir, &data).unwrap();
        let (on_disk, decoded) = read_snapshot_bytes(&dir).unwrap();
        assert_eq!(on_disk, bytes);
        assert_eq!(decoded, data);

        // Staging the image in another store installs it bit-exactly.
        let dst = temp_store("install");
        stage_snapshot(&dst, &on_disk).unwrap();
        assert_eq!(read_snapshot(&dst).unwrap(), data);
        assert_eq!(std::fs::read(snapshot_path(&dst)).unwrap(), bytes);
        for dir in [dir, dst] {
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn rewrite_replaces_previous_snapshot() {
        let dir = temp_store("rewrite");
        let mut data = sample();
        write_snapshot(&dir, &data).unwrap();
        data.state.generation = 43;
        data.state.pending.clear();
        write_snapshot(&dir, &data).unwrap();
        assert_eq!(read_snapshot(&dir).unwrap().state.generation, 43);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let dir = temp_store("flip");
        write_snapshot(&dir, &sample()).unwrap();
        let path = snapshot_path(&dir);
        let clean = std::fs::read(&path).unwrap();
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            let err = read_snapshot(&dir).map(|_| ()).unwrap_err();
            assert!(matches!(err, Error::Corrupt { .. }), "byte {i}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_at_every_length_is_detected() {
        let dir = temp_store("trunc");
        write_snapshot(&dir, &sample()).unwrap();
        let path = snapshot_path(&dir);
        let clean = std::fs::read(&path).unwrap();
        for keep in 0..clean.len() {
            std::fs::write(&path, &clean[..keep]).unwrap();
            let err = read_snapshot(&dir).map(|_| ()).unwrap_err();
            assert!(matches!(err, Error::Corrupt { .. }), "keep {keep}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
