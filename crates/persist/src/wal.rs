//! The write-ahead log of ingest batches.
//!
//! File layout: an 8-byte magic header (`DISCWAL1`) followed by
//! length-prefixed, checksummed records:
//!
//! ```text
//! [u32 payload_len][u32 crc32(payload)][payload]
//! payload = [u64 generation][encoded rows]   (disc_data::binary)
//! ```
//!
//! Append protocol: the record is written and fsynced **before** the
//! engine mutates (`DurableEngine::ingest` appends first), so every
//! applied ingest is durable. A crash mid-append leaves a *torn tail* —
//! a record whose length prefix, payload bytes, or checksum is
//! incomplete. [`Wal::open`] detects the tear (any framing or CRC
//! failure), truncates the file back to the last complete record, and
//! reports it as a [`TornTail`] — an expected crash artifact, not
//! corruption. A crash inside [`Wal::create`] leaves a prefix of the
//! magic, which [`Wal::open`] also reports as a torn tail before it
//! creates the log again. Only states no crash can produce (wrong
//! magic, a checksum-valid payload that does not decode) are
//! [`Error::Corrupt`].
//!
//! # One decoder, three consumers
//!
//! [`WalReader`] is the single frame scanner: it walks a byte image,
//! yields complete checksum-verified [`WalFrame`]s, and reports where
//! and why it stopped ([`WalEnd`]). Recovery ([`Wal::open`] →
//! `disc recover`) and the leader-side replication service
//! ([`frames_after`], shipping raw frames to followers) scan with it,
//! and the follower's apply loop admits shipped frames with
//! [`WalFrame::from_parts`] and decodes them with the same
//! [`WalFrame::decode`] recovery uses, so a frame that recovers locally
//! is byte-for-byte the frame that replicates. [`frames_after`] skips
//! frames at or below an acked generation, and an incomplete tail ends
//! its scan (it may complete later).

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use disc_data::binary::{self, Reader};
use disc_distance::Value;
use disc_obs::counters;

use crate::crc::crc32;
use crate::error::Error;
use crate::io;

/// First 8 bytes of every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"DISCWAL1";

/// Bytes of framing per record: `u32` length + `u32` checksum.
pub const RECORD_HEADER_LEN: usize = 8;

/// One complete, checksum-verified WAL record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The engine generation this batch produced when ingested.
    pub generation: u64,
    /// The ingested batch, bit-identical to what was appended.
    pub rows: Vec<Vec<Value>>,
}

/// One complete WAL frame in wire form: the checksummed payload bytes
/// exactly as they sit in the log file. This is the unit replication
/// ships — a follower re-verifies [`WalFrame::crc`] and decodes with
/// the same [`WalFrame::decode`] recovery uses, so leader and follower
/// can never disagree on a frame's contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalFrame {
    /// The frame's generation (first field of the payload), peeked so
    /// consumers can filter without a full decode.
    pub generation: u64,
    /// CRC-32 of the payload, as stored in the frame header.
    pub crc: u32,
    /// The checksummed payload: `[u64 generation][encoded rows]`.
    pub payload: Vec<u8>,
}

impl WalFrame {
    /// Encodes one batch as a frame (the inverse of [`WalFrame::decode`];
    /// [`Wal::append`] writes exactly these bytes).
    pub fn encode(generation: u64, rows: &[Vec<Value>]) -> WalFrame {
        let mut payload = Vec::new();
        binary::put_u64(&mut payload, generation);
        binary::encode_rows(&mut payload, rows);
        WalFrame {
            generation,
            crc: crc32(&payload),
            payload,
        }
    }

    /// Rebuilds a frame from shipped parts, verifying the checksum and
    /// the generation peek. This is the follower's admission check: a
    /// frame that passes is bit-identical to one the leader logged.
    pub fn from_parts(generation: u64, crc: u32, payload: Vec<u8>) -> Result<WalFrame, String> {
        if crc32(&payload) != crc {
            return Err("frame checksum mismatch".to_string());
        }
        let peeked = peek_generation(&payload)?;
        if peeked != generation {
            return Err(format!(
                "frame generation mismatch: header says {generation}, payload says {peeked}"
            ));
        }
        Ok(WalFrame {
            generation,
            crc,
            payload,
        })
    }

    /// Fully decodes the payload. The checksum already matched, so a
    /// failure here means real corruption, not a torn write.
    pub fn decode(&self) -> Result<WalRecord, String> {
        let mut r = Reader::new(&self.payload);
        let record = (|| -> Result<WalRecord, binary::DecodeError> {
            let generation = r.u64("record generation")?;
            let rows = binary::decode_rows(&mut r)?;
            Ok(WalRecord { generation, rows })
        })()
        .map_err(|e| format!("checksum-valid record does not decode: {e}"))?;
        if !r.is_exhausted() {
            return Err(format!("record carries {} trailing bytes", r.remaining()));
        }
        Ok(record)
    }

    /// The frame as it appears in a log file: header then payload.
    pub fn file_bytes(&self) -> Vec<u8> {
        let mut frame = Vec::with_capacity(RECORD_HEADER_LEN + self.payload.len());
        binary::put_u32(&mut frame, self.payload.len() as u32);
        binary::put_u32(&mut frame, self.crc);
        frame.extend_from_slice(&self.payload);
        frame
    }
}

/// Reads the generation field out of a frame payload without decoding
/// the rows.
fn peek_generation(payload: &[u8]) -> Result<u64, String> {
    let bytes: [u8; 8] = payload
        .get(..8)
        .and_then(|b| b.try_into().ok())
        .ok_or_else(|| format!("payload is only {} bytes, no generation", payload.len()))?;
    Ok(u64::from_le_bytes(bytes))
}

/// Where a [`WalReader`] scan stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalEnd {
    /// Every byte belonged to a complete frame.
    Clean,
    /// The final frame is incomplete (missing header bytes, short
    /// payload, or checksum mismatch) — the expected artifact of a crash
    /// or of reading a file mid-append. Complete frames before the tear
    /// were all yielded.
    Torn {
        /// Why the tail does not parse as a complete frame.
        why: &'static str,
    },
}

/// An incomplete final record found (and truncated away) by
/// [`Wal::open`] — the expected artifact of a crash mid-append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornTail {
    /// File length after truncating back to the last complete record.
    pub valid_len: u64,
    /// Bytes of incomplete record dropped.
    pub dropped_bytes: u64,
}

/// The shared WAL frame decoder: walks a byte image and yields complete,
/// checksum-verified frames. See the [module docs](self) for who
/// consumes it.
#[derive(Debug)]
pub struct WalReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    end: Option<WalEnd>,
}

impl<'a> WalReader<'a> {
    /// Over a full WAL file image; verifies the magic header.
    pub fn new(bytes: &'a [u8]) -> Result<WalReader<'a>, String> {
        match bytes.get(..WAL_MAGIC.len()) {
            Some(magic) if magic == WAL_MAGIC => Ok(WalReader {
                bytes,
                pos: WAL_MAGIC.len(),
                end: None,
            }),
            Some(magic) => Err(format!("bad magic {magic:?}")),
            None => Err(format!(
                "short header is not a full magic ({} bytes)",
                bytes.len()
            )),
        }
    }

    /// Byte offset just past the last complete frame yielded so far.
    pub fn offset(&self) -> u64 {
        self.pos as u64
    }

    /// The scan verdict; `None` until the reader has hit the end.
    pub fn end(&self) -> Option<WalEnd> {
        self.end
    }

    /// The next complete frame, or `None` at a clean or torn end
    /// (distinguish with [`WalReader::end`]).
    ///
    /// # Errors
    /// A checksum-valid payload too short to carry a generation — a
    /// state no crash can produce.
    pub fn next_frame(&mut self) -> Result<Option<WalFrame>, String> {
        if self.end.is_some() {
            return Ok(None);
        }
        if self.pos == self.bytes.len() {
            self.end = Some(WalEnd::Clean);
            return Ok(None);
        }
        let rest = &self.bytes[self.pos..];
        if rest.len() < RECORD_HEADER_LEN {
            self.end = Some(WalEnd::Torn {
                why: "incomplete record header",
            });
            return Ok(None);
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        let Some(payload) = rest.get(RECORD_HEADER_LEN..RECORD_HEADER_LEN + len) else {
            self.end = Some(WalEnd::Torn {
                why: "incomplete record payload",
            });
            return Ok(None);
        };
        if crc32(payload) != crc {
            self.end = Some(WalEnd::Torn {
                why: "record checksum mismatch",
            });
            return Ok(None);
        }
        let generation = peek_generation(payload)?;
        self.pos += RECORD_HEADER_LEN + len;
        Ok(Some(WalFrame {
            generation,
            crc,
            payload: payload.to_vec(),
        }))
    }
}

/// Up to `max` complete frames of the log at `path` whose generation
/// exceeds `after`, in file (= generation) order — the leader side of
/// replication. An incomplete tail ends the scan without error (the
/// writer may still be mid-append).
///
/// This never writes and takes no lock, so it is safe to point at a
/// store another handle (or process) is appending to: appends are
/// fsynced frame-at-a-time, so a concurrent read sees a complete prefix
/// plus at most one incomplete frame.
///
/// # Errors
/// [`Error::Io`] when the file cannot be read; [`Error::Corrupt`] for
/// states no crash can produce (bad magic, undecodable generation).
pub fn frames_after(path: &Path, after: u64, max: usize) -> Result<Vec<WalFrame>, Error> {
    let bytes = std::fs::read(path).map_err(|e| Error::Io {
        op: "read",
        path: path.to_path_buf(),
        source: e,
    })?;
    let corrupt = |detail: String| Error::Corrupt {
        path: path.to_path_buf(),
        detail,
    };
    let mut reader = WalReader::new(&bytes).map_err(corrupt)?;
    let mut frames = Vec::new();
    while frames.len() < max {
        match reader.next_frame().map_err(corrupt)? {
            Some(frame) if frame.generation > after => frames.push(frame),
            Some(_) => {}
            None => break,
        }
    }
    Ok(frames)
}

/// An open write-ahead log positioned for appends.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
}

impl Wal {
    /// Creates a fresh, empty log at `path` (truncating any existing
    /// file), writes the magic header, and fsyncs.
    pub fn create(path: &Path) -> Result<Wal, Error> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| Error::Io {
                op: "create",
                path: path.to_path_buf(),
                source: e,
            })?;
        io::write_all(&mut file, WAL_MAGIC, path)?;
        io::fsync(&file, path)?;
        counters::WAL_FSYNCS.incr();
        counters::WAL_BYTES_WRITTEN.add(WAL_MAGIC.len() as u64);
        Ok(Wal {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Opens an existing log, verifying every record and truncating a
    /// torn tail if the last append was interrupted. Returns the log
    /// (positioned for appends), the complete records in file order, and
    /// the torn-tail report if one was removed.
    ///
    /// A file shorter than the magic header whose bytes are a *prefix*
    /// of the magic is a crash during [`Wal::create`]: the log is created
    /// again and the prefix reported as a torn tail. Any other header
    /// mismatch is [`Error::Corrupt`].
    pub fn open(path: &Path) -> Result<(Wal, Vec<WalRecord>, Option<TornTail>), Error> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| Error::Io {
                op: "open",
                path: path.to_path_buf(),
                source: e,
            })?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(|e| Error::Io {
            op: "read",
            path: path.to_path_buf(),
            source: e,
        })?;

        if bytes.len() < WAL_MAGIC.len() {
            if *bytes != WAL_MAGIC[..bytes.len()] {
                return Err(Error::Corrupt {
                    path: path.to_path_buf(),
                    detail: format!("short header is not a prefix of {WAL_MAGIC:?}"),
                });
            }
            // A crash during create: create the log again.
            drop(file);
            let wal = Wal::create(path)?;
            counters::WAL_TORN_TAILS.incr();
            let torn = TornTail {
                valid_len: WAL_MAGIC.len() as u64,
                dropped_bytes: bytes.len() as u64,
            };
            return Ok((wal, Vec::new(), Some(torn)));
        }

        let corrupt = |detail: String| Error::Corrupt {
            path: path.to_path_buf(),
            detail,
        };
        let mut reader = WalReader::new(&bytes).map_err(corrupt)?;
        let mut records = Vec::new();
        while let Some(frame) = reader.next_frame().map_err(corrupt)? {
            // The checksum matched, so these are the exact bytes that
            // were appended; a decode failure here is real corruption.
            records.push(frame.decode().map_err(corrupt)?);
        }
        let pos = reader.offset();
        let torn = match reader.end() {
            Some(WalEnd::Clean) | None => None,
            Some(WalEnd::Torn { .. }) => {
                let dropped_bytes = bytes.len() as u64 - pos;
                io::truncate(&file, pos, path)?;
                io::fsync(&file, path)?;
                counters::WAL_FSYNCS.incr();
                counters::WAL_TORN_TAILS.incr();
                Some(TornTail {
                    valid_len: pos,
                    dropped_bytes,
                })
            }
        };
        file.seek(SeekFrom::Start(pos)).map_err(|e| Error::Io {
            op: "seek",
            path: path.to_path_buf(),
            source: e,
        })?;
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
            },
            records,
            torn,
        ))
    }

    /// Appends one record and fsyncs. On return the batch is durable;
    /// the caller may mutate the engine.
    pub fn append(&mut self, generation: u64, rows: &[Vec<Value>]) -> Result<(), Error> {
        self.append_frame(&WalFrame::encode(generation, rows))
    }

    /// Appends one pre-encoded frame verbatim and fsyncs — the
    /// follower's apply path, guaranteeing its log holds the exact bytes
    /// the leader logged rather than a re-encoding.
    pub fn append_frame(&mut self, frame: &WalFrame) -> Result<(), Error> {
        let frame = frame.file_bytes();
        io::write_all(&mut self.file, &frame, &self.path)?;
        io::fsync(&self.file, &self.path)?;
        counters::WAL_APPENDS.incr();
        counters::WAL_BYTES_WRITTEN.add(frame.len() as u64);
        counters::WAL_FSYNCS.incr();
        Ok(())
    }

    /// Drops every record, keeping the magic header — called after a
    /// snapshot makes the logged generations redundant. Crash-safe in
    /// either direction: if the truncate never lands, recovery simply
    /// skips records at or below the snapshot generation.
    pub fn reset(&mut self) -> Result<(), Error> {
        io::truncate(&self.file, WAL_MAGIC.len() as u64, &self.path)?;
        io::fsync(&self.file, &self.path)?;
        counters::WAL_FSYNCS.incr();
        self.file
            .seek(SeekFrom::Start(WAL_MAGIC.len() as u64))
            .map_err(|e| Error::Io {
                op: "seek",
                path: self.path.to_path_buf(),
                source: e,
            })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_wal(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join("disc_persist_wal_tests");
        std::fs::create_dir_all(&dir).expect("mk tempdir");
        dir.join(format!(
            "{tag}-{}-{}.wal",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn rows(xs: &[f64]) -> Vec<Vec<Value>> {
        xs.iter().map(|&x| vec![Value::Num(x)]).collect()
    }

    #[test]
    fn append_and_reopen_roundtrip() {
        let path = temp_wal("roundtrip");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1, &rows(&[1.0, 2.0])).unwrap();
        wal.append(2, &rows(&[-0.0])).unwrap();
        drop(wal);

        let (mut wal, records, torn) = Wal::open(&path).unwrap();
        assert!(torn.is_none());
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].generation, 1);
        assert_eq!(records[0].rows, rows(&[1.0, 2.0]));
        assert_eq!(records[1].generation, 2);
        assert_eq!(
            records[1].rows[0][0].as_num().unwrap().to_bits(),
            (-0.0f64).to_bits()
        );

        // Appending after reopen lands after the existing records.
        wal.append(3, &rows(&[7.0])).unwrap();
        drop(wal);
        let (_, records, torn) = Wal::open(&path).unwrap();
        assert!(torn.is_none());
        assert_eq!(records.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let path = temp_wal("torn");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1, &rows(&[1.0])).unwrap();
        wal.append(2, &rows(&[2.0])).unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();

        // Chop 5 bytes off the final record: framing is incomplete.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let (_, records, torn) = Wal::open(&path).unwrap();
        assert_eq!(records.len(), 1, "only the first record survives");
        let torn = torn.expect("tear must be reported");
        assert_eq!(
            torn.dropped_bytes as usize,
            full.len() - 5 - torn.valid_len as usize
        );
        // The truncate is durable: a second open sees a clean log.
        let (_, records, torn) = Wal::open(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert!(torn.is_none(), "tail already truncated");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_payload_byte_is_a_torn_tail() {
        let path = temp_wal("crcflip");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1, &rows(&[1.0])).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (_, records, torn) = Wal::open(&path).unwrap();
        assert!(records.is_empty());
        assert!(torn.is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn partial_magic_is_rewritten() {
        let path = temp_wal("header");
        std::fs::write(&path, &WAL_MAGIC[..3]).unwrap();
        let (_, records, torn) = Wal::open(&path).unwrap();
        assert!(records.is_empty());
        assert_eq!(torn.unwrap().dropped_bytes, 3);
        assert_eq!(std::fs::read(&path).unwrap(), WAL_MAGIC);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_is_corrupt() {
        let path = temp_wal("badmagic");
        std::fs::write(&path, b"NOTAWAL!extra").unwrap();
        let err = Wal::open(&path).map(|_| ()).unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_keeps_header_and_drops_records() {
        let path = temp_wal("reset");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1, &rows(&[1.0])).unwrap();
        wal.reset().unwrap();
        wal.append(9, &rows(&[9.0])).unwrap();
        drop(wal);
        let (_, records, torn) = Wal::open(&path).unwrap();
        assert!(torn.is_none());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].generation, 9);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn frame_roundtrips_through_parts_and_decode() {
        let frame = WalFrame::encode(7, &rows(&[1.5, -0.0]));
        let back =
            WalFrame::from_parts(frame.generation, frame.crc, frame.payload.clone()).unwrap();
        assert_eq!(back, frame);
        let record = back.decode().unwrap();
        assert_eq!(record.generation, 7);
        assert_eq!(
            record.rows[1][0].as_num().unwrap().to_bits(),
            (-0.0f64).to_bits()
        );

        // A flipped payload byte fails the checksum gate.
        let mut bad = frame.payload.clone();
        bad[0] ^= 1;
        assert!(WalFrame::from_parts(frame.generation, frame.crc, bad).is_err());
        // A lying generation header fails the peek gate.
        assert!(WalFrame::from_parts(8, frame.crc, frame.payload.clone()).is_err());
    }

    #[test]
    fn reader_yields_frames_and_reports_the_end() {
        let path = temp_wal("reader");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1, &rows(&[1.0])).unwrap();
        wal.append(2, &rows(&[2.0, 3.0])).unwrap();
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();

        let mut reader = WalReader::new(&bytes).unwrap();
        let a = reader.next_frame().unwrap().unwrap();
        let b = reader.next_frame().unwrap().unwrap();
        assert_eq!((a.generation, b.generation), (1, 2));
        assert_eq!(reader.next_frame().unwrap(), None);
        assert_eq!(reader.end(), Some(WalEnd::Clean));
        assert_eq!(reader.offset(), bytes.len() as u64);
        assert_eq!(a.decode().unwrap().rows, rows(&[1.0]));
        assert_eq!(b.decode().unwrap().rows, rows(&[2.0, 3.0]));

        // Truncation at every byte length: complete frames before the
        // cut still decode, the cut itself is reported torn, never
        // corrupt, and never yields a partial frame.
        for keep in WAL_MAGIC.len()..bytes.len() {
            let mut reader = WalReader::new(&bytes[..keep]).unwrap();
            let mut yielded = Vec::new();
            while let Some(frame) = reader.next_frame().unwrap() {
                yielded.push(frame);
            }
            if keep == bytes.len() {
                assert_eq!(reader.end(), Some(WalEnd::Clean));
            } else {
                assert!(
                    matches!(reader.end(), Some(WalEnd::Torn { .. })) || yielded.len() < 2,
                    "keep {keep}"
                );
            }
            for frame in &yielded {
                frame.decode().unwrap();
            }
            assert!(yielded.len() <= 2, "keep {keep}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reader_treats_mid_log_corruption_as_a_tear() {
        let path = temp_wal("midflip");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1, &rows(&[1.0])).unwrap();
        wal.append(2, &rows(&[2.0])).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the *first* frame: the scan cannot trust
        // anything past the first checksum failure, so it stops there.
        bytes[WAL_MAGIC.len() + RECORD_HEADER_LEN] ^= 0x10;
        let mut reader = WalReader::new(&bytes).unwrap();
        assert_eq!(reader.next_frame().unwrap(), None);
        assert!(matches!(reader.end(), Some(WalEnd::Torn { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn frames_after_filters_bounds_and_survives_reset() {
        let path = temp_wal("frames_after");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1, &rows(&[1.0])).unwrap();
        wal.append(2, &rows(&[2.0])).unwrap();
        let generations = |after, max| -> Vec<u64> {
            frames_after(&path, after, max)
                .unwrap()
                .iter()
                .map(|f| f.generation)
                .collect()
        };
        assert_eq!(generations(0, 16), vec![1, 2]);
        assert!(generations(2, 16).is_empty());

        // New appends arrive; `after` filters acked ones.
        wal.append(3, &rows(&[3.0])).unwrap();
        wal.append(4, &rows(&[4.0])).unwrap();
        assert_eq!(generations(3, 16), vec![4]);

        // `max` bounds one read; the next continues from the caller's
        // last acked generation.
        assert_eq!(generations(0, 3), vec![1, 2, 3]);
        assert_eq!(generations(3, 3), vec![4]);

        // A checkpoint resets the log, and later appends (at higher
        // generations) flow.
        wal.reset().unwrap();
        assert!(generations(4, 16).is_empty());
        wal.append(5, &rows(&[5.0])).unwrap();
        assert_eq!(generations(4, 16), vec![5]);

        // A torn tail ends the read quietly; once the append completes
        // (simulated by restoring the bytes) the frame is delivered.
        let full = std::fs::read(&path).unwrap();
        let frame6 = WalFrame::encode(6, &rows(&[6.0])).file_bytes();
        let mut torn = full.clone();
        torn.extend_from_slice(&frame6[..frame6.len() - 3]);
        std::fs::write(&path, &torn).unwrap();
        assert!(generations(5, 16).is_empty());
        let mut complete = full;
        complete.extend_from_slice(&frame6);
        std::fs::write(&path, &complete).unwrap();
        assert_eq!(generations(5, 16), vec![6]);
        std::fs::remove_file(&path).ok();
    }
}
