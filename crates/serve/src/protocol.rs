//! The newline-delimited JSON wire protocol.
//!
//! One request line, one response line. Requests are objects with an
//! `"op"` discriminator:
//!
//! | op         | fields                     | effect                                 |
//! |------------|----------------------------|----------------------------------------|
//! | `ingest`   | `rows: [[value,…],…]`      | append a batch through the write queue |
//! | `query`    | `row: index`               | one row's classification and values    |
//! | `report`   | —                          | snapshot summary (rows/inliers/…)      |
//! | `stats`    | —                          | counters, gauges, latency histograms   |
//! | `snapshot` | —                          | full current rows + outlier/pending    |
//! | `shutdown` | —                          | begin graceful shutdown                |
//!
//! Row values map JSON `number | string | null` onto
//! [`Value::Num`]/[`Value::Text`]/[`Value::Null`].
//!
//! Every response carries `"ok"`. Failures are typed:
//! `{"ok":false,"op":…,"error":{"kind":…,"message":…}}` with `kind` one
//! of [`KIND_PARSE`], [`KIND_INVALID`] (also the answer to a line
//! longer than [`MAX_LINE_BYTES`]), [`KIND_OVERLOADED`] (the
//! admission-control backpressure signal), [`KIND_SHUTTING_DOWN`],
//! [`KIND_REJECTED`] (the engine refused the batch; nothing was
//! applied), or [`KIND_IO`] (the durable backend failed; the batch must
//! be considered not applied).

use disc_core::{EngineState, SaveReport};
use disc_distance::Value;
use disc_obs::json::{push_f64, push_str_literal, Obj};
use disc_persist::WalFrame;

use crate::json::{self, Json};

/// Frames shipped per `replicate` response when the request does not
/// say otherwise. Bounds one response line's size; the follower polls
/// again immediately while frames keep coming.
pub const DEFAULT_MAX_FRAMES: usize = 256;

/// The longest request line the server reads, in bytes before the
/// newline. A longer line is refused with [`KIND_INVALID`] and its
/// connection closed, so a client that never sends `\n` cannot grow the
/// server's memory without bound. Far above any batch a client sends,
/// and far below the `u32` length the WAL records per frame.
pub const MAX_LINE_BYTES: usize = 64 << 20;

/// The request line was not a JSON object the parser accepts.
pub const KIND_PARSE: &str = "parse";
/// The request was well-formed JSON but not a valid operation (unknown
/// op, missing field, out-of-range row, …).
pub const KIND_INVALID: &str = "invalid";
/// Backpressure: the bounded write queue is full; retry later.
pub const KIND_OVERLOADED: &str = "overloaded";
/// The server is draining; no new writes are admitted.
pub const KIND_SHUTTING_DOWN: &str = "shutting_down";
/// The engine rejected the batch (bad arity, non-numeric cell, …);
/// nothing was applied or made durable.
pub const KIND_REJECTED: &str = "rejected";
/// The durable backend failed mid-write; the batch is not acknowledged.
pub const KIND_IO: &str = "io";
/// This server is a read replica: writes are refused, and the error
/// message names the leader address to retry against. Reads remain
/// valid here — replicas answer `query`/`report`/`snapshot`/`stats`
/// from their replicated state.
pub const KIND_NOT_LEADER: &str = "not_leader";

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Append `rows` through the write queue.
    Ingest {
        /// The batch, one inner vector per tuple.
        rows: Vec<Vec<Value>>,
    },
    /// Read one row's classification and values.
    Query {
        /// Row index.
        row: usize,
    },
    /// Snapshot summary (row/inlier/outlier/pending counts).
    Report,
    /// Process-wide counters, gauges, and per-verb latency histograms.
    Stats,
    /// Full current rows plus outlier and pending row indexes.
    Snapshot,
    /// Replication pull: WAL frames after generation `from` (leader
    /// only; followers of followers are not supported).
    Replicate {
        /// The requester's last durably applied generation.
        from: u64,
        /// Maximum frames to ship in this response.
        max_frames: usize,
        /// Force a snapshot image into the response regardless of
        /// whether the log could continue from `from` — a bootstrapping
        /// follower has no store (no schema, no config) until it
        /// installs one.
        need_snapshot: bool,
    },
    /// Replication health: role, generations, and (on a follower) lag.
    ReplStatus,
    /// Begin graceful shutdown.
    Shutdown,
}

impl Request {
    /// The verb name, as it appears in responses and metrics.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Ingest { .. } => "ingest",
            Request::Query { .. } => "query",
            Request::Report => "report",
            Request::Stats => "stats",
            Request::Snapshot => "snapshot",
            Request::Replicate { .. } => "replicate",
            Request::ReplStatus => "repl_status",
            Request::Shutdown => "shutdown",
        }
    }
}

/// A request that could not be decoded; maps onto a typed error
/// response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRequest {
    /// [`KIND_PARSE`] or [`KIND_INVALID`].
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

fn invalid(message: impl Into<String>) -> BadRequest {
    BadRequest {
        kind: KIND_INVALID,
        message: message.into(),
    }
}

/// Decode one request line.
pub fn parse_request(line: &str) -> Result<Request, BadRequest> {
    let doc = json::parse(line).map_err(|e| BadRequest {
        kind: KIND_PARSE,
        message: e.to_string(),
    })?;
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| invalid("missing string field 'op'"))?;
    match op {
        "ingest" => {
            let rows = doc
                .get("rows")
                .and_then(Json::as_array)
                .ok_or_else(|| invalid("ingest requires an array field 'rows'"))?;
            let rows = rows
                .iter()
                .enumerate()
                .map(|(i, row)| {
                    let cells = row
                        .as_array()
                        .ok_or_else(|| invalid(format!("row {i} is not an array")))?;
                    cells
                        .iter()
                        .map(|cell| match cell {
                            Json::Num(n) => Ok(Value::Num(*n)),
                            Json::Str(s) => Ok(Value::Text(s.clone())),
                            Json::Null => Ok(Value::Null),
                            other => Err(invalid(format!(
                                "row {i} holds a non-value element ({other:?})"
                            ))),
                        })
                        .collect::<Result<Vec<Value>, BadRequest>>()
                })
                .collect::<Result<Vec<Vec<Value>>, BadRequest>>()?;
            if rows.is_empty() {
                return Err(invalid("ingest requires at least one row"));
            }
            Ok(Request::Ingest { rows })
        }
        "query" => {
            let row = doc
                .get("row")
                .and_then(Json::as_usize)
                .ok_or_else(|| invalid("query requires an integer field 'row'"))?;
            Ok(Request::Query { row })
        }
        "report" => Ok(Request::Report),
        "stats" => Ok(Request::Stats),
        "snapshot" => Ok(Request::Snapshot),
        "replicate" => {
            let from = doc
                .get("from")
                .and_then(Json::as_u64)
                .ok_or_else(|| invalid("replicate requires an integer field 'from'"))?;
            let max_frames = match doc.get("max_frames") {
                None => DEFAULT_MAX_FRAMES,
                Some(v) => v
                    .as_usize()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| invalid("max_frames must be a positive integer"))?,
            };
            let need_snapshot = match doc.get("snapshot") {
                None => false,
                Some(Json::Bool(b)) => *b,
                Some(_) => return Err(invalid("'snapshot' must be a boolean")),
            };
            Ok(Request::Replicate {
                from,
                max_frames,
                need_snapshot,
            })
        }
        "repl_status" => Ok(Request::ReplStatus),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(invalid(format!("unknown op '{other}'"))),
    }
}

/// Render a typed error response.
pub fn error_response(op: Option<&str>, kind: &str, message: &str) -> String {
    let mut e = Obj::new();
    e.str("kind", kind).str("message", message);
    let mut o = Obj::new();
    o.raw("ok", "false");
    if let Some(op) = op {
        o.str("op", op);
    }
    o.raw("error", &e.finish());
    o.finish()
}

/// Serialize one row of values as a JSON array fragment.
pub fn values_array(row: &[Value]) -> String {
    let mut out = String::from("[");
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match v {
            Value::Num(n) => push_f64(&mut out, *n),
            Value::Text(s) => push_str_literal(&mut out, s),
            Value::Null => out.push_str("null"),
        }
    }
    out.push(']');
    out
}

fn index_array(indexes: &[usize]) -> String {
    let mut out = String::from("[");
    for (i, v) in indexes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
    out
}

/// Render a successful ingest acknowledgement. Sent only *after* the
/// batch is applied (and, on a durable backend, WAL-fsynced) — receiving
/// this line is the durability contract.
pub fn ingest_response(generation: u64, rows: usize, report: &SaveReport) -> String {
    let mut r = Obj::new();
    r.u64("saved", report.saved.len() as u64)
        .u64("unsaved", report.unsaved.len() as u64)
        .u64("outliers", report.outliers.len() as u64)
        .u64("failed", report.failed.len() as u64)
        .u64("skipped", report.skipped.len() as u64)
        .raw("degraded", if report.degraded { "true" } else { "false" })
        .raw(
            "saved_rows",
            &index_array(&report.saved.iter().map(|s| s.row).collect::<Vec<_>>()),
        );
    let mut o = Obj::new();
    o.raw("ok", "true")
        .str("op", "ingest")
        .u64("generation", generation)
        .u64("rows", rows as u64)
        .raw("report", &r.finish());
    o.finish()
}

/// Render a query response against an engine snapshot. Reads go through
/// [`EngineState`]'s read methods, so the wire protocol and any other
/// consumer of engine state share one out-of-range convention.
pub fn query_response(state: &EngineState, row: usize) -> String {
    let (Some(current), Some(original)) = (state.current_row(row), state.original_row(row)) else {
        return error_response(
            Some("query"),
            KIND_INVALID,
            &format!("row {row} out of range (engine holds {})", state.len()),
        );
    };
    let inlier = state.is_inlier(row);
    let neighbor_count = state.neighbor_count(row).unwrap_or(0);
    let mut o = Obj::new();
    o.raw("ok", "true")
        .str("op", "query")
        .u64("generation", state.generation)
        .u64("row", row as u64)
        .raw("inlier", if inlier { "true" } else { "false" })
        .u64("neighbor_count", neighbor_count as u64)
        .raw("current", &values_array(current))
        .raw("original", &values_array(original));
    o.finish()
}

/// Render a report (summary) response against an engine snapshot.
pub fn report_response(state: &EngineState) -> String {
    let outliers = state.outliers();
    let len = state.len();
    let mut o = Obj::new();
    o.raw("ok", "true")
        .str("op", "report")
        .u64("generation", state.generation)
        .u64("rows", len as u64)
        .u64("inliers", (len - outliers.len()) as u64)
        .u64("outliers", outliers.len() as u64)
        .u64("pending", state.pending.len() as u64);
    o.finish()
}

/// Render a full snapshot response: every current row plus the outlier
/// and pending index lists.
pub fn snapshot_response(state: &EngineState) -> String {
    let mut rows = String::from("[");
    for (i, row) in state.current.iter().enumerate() {
        if i > 0 {
            rows.push(',');
        }
        rows.push_str(&values_array(row));
    }
    rows.push(']');
    let outliers = state.outliers();
    let mut o = Obj::new();
    o.raw("ok", "true")
        .str("op", "snapshot")
        .u64("generation", state.generation)
        .raw("rows", &rows)
        .raw("outliers", &index_array(&outliers))
        .raw("pending", &index_array(&state.pending));
    o.finish()
}

/// Lowercase hex encoding for binary payloads carried inside JSON.
///
/// Replication ships WAL payloads and snapshot images as hex strings
/// rather than re-encoding rows as JSON numbers: the bytes (and their
/// CRCs) survive the wire untouched, so f64 bit patterns — the currency
/// of the engine's bit-equality contract — cannot be perturbed by a
/// float↔decimal round trip.
pub fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0x0F) as usize] as char);
    }
    out
}

/// Inverse of [`to_hex`]; accepts upper- or lowercase digits.
pub fn from_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err(format!("odd hex length {}", s.len()));
    }
    let nibble = |c: u8| -> Result<u8, String> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            other => Err(format!("non-hex byte {other:#04x}")),
        }
    };
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
    }
    Ok(out)
}

/// What one `replicate` response carries — the decoded form of
/// [`replicate_response`], produced by [`parse_replicate_response`] on
/// the follower.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicateBatch {
    /// The leader's current generation (for lag accounting).
    pub leader_generation: u64,
    /// A full snapshot file image, present when the leader cannot
    /// continue the frame sequence from the requested generation (fresh
    /// bootstrap, or a checkpoint discarded the needed frames). The
    /// follower installs it, then applies `frames`.
    pub snapshot: Option<Vec<u8>>,
    /// Checksum-verified WAL frames in generation order, each
    /// bit-identical to the leader's log record.
    pub frames: Vec<WalFrame>,
}

/// Render a `replicate` response: leader generation, an optional
/// snapshot image, and WAL frames — binary payloads hex-encoded (see
/// [`to_hex`] for why).
pub fn replicate_response(
    leader_generation: u64,
    snapshot: Option<&[u8]>,
    frames: &[WalFrame],
) -> String {
    let mut list = String::from("[");
    for (i, frame) in frames.iter().enumerate() {
        if i > 0 {
            list.push(',');
        }
        let mut f = Obj::new();
        f.u64("generation", frame.generation)
            .u64("crc", frame.crc as u64)
            .str("payload", &to_hex(&frame.payload));
        list.push_str(&f.finish());
    }
    list.push(']');
    let mut o = Obj::new();
    o.raw("ok", "true")
        .str("op", "replicate")
        .u64("generation", leader_generation);
    if let Some(bytes) = snapshot {
        o.str("snapshot", &to_hex(bytes));
    }
    o.raw("frames", &list);
    o.finish()
}

/// Decode and re-verify a `replicate` response line. Every frame passes
/// [`WalFrame::from_parts`] — checksum and generation peek — before the
/// follower sees it, so a corrupted or tampered line fails here, never
/// in the apply path.
pub fn parse_replicate_response(line: &str) -> Result<ReplicateBatch, String> {
    let doc = json::parse(line).map_err(|e| e.to_string())?;
    match doc.get("ok") {
        Some(Json::Bool(true)) => {}
        _ => {
            let (kind, message) = match doc.get("error") {
                Some(err) => (
                    err.get("kind").and_then(Json::as_str).unwrap_or("unknown"),
                    err.get("message").and_then(Json::as_str).unwrap_or(""),
                ),
                None => ("unknown", "response carries no error object"),
            };
            return Err(format!("leader refused replicate: {kind}: {message}"));
        }
    }
    let leader_generation = doc
        .get("generation")
        .and_then(Json::as_u64)
        .ok_or("response missing integer 'generation'")?;
    let snapshot = match doc.get("snapshot") {
        None => None,
        Some(v) => Some(from_hex(
            v.as_str().ok_or("'snapshot' must be a hex string")?,
        )?),
    };
    let frames = doc
        .get("frames")
        .and_then(Json::as_array)
        .ok_or("response missing array 'frames'")?
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let generation = f
                .get("generation")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("frame {i} missing integer 'generation'"))?;
            let crc = f
                .get("crc")
                .and_then(Json::as_u64)
                .filter(|&c| c <= u32::MAX as u64)
                .ok_or_else(|| format!("frame {i} missing u32 'crc'"))?;
            let payload = from_hex(
                f.get("payload")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("frame {i} missing hex string 'payload'"))?,
            )?;
            WalFrame::from_parts(generation, crc as u32, payload)
                .map_err(|e| format!("frame {i}: {e}"))
        })
        .collect::<Result<Vec<WalFrame>, String>>()?;
    Ok(ReplicateBatch {
        leader_generation,
        snapshot,
        frames,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        let r = parse_request(r#"{"op":"ingest","rows":[[1,2],["a",null]]}"#).unwrap();
        match r {
            Request::Ingest { rows } => {
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0], vec![Value::Num(1.0), Value::Num(2.0)]);
                assert_eq!(rows[1], vec![Value::Text("a".into()), Value::Null]);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse_request(r#"{"op":"query","row":3}"#).unwrap(),
            Request::Query { row: 3 }
        );
        assert_eq!(
            parse_request(r#"{"op":"report"}"#).unwrap(),
            Request::Report
        );
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            parse_request(r#"{"op":"snapshot"}"#).unwrap(),
            Request::Snapshot
        );
        assert_eq!(
            parse_request(r#"{"op":"replicate","from":7}"#).unwrap(),
            Request::Replicate {
                from: 7,
                max_frames: DEFAULT_MAX_FRAMES,
                need_snapshot: false
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"replicate","from":0,"max_frames":2,"snapshot":true}"#).unwrap(),
            Request::Replicate {
                from: 0,
                max_frames: 2,
                need_snapshot: true
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"repl_status"}"#).unwrap(),
            Request::ReplStatus
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn replicate_requests_are_validated() {
        assert_eq!(
            parse_request(r#"{"op":"replicate"}"#).unwrap_err().kind,
            KIND_INVALID
        );
        assert_eq!(
            parse_request(r#"{"op":"replicate","from":-1}"#)
                .unwrap_err()
                .kind,
            KIND_INVALID
        );
        assert_eq!(
            parse_request(r#"{"op":"replicate","from":0,"max_frames":0}"#)
                .unwrap_err()
                .kind,
            KIND_INVALID
        );
    }

    #[test]
    fn hex_roundtrips_and_rejects_junk() {
        let bytes: Vec<u8> = (0..=255).collect();
        let hex = to_hex(&bytes);
        assert_eq!(from_hex(&hex).unwrap(), bytes);
        assert_eq!(from_hex(&hex.to_uppercase()).unwrap(), bytes);
        assert!(from_hex("abc").is_err(), "odd length");
        assert!(from_hex("zz").is_err(), "non-hex digit");
    }

    #[test]
    fn replicate_response_roundtrips_bit_exactly() {
        // -0.0 is the classic JSON-number casualty; hex framing must
        // carry its bit pattern through untouched.
        let frames = vec![
            WalFrame::encode(4, &[vec![Value::Num(-0.0), Value::Null]]),
            WalFrame::encode(5, &[vec![Value::Num(1.5), Value::Text("x\"y".into())]]),
        ];
        let snapshot = vec![0u8, 1, 254, 255];
        let line = replicate_response(9, Some(&snapshot), &frames);
        let batch = parse_replicate_response(&line).unwrap();
        assert_eq!(batch.leader_generation, 9);
        assert_eq!(batch.snapshot.as_deref(), Some(&snapshot[..]));
        assert_eq!(batch.frames, frames);
        let rows = batch.frames[0].decode().unwrap().rows;
        assert_eq!(rows[0][0].as_num().unwrap().to_bits(), (-0.0f64).to_bits());

        // No snapshot field when none is shipped.
        let line = replicate_response(9, None, &frames);
        assert_eq!(parse_replicate_response(&line).unwrap().snapshot, None);

        // A flipped payload nibble is caught at parse time by the CRC.
        let bad = line.replacen("payload\":\"0", "payload\":\"1", 1);
        assert!(parse_replicate_response(&bad).is_err());

        // A typed refusal surfaces kind and message.
        let refusal = error_response(Some("replicate"), KIND_INVALID, "no wal");
        let err = parse_replicate_response(&refusal).unwrap_err();
        assert!(err.contains("invalid"), "{err}");
        assert!(err.contains("no wal"), "{err}");
    }

    #[test]
    fn bad_requests_are_typed() {
        assert_eq!(parse_request("not json").unwrap_err().kind, KIND_PARSE);
        assert_eq!(
            parse_request(r#"{"rows":[]}"#).unwrap_err().kind,
            KIND_INVALID
        );
        assert_eq!(
            parse_request(r#"{"op":"fly"}"#).unwrap_err().kind,
            KIND_INVALID
        );
        assert_eq!(
            parse_request(r#"{"op":"ingest","rows":[]}"#)
                .unwrap_err()
                .kind,
            KIND_INVALID
        );
        assert_eq!(
            parse_request(r#"{"op":"ingest","rows":[[true]]}"#)
                .unwrap_err()
                .kind,
            KIND_INVALID
        );
        assert_eq!(
            parse_request(r#"{"op":"query","row":-1}"#)
                .unwrap_err()
                .kind,
            KIND_INVALID
        );
    }

    #[test]
    fn error_response_shape() {
        let r = error_response(Some("ingest"), KIND_OVERLOADED, "queue full");
        assert_eq!(
            r,
            r#"{"ok":false,"op":"ingest","error":{"kind":"overloaded","message":"queue full"}}"#
        );
    }

    #[test]
    fn values_round_trip_through_the_wire_shape() {
        let row = vec![Value::Num(1.5), Value::Text("x\"y".into()), Value::Null];
        assert_eq!(values_array(&row), r#"[1.5,"x\"y",null]"#);
    }
}
