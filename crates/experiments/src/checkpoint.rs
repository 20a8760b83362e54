//! Crash-safe checkpointing: the telemetry JSONL stream as a write-ahead
//! log (WAL), plus the loader that `repro --resume` uses to replay it.
//!
//! A WAL file starts with one versioned header line identifying the schema
//! and the suite parameters, followed by one [`CellRecord`] JSON line per
//! completed table cell (appended and flushed as each cell finishes, see
//! [`TelemetryLog`](crate::telemetry::TelemetryLog)). A run that dies —
//! panic, `kill -9`, power loss — leaves a prefix of that stream, possibly
//! with a **torn final line** (the write that was in flight). [`load`]
//! tolerates exactly that: a final line that does not parse is dropped and
//! reported, while corruption anywhere else is an error.
//!
//! Because every cell is deterministically seeded from `(base_seed, table,
//! method, column, instance)`, replaying completed cells from the WAL and
//! re-running only the missing or failed ones reproduces tables
//! **bitwise-identical** to an uninterrupted run: `f64` cell values survive
//! the JSON round-trip exactly (Rust's shortest-repr `Display` → `FromStr`
//! is lossless), and the integration tests in `tests/resume.rs` lock that
//! in.
//!
//! The file discipline (header, per-record flush, torn-tail reader) is
//! [`jsonl`]'s; the JSON is [`anneal_core::json`]'s.

use std::io::Write;

use anneal_core::json::Json;

use crate::jsonl::{self, Mode, Reject};
use crate::telemetry::{
    CellFailure, CellKey, CellRecord, InstanceRecord, SupervisorEvent, TempAggregate,
};

/// Schema identifier in the WAL header line.
pub const WAL_SCHEMA: &str = "anneal-repro-wal";

/// Current WAL format version. Loaders accept this version or older.
///
/// Version history:
/// * 1 — initial WAL format (PR 2), `per_temp.proposals` added in PR 4.
/// * 2 — replica exchange: `per_temp` entries carry `ended_exchange`,
///   `swap_attempts` and `swap_accepts` (all default to 0 when loading v1).
/// * 3 — adaptive temperature control: `per_temp` entries carry
///   `temperature` and `target_acceptance` sums (both default to NaN when
///   loading v1/v2, rendering as "no data" rather than a wrong mean).
/// * 4 — process supervisor: record lines are prefixed with a `"seq"`
///   field (the write-order sequence number, used to merge per-worker
///   shards deterministically), and the stream may carry supervisor event
///   lines (`{"sup":...}`) which older loaders never see and this loader
///   collects separately. Records without `seq` still load.
pub const WAL_VERSION: u64 = 4;

/// Suite parameters recorded in the WAL header, used by `--resume` to warn
/// when a log is replayed under different settings (per-cell validation in
/// the runner still guards correctness either way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalMeta {
    /// WAL format version.
    pub version: u64,
    /// Suite base seed.
    pub seed: u64,
    /// Budget scale divisor.
    pub scale: u64,
}

impl WalMeta {
    /// The header for a fresh WAL at the current version.
    pub fn new(seed: u64, scale: u64) -> Self {
        WalMeta {
            version: WAL_VERSION,
            seed,
            scale,
        }
    }

    /// The header as one JSON line (no trailing newline).
    pub fn header_line(&self) -> String {
        jsonl::header(
            "wal",
            WAL_SCHEMA,
            self.version,
            &format!(",\"seed\":{},\"scale\":{}", self.seed, self.scale),
        )
    }
}

/// A loaded WAL: header (if present), the parsed cell records, and whether
/// a torn final line was dropped.
#[derive(Debug)]
pub struct Checkpoint {
    /// Header metadata; `None` for headerless (pre-WAL telemetry) logs,
    /// which remain loadable.
    pub meta: Option<WalMeta>,
    /// Every intact cell record, in append order.
    pub cells: Vec<CellRecord>,
    /// Supervisor lifecycle events interleaved in the stream (WAL v4;
    /// always empty for older logs).
    pub events: Vec<SupervisorEvent>,
    /// Whether the final line was torn (incomplete write) and dropped.
    pub torn: bool,
}

/// Splices the WAL v4 write-order sequence number into a serialized record
/// line: `{"a":1}` with seq 7 becomes `{"seq":7,"a":1}`. The loader treats
/// `seq` as just another (ignorable) field, so pre-v4 readers of individual
/// records are unaffected.
pub fn wal_line(record_json: &str, seq: u64) -> String {
    debug_assert!(record_json.starts_with('{'));
    format!("{{\"seq\":{seq},{}", &record_json[1..])
}

/// Creates a WAL file at `path`, writes and flushes its header, and returns
/// the writer for [`TelemetryLog::with_writer`]. The header is written
/// before any fault-injection wrapper is applied, so even a chaos run
/// leaves a well-formed (if shorter) WAL.
///
/// [`TelemetryLog::with_writer`]: crate::telemetry::TelemetryLog::with_writer
pub fn create_wal(path: &str, meta: &WalMeta) -> Result<Box<dyn Write + Send>, String> {
    Ok(Box::new(jsonl::open(
        path,
        &meta.header_line(),
        Mode::Create,
        "WAL",
    )?))
}

/// Loads a WAL (or a headerless telemetry JSONL) from `path`, tolerating a
/// torn final line. Corruption anywhere else is an error naming the line.
pub fn load(path: &str) -> Result<Checkpoint, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read WAL `{path}`: {e}"))?;
    load_str(&text).map_err(|e| format!("WAL `{path}`: {e}"))
}

/// [`load`] on in-memory WAL text.
pub fn load_str(text: &str) -> Result<Checkpoint, String> {
    let mut checkpoint = Checkpoint {
        meta: None,
        cells: Vec::new(),
        events: Vec::new(),
        torn: false,
    };
    checkpoint.torn = jsonl::scan(text, |i, _, value| {
        if i == 0 && value.get("wal").is_some() {
            checkpoint.meta = Some(meta_from_json(value)?);
        } else if value.get("sup").is_some() {
            checkpoint.events.push(event_from_json(value)?);
        } else {
            checkpoint.cells.push(record_from_json(value)?);
        }
        Ok(())
    })?;
    Ok(checkpoint)
}

fn meta_from_json(v: &Json) -> Result<WalMeta, String> {
    Ok(WalMeta {
        version: jsonl::check_header(v, "wal", WAL_SCHEMA, WAL_VERSION, "WAL")?,
        seed: v.u64_field("seed")?,
        scale: v.u64_field("scale")?,
    })
}

/// Rebuilds a [`CellRecord`] from its parsed JSON line.
pub fn record_from_json(v: &Json) -> Result<CellRecord, String> {
    let key = CellKey::new(
        v.str_field("table")?,
        v.str_field("method")?,
        v.str_field("column")?,
    );
    let mut per_temp = Vec::new();
    for t in v.arr_field("per_temp")? {
        per_temp.push(TempAggregate {
            temp: t.u64_field("temp")? as usize,
            evals: t.u64_field("evals")?,
            // Absent in pre-PR-4 records, where proposals were not tracked
            // per temperature.
            proposals: t.u64_field_or("proposals", 0)?,
            accepted_downhill: t.u64_field("accepted_downhill")?,
            accepted_uphill: t.u64_field("accepted_uphill")?,
            rejected_uphill: t.u64_field("rejected_uphill")?,
            ended_budget: t.u64_field("ended_budget")?,
            ended_equilibrium: t.u64_field("ended_equilibrium")?,
            // Absent before WAL v2 (no replica-exchange strategy yet).
            ended_exchange: t.u64_field_or("ended_exchange", 0)?,
            swap_attempts: t.u64_field_or("swap_attempts", 0)?,
            swap_accepts: t.u64_field_or("swap_accepts", 0)?,
            // Absent before WAL v3 (adaptive temperature control).
            temperature: t.f64_field_or_nan("temperature")?,
            target_acceptance: t.f64_field_or_nan("target_acceptance")?,
        });
    }
    let mut per_instance = Vec::new();
    for r in v.arr_field("per_instance")? {
        per_instance.push(InstanceRecord {
            index: r.u64_field("instance")? as usize,
            seed: r.u64_field("seed")?,
            reduction: r.f64_field("reduction")?,
            evals: r.u64_field("evals")?,
            wall_ms: r.f64_field("wall_ms")?,
            stop: stop_label(r.str_field("stop")?)?,
            accepted_downhill: r.u64_field("accepted_downhill")?,
            accepted_uphill: r.u64_field("accepted_uphill")?,
            rejected_uphill: r.u64_field("rejected_uphill")?,
        });
    }
    let mut failures = Vec::new();
    for f in v.arr_field("failures")? {
        failures.push(CellFailure {
            instance: f.u64_field("instance")? as usize,
            seed: f.u64_field("seed")?,
            message: f.str_field("message")?.to_string(),
        });
    }
    Ok(CellRecord {
        key,
        strategy: v.str_field("strategy")?.to_string(),
        budget: v.str_field("budget")?.to_string(),
        base_seed: v.u64_field("base_seed")?,
        instances: v.u64_field("instances")? as usize,
        reduction: v.f64_field("reduction")?,
        evals: v.u64_field("evals")?,
        wall_ms: v.f64_field("wall_ms")?,
        accepted_downhill: v.u64_field("accepted_downhill")?,
        accepted_uphill: v.u64_field("accepted_uphill")?,
        rejected_uphill: v.u64_field("rejected_uphill")?,
        stops_budget: v.u64_field("stops_budget")? as usize,
        stops_equilibrium: v.u64_field("stops_equilibrium")? as usize,
        // Absent in pre-WAL (v0) telemetry lines: one attempt was made.
        attempts: v.u64_field_or("attempts", 1)? as u32,
        per_temp,
        per_instance,
        failures,
    })
}

/// Rebuilds a [`SupervisorEvent`] from its parsed WAL line (an object
/// carrying a `"sup"` key).
pub fn event_from_json(v: &Json) -> Result<SupervisorEvent, String> {
    let cell = match v.get("table") {
        Some(_) => Some(CellKey::new(
            v.str_field("table")?,
            v.str_field("method")?,
            v.str_field("column")?,
        )),
        None => None,
    };
    Ok(SupervisorEvent {
        kind: v.str_field("sup")?.to_string(),
        cell,
        detail: v.str_field("detail")?.to_string(),
    })
}

/// Opens (creating if absent) a per-worker WAL shard at `path` in append
/// mode and returns the writer. A new or empty shard gets the versioned
/// header first, so every shard follows the same torn-line-tolerant
/// discipline as the main WAL; an existing shard is appended to, which is
/// how a retried worker continues the same file.
pub fn open_shard(path: &str, meta: &WalMeta) -> Result<Box<dyn Write + Send>, String> {
    Ok(Box::new(jsonl::open(
        path,
        &meta.header_line(),
        Mode::Append,
        "WAL shard",
    )?))
}

/// Deterministically merges WAL shard texts into one single-writer WAL.
///
/// Every input must carry a header and the headers must agree. Record
/// lines are keyed by their WAL v4 `seq` number: the merge orders them by
/// sequence, with a later input winning a sequence collision (a retried
/// cell supersedes the attempt it replaced). A torn final line in any
/// input is dropped, exactly as [`load`] would. Supervisor event lines are
/// not merged — they have no sequence numbers and remain advisory to the
/// stream that recorded them.
///
/// The output is byte-for-byte the WAL a single writer would have
/// produced for the same records: header line, then each surviving record
/// line verbatim in sequence order.
pub fn merge_shards(texts: &[&str]) -> Result<String, String> {
    let _merge_span = anneal_core::metrics::span("merge");
    let mut meta: Option<WalMeta> = None;
    let mut by_seq: std::collections::BTreeMap<u64, String> = std::collections::BTreeMap::new();
    for (shard_idx, text) in texts.iter().enumerate() {
        jsonl::scan(text, |i, line, value| {
            // A parseable header that *disagrees* is a real conflict, not
            // a torn tail, even on the last line (a shard may hold nothing
            // but its header line).
            if i == 0 && value.get("wal").is_some() {
                let this = meta_from_json(value).map_err(Reject::Fatal)?;
                match meta {
                    None => meta = Some(this),
                    Some(first) if first == this => {}
                    Some(first) => {
                        return Err(Reject::Fatal(format!(
                            "header disagrees with shard 0: {this:?} vs {first:?}"
                        )));
                    }
                }
            } else if value.get("sup").is_some() {
                event_from_json(value)?;
            } else {
                // Validate the whole record, not just the seq field — a
                // half-written line must count as torn, not merge.
                record_from_json(value)?;
                let seq = value
                    .u64_field("seq")
                    .map_err(|e| format!("record without a mergeable seq: {e}"))?;
                by_seq.insert(seq, line.to_string());
            }
            Ok(())
        })
        .map_err(|e| format!("shard {shard_idx}: {e}"))?;
    }
    let meta = meta.ok_or("no shard carried a WAL header")?;
    let mut out = meta.header_line();
    out.push('\n');
    for line in by_seq.values() {
        out.push_str(line);
        out.push('\n');
    }
    Ok(out)
}

/// Maps a parsed stop string back onto the `&'static str` labels
/// [`anneal_core::StopReason::as_str`] produces.
fn stop_label(s: &str) -> Result<&'static str, String> {
    match s {
        "budget" => Ok("budget"),
        "equilibrium" => Ok("equilibrium"),
        other => Err(format!("unknown stop reason `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_core::Budget;

    fn sample_record(reduction: f64) -> CellRecord {
        let mut r = CellRecord::empty(
            CellKey::new("table4.1", "g = 1", "6 sec"),
            "Figure1".into(),
            Budget::evaluations(1500),
            1985,
        );
        r.instances = 2;
        r.reduction = reduction;
        r.evals = 2718;
        r.wall_ms = 12.75;
        r.accepted_downhill = 5;
        r.attempts = 3;
        r.per_temp.push(TempAggregate {
            temp: 0,
            evals: 2718,
            proposals: 8,
            accepted_downhill: 5,
            accepted_uphill: 2,
            rejected_uphill: 1,
            ended_budget: 2,
            ended_equilibrium: 0,
            ended_exchange: 1,
            swap_attempts: 4,
            swap_accepts: 2,
            temperature: 3.25,
            target_acceptance: 0.625,
        });
        r.per_instance.push(InstanceRecord {
            index: 0,
            seed: 42,
            reduction: reduction / 2.0,
            evals: 1359,
            wall_ms: 6.5,
            stop: "budget",
            accepted_downhill: 5,
            accepted_uphill: 2,
            rejected_uphill: 1,
        });
        r.failures.push(CellFailure {
            instance: 1,
            seed: 43,
            message: "boom \"quoted\"\nline2".into(),
        });
        r
    }

    #[test]
    fn cell_record_round_trips_bitwise() {
        // An f64 with a long shortest-repr: exercises exact round-trip.
        let reduction = 123.456_789_012_345_67_f64;
        let original = sample_record(reduction);
        let parsed = record_from_json(&Json::parse(&original.to_json()).unwrap()).unwrap();
        assert_eq!(parsed, original);
        assert_eq!(parsed.reduction.to_bits(), original.reduction.to_bits());
        assert_eq!(
            parsed.per_instance[0].reduction.to_bits(),
            original.per_instance[0].reduction.to_bits()
        );
    }

    #[test]
    fn nan_round_trips_as_nan() {
        let parsed = record_from_json(&Json::parse(&sample_record(f64::NAN).to_json()).unwrap());
        assert!(parsed.unwrap().reduction.is_nan());
    }

    #[test]
    fn wal_header_round_trips() {
        let meta = WalMeta::new(1985, 40);
        let cp = load_str(&format!(
            "{}\n{}\n",
            meta.header_line(),
            sample_record(1.0).to_json()
        ))
        .unwrap();
        assert_eq!(cp.meta, Some(meta));
        assert_eq!(cp.cells.len(), 1);
        assert!(!cp.torn);
    }

    #[test]
    fn torn_final_line_is_dropped_and_flagged() {
        let meta = WalMeta::new(1, 1);
        let full = sample_record(1.0).to_json();
        let torn = &full[..full.len() / 2];
        let cp = load_str(&format!("{}\n{full}\n{torn}", meta.header_line())).unwrap();
        assert!(cp.torn);
        assert_eq!(cp.cells.len(), 1);
    }

    #[test]
    fn corruption_before_the_end_is_an_error() {
        let text = format!("not json at all\n{}\n", sample_record(1.0).to_json());
        let err = load_str(&text).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn headerless_telemetry_loads_with_no_meta() {
        let cp = load_str(&format!("{}\n", sample_record(2.0).to_json())).unwrap();
        assert_eq!(cp.meta, None);
        assert_eq!(cp.cells.len(), 1);
    }

    #[test]
    fn newer_wal_version_is_refused() {
        let line = format!("{{\"wal\":\"{WAL_SCHEMA}\",\"version\":999,\"seed\":1,\"scale\":1}}");
        // A lone unparseable-as-meta final line counts as torn, so append a
        // record to force the header through the strict path.
        let text = format!("{line}\n{}\n", sample_record(1.0).to_json());
        let err = load_str(&text).unwrap_err();
        assert!(err.contains("newer"), "{err}");
    }

    #[test]
    fn empty_file_is_an_empty_checkpoint() {
        let cp = load_str("").unwrap();
        assert!(cp.meta.is_none() && cp.cells.is_empty() && !cp.torn);
    }

    #[test]
    fn attempts_field_defaults_for_old_logs() {
        let mut json = sample_record(1.0).to_json();
        // Strip the attempts field to simulate a pre-WAL record.
        json = json.replace("\"attempts\":3,", "");
        let parsed = record_from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed.attempts, 1);
    }

    #[test]
    fn per_temp_proposals_default_for_old_logs() {
        let mut json = sample_record(1.0).to_json();
        // Strip the proposals field to simulate a pre-PR-4 record.
        json = json.replace("\"proposals\":8,", "");
        let parsed = record_from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed.per_temp[0].proposals, 0);
    }

    #[test]
    fn swap_fields_default_for_v1_logs() {
        let mut json = sample_record(1.0).to_json();
        // Strip the v2 fields to simulate a v1 (pre-replica-exchange) record.
        json = json.replace(
            ",\"ended_exchange\":1,\"swap_attempts\":4,\"swap_accepts\":2",
            "",
        );
        let parsed = record_from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed.per_temp[0].ended_exchange, 0);
        assert_eq!(parsed.per_temp[0].swap_attempts, 0);
        assert_eq!(parsed.per_temp[0].swap_accepts, 0);
    }

    #[test]
    fn temperature_fields_default_for_v2_logs() {
        let mut json = sample_record(1.0).to_json();
        // Strip the v3 fields to simulate a v2 (pre-adaptive) record.
        json = json.replace(",\"temperature\":3.25,\"target_acceptance\":0.625", "");
        assert!(!json.contains("temperature"), "strip actually removed them");
        let parsed = record_from_json(&Json::parse(&json).unwrap()).unwrap();
        assert!(parsed.per_temp[0].temperature.is_nan());
        assert!(parsed.per_temp[0].target_acceptance.is_nan());
    }

    #[test]
    fn nan_temperature_sums_round_trip_as_nan() {
        let mut original = sample_record(1.0);
        original.per_temp[0].target_acceptance = f64::NAN;
        let json = original.to_json();
        assert!(json.contains("\"target_acceptance\":null"), "{json}");
        let parsed = record_from_json(&Json::parse(&json).unwrap()).unwrap();
        assert!(parsed.per_temp[0].target_acceptance.is_nan());
        assert_eq!(
            parsed.per_temp[0].temperature.to_bits(),
            original.per_temp[0].temperature.to_bits()
        );
        // The bitwise TempAggregate equality keeps NaN reflexive, so whole
        // records still compare equal after the round trip.
        assert_eq!(parsed, original);
    }

    #[test]
    fn older_wal_headers_still_load() {
        for version in [1u64, 2, 3] {
            let line = format!(
                "{{\"wal\":\"{WAL_SCHEMA}\",\"version\":{version},\"seed\":9,\"scale\":4}}"
            );
            let cp = load_str(&format!("{line}\n{}\n", sample_record(1.0).to_json())).unwrap();
            assert_eq!(
                cp.meta,
                Some(WalMeta {
                    version,
                    seed: 9,
                    scale: 4
                })
            );
            assert_eq!(cp.cells.len(), 1);
        }
    }

    #[test]
    fn v1_wal_headers_still_load() {
        let line = format!("{{\"wal\":\"{WAL_SCHEMA}\",\"version\":1,\"seed\":9,\"scale\":4}}");
        let cp = load_str(&format!("{line}\n{}\n", sample_record(1.0).to_json())).unwrap();
        assert_eq!(
            cp.meta,
            Some(WalMeta {
                version: 1,
                seed: 9,
                scale: 4
            })
        );
        assert_eq!(cp.cells.len(), 1);
    }

    #[test]
    fn wal_line_splices_a_seq_prefix_the_loader_ignores() {
        let original = sample_record(2.5);
        let line = wal_line(&original.to_json(), 7);
        assert!(line.starts_with("{\"seq\":7,\"table\":"), "{line}");
        let meta = WalMeta::new(1, 1);
        let cp = load_str(&format!("{}\n{line}\n", meta.header_line())).unwrap();
        assert_eq!(cp.cells.len(), 1);
        assert_eq!(cp.cells[0], original, "seq is transparent to the loader");
    }

    #[test]
    fn event_lines_load_separately_from_records() {
        let meta = WalMeta::new(1, 1);
        let event = SupervisorEvent::new(
            "restart",
            Some(CellKey::new("table4.1", "g = 1", "6 sec")),
            "worker exited with signal 9",
        );
        let drain = SupervisorEvent::new("drain", None, "SIGTERM");
        // Events interleave with records mid-stream, not only at the end.
        let text = format!(
            "{}\n{}\n{}\n{}\n",
            meta.header_line(),
            event.to_json(),
            wal_line(&sample_record(1.0).to_json(), 0),
            drain.to_json()
        );
        let cp = load_str(&text).unwrap();
        assert!(!cp.torn);
        assert_eq!(cp.cells.len(), 1);
        assert_eq!(cp.events, vec![event, drain]);
    }

    #[test]
    fn pre_v4_wals_load_with_no_events() {
        let line = format!("{{\"wal\":\"{WAL_SCHEMA}\",\"version\":3,\"seed\":9,\"scale\":4}}");
        let cp = load_str(&format!("{line}\n{}\n", sample_record(1.0).to_json())).unwrap();
        assert!(cp.events.is_empty());
        assert_eq!(cp.cells.len(), 1);
    }

    fn numbered_line(i: u64) -> String {
        let mut r = sample_record(i as f64 + 0.125);
        r.key.table = format!("t{i}");
        wal_line(&r.to_json(), i)
    }

    fn with_header(meta: &WalMeta, lines: &[String]) -> String {
        let mut out = meta.header_line();
        out.push('\n');
        for line in lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    #[test]
    fn merge_reorders_by_seq_and_drops_torn_tails() {
        let meta = WalMeta::new(1985, 40);
        let lines: Vec<String> = (0..5).map(numbered_line).collect();
        // Interleaved, out-of-order shards + a torn tail on the second.
        let shard_a = with_header(&meta, &[lines[4].clone(), lines[0].clone()]);
        let mut shard_b = with_header(&meta, &[lines[2].clone(), lines[1].clone()]);
        shard_b.push_str(&lines[3][..lines[3].len() / 2]);
        let shard_c = with_header(&meta, &[lines[3].clone()]);
        let merged = merge_shards(&[&shard_a, &shard_b, &shard_c]).unwrap();
        assert_eq!(merged, with_header(&meta, &lines), "byte-for-byte");
    }

    #[test]
    fn merge_collision_is_last_wins() {
        let meta = WalMeta::new(1, 1);
        let old = wal_line(&sample_record(1.0).to_json(), 0);
        let new = wal_line(&sample_record(2.0).to_json(), 0);
        let merged = merge_shards(&[
            &with_header(&meta, std::slice::from_ref(&old)),
            &with_header(&meta, std::slice::from_ref(&new)),
        ])
        .unwrap();
        assert_eq!(merged, with_header(&meta, &[new]));
    }

    #[test]
    fn merge_rejects_disagreeing_headers_and_missing_seq() {
        let a = with_header(&WalMeta::new(1, 1), &[]);
        let b = with_header(&WalMeta::new(2, 1), &[]);
        let err = merge_shards(&[&a, &b]).unwrap_err();
        assert!(err.contains("disagrees"), "{err}");

        // A seq-less record anywhere but a torn tail cannot be merged.
        let noseq = format!(
            "{}{}\n{}\n",
            with_header(&WalMeta::new(1, 1), &[]),
            sample_record(1.0).to_json(),
            numbered_line(0)
        );
        let err = merge_shards(&[&noseq]).unwrap_err();
        assert!(err.contains("seq"), "{err}");

        assert!(merge_shards(&["\n"]).is_err(), "headerless input");
    }

    mod merge_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Merging arbitrarily interleaved (and possibly torn)
            /// per-worker shards reproduces the single-writer WAL
            /// byte-for-byte.
            #[test]
            fn merged_shards_match_the_single_writer_wal(
                assign in proptest::collection::vec(0..3usize, 1..12),
                torn_choice in 0..4usize,
            ) {
                // 3 = no torn shard; 0..3 = which shard gets a torn tail.
                let torn_shard = (torn_choice < 3).then_some(torn_choice);
                let meta = WalMeta::new(1985, 40);
                let lines: Vec<String> =
                    (0..assign.len() as u64).map(numbered_line).collect();
                let single_writer = with_header(&meta, &lines);

                let mut shards: [Vec<String>; 3] = Default::default();
                // Deterministic interleave: reverse order, so shards are
                // genuinely out of sequence relative to the single writer.
                for (i, &s) in assign.iter().enumerate().rev() {
                    shards[s].push(lines[i].clone());
                }
                let mut texts: Vec<String> =
                    shards.iter().map(|s| with_header(&meta, s)).collect();
                if let Some(t) = torn_shard {
                    // A torn final line (always strictly partial) is
                    // dropped; the record it duplicates still arrives
                    // intact from its own shard.
                    texts[t].push_str(&lines[0][..lines[0].len() / 2]);
                }
                let shard_refs: Vec<&str> =
                    texts.iter().map(String::as_str).collect();
                prop_assert_eq!(merge_shards(&shard_refs).unwrap(), single_writer);
            }
        }
    }

    #[test]
    fn open_shard_writes_one_header_across_reopens() {
        let path =
            std::env::temp_dir().join(format!("anneal-shard-test-{}.jsonl", std::process::id()));
        let path_str = path.to_str().unwrap();
        let _ = std::fs::remove_file(&path);
        let meta = WalMeta::new(7, 2);
        {
            let mut w = open_shard(path_str, &meta).unwrap();
            writeln!(w, "{}", numbered_line(0)).unwrap();
            w.flush().unwrap();
        }
        {
            let mut w = open_shard(path_str, &meta).unwrap();
            writeln!(w, "{}", numbered_line(1)).unwrap();
            w.flush().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            text.lines().filter(|l| l.contains("\"wal\"")).count(),
            1,
            "header written once: {text}"
        );
        let cp = load_str(&text).unwrap();
        assert_eq!(cp.meta, Some(meta));
        assert_eq!(cp.cells.len(), 2, "append across reopens kept both");
    }
}
