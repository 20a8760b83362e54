//! The file discipline every durable JSONL stream in the workspace shares:
//! the telemetry WAL and its worker shards
//! ([`checkpoint`](crate::checkpoint)), per-cell chain traces
//! ([`trace`](crate::trace)) and the job journal ([`jobs`](crate::jobs)).
//!
//! * A file starts with one **versioned header line**
//!   (`{"<tag>":"<schema>","version":N,...}`, see [`header`]), written and
//!   flushed by [`open`] before any record, so even a killed or chaos run
//!   leaves a file whose header parses.
//! * Each record goes out with [`append`]: one write, then one flush, so a
//!   crash tears at most the final line.
//! * [`scan`] reads the lines back and tolerates exactly that: a final
//!   line that does not parse, or that its reader refuses, is dropped and
//!   reported as a torn tail, while a bad line anywhere else is corruption.
//!
//! The JSON itself (value type, parser, escaper, `f64` formatter) lives in
//! [`anneal_core::json`].

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;

use anneal_core::json::Json;

/// The versioned header line `{"<tag>":"<schema>","version":N<rest>}` (no
/// trailing newline). `rest` is the schema's own fields, already rendered
/// with a leading comma, or empty.
pub fn header(tag: &str, schema: &str, version: u64, rest: &str) -> String {
    format!("{{\"{tag}\":\"{schema}\",\"version\":{version}{rest}}}")
}

/// Checks a parsed header line against `schema` under `tag` and returns
/// its version, refusing a version newer than `max_version`. `what` names
/// the format in the error (`"WAL"`, `"trace"`, `"journal"`).
pub fn check_header(
    v: &Json,
    tag: &str,
    schema: &str,
    max_version: u64,
    what: &str,
) -> Result<u64, String> {
    let found = v.get(tag).and_then(Json::as_str).unwrap_or_default();
    if found != schema {
        return Err(format!("unknown {what} schema `{found}`"));
    }
    let version = v.u64_field("version")?;
    if version > max_version {
        return Err(format!(
            "{what} version {version} is newer than supported {max_version}"
        ));
    }
    Ok(version)
}

/// How [`open`] treats an existing file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Start the file afresh (a new WAL or trace): truncate, then write the
    /// header.
    Create,
    /// Continue the file (a worker shard a retried worker reopens, or the
    /// job journal across restarts): create it if absent and write the
    /// header only when it is empty.
    Append,
}

/// Opens a JSONL file at `path`, writes and flushes its `header` line
/// under `mode`, and returns the buffered writer for [`append`]. `what`
/// names the file in errors.
pub fn open(
    path: impl AsRef<Path>,
    header: &str,
    mode: Mode,
    what: &str,
) -> Result<BufWriter<File>, String> {
    let path = path.as_ref();
    let file = match mode {
        Mode::Create => File::create(path),
        Mode::Append => OpenOptions::new().create(true).append(true).open(path),
    }
    .map_err(|e| format!("cannot open {what} `{}`: {e}", path.display()))?;
    let fresh = mode == Mode::Create
        || file
            .metadata()
            .map_err(|e| format!("cannot stat {what} `{}`: {e}", path.display()))?
            .len()
            == 0;
    let mut writer = BufWriter::new(file);
    if fresh {
        append(&mut writer, &format!("{header}\n"))
            .map_err(|e| format!("cannot write {what} header to `{}`: {e}", path.display()))?;
    }
    Ok(writer)
}

/// Appends `lines` (newline-terminated) in a single write and flushes, so
/// a crash tears at most the final line.
pub fn append<W: Write + ?Sized>(writer: &mut W, lines: &str) -> std::io::Result<()> {
    writer.write_all(lines.as_bytes())?;
    writer.flush()
}

/// Why a [`scan`] visitor refused a line.
#[derive(Debug)]
pub enum Reject {
    /// The line is bad: dropped as a torn tail when it is the final line,
    /// corruption anywhere else.
    Line(String),
    /// The whole file is unusable, wherever the line sits (a header that
    /// is not this format's, or that disagrees with another file's).
    Fatal(String),
}

impl From<String> for Reject {
    fn from(message: String) -> Self {
        Reject::Line(message)
    }
}

/// The torn-tail-tolerant line reader. Parses each non-empty line and
/// hands it to `visit` with its 0-based line index and raw text. A parse
/// failure or [`Reject::Line`] on the *final* line is the signature of a
/// killed writer: the line is dropped and the scan returns `Ok(true)`
/// (torn). Anywhere earlier it is an `Err` naming the 1-based line.
/// [`Reject::Fatal`] is an `Err` wherever it happens.
pub fn scan<F>(text: &str, mut visit: F) -> Result<bool, String>
where
    F: FnMut(usize, &str, &Json) -> Result<(), Reject>,
{
    let lines: Vec<&str> = text.lines().collect();
    let n = lines.len();
    let mut torn = false;
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Json::parse(line)
            .map_err(Reject::Line)
            .and_then(|value| visit(i, line, &value))
        {
            Ok(()) => {}
            Err(Reject::Fatal(e)) => return Err(e),
            Err(Reject::Line(_)) if i + 1 == n => torn = true,
            Err(Reject::Line(e)) => return Err(format!("corrupt record at line {}: {e}", i + 1)),
        }
    }
    Ok(torn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{self, wal_line, WalMeta};
    use crate::jobs::JobSpec;
    use crate::telemetry::{CellFailure, CellKey, CellRecord};
    use anneal_core::json;
    use anneal_core::TempStats;
    use anneal_core::{AdvanceReason, Budget, ChainTrace, StageTrace, StopReason, StopTrace};
    use proptest::prelude::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("anneal-jsonl-{name}-{}", std::process::id()))
    }

    #[test]
    fn header_round_trips_through_check() {
        let line = header("wal", "anneal-x", 3, ",\"seed\":9");
        assert_eq!(line, "{\"wal\":\"anneal-x\",\"version\":3,\"seed\":9}");
        let v = Json::parse(&line).unwrap();
        assert_eq!(check_header(&v, "wal", "anneal-x", 3, "WAL"), Ok(3));
        let err = check_header(&v, "wal", "anneal-x", 2, "WAL").unwrap_err();
        assert!(
            err.contains("WAL version 3 is newer than supported 2"),
            "{err}"
        );
        let err = check_header(&v, "trace", "anneal-x", 3, "trace").unwrap_err();
        assert!(err.contains("unknown trace schema ``"), "{err}");
    }

    #[test]
    fn create_truncates_and_append_writes_one_header() {
        let path = temp_path("open");
        std::fs::write(&path, "old contents\n").unwrap();
        let mut w = open(&path, "{\"h\":1}", Mode::Create, "test file").unwrap();
        append(&mut w, "{\"r\":1}\n").unwrap();
        drop(w);
        let mut w = open(&path, "{\"h\":1}", Mode::Append, "test file").unwrap();
        append(&mut w, "{\"r\":2}\n").unwrap();
        drop(w);
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(text, "{\"h\":1}\n{\"r\":1}\n{\"r\":2}\n");

        let missing = temp_path("no-such-dir").join("x.jsonl");
        let err = open(&missing, "{}", Mode::Append, "test file").unwrap_err();
        assert!(err.starts_with("cannot open test file"), "{err}");
    }

    #[test]
    fn scan_separates_torn_tails_from_corruption_and_fatal_lines() {
        let visit_all = |_: usize, _: &str, _: &Json| Ok(());
        assert_eq!(scan("", visit_all), Ok(false));
        assert_eq!(scan("{}\n\n{}\n", visit_all), Ok(false));
        assert_eq!(scan("{}\n{\"a\":", visit_all), Ok(true));
        let err = scan("{\"a\":\n{}\n", visit_all).unwrap_err();
        assert!(err.starts_with("corrupt record at line 1"), "{err}");

        let refuse_last = |i: usize, _: &str, _: &Json| {
            if i == 1 {
                Err(Reject::Line("no".to_string()))
            } else {
                Ok(())
            }
        };
        assert_eq!(scan("{}\n{}", refuse_last), Ok(true));
        let fatal = |_: usize, _: &str, _: &Json| Err(Reject::Fatal("bad header".to_string()));
        assert_eq!(scan("{}", fatal), Err("bad header".to_string()));
    }

    /// A record line with arbitrary float bits and message text.
    fn wal_record_line(bits: u64, message: &str, seq: u64) -> String {
        let mut r = CellRecord::empty(
            CellKey::new("table4.1", "g = 1", "6 sec"),
            "Figure1".into(),
            Budget::evaluations(1500),
            u64::MAX - seq,
        );
        r.reduction = f64::from_bits(bits);
        r.failures.push(CellFailure {
            instance: 0,
            seed: seq,
            message: message.to_string(),
        });
        wal_line(&r.to_json(), seq)
    }

    fn trace_lines(bits: u64) -> String {
        let x = f64::from_bits(bits);
        let trace = ChainTrace {
            initial_cost: x,
            temperatures: 1,
            stages: vec![StageTrace {
                stats: TempStats {
                    temp: 0,
                    temperature: x,
                    target_acceptance: 0.5,
                    evals: 3,
                    proposals: 3,
                    accepted_downhill: 1,
                    accepted_uphill: 1,
                    rejected_uphill: 1,
                    swap_attempts: 0,
                    swap_accepts: 0,
                    ended_by: AdvanceReason::Budget,
                },
                wall: std::time::Duration::from_micros(bits % 1000),
            }],
            samples: vec![(1, x)],
            bests: vec![(1, x)],
            stop: Some(StopTrace {
                reason: StopReason::Budget,
                evals: 3,
                final_cost: x,
                best_cost: x,
            }),
            energy_events: 3,
        };
        crate::trace::instance_lines(0, bits, 1, &trace)
    }

    fn journal_lines(seed: u64, message: &str) -> Vec<String> {
        let spec = JobSpec::parse(&format!("{{\"problem\":\"gola\",\"seed\":{seed}}}")).unwrap();
        vec![
            wal_line(
                &format!(
                    "{{\"job\":1,\"event\":\"submitted\",\"spec\":{}}}",
                    spec.to_json()
                ),
                1,
            ),
            wal_line(
                &format!(
                    "{{\"job\":1,\"event\":\"failed\",\"error\":\"{}\"}}",
                    json::escape(message)
                ),
                2,
            ),
        ]
    }

    fn message_strategy() -> impl Strategy<Value = String> {
        proptest::collection::vec(0u8..0x80, 0..24)
            .prop_map(|bytes| bytes.into_iter().map(char::from).collect())
    }

    proptest! {
        /// No proper prefix of a WAL, trace or journal line parses, so a
        /// line torn anywhere is dropped by [`scan`] rather than misread,
        /// and every intact line before it survives.
        #[test]
        fn no_proper_prefix_of_a_written_line_parses(
            bits in any::<u64>(),
            message in message_strategy(),
        ) {
            let mut lines = vec![
                WalMeta::new(bits, 40).header_line(),
                wal_record_line(bits, &message, bits % 7),
            ];
            lines.extend(trace_lines(bits).lines().map(str::to_string));
            lines.extend(journal_lines(bits, &message));
            for line in &lines {
                prop_assert!(Json::parse(line).is_ok(), "whole line parses: {}", line);
                for cut in (0..line.len()).filter(|&k| line.is_char_boundary(k)) {
                    let prefix = &line[..cut];
                    prop_assert!(Json::parse(prefix).is_err(), "prefix parses: {}", prefix);
                    let text = format!("{}\n{prefix}", lines[0]);
                    let mut seen = 0;
                    let torn = scan(&text, |_, _, _| {
                        seen += 1;
                        Ok(())
                    });
                    prop_assert_eq!(torn, Ok(!prefix.trim().is_empty()));
                    prop_assert_eq!(seen, 1);
                }
            }
            // And the WAL loader keeps the intact record under a torn one.
            let record = &lines[1];
            let text = format!("{}\n{record}\n{}", lines[0], &record[..record.len() / 2]);
            let cp = checkpoint::load_str(&text).unwrap();
            prop_assert!(cp.torn);
            prop_assert_eq!(cp.cells.len(), 1);
        }
    }
}
