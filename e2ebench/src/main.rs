//! End-to-end benchmark of the paper tables and the job server.
//!
//! ```text
//! e2ebench --workload NAME --seed N --seconds S --trace 0|1 --repro PATH --work-dir DIR
//! ```
//!
//! Workloads: `gola-fig1`, `nola-goto`, `gola-fig2` (paper tables run
//! in-process) and `serve-jobs` (a spawned `repro serve` under open-loop
//! load), run from the repository root: the references are read from
//! `results/repro_output.txt` and `e2ebench/reference/`. `--repro` names
//! the built `repro` binary and `--work-dir` a directory for scratch files
//! and spans. With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports per-layer metrics and writes its spans to
//! `WORK_DIR/spans/`. The last line of stdout is a JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exit 0 when correct, 1
//! on a correctness failure, 2 when the run could not be carried out.
//! README.md explains the workloads and metrics.

mod adapter;
mod http;
mod reference;
mod report;
mod serve;
mod spans;
mod stats;
mod tables;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Outcome;
use spans::Tracer;

/// Every workload name.
const WORKLOADS: [&str; 4] = ["gola-fig1", "nola-goto", "gola-fig2", "serve-jobs"];

const USAGE: &str = "usage: e2ebench --workload gola-fig1|nola-goto|gola-fig2|serve-jobs \
                     --seed N --seconds S --trace 0|1 --repro PATH --work-dir DIR";

/// One run's settings.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Workload seed: instance sets, starts and chains (tables), job mix
    /// and job seeds (serve).
    pub seed: u64,
    /// How long the run measures.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The `repro` binary (serve workload).
    pub repro: PathBuf,
    /// Scratch directory of this run, removed when it ends.
    pub tmp: PathBuf,
}

/// Removes a directory tree when dropped, also when the run fails.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    repro: PathBuf,
    work_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = String::new();
    let (mut seed, mut seconds, mut trace, mut repro, mut work_dir) =
        (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => workload = value,
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--repro" => repro = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be a positive number")?,
        trace: trace.ok_or("--trace is required")?,
        repro: repro.ok_or("--repro is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let tmp = args
        .work_dir
        .join(format!("tmp-{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    let _cleanup = TempDir(tmp.clone());
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        repro: args.repro.clone(),
        tmp,
    };
    let tracer = Tracer::new(ctx.trace);
    let mut out = Outcome::default();
    if tables::is_table_workload(&ctx.workload) {
        tables::run(&ctx, &tracer, &mut out)?;
    } else {
        serve::run(&ctx, &tracer, &mut out)?;
    }
    if ctx.trace {
        let dir = args.work_dir.join("spans");
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}-seed{}.jsonl", ctx.workload, ctx.seed));
        tracer.write_jsonl(&path)?;
        eprintln!("spans written to {}", path.display());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(mut out) => {
            if report::print(&args.workload, args.trace, &mut out) {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", args.workload);
            ExitCode::from(2)
        }
    }
}
