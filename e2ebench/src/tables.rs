//! The paper-table workloads: whole tables run through the public
//! `tables::*::run_logged` entry points with a telemetry WAL, timed from
//! outside, checked against their references, and — in the traced run —
//! re-executed instance by instance through a counting `Problem` adapter.

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use anneal_core::metrics::{self, SPAN_METRIC};
use anneal_core::{Budget, ChainObserver, Figure1, Figure2, Strategy, TempStats};
use anneal_experiments::checkpoint::create_wal;
use anneal_experiments::scheduler::run_indexed;
use anneal_experiments::tables::{table4_1, table4_2b, table4_2c, table4_2d};
use anneal_experiments::telemetry::InstanceRecord;
use anneal_experiments::{
    full_roster, gola_paper_set, nola_paper_set, reduced_roster, ArrangementSet, CellRecord,
    MethodCtx, MethodSpec, SuiteConfig, Table, TelemetryLog, WalMeta, DEFAULT_SEED, NOLA_EVAL_COST,
    PAPER_SECONDS_42B,
};
use rand::{rngs::StdRng, SeedableRng};

use crate::adapter::{Calls, Counted};
use crate::reference;
use crate::report::{peak_rss_mb, Outcome};
use crate::spans::{layer_self_ns, Tracer};
use crate::stats::{median, percentile};
use crate::Ctx;

/// Worker threads every table runs with (the benchmark box has 2 cores).
const THREADS: usize = 2;
/// Set-up is timed in this many bursts of repetitions...
const SETUP_BURSTS: usize = 16;
/// ... each at least this long and this many repetitions ...
const SETUP_BURST_TIME: Duration = Duration::from_millis(150);
const SETUP_BURST_MIN_REPS: usize = 5;
/// ... starting this far apart, and `setup_s` is the fastest repetition.
/// One set-up takes 1–15 ms and allocates most of what it touches, so it
/// runs up to 1.5× slower whenever a shared machine's other tenants press
/// on its caches, in spells of a few seconds; the noise only ever adds.
/// The fastest repetition over 8 s is steady where the median over a few
/// seconds is not.
const SETUP_BURST_EVERY: Duration = Duration::from_millis(500);

/// The committed paper tables, relative to the repository root.
const COMMITTED_REFERENCE: &str = "results/repro_output.txt";
/// The benchmark's own references, relative to the repository root.
const OWN_REFERENCES: &str = "e2ebench/reference";

/// Where a table's expected output comes from.
enum Reference {
    /// Its section of the committed `results/repro_output.txt`.
    Committed,
    /// A file in the benchmark's `reference/` directory.
    Own(&'static str),
}

/// One paper table as a workload runs it.
struct TableSpec {
    name: &'static str,
    title_prefix: &'static str,
    scale: u64,
    nola: bool,
    goto_starts: bool,
    goto_row: bool,
    full_roster: bool,
    run: fn(&SuiteConfig, &TelemetryLog) -> Table,
    reference: Reference,
}

const TABLE_4_1: TableSpec = TableSpec {
    name: "table4.1",
    title_prefix: "Table 4.1 ",
    scale: 1,
    nola: false,
    goto_starts: false,
    goto_row: true,
    full_roster: true,
    run: table4_1::run_logged,
    reference: Reference::Committed,
};

const TABLE_4_2B_SCALE_10: TableSpec = TableSpec {
    name: "table4.2b",
    title_prefix: "Table 4.2(b) ",
    scale: 10,
    nola: false,
    goto_starts: false,
    goto_row: false,
    full_roster: false,
    run: table4_2b::run_logged,
    reference: Reference::Own("table4.2b-scale10-seed1985.txt"),
};

const TABLE_4_2C: TableSpec = TableSpec {
    name: "table4.2c",
    title_prefix: "Table 4.2(c) ",
    scale: 1,
    nola: true,
    goto_starts: false,
    goto_row: true,
    full_roster: false,
    run: table4_2c::run_logged,
    reference: Reference::Committed,
};

const TABLE_4_2D: TableSpec = TableSpec {
    name: "table4.2d",
    title_prefix: "Table 4.2(d) ",
    scale: 1,
    nola: true,
    goto_starts: true,
    goto_row: false,
    full_roster: false,
    run: table4_2d::run_logged,
    reference: Reference::Committed,
};

/// The tables a workload runs, or `None` for a non-table workload.
fn specs(workload: &str) -> Option<Vec<TableSpec>> {
    match workload {
        "gola-fig1" => Some(vec![TABLE_4_1]),
        "nola-goto" => Some(vec![TABLE_4_2C, TABLE_4_2D]),
        "gola-fig2" => Some(vec![TABLE_4_2B_SCALE_10]),
        _ => None,
    }
}

/// Whether `workload` is one of the table workloads.
pub fn is_table_workload(workload: &str) -> bool {
    specs(workload).is_some()
}

impl TableSpec {
    fn config(&self, seed: u64) -> SuiteConfig {
        SuiteConfig::scaled(self.scale)
            .with_seed(seed)
            .with_threads(THREADS)
    }

    fn roster(&self, config: &SuiteConfig) -> Vec<MethodSpec> {
        if self.full_roster {
            full_roster(config.tuned)
        } else {
            reduced_roster(config.tuned)
        }
    }

    /// The strategy and per-instance budget of the cell in `column`,
    /// derived the way the table derives them.
    fn cell_plan(&self, config: &SuiteConfig, column: &str) -> Result<(Strategy, Budget), String> {
        if self.name == "table4.2b" {
            let strategy = match column {
                "Figure 1" => Strategy::Figure1,
                "Figure 2" => Strategy::Figure2,
                other => return Err(format!("{}: unknown column {other}", self.name)),
            };
            return Ok((strategy, config.scale.vax_seconds(PAPER_SECONDS_42B)));
        }
        let seconds: f64 = column
            .strip_suffix(" sec")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("{}: unknown column {column}", self.name))?;
        let budget = config.scale.vax_seconds(seconds);
        let budget = if self.nola {
            budget.scale_div(NOLA_EVAL_COST)
        } else {
            budget
        };
        Ok((Strategy::Figure1, budget))
    }
}

/// One set-up of a table: the work before its first cell, timed per part.
struct Setup {
    instances_ns: u64,
    starts_ns: u64,
    goto_ns: u64,
    set: ArrangementSet,
    goto: Option<f64>,
}

impl Setup {
    fn total_ns(&self) -> u64 {
        self.instances_ns + self.starts_ns + self.goto_ns
    }
}

fn build(spec: &TableSpec, seed: u64) -> Setup {
    let t0 = Instant::now();
    let problems = if spec.nola {
        nola_paper_set(seed)
    } else {
        gola_paper_set(seed)
    };
    let t1 = Instant::now();
    let set = if spec.goto_starts {
        ArrangementSet::with_goto_starts(problems, seed)
    } else {
        ArrangementSet::with_random_starts(problems, seed)
    };
    let t2 = Instant::now();
    let goto = spec.goto_row.then(|| set.goto_reduction());
    let t3 = Instant::now();
    Setup {
        instances_ns: (t1 - t0).as_nanos() as u64,
        starts_ns: (t2 - t1).as_nanos() as u64,
        goto_ns: (t3 - t2).as_nanos() as u64,
        set,
        goto,
    }
}

/// A WAL writer that timestamps every flush: the telemetry log flushes
/// once per finished cell, so the stamps are the cell boundaries.
struct Stamped {
    inner: Box<dyn Write + Send>,
    stamps: Arc<Mutex<Vec<Instant>>>,
}

impl Write for Stamped {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let r = self.inner.flush();
        self.stamps.lock().expect("stamp lock").push(Instant::now());
        r
    }
}

/// One run of one table.
struct TablePass {
    table: Table,
    text: String,
    records: Vec<CellRecord>,
    wall_ns: u64,
    /// Wall time of each cell, in record order.
    cell_ns: Vec<u64>,
    wal_bytes: u64,
    lost: usize,
}

fn run_table(
    spec: &TableSpec,
    config: &SuiteConfig,
    tmp: &Path,
    pass: usize,
) -> Result<TablePass, String> {
    let path = tmp.join(format!("{}-{pass}.wal.jsonl", spec.name));
    let path_str = path.to_string_lossy().into_owned();
    let writer = create_wal(&path_str, &WalMeta::new(config.seed, spec.scale))?;
    let stamps = Arc::new(Mutex::new(Vec::new()));
    let log = TelemetryLog::with_writer(Box::new(Stamped {
        inner: writer,
        stamps: Arc::clone(&stamps),
    }));
    let cell_spans = metrics::global().histogram_with(SPAN_METRIC, &[("phase", "cell")]);
    let spans_before = cell_spans.sum();
    let start = Instant::now();
    let table = (spec.run)(config, &log);
    let wall_ns = start.elapsed().as_nanos() as u64;
    let records = log.records();
    let lost = log.summary().lost.len();
    drop(log);
    let wal_bytes = std::fs::metadata(&path)
        .map_err(|e| format!("cannot stat {path_str}: {e}"))?
        .len();
    std::fs::remove_file(&path).map_err(|e| format!("cannot remove {path_str}: {e}"))?;

    let stamps = stamps.lock().expect("stamp lock").clone();
    let span_ns = (cell_spans.sum() - spans_before) * 1000;
    let cell_ns = cell_walls(start, &stamps, Duration::from_nanos(span_ns));
    Ok(TablePass {
        text: table.to_string(),
        table,
        records,
        wall_ns,
        cell_ns,
        wal_bytes,
        lost,
    })
}

/// Wall time of each cell of a table started at `start`, from the cells'
/// flush times and the sum of the runner's cell spans. Each cell ends at
/// its flush, and each later cell began when the previous one was flushed.
/// The runner writes nothing when a cell begins, so the first cell's
/// length is the span sum less the time from the first flush to the last;
/// the table's own set-up ran before it.
fn cell_walls(start: Instant, flushes: &[Instant], span_sum: Duration) -> Vec<u64> {
    let (Some(&first), Some(&last)) = (flushes.first(), flushes.last()) else {
        return Vec::new();
    };
    let first_cell = span_sum.saturating_sub(last - first);
    let mut prev = first
        .checked_sub(first_cell)
        .map_or(start, |t| t.max(start));
    flushes
        .iter()
        .map(|&t| {
            let ns = t.saturating_duration_since(prev).as_nanos() as u64;
            prev = t;
            ns
        })
        .collect()
}

/// Checks one table pass: every cell ran cleanly, the telemetry agrees
/// with the printed table, the set-up the benchmark timed matches the one
/// the table built, and (at the reference seed) the text is the reference.
fn check_pass(ctx: &Ctx, spec: &TableSpec, setup: &Setup, pass: &TablePass, out: &mut Outcome) {
    let name = spec.name;
    let expected_cells: usize = pass
        .table
        .rows
        .iter()
        .filter(|(label, _)| label != "Goto")
        .map(|(_, v)| v.len())
        .sum();
    out.check(pass.records.len() == expected_cells, || {
        format!(
            "{name}: {} records for {expected_cells} cells",
            pass.records.len()
        )
    });
    out.check(pass.cell_ns.len() == pass.records.len(), || {
        format!(
            "{name}: {} WAL flushes for {} records",
            pass.cell_ns.len(),
            pass.records.len()
        )
    });
    out.check(pass.lost == 0, || {
        format!("{name}: {} telemetry records lost", pass.lost)
    });
    for r in &pass.records {
        out.check(r.ok(), || {
            format!("{name}: cell {} failed: {:?}", r.key, r.failures)
        });
        let cell = pass.table.value(&r.key.method, &r.key.column);
        out.check(
            cell.map(f64::to_bits) == Some(r.reduction.to_bits()),
            || {
                format!(
                    "{name}: cell {} prints {cell:?}, telemetry says {}",
                    r.key, r.reduction
                )
            },
        );
    }
    let density = format!("(start density sum {})", setup.set.start_density_sum());
    out.check(pass.table.title.contains(&density), || {
        format!("{name}: title {:?} lacks {density}", pass.table.title)
    });
    if let Some(goto) = setup.goto {
        let row = pass.table.rows.iter().find(|(l, _)| l == "Goto");
        out.check(
            row.is_some_and(|(_, v)| v.iter().all(|x| x.to_bits() == goto.to_bits())),
            || format!("{name}: Goto row {row:?}, set-up computed {goto}"),
        );
    }
    if ctx.seed == DEFAULT_SEED {
        let path = match spec.reference {
            Reference::Committed => COMMITTED_REFERENCE.to_string(),
            Reference::Own(file) => format!("{OWN_REFERENCES}/{file}"),
        };
        let expected = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| {
                reference::section(&text, spec.title_prefix)
                    .ok_or_else(|| format!("no `{}` section in the reference", spec.title_prefix))
            });
        match expected {
            Ok(expected) => out.check(reference::normalize(&pass.text) == expected, || {
                format!(
                    "{name}: output differs from its reference at seed {DEFAULT_SEED}\n\
                     got:\n{}\nexpected:\n{expected}",
                    pass.text
                )
            }),
            Err(e) => out.error(e),
        }
    }
}

/// What re-running instances through the adapter gave: one instance's
/// figures, or the sum over many (`reduction` is then meaningless).
#[derive(Default)]
struct Replay {
    reduction: f64,
    evals: u64,
    proposals: u64,
    accepted: [u64; 3],
    stages: u64,
    chain_ns: u64,
    calls: Calls,
}

impl Replay {
    fn add(&mut self, o: &Replay) {
        self.evals += o.evals;
        self.proposals += o.proposals;
        for k in 0..3 {
            self.accepted[k] += o.accepted[k];
        }
        self.stages += o.stages;
        self.chain_ns += o.chain_ns;
        self.calls.add(&o.calls);
    }
}

/// Counts temperature stages.
#[derive(Default)]
struct StageCount(u64);

impl ChainObserver for StageCount {
    fn on_stage(&mut self, _stage: &TempStats, _wall: Duration) {
        self.0 += 1;
    }
}

#[allow(clippy::too_many_arguments)]
fn replay_instance(
    set: &ArrangementSet,
    method: &MethodSpec,
    strategy: Strategy,
    budget: Budget,
    inst: &InstanceRecord,
    tracer: &Tracer,
    cell_span: usize,
    cell_id: u64,
) -> Replay {
    let problem = &set.problems()[inst.index];
    let start = set.starts()[inst.index].clone();
    let mut g = method.g(&MethodCtx {
        n_nets: problem.netlist().n_nets(),
    });
    // The chain seed the runner recorded for this instance.
    let mut rng = StdRng::seed_from_u64(inst.seed);
    let counted = Counted::new(problem);
    let mut stages = StageCount::default();
    let t0 = Instant::now();
    let result = match strategy {
        Strategy::Figure2 => Figure2::with_equilibrium(set.equilibrium).run_traced(
            &counted,
            &mut g,
            start,
            budget,
            &mut rng,
            &mut stages,
        ),
        _ => Figure1::with_equilibrium(set.equilibrium).run_traced(
            &counted,
            &mut g,
            start,
            budget,
            &mut rng,
            &mut stages,
        ),
    };
    let t1 = Instant::now();
    tracer.record("instance", cell_id, Some(cell_span), t0, t1);
    Replay {
        reduction: result.reduction(),
        evals: result.stats.evals,
        proposals: result.stats.proposals,
        accepted: [
            result.stats.accepted_downhill,
            result.stats.accepted_uphill,
            result.stats.rejected_uphill,
        ],
        stages: stages.0,
        chain_ns: (t1 - t0).as_nanos() as u64,
        calls: counted.calls(),
    }
}

/// Re-executes every instance of `pass` through the public strategy entry
/// points with the counting adapter, adding the figures into `totals`, and
/// checks each result equals the untraced record bit for bit. Returns the
/// wall time it took.
fn replay_pass(
    spec: &TableSpec,
    config: &SuiteConfig,
    setup: &Setup,
    pass: &TablePass,
    tracer: &Tracer,
    totals: &mut Replay,
    out: &mut Outcome,
) -> Result<Duration, String> {
    let roster = spec.roster(config);
    let started = Instant::now();
    let table_span = tracer.open("table", 0, None, started);
    for (ci, record) in pass.records.iter().enumerate() {
        let method = roster
            .iter()
            .find(|m| m.name() == record.key.method)
            .ok_or_else(|| format!("{}: no method {}", spec.name, record.key.method))?;
        let (strategy, budget) = spec.cell_plan(config, &record.key.column)?;
        out.check(format!("{strategy:?}") == record.strategy, || {
            format!(
                "{}: cell {} ran {}, replay plans {strategy:?}",
                spec.name, record.key, record.strategy
            )
        });
        out.check(budget.to_string() == record.budget, || {
            format!(
                "{}: cell {} had budget {}, replay plans {budget}",
                spec.name, record.key, record.budget
            )
        });
        let cell_id = ci as u64 + 1;
        let cell_span = tracer.open("cell", cell_id, Some(table_span), Instant::now());
        let replays = run_indexed(record.per_instance.len(), THREADS, |slot| {
            replay_instance(
                &setup.set,
                method,
                strategy,
                budget,
                &record.per_instance[slot],
                tracer,
                cell_span,
                cell_id,
            )
        });
        tracer.close(cell_span, Instant::now());
        for (inst, r) in record.per_instance.iter().zip(&replays) {
            let expected = [
                inst.accepted_downhill,
                inst.accepted_uphill,
                inst.rejected_uphill,
            ];
            out.check(
                r.reduction.to_bits() == inst.reduction.to_bits()
                    && r.evals == inst.evals
                    && r.accepted == expected,
                || {
                    format!(
                        "{}: cell {} instance {}: traced run gave reduction {} in {} evals \
                         {:?}, untraced record {} in {} evals {expected:?}",
                        spec.name,
                        record.key,
                        inst.index,
                        r.reduction,
                        r.evals,
                        r.accepted,
                        inst.reduction,
                        inst.evals
                    )
                },
            );
            totals.add(r);
        }
    }
    let end = Instant::now();
    tracer.close(table_span, end);
    Ok(end - started)
}

/// Runs a table workload into `out`.
pub fn run(ctx: &Ctx, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let specs = specs(&ctx.workload).expect("table workload");
    let configs: Vec<SuiteConfig> = specs.iter().map(|s| s.config(ctx.seed)).collect();

    // Set-up, repeated in bursts: instance sets, starting arrangements,
    // Goto rows, each part and each table timed by its fastest repetition.
    let mut setups: Vec<Setup> = Vec::new();
    let mut best_part = [u64::MAX; 3];
    let mut setup_ns = vec![u64::MAX; specs.len()];
    let mut best_total = u64::MAX;
    let bursts_started = Instant::now();
    for b in 0..SETUP_BURSTS {
        let due = bursts_started + SETUP_BURST_EVERY * b as u32;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let started = Instant::now();
        let mut reps = 0;
        while reps < SETUP_BURST_MIN_REPS || started.elapsed() < SETUP_BURST_TIME {
            setups = specs.iter().map(|s| build(s, ctx.seed)).collect();
            let parts = [
                setups.iter().map(|s| s.instances_ns).sum::<u64>(),
                setups.iter().map(|s| s.starts_ns).sum(),
                setups.iter().map(|s| s.goto_ns).sum(),
            ];
            for (best, ns) in best_part.iter_mut().zip(parts) {
                *best = (*best).min(ns);
            }
            for (best, s) in setup_ns.iter_mut().zip(&setups) {
                *best = (*best).min(s.total_ns());
            }
            best_total = best_total.min(setups.iter().map(Setup::total_ns).sum());
            reps += 1;
        }
    }
    let setup_s = best_total as f64 / 1e9;

    // Table passes: at least one, then more while another pass of the
    // average length still fits in the run's measuring time. A traced run
    // makes one pass and then re-executes it.
    let measure_started = Instant::now();
    let mut passes: Vec<Vec<TablePass>> = Vec::new();
    let mut peak_rss = 0.0;
    while passes.is_empty()
        || (!ctx.trace
            && measure_started
                .elapsed()
                .mul_f64(1.0 + 1.0 / passes.len() as f64)
                <= ctx.seconds)
    {
        let mut pass = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            let p = run_table(spec, &configs[i], &ctx.tmp, passes.len())?;
            check_pass(ctx, spec, &setups[i], &p, out);
            if let Some(first) = passes.first() {
                let first: &TablePass = &first[i];
                out.check(first.text == p.text, || {
                    format!(
                        "{}: pass {} printed a different table than pass 0",
                        spec.name,
                        passes.len()
                    )
                });
            }
            pass.push(p);
        }
        passes.push(pass);
        if passes.len() == 1 {
            // The peak of one set-up and one run of the tables; later passes
            // only add the benchmark's own records.
            peak_rss = peak_rss_mb("self")?;
        }
    }

    let all = || passes.iter().flatten();
    let records = || all().flat_map(|p| p.records.iter());
    let pass_walls: Vec<f64> = passes
        .iter()
        .map(|pass| pass.iter().map(|p| p.wall_ns as f64 / 1e9).sum())
        .collect();
    let cell_ms: Vec<f64> = all()
        .flat_map(|p| p.cell_ns.iter().map(|&n| n as f64 / 1e6))
        .collect();
    let cell_s: f64 = cell_ms.iter().sum::<f64>() / 1e3;
    let evals: u64 = records().map(|r| r.evals).sum();
    let instance_ms: Vec<f64> = records()
        .flat_map(|r| r.per_instance.iter().map(|i| i.wall_ms))
        .collect();
    let attempted: u64 = records().map(|r| r.instances as u64).sum();
    let failed: u64 = records().map(|r| r.failures.len() as u64).sum();
    out.attempted = attempted;
    out.failed = failed;

    let evals_per_s = evals as f64 / cell_s;
    let p50 = percentile(&instance_ms, 0.50);
    let p95 = percentile(&instance_ms, 0.95);
    let n = Some(instance_ms.len());
    out.line("setup_s", Ok(setup_s), "s", None);
    out.line(
        "wall_s",
        Ok(median(&pass_walls)),
        "s",
        Some(pass_walls.len()),
    );
    out.line("evals_per_s", Ok(evals_per_s), "1/s", None);
    out.line("instance_ms_p50", p50.clone(), "ms", n);
    out.line("instance_ms_p95", p95.clone(), "ms", n);
    out.line("instance_ms_p99", percentile(&instance_ms, 0.99), "ms", n);
    out.line("peak_rss_mb", Ok(peak_rss), "MiB", None);
    out.line(
        "failed_frac",
        Ok(failed as f64 / attempted.max(1) as f64),
        "ratio",
        Some(attempted as usize),
    );
    out.e2e("setup_s", setup_s);
    out.e2e("throughput_per_s", evals_per_s);
    out.e2e("latency_ms_p50", p50?);
    out.e2e("latency_ms_p95", p95?);
    out.e2e("peak_rss_mb", peak_rss);

    if !ctx.trace {
        return Ok(());
    }
    let last = passes.last().expect("one pass");
    let mut replay = Replay::default();
    let mut replay_wall = Duration::ZERO;
    for (i, spec) in specs.iter().enumerate() {
        replay_wall += replay_pass(
            spec,
            &configs[i],
            &setups[i],
            &last[i],
            tracer,
            &mut replay,
            out,
        )?;
    }
    let spans = tracer.spans();
    let untraced_cells_ns: u64 = last.iter().flat_map(|p| p.cell_ns.iter()).sum();
    let overhead_ms: f64 = last
        .iter()
        .enumerate()
        .map(|(i, p)| {
            (p.wall_ns as f64 - setup_ns[i] as f64 - p.cell_ns.iter().sum::<u64>() as f64) / 1e6
        })
        .sum();
    let last_instance_ms: f64 = last
        .iter()
        .flat_map(|p| p.records.iter())
        .flat_map(|r| r.per_instance.iter().map(|i| i.wall_ms))
        .sum();
    let last_cell_ms: Vec<f64> = last
        .iter()
        .flat_map(|p| p.cell_ns.iter().map(|&n| n as f64 / 1e6))
        .collect();
    let c = &replay.calls;
    let [down, up, rejected] = replay.accepted;
    let strategy_self_ms = (replay.chain_ns as f64 - c.busy_ns as f64) / 1e6;
    let scheduler_residual_ms = layer_self_ns(&spans, "cell", "instance") as f64 / 1e6;

    out.layer("instances.build_ms", best_part[0] as f64 / 1e6);
    out.layer("runner.starts_ms", best_part[1] as f64 / 1e6);
    out.layer("goto.reduction_ms", best_part[2] as f64 / 1e6);
    out.layer("linarr.propose_calls", c.propose as f64);
    out.layer("linarr.apply_calls", c.apply as f64);
    out.layer("linarr.undo_calls", c.undo as f64);
    out.layer("linarr.cost_calls", c.cost as f64);
    out.layer("linarr.improving_move_calls", c.improving_move as f64);
    out.layer("linarr.busy_ms", c.busy_ns as f64 / 1e6);
    out.layer(
        "linarr.ns_per_eval",
        c.busy_ns as f64 / replay.evals.max(1) as f64,
    );
    out.layer("linarr.wasted_ms", c.wasted_ns as f64 / 1e6);
    out.layer("linarr.improving_move_ms", c.improving_move_ns as f64 / 1e6);
    out.layer("strategy.self_ms", strategy_self_ms);
    out.layer("strategy.evals", replay.evals as f64);
    out.layer("strategy.proposals", replay.proposals as f64);
    out.layer("strategy.stages", replay.stages as f64);
    out.layer(
        "accept.uphill_accept_ratio",
        up as f64 / (up + rejected).max(1) as f64,
    );
    out.layer(
        "chain.useful_ratio",
        (down + up) as f64 / replay.proposals.max(1) as f64,
    );
    out.layer("runner.cell_ms_p50", percentile(&last_cell_ms, 0.5)?);
    out.layer(
        "runner.cell_ms_max",
        last_cell_ms.iter().copied().fold(0.0, f64::max),
    );
    out.layer(
        "scheduler.idle_frac",
        1.0 - last_instance_ms / (THREADS as f64 * untraced_cells_ns as f64 / 1e6),
    );
    out.layer("scheduler.residual_ms", scheduler_residual_ms);
    out.layer("runner.overhead_ms", overhead_ms);
    out.layer(
        "telemetry.records",
        last.iter().map(|p| p.records.len() as f64).sum(),
    );
    out.layer(
        "telemetry.wal_bytes",
        last.iter().map(|p| p.wal_bytes as f64).sum(),
    );
    out.layer(
        "trace.overhead_frac",
        replay_wall.as_nanos() as f64 / untraced_cells_ns as f64 - 1.0,
    );
    out.zero_unreached_layers();
    out.residuals = vec![
        ("runner", overhead_ms),
        ("scheduler", scheduler_residual_ms),
        ("strategy", strategy_self_ms),
    ];
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_cell_starts_its_span_share_before_the_first_flush() {
        let start = Instant::now();
        let at = |ms: u64| start + Duration::from_millis(ms);
        // Set-up 5 ms, then cells of 10, 20 and 30 ms: the spans sum to
        // 60 ms, 50 of which lie between the first and the last flush.
        let walls = cell_walls(start, &[at(15), at(35), at(65)], Duration::from_millis(60));
        assert_eq!(walls, [10_000_000, 20_000_000, 30_000_000]);
        // A span sum too large to fit after `start` puts the first cell
        // at `start`: no set-up is invented before the table began.
        let walls = cell_walls(start, &[at(15), at(35)], Duration::from_millis(99));
        assert_eq!(walls, [15_000_000, 20_000_000]);
        assert!(cell_walls(start, &[], Duration::ZERO).is_empty());
    }
}
