//! **Table 4.1** — GOLA, random starts, Figure-1 strategy: total density
//! reduction over 30 instances for all 20 g classes (plus the Goto and
//! \[COHO83a\] baselines) at 6, 9 and 12 seconds per instance.

use crate::config::SuiteConfig;
use crate::instances::gola_paper_set;
use crate::roster::full_roster;
use crate::runner::ArrangementSet;
use crate::table::Table;
use crate::tables::SecondsTable;
use crate::telemetry::TelemetryLog;

/// Regenerates Table 4.1.
pub fn run(config: &SuiteConfig) -> Table {
    run_logged(config, &TelemetryLog::disabled())
}

/// [`run`] with per-cell telemetry and fault isolation: each cell records a
/// [`CellRecord`](crate::telemetry::CellRecord) into `log`, and a panicking
/// cell is logged as failed while the rest of the table completes.
pub fn run_logged(config: &SuiteConfig, log: &TelemetryLog) -> Table {
    SecondsTable {
        name: "table4.1",
        title: "Table 4.1 — GOLA: total density reduction, 30 instances, 15 elements, \
               150 nets",
        goto_row: true,
        eval_cost: 1,
    }
    .run(
        ArrangementSet::with_random_starts(gola_paper_set(config.seed), config.seed),
        full_roster(config.tuned),
        config,
        log,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        // Heavy computation: run at a small scale, check structure and the
        // paper's core qualitative findings.
        let table = run(&SuiteConfig::scaled(1));
        assert_eq!(table.columns.len(), 3);
        assert_eq!(table.rows.len(), 22, "Goto + COHO83a + 20 g classes");
        assert_eq!(table.rows[0].0, "Goto");

        // Every cell is a nonnegative reduction.
        for (label, values) in &table.rows {
            for v in values {
                assert!(*v >= 0.0, "{label}: {v}");
            }
        }
    }
}
