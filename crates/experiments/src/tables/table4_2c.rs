//! **Table 4.2(c)** — NOLA, random starts, Figure-1 strategy: total density
//! reduction over 30 multi-pin instances for the 13-method roster at 6, 9
//! and 12 seconds per instance (§4.3.1).

use crate::budgetmap::NOLA_EVAL_COST;
use crate::config::SuiteConfig;
use crate::instances::nola_paper_set;
use crate::roster::reduced_roster;
use crate::runner::ArrangementSet;
use crate::table::Table;
use crate::tables::SecondsTable;
use crate::telemetry::TelemetryLog;

/// Regenerates Table 4.2(c).
pub fn run(config: &SuiteConfig) -> Table {
    run_logged(config, &TelemetryLog::disabled())
}

/// [`run`] with per-cell telemetry and fault isolation (see
/// [`table4_1::run_logged`](crate::tables::table4_1::run_logged)).
pub fn run_logged(config: &SuiteConfig, log: &TelemetryLog) -> Table {
    SecondsTable {
        name: "table4.2c",
        title: "Table 4.2(c) — NOLA: total density reduction, 30 instances, 15 elements, \
               150 nets",
        goto_row: true,
        eval_cost: NOLA_EVAL_COST,
    }
    .run(
        ArrangementSet::with_random_starts(nola_paper_set(config.seed), config.seed),
        reduced_roster(config.tuned),
        config,
        log,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nola_table_shape() {
        let table = run(&SuiteConfig::scaled(1));
        assert_eq!(table.rows.len(), 14, "Goto + 13 methods");
        for (label, values) in &table.rows {
            for v in values {
                assert!(*v >= 0.0, "{label}");
            }
        }
    }
}
