//! **Table 4.2(a)** — GOLA, starting from the Goto arrangement: total
//! density improvement over 30 instances for the 13-method roster at 6, 9
//! and 12 seconds per instance (§4.2.3 "Coupling Monte Carlo and GOTO").

use crate::config::SuiteConfig;
use crate::instances::gola_paper_set;
use crate::roster::reduced_roster;
use crate::runner::ArrangementSet;
use crate::table::Table;
use crate::tables::SecondsTable;
use crate::telemetry::TelemetryLog;

/// Regenerates Table 4.2(a).
pub fn run(config: &SuiteConfig) -> Table {
    run_logged(config, &TelemetryLog::disabled())
}

/// [`run`] with per-cell telemetry and fault isolation (see
/// [`table4_1::run_logged`](crate::tables::table4_1::run_logged)).
pub fn run_logged(config: &SuiteConfig, log: &TelemetryLog) -> Table {
    SecondsTable {
        name: "table4.2a",
        title: "Table 4.2(a) — GOLA from Goto arrangements: total improvement",
        goto_row: false,
        eval_cost: 1,
    }
    .run(
        ArrangementSet::with_goto_starts(gola_paper_set(config.seed), config.seed),
        reduced_roster(config.tuned),
        config,
        log,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::table4_1;

    #[test]
    fn improvements_from_goto_are_small() {
        let config = SuiteConfig::scaled(1);
        let from_goto = run(&config);
        assert_eq!(from_goto.rows.len(), 13);

        // §4.2.3: improvements over the Goto starts are below 5% of the
        // random-start densities — far smaller than random-start reductions.
        let from_random = table4_1::run(&config);
        let best_goto = from_goto.best_in_column("12 sec").unwrap().1;
        let best_random = from_random.best_in_column("12 sec").unwrap().1;
        assert!(
            best_goto < best_random,
            "polish ({best_goto}) must be smaller than from-scratch reduction ({best_random})"
        );
    }
}
