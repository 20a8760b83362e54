//! **Table 4.2(d)** — NOLA, starting from the Goto arrangement: total
//! improvement for the 13-method roster (§4.3.1: "none of the 13 Monte Carlo
//! methods is able to obtain a significant improvement").

use crate::budgetmap::NOLA_EVAL_COST;
use crate::config::SuiteConfig;
use crate::instances::nola_paper_set;
use crate::roster::reduced_roster;
use crate::runner::ArrangementSet;
use crate::table::Table;
use crate::tables::SecondsTable;
use crate::telemetry::TelemetryLog;

/// Regenerates Table 4.2(d).
pub fn run(config: &SuiteConfig) -> Table {
    run_logged(config, &TelemetryLog::disabled())
}

/// [`run`] with per-cell telemetry and fault isolation (see
/// [`table4_1::run_logged`](crate::tables::table4_1::run_logged)).
pub fn run_logged(config: &SuiteConfig, log: &TelemetryLog) -> Table {
    SecondsTable {
        name: "table4.2d",
        title: "Table 4.2(d) — NOLA from Goto arrangements: total improvement",
        goto_row: false,
        eval_cost: NOLA_EVAL_COST,
    }
    .run(
        ArrangementSet::with_goto_starts(nola_paper_set(config.seed), config.seed),
        reduced_roster(config.tuned),
        config,
        log,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::table4_2c;

    #[test]
    fn no_method_improves_goto_much_on_nola() {
        let config = SuiteConfig::scaled(1);
        let from_goto = run(&config);
        let from_random = table4_2c::run(&config);
        assert_eq!(from_goto.rows.len(), 13);
        // §4.3.1: near-optimality of Goto arrangements → residual
        // improvements are small compared to random-start reductions.
        let best_polish = from_goto.best_in_column("12 sec").unwrap().1;
        let best_scratch = from_random.best_in_column("12 sec").unwrap().1;
        assert!(best_polish < best_scratch);
    }
}
