//! One module per paper table (plus the adaptive-schedule comparison that
//! replaces the §4.2.1 sweep). Each `run` function regenerates the
//! corresponding table; see DESIGN.md's experiment index.

pub mod adaptive;
pub mod table4_1;
pub mod table4_2a;
pub mod table4_2b;
pub mod table4_2c;
pub mod table4_2d;

use crate::budgetmap::PAPER_SECONDS;
use crate::config::SuiteConfig;
use crate::roster::MethodSpec;
use crate::runner::ArrangementSet;
use crate::table::Table;
use crate::telemetry::{CellKey, TelemetryLog};

/// The layout Tables 4.1, 4.2(a), 4.2(c) and 4.2(d) share: one row per
/// method, one cell per [`PAPER_SECONDS`] budget.
struct SecondsTable {
    /// Table name in each cell's key, e.g. `"table4.1"`.
    name: &'static str,
    /// Title, completed with the set's start density sum.
    title: &'static str,
    /// Whether the Goto construction's row comes first.
    goto_row: bool,
    /// Evaluation cost relative to GOLA; budgets are divided by it.
    eval_cost: u64,
}

impl SecondsTable {
    /// Runs `roster` on `set` under `config`'s strategy, `--replicas`,
    /// `--schedule` and cell policy, recording every cell into `log`.
    fn run(
        &self,
        mut set: ArrangementSet,
        roster: Vec<MethodSpec>,
        config: &SuiteConfig,
        log: &TelemetryLog,
    ) -> Table {
        set.replicas = config.replicas;
        set.schedule = config.schedule;
        let columns: Vec<String> = PAPER_SECONDS
            .iter()
            .map(|s| format!("{s:.0} sec"))
            .collect();
        let title = format!(
            "{} (start density sum {})",
            self.title,
            set.start_density_sum()
        );
        let mut table = Table::new(title, "g function", columns.clone());
        if self.goto_row {
            // The Goto construction is budget-independent; the paper lists
            // it once.
            table.push_row("Goto", vec![set.goto_reduction(); PAPER_SECONDS.len()]);
        }
        for spec in roster {
            let values = PAPER_SECONDS
                .iter()
                .zip(&columns)
                .map(|(&s, column)| {
                    set.run_cell(
                        CellKey::new(self.name, spec.name(), column.clone()),
                        &spec,
                        config.table_strategy(),
                        config.scale.vax_seconds(s).scale_div(self.eval_cost),
                        &config.cell_policy(),
                        log,
                    )
                })
                .collect();
            table.push_row(spec.name(), values);
        }
        table
    }
}
