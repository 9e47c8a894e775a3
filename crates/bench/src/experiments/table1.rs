//! Table 1 — the prototype scenario's workload configuration.

use crate::table::{f, TextTable};
use gts_core::job::scenario::table1;

/// Renders Table 1 exactly as the paper lays it out (plus the calibrated
/// iteration budgets this reproduction adds).
pub fn render() -> String {
    let jobs = table1();
    let mut t = TextTable::new(
        "Table 1 — prototype workload configuration",
        &["config", "Job0", "Job1", "Job2", "Job3", "Job4", "Job5"],
    );
    let row = |label: &str, cells: Vec<String>| {
        let mut v = vec![label.to_string()];
        v.extend(cells);
        v
    };
    t.row(row(
        "DL NN",
        jobs.iter().map(|j| j.model.code().to_string()).collect(),
    ));
    t.row(row(
        "Batch size",
        jobs.iter()
            .map(|j| j.batch.representative_batch().to_string())
            .collect(),
    ));
    t.row(row(
        "Num. GPUs",
        jobs.iter().map(|j| j.n_gpus.to_string()).collect(),
    ));
    t.row(row(
        "Min. Utility",
        jobs.iter().map(|j| f(j.min_utility, 1)).collect(),
    ));
    t.row(row(
        "Arrival Time",
        jobs.iter()
            .map(|j| format!("{:.2}s", j.arrival_s))
            .collect(),
    ));
    t.row(row(
        "Iterations*",
        jobs.iter().map(|j| j.iterations.to_string()).collect(),
    ));
    let mut s = t.to_string();
    s.push_str("  * iteration budgets are this reproduction's calibration (see DESIGN.md)\n");
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn renders_the_paper_rows() {
        let s = super::render();
        for needle in ["DL NN", "Min. Utility", "0.51s", "29.89s"] {
            assert!(s.contains(needle), "missing {needle}");
        }
    }
}
