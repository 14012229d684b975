//! Shared rendering of a scenario sweep's results.
//!
//! The `bsld-repro run` subcommand and the `bsld-repro serve` daemon must
//! answer the same query with **byte-identical** output — that guarantee
//! is enforced by CI diffing the two — so there is exactly one renderer,
//! and both go through it. The daemon additionally needs to *cache* what
//! it rendered, keyed by content-hash [`CellId`](crate::campaign::CellId)
//! (which excludes the scenario name): [`CellOutcome`] is the compact,
//! name-free payload that makes that possible, extracted from a full
//! [`ScenarioResult`] the moment a run finishes. A campaign manifest row
//! persists the same summary, one per replication.

use bsld_metrics::TextTable;
use bsld_power::RailKind;

use crate::scenario::ScenarioResult;

/// The compact summary of one finished run: every number the sweep
/// table, `scenario_results.csv` and a campaign manifest row show,
/// decoupled from the full [`ScenarioResult`] (whose per-job outcome
/// vector is far too large to keep resident per cache entry).
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Jobs completed.
    pub jobs: u64,
    /// Average BSLD (Eq. 6).
    pub avg_bsld: f64,
    /// Average wait, seconds.
    pub avg_wait_s: f64,
    /// Jobs run at a reduced gear.
    pub reduced_jobs: u64,
    /// Computational energy (normalised units).
    pub energy_comp: f64,
    /// Energy including idle draw (normalised units).
    pub energy_idle: f64,
    /// Ledger energy integral (power-instrumented runs only).
    pub energy_ledger: Option<f64>,
    /// `peak / budget` (runs with a positive cap budget only).
    pub peak_over_budget: Option<f64>,
    /// CPU-rail ledger energy (multi-rail runs only — a scenario with an
    /// explicit `model =`; the single-rail default reports none).
    pub energy_cpu: Option<f64>,
    /// Memory-rail ledger energy (multi-rail runs only).
    pub energy_mem: Option<f64>,
    /// Interconnect-rail ledger energy (multi-rail runs only).
    pub energy_net: Option<f64>,
}

impl CellOutcome {
    /// Extracts the summary of a finished run.
    pub fn of(res: &ScenarioResult) -> CellOutcome {
        let m = &res.run.metrics;
        let power = res.power.as_ref();
        // Per-rail energy only exists on the multi-rail layout; single-rail
        // runs report none, so their rows keep the pre-rail shape.
        let rail = |kind: RailKind| {
            power
                .filter(|p| p.rails.len() > 1)
                .and_then(|p| p.rails.iter().find(|r| r.kind == kind))
                .map(|r| r.energy)
        };
        CellOutcome {
            jobs: m.jobs as u64,
            avg_bsld: m.avg_bsld,
            avg_wait_s: m.avg_wait_secs,
            reduced_jobs: m.reduced_jobs as u64,
            energy_comp: m.energy.computational,
            energy_idle: m.energy.with_idle,
            energy_ledger: power.map(|p| p.energy),
            peak_over_budget: power.and_then(|p| p.budget.filter(|b| *b > 0.0).map(|b| p.peak / b)),
            energy_cpu: rail(RailKind::Cpu),
            energy_mem: rail(RailKind::Memory),
            energy_net: rail(RailKind::Interconnect),
        }
    }
}

/// A rendered sweep: the aligned on-screen table, the full-precision CSV
/// and the failure labels, produced by [`sweep_report`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// The aligned text table (what `run` prints to stdout).
    pub table: String,
    /// `scenario_results.csv` contents (headers + full-precision rows).
    pub csv: String,
    /// `name: error` per failed cell, sweep order.
    pub failures: Vec<String>,
    /// Total cells rendered (failed included).
    pub cells: usize,
}

impl SweepReport {
    /// The error message `run` exits with when any cell failed (`None`
    /// when everything completed).
    pub fn failure_summary(&self) -> Option<String> {
        if self.failures.is_empty() {
            return None;
        }
        Some(format!(
            "{} of {} scenario(s) failed:\n  {}",
            self.failures.len(),
            self.cells,
            self.failures.join("\n  ")
        ))
    }
}

/// Renders a sweep's results: one `(name, outcome)` pair per cell, sweep
/// order, where a failed cell carries its error rendering. One infeasible
/// cell must not discard the completed ones: failures become `FAILED`
/// rows and are reported in [`SweepReport::failures`], everything else
/// renders normally.
pub fn sweep_report(rows: &[(String, Result<CellOutcome, String>)]) -> SweepReport {
    let mut t = TextTable::new(vec![
        "scenario",
        "jobs",
        "avgBSLD",
        "avgWait(s)",
        "reduced",
        "E(comp)",
        "E(ledger)",
        "peak/budget",
    ]);
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    // Per-rail energy columns are only emitted when some cell ran on the
    // multi-rail layout (an explicit `model =` / `sweep.model`);
    // model-free sweeps keep the exact pre-subsystem CSV shape.
    let mut any_rails = false;
    for (name, res) in rows {
        let out = match res {
            Ok(o) => o,
            Err(e) => {
                failures.push(format!("{name}: {e}"));
                let row = |msg: &str, width: usize| {
                    let mut r = vec![name.clone(), msg.to_string()];
                    r.extend(std::iter::repeat_n("-".to_string(), width - 2));
                    r
                };
                t.row(row("FAILED", 8));
                csv_rows.push(row("failed", 12));
                continue;
            }
        };
        // One formatter, two precisions: coarse for the on-screen table,
        // full for the persisted CSV.
        let dash = || "-".to_string();
        let ledger = |digits: usize| {
            out.energy_ledger
                .map_or_else(dash, |e| format!("{e:.digits$e}"))
        };
        let peak = |digits: usize| {
            out.peak_over_budget
                .map_or_else(dash, |r| format!("{r:.digits$}"))
        };
        let rail_csv = |e: Option<f64>| e.map_or_else(dash, |e| format!("{e:.6e}"));
        any_rails |= out.energy_cpu.is_some();
        t.row(vec![
            name.clone(),
            out.jobs.to_string(),
            format!("{:.2}", out.avg_bsld),
            format!("{:.0}", out.avg_wait_s),
            out.reduced_jobs.to_string(),
            format!("{:.3e}", out.energy_comp),
            ledger(3),
            peak(3),
        ]);
        csv_rows.push(vec![
            name.clone(),
            out.jobs.to_string(),
            format!("{:.4}", out.avg_bsld),
            format!("{:.1}", out.avg_wait_s),
            out.reduced_jobs.to_string(),
            format!("{:.6e}", out.energy_comp),
            format!("{:.6e}", out.energy_idle),
            ledger(6),
            peak(6),
            rail_csv(out.energy_cpu),
            rail_csv(out.energy_mem),
            rail_csv(out.energy_net),
        ]);
    }
    let mut headers = vec![
        "scenario",
        "jobs",
        "avg_bsld",
        "avg_wait_s",
        "reduced_jobs",
        "energy_comp",
        "energy_idle",
        "energy_ledger",
        "peak_over_budget",
    ];
    if any_rails {
        headers.extend(["energy_cpu", "energy_mem", "energy_net"]);
    } else {
        for row in &mut csv_rows {
            row.truncate(headers.len());
        }
    }
    SweepReport {
        table: t.render(),
        csv: bsld_metrics::csv_string(&headers, &csv_rows),
        failures,
        cells: rows.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> CellOutcome {
        CellOutcome {
            jobs: 100,
            avg_bsld: 1.2345,
            avg_wait_s: 321.75,
            reduced_jobs: 40,
            energy_comp: 1.25e6,
            energy_idle: 1.5e6,
            energy_ledger: None,
            peak_over_budget: None,
            energy_cpu: None,
            energy_mem: None,
            energy_net: None,
        }
    }

    #[test]
    fn plain_sweep_keeps_the_pre_rail_csv_shape() {
        let rows = vec![("a".to_string(), Ok(outcome()))];
        let rep = sweep_report(&rows);
        assert!(rep.csv.starts_with(
            "scenario,jobs,avg_bsld,avg_wait_s,reduced_jobs,energy_comp,energy_idle,\
             energy_ledger,peak_over_budget\n"
        ));
        assert!(!rep.csv.contains("energy_cpu"));
        assert!(rep
            .csv
            .contains("a,100,1.2345,321.8,40,1.250000e6,1.500000e6,-,-\n"));
        assert!(rep.table.contains("avgBSLD"));
        assert_eq!(rep.failure_summary(), None);
    }

    #[test]
    fn multi_rail_cells_extend_the_headers_for_the_whole_sweep() {
        let multi = CellOutcome {
            energy_ledger: Some(2.0e6),
            peak_over_budget: Some(0.5),
            energy_cpu: Some(1.0e6),
            energy_mem: Some(6.0e5),
            energy_net: Some(4.0e5),
            ..outcome()
        };
        let rows = vec![
            ("plain".to_string(), Ok(outcome())),
            ("railed".to_string(), Ok(multi)),
        ];
        let rep = sweep_report(&rows);
        assert!(rep.csv.contains("energy_cpu,energy_mem,energy_net"));
        assert!(rep.csv.contains("railed,100,") && rep.csv.contains("0.500000"));
        // The single-rail row pads the new columns with `-`.
        assert!(rep
            .csv
            .contains("plain,100,1.2345,321.8,40,1.250000e6,1.500000e6,-,-,-,-,-\n"));
    }

    #[test]
    fn failures_render_rows_and_summarise() {
        let rows = vec![
            ("ok".to_string(), Ok(outcome())),
            ("bad".to_string(), Err("infeasible cap".to_string())),
        ];
        let rep = sweep_report(&rows);
        assert!(rep.csv.contains("bad,failed,-,-,-,-,-,-,-\n"));
        assert!(rep.table.contains("FAILED"));
        let msg = rep.failure_summary().expect("one failure");
        assert!(msg.contains("1 of 2 scenario(s) failed"));
        assert!(msg.contains("bad: infeasible cap"));
    }
}
