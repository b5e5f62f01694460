//! Output checks: pinned `RunReport` digests at the default seed, and
//! the checks that hold for a report at any seed.

use crate::pinned::PINNED;
use crate::workloads::{Cell, Workload, DEFAULT_SEED};
use ss_server::RunReport;

/// FNV-1a over the pretty-printed report JSON — the digest
/// `tests/seed_stability.rs` pins, sensitive to every serialized byte.
pub fn digest(report: &RunReport) -> u64 {
    let json = serde_json::to_string_pretty(report).expect("serialize report");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in json.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The pinned digest of `cell` in `workload` at [`DEFAULT_SEED`].
pub fn pinned(workload: Workload, cell: &str) -> Option<u64> {
    PINNED
        .iter()
        .find(|(w, c, _)| *w == workload.name() && *c == cell)
        .map(|&(_, _, d)| d)
}

/// Checks one cell's report: it must describe the config it was run
/// with, and at the default seed its digest must equal the pinned one.
pub fn check_report(
    workload: Workload,
    seed: u64,
    cell: &Cell,
    report: &RunReport,
) -> Result<(), String> {
    if report.seed != cell.config.seed || report.stations != cell.config.stations {
        return Err(format!(
            "report describes seed {} / {} stations, config has seed {} / {}",
            report.seed, report.stations, cell.config.seed, cell.config.stations
        ));
    }
    if seed == DEFAULT_SEED {
        let want = pinned(workload, &cell.name)
            .ok_or_else(|| format!("no pinned digest for {}", cell.name))?;
        let got = digest(report);
        if got != want {
            return Err(format!(
                "report digest {got:#018x} != pinned {want:#018x} \
                 ({} completed, {:.3}/h)",
                report.displays_completed, report.displays_per_hour
            ));
        }
    }
    Ok(())
}

/// The same cell run armed and unarmed must report byte-identically:
/// telemetry is write-only.
pub fn check_same(armed: &RunReport, unarmed: &RunReport) -> Result<(), String> {
    let json = |r: &RunReport| serde_json::to_string_pretty(r).expect("serialize report");
    if json(armed) == json(unarmed) {
        Ok(())
    } else {
        Err(format!(
            "armed report ({} completed) differs from unarmed ({} completed)",
            armed.displays_completed, unarmed.displays_completed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::run_cell;
    use crate::trace::Tracer;

    fn cell(workload: Workload, name: &str) -> Cell {
        workload
            .cells(DEFAULT_SEED)
            .into_iter()
            .find(|c| c.name == name)
            .expect("cell exists")
    }

    /// The pinned digest accepts the real report and rejects the same
    /// report with any one field perturbed.
    #[test]
    fn output_check_rejects_a_perturbed_report() {
        let w = Workload::Fig8Grid;
        let c = cell(w, "striping-s1-m10");
        let run = run_cell(&c, false, &mut Tracer::new(false), 0).expect("cell runs");
        assert_eq!(run.verdict, Ok(()));
        check_report(w, DEFAULT_SEED, &c, &run.report).expect("pinned digest matches");

        let mut bumped = run.report.clone();
        bumped.displays_completed += 1;
        assert!(check_report(w, DEFAULT_SEED, &c, &bumped).is_err());
        let mut nudged = run.report.clone();
        nudged.mean_latency_s += 1e-9;
        assert!(check_report(w, DEFAULT_SEED, &c, &nudged).is_err());
        let mut relabeled = run.report.clone();
        relabeled.seed += 1;
        assert!(check_report(w, 2, &c, &relabeled).is_err());
        assert!(check_same(&run.report, &bumped).is_err());
        assert_eq!(check_same(&run.report, &run.report.clone()), Ok(()));
    }

    /// Every cell name is unique within its workload and has a pinned
    /// digest.
    #[test]
    fn every_cell_is_pinned_once() {
        for w in Workload::ALL {
            let cells = w.cells(DEFAULT_SEED);
            for c in &cells {
                assert!(pinned(w, &c.name).is_some(), "{} / {}", w.name(), c.name);
                assert_eq!(cells.iter().filter(|d| d.name == c.name).count(), 1);
            }
        }
        let total: usize = Workload::ALL
            .iter()
            .map(|w| w.cells(DEFAULT_SEED).len())
            .sum();
        assert_eq!(total, PINNED.len());
    }
}
