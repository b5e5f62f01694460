//! Runs a workload's passes and turns them into the reported metrics:
//! the end-to-end set for an untraced run, the per-layer set for a
//! traced one.

use crate::check::{check_report, check_same, digest};
use crate::host::{median, peak_rss_mb, quantile, HostClock};
use crate::probes::{self, LayerCosts};
use crate::server::{run_cell, run_counted, CellRun};
use crate::trace::Tracer;
use crate::workloads::{Cell, Workload, DEFAULT_SEED};
use ss_server::ServerConfig;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// The end-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("displays_per_hour", "1/h"),
    ("ok_pct", "%"),
];

/// The per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.steps", "count"),
    ("engine.boundaries_skipped", "count"),
    ("engine.step_s", "s"),
    ("engine.step_p50_us", "us"),
    ("engine.step_p99_us", "us"),
    ("engine.step_samples", "count"),
    ("engine.step_unattributed_s", "s"),
    ("report.assemble_s", "s"),
    ("setup.new_s", "s"),
    ("placement.place_us", "us"),
    ("admission.accepts", "count"),
    ("admission.rejects", "count"),
    ("admission.retries", "count"),
    ("admission.parks", "count"),
    ("admission.accept_ratio", "ratio"),
    ("admission.plan_us", "us"),
    ("admission.refresh_index_us", "us"),
    ("delivery.read_spans", "count"),
    ("delivery.read_moves", "count"),
    ("delivery.coalesces", "count"),
    ("vdr.display_starts", "count"),
    ("vdr.copy_starts", "count"),
    ("tertiary.fetches", "count"),
    ("faults.rescues", "count"),
    ("faults.hiccup_streams", "count"),
    ("faults.drops", "count"),
    ("rebuild.done", "count"),
    ("storage.txns_journaled", "count"),
    ("storage.recoveries", "count"),
    ("storage.scrub_chunks", "count"),
    ("storage.scrub_repairs", "count"),
    ("sharing.joins", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("router.assigns", "count"),
    ("interconnect.link_books", "count"),
    ("interconnect.remote_fragment_intervals", "count"),
    ("interconnect.book_us", "us"),
    ("obs.journal_events", "count"),
    ("obs.heatmap_rows", "count"),
    ("obs.heatmap_runs", "count"),
    ("obs.capture_s", "s"),
    ("obs.qos_fold_s", "s"),
    ("obs.slo_eval_s", "s"),
    ("obs.health_fold_s", "s"),
    ("obs.jsonl_render_s", "s"),
    ("sim.displays_completed", "count"),
    ("sim.startup_p50_s", "s"),
    ("sim.startup_p95_s", "s"),
    ("sim.hiccup_free_pct", "%"),
    ("host.cpu_s", "s"),
    ("host.steal_s", "s"),
    ("host.runq_s", "s"),
    ("host.others_cpu_s", "s"),
    ("host.vm_steal_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
];

/// An untraced run repeats its pass at least this often, so the
/// host-time medians rest on several samples.
const MIN_PASSES: usize = 3;

/// Share of `--seconds` a traced run spends on its alternating
/// untraced/traced passes; the rest goes to the armed counterparts and
/// the layer probes.
const TRACED_SHARE: f64 = 0.6;

/// What one run reports.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    fn new(
        attempted: u64,
        failed: u64,
        spec: &[(&'static str, &'static str)],
        values: BTreeMap<&'static str, f64>,
    ) -> Outcome {
        assert_eq!(values.len(), spec.len(), "every metric computed once");
        let metrics = spec
            .iter()
            .map(|&(name, unit)| {
                let v = values[name];
                assert!(v.is_finite(), "{name} is not finite");
                (name, unit, v)
            })
            .collect();
        Outcome {
            attempted,
            failed,
            metrics,
        }
    }

    /// True when no cell failed a check.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One run of the workload's cell sequence.
struct Pass {
    /// `None` where the cell failed to run or failed a check.
    runs: Vec<Option<CellRun>>,
    /// Report digests, for the pass-to-pass determinism check.
    digests: Vec<Option<u64>>,
    failed: u64,
    /// Host seconds of the whole pass, checks included.
    wall_s: f64,
    /// This pass's slice of the tracer's step samples.
    step_samples: std::ops::Range<usize>,
}

impl Pass {
    fn ok(&self) -> impl Iterator<Item = &CellRun> {
        self.runs.iter().flatten()
    }

    fn setup_s(&self) -> f64 {
        self.ok().map(|r| r.setup_s).sum()
    }

    fn timed_s(&self) -> f64 {
        self.ok().map(CellRun::timed_s).sum()
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Runs `cell` (armed or not), catching panics, and checks its output.
fn checked_run(
    workload: Workload,
    seed: u64,
    cell: &Cell,
    armed: bool,
    tracer: &mut Tracer,
    id: u32,
) -> Result<CellRun, String> {
    let run = catch_unwind(AssertUnwindSafe(|| run_cell(cell, armed, tracer, id))).unwrap_or_else(
        |p| {
            // A panic inside an armed cell leaves its journal installed.
            ss_obs::uninstall();
            Err(format!("panicked: {}", panic_message(&*p)))
        },
    )?;
    run.verdict.clone()?;
    check_report(workload, seed, cell, &run.report)?;
    Ok(run)
}

fn run_pass(
    workload: Workload,
    seed: u64,
    cells: &[Cell],
    tracer: &mut Tracer,
    pass_no: usize,
) -> Pass {
    let start = Instant::now();
    let first_sample = tracer.step_samples().len();
    let mut pass = Pass {
        runs: Vec::with_capacity(cells.len()),
        digests: Vec::with_capacity(cells.len()),
        failed: 0,
        wall_s: 0.0,
        step_samples: 0..0,
    };
    for (i, cell) in cells.iter().enumerate() {
        let id = (pass_no * cells.len() + i) as u32;
        match checked_run(workload, seed, cell, cell.armed, tracer, id) {
            Ok(run) => {
                pass.digests.push(Some(digest(&run.report)));
                pass.runs.push(Some(run));
            }
            Err(msg) => {
                eprintln!(
                    "FAILED {} / {} (seed {seed}): {msg}",
                    workload.name(),
                    cell.name
                );
                pass.failed += 1;
                pass.digests.push(None);
                pass.runs.push(None);
            }
        }
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.step_samples = first_sample..tracer.step_samples().len();
    pass
}

/// Cells whose report changed between passes of the same run: the
/// program must be deterministic.
fn nondeterministic(workload: Workload, cells: &[Cell], passes: &[&Pass]) -> u64 {
    let mut bad = 0;
    for pass in &passes[1..] {
        for (i, d) in pass.digests.iter().enumerate() {
            if let (Some(a), Some(b)) = (passes[0].digests[i], d) {
                if a != *b {
                    eprintln!(
                        "FAILED {} / {}: report changed between passes",
                        workload.name(),
                        cells[i].name
                    );
                    bad += 1;
                }
            }
        }
    }
    bad
}

/// Re-runs every armed cell unarmed and compares with its armed report
/// from `first`. Returns the cells attempted, those that failed, and the
/// unarmed runs' host seconds (set-up plus timed phase).
fn twins(
    workload: Workload,
    seed: u64,
    cells: &[Cell],
    first: &Pass,
    tracer: &mut Tracer,
    id_base: usize,
) -> (u64, u64, f64) {
    let (mut attempted, mut failed, mut seconds) = (0, 0, 0.0);
    for (i, cell) in cells.iter().enumerate().filter(|(_, c)| c.armed) {
        attempted += 1;
        let verdict = checked_run(workload, seed, cell, false, tracer, (id_base + i) as u32)
            .and_then(|plain| {
                seconds += plain.setup_s + plain.timed_s();
                match &first.runs[i] {
                    Some(armed) => check_same(&armed.report, &plain.report),
                    None => Ok(()),
                }
            });
        if let Err(msg) = verdict {
            eprintln!(
                "FAILED {} / {} unarmed twin: {msg}",
                workload.name(),
                cell.name
            );
            failed += 1;
        }
    }
    (attempted, failed, seconds)
}

/// Share of displays with no hiccup and no drop. The population is the
/// measured completions plus the drops; hiccups and drops are counted
/// over the whole run, so this is a lower bound.
fn hiccup_free_pct(runs: &[&CellRun]) -> f64 {
    let (mut population, mut hit) = (0u64, 0u64);
    for r in runs {
        let g = r.report.degraded.clone().unwrap_or_default();
        population += r.report.displays_completed + g.streams_dropped;
        hit += g.hiccup_streams + g.streams_dropped;
    }
    if population == 0 {
        100.0
    } else {
        100.0 * population.saturating_sub(hit) as f64 / population as f64
    }
}

/// Journal events per kind for one cell: from the capture of an armed
/// cell's measured run, from a kind-counting counterpart run otherwise —
/// whose report must equal the measured one.
fn journal_counts(
    cell: &Cell,
    measured: Option<&CellRun>,
) -> Result<BTreeMap<&'static str, u64>, String> {
    if cell.armed {
        return Ok(measured
            .and_then(|r| r.folded.as_ref())
            .map(|f| f.kinds.clone())
            .unwrap_or_default());
    }
    let (report, counts) =
        catch_unwind(AssertUnwindSafe(|| run_counted(cell))).unwrap_or_else(|p| {
            ss_obs::uninstall();
            Err(format!("panicked: {}", panic_message(&*p)))
        })?;
    if let Some(plain) = measured {
        check_same(&report, &plain.report)?;
    }
    Ok(counts)
}

/// A farm shape the layer probes distinguish: disks, subobjects per
/// object, storage nodes.
type Shape = (u32, u32, u32);

fn shape(config: &ServerConfig) -> Shape {
    let nodes = config.distributed.as_ref().map_or(1, |d| d.topology.nodes);
    (config.disks, config.subobjects, nodes)
}

/// Layer-probe costs for every farm shape among `cells`, each measured
/// on the shape's most heavily loaded cell.
fn shape_costs(cells: &[Cell], seed: u64) -> BTreeMap<Shape, LayerCosts> {
    let mut loaded: BTreeMap<Shape, &ServerConfig> = BTreeMap::new();
    for c in cells {
        let slot = loaded.entry(shape(&c.config)).or_insert(&c.config);
        if c.config.stations > slot.stations {
            *slot = &c.config;
        }
    }
    loaded
        .into_iter()
        .map(|(s, config)| (s, probes::measure(config, seed)))
        .collect()
}

/// The untraced run: the end-to-end metrics.
pub fn measured(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let cells = workload.cells(seed);
    let mut tracer = Tracer::new(false);
    let clock = HostClock::start();
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(run_pass(workload, seed, &cells, &mut tracer, passes.len()));
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        if passes.len() >= MIN_PASSES && start.elapsed().as_secs_f64() + median(&walls) > seconds {
            break;
        }
    }
    let host = clock.stop();
    let mut attempted = (cells.len() * passes.len()) as u64;
    let mut failed: u64 = passes.iter().map(|p| p.failed).sum();
    failed += nondeterministic(workload, &cells, &passes.iter().collect::<Vec<_>>());
    let (twin_attempted, twin_failed, _) = twins(
        workload,
        seed,
        &cells,
        &passes[0],
        &mut tracer,
        cells.len() * passes.len(),
    );
    attempted += twin_attempted;
    failed += twin_failed;

    let walls: Vec<f64> = passes.iter().map(Pass::timed_s).collect();
    let setups: Vec<f64> = passes.iter().map(Pass::setup_s).collect();
    eprintln!(
        "{} seed {seed}: {} passes, wall_s per pass {:?}, setup_s per pass {:?}",
        workload.name(),
        passes.len(),
        walls,
        setups
    );
    eprintln!("{host}");
    let dph: f64 = passes[0].ok().map(|r| r.report.displays_per_hour).sum();
    let values = BTreeMap::from([
        ("wall_s", median(&walls)),
        ("setup_s", median(&setups)),
        ("peak_rss_mb", peak_rss_mb()),
        ("displays_per_hour", dph),
        (
            "ok_pct",
            100.0 * attempted.saturating_sub(failed) as f64 / attempted as f64,
        ),
    ]);
    Outcome::new(attempted, failed, END_TO_END, values)
}

/// The traced run: the per-layer metrics.
pub fn traced(workload: Workload, seed: u64, seconds: f64, out: Option<&Path>) -> Outcome {
    let cells = workload.cells(seed);
    let mut tracer = Tracer::new(false);
    let clock = HostClock::start();
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // Alternate untraced and traced passes so host drift hits both alike.
    loop {
        let n = plain.len() + traced.len();
        tracer.set_enabled(false);
        plain.push(run_pass(workload, seed, &cells, &mut tracer, n));
        tracer.set_enabled(true);
        traced.push(run_pass(workload, seed, &cells, &mut tracer, n + 1));
        let pair = median(&plain.iter().map(|p: &Pass| p.wall_s).collect::<Vec<_>>())
            + median(&traced.iter().map(|p: &Pass| p.wall_s).collect::<Vec<_>>());
        if start.elapsed().as_secs_f64() + pair > seconds * TRACED_SHARE {
            break;
        }
    }
    let host = clock.stop();
    let passes_run = plain.len() + traced.len();
    let mut attempted = (cells.len() * passes_run) as u64;
    let mut failed: u64 = plain.iter().chain(&traced).map(|p| p.failed).sum();
    failed += nondeterministic(
        workload,
        &cells,
        &plain.iter().chain(&traced).collect::<Vec<_>>(),
    );
    let first = &traced[0];

    // Armed twins of armed cells (traced, for the capture cost) and
    // kind-counting counterparts of unarmed ones.
    let (twin_attempted, twin_failed, twin_s) = twins(
        workload,
        seed,
        &cells,
        first,
        &mut tracer,
        cells.len() * passes_run,
    );
    attempted += twin_attempted;
    failed += twin_failed;
    let costs = shape_costs(&cells, seed);
    let mut kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut attributed_us = 0.0;
    for (i, cell) in cells.iter().enumerate() {
        if !cell.armed {
            attempted += 1;
        }
        let counts = match journal_counts(cell, first.runs[i].as_ref()) {
            Ok(counts) => counts,
            Err(msg) => {
                eprintln!("FAILED {} / {} counted: {msg}", workload.name(), cell.name);
                failed += 1;
                continue;
            }
        };
        let n = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;
        // Only calls whose count the journal gives exactly are attributed:
        // one `plan` per admission verdict, one booking per `LinkBook`.
        let c = costs[&shape(&cell.config)];
        attributed_us +=
            (n("admit_accept") + n("admit_reject")) * c.plan_us + n("link_book") * c.book_us;
        for (k, v) in counts {
            *kinds.entry(k).or_insert(0) += v;
        }
    }
    let kind = |k: &str| kinds.get(k).copied().unwrap_or(0) as f64;
    let widest = cells
        .iter()
        .max_by_key(|c| c.config.disks)
        .expect("a workload has cells");
    let costs = costs[&shape(&widest.config)];

    // Host-time figures: medians over the traced passes.
    let med = |f: &dyn Fn(&Pass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let samples = tracer.step_samples();
    let step_sum_s = |p: &Pass| samples[p.step_samples.clone()].iter().sum::<u64>() as f64 * 1e-9;
    let fold_sum = |p: &Pass, f: &dyn Fn(&crate::telemetry::Folded) -> f64| -> f64 {
        p.ok().filter_map(|r| r.folded.as_ref()).map(f).sum()
    };
    let step_s = med(&step_sum_s);
    let all_steps_us: Vec<f64> = traced
        .iter()
        .flat_map(|p| &samples[p.step_samples.clone()])
        .map(|&ns| ns as f64 * 1e-3)
        .collect();

    // Counts and simulated outcomes: the first traced pass.
    let runs: Vec<&CellRun> = first.ok().collect();
    let sum = |f: &dyn Fn(&CellRun) -> f64| -> f64 { runs.iter().map(|r| f(r)).sum() };
    let degraded = |f: fn(&ss_server::metrics::DegradedStats) -> u64| {
        sum(&|r| r.report.degraded.as_ref().map_or(0, f) as f64)
    };
    let crash = |f: fn(&ss_server::metrics::CrashStats) -> u64| {
        sum(&|r| r.report.crash.as_ref().map_or(0, f) as f64)
    };
    let sharing = |f: fn(&ss_server::metrics::SharingStats) -> u64| {
        sum(&|r| r.report.sharing.as_ref().map_or(0, f) as f64)
    };
    let folded =
        |f: fn(&crate::telemetry::Folded) -> u64| sum(&|r| r.folded.as_ref().map_or(0, f) as f64);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let accepts = kind("admit_accept");
    let rejects = kind("admit_reject");
    let armed_s = |p: &Pass| -> f64 {
        p.ok()
            .filter(|r| r.folded.is_some())
            .map(|r| r.setup_s + r.steps_s + r.assemble_s)
            .sum()
    };
    let pass_total = |p: &Pass| p.setup_s() + p.timed_s();
    let covered: f64 = traced
        .iter()
        .map(|p| {
            p.setup_s()
                + step_sum_s(p)
                + p.ok().map(|r| r.assemble_s).sum::<f64>()
                + fold_sum(p, &|f| f.total_s())
        })
        .sum();
    let traced_wall: f64 = traced.iter().map(|p| p.wall_s).sum();
    let plain_total = median(&plain.iter().map(pass_total).collect::<Vec<_>>());

    let values = BTreeMap::from([
        ("engine.steps", sum(&|r| r.steps as f64)),
        ("engine.boundaries_skipped", sum(&|r| r.skipped as f64)),
        ("engine.step_s", step_s),
        ("engine.step_p50_us", quantile(&all_steps_us, 0.5)),
        ("engine.step_p99_us", quantile(&all_steps_us, 0.99)),
        ("engine.step_samples", first.step_samples.len() as f64),
        ("engine.step_unattributed_s", step_s - attributed_us * 1e-6),
        (
            "report.assemble_s",
            med(&|p| p.ok().map(|r| r.assemble_s).sum()),
        ),
        ("setup.new_s", med(&Pass::setup_s)),
        ("placement.place_us", costs.place_us),
        ("admission.accepts", accepts),
        ("admission.rejects", rejects),
        ("admission.retries", kind("admit_retry")),
        ("admission.parks", kind("admit_park")),
        ("admission.accept_ratio", ratio(accepts, accepts + rejects)),
        ("admission.plan_us", costs.plan_us),
        ("admission.refresh_index_us", costs.refresh_index_us),
        ("delivery.read_spans", kind("read_span")),
        ("delivery.read_moves", kind("read_move")),
        ("delivery.coalesces", sum(&|r| r.report.coalesces as f64)),
        ("vdr.display_starts", kind("cluster_display_start")),
        ("vdr.copy_starts", kind("cluster_copy_start")),
        (
            "tertiary.fetches",
            sum(&|r| r.report.tertiary_fetches as f64),
        ),
        ("faults.rescues", degraded(|g| g.rescues)),
        ("faults.hiccup_streams", degraded(|g| g.hiccup_streams)),
        ("faults.drops", degraded(|g| g.streams_dropped)),
        ("rebuild.done", kind("rebuild_done")),
        ("storage.txns_journaled", crash(|c| c.txns_journaled)),
        ("storage.recoveries", crash(|c| c.recoveries)),
        ("storage.scrub_chunks", crash(|c| c.scrub_chunks)),
        ("storage.scrub_repairs", crash(|c| c.latent_repaired)),
        ("sharing.joins", sharing(|s| s.viewers_joined)),
        (
            "cache.hit_ratio",
            ratio(
                sharing(|s| s.cache_hits),
                sharing(|s| s.cache_hits + s.cache_misses),
            ),
        ),
        ("cache.evictions", sharing(|s| s.cache_evictions)),
        ("router.assigns", kind("route_assign")),
        ("interconnect.link_books", kind("link_book")),
        (
            "interconnect.remote_fragment_intervals",
            sum(&|r| {
                r.report
                    .distributed
                    .as_ref()
                    .map_or(0, |d| d.remote_fragment_intervals) as f64
            }),
        ),
        ("interconnect.book_us", costs.book_us),
        ("obs.journal_events", folded(|f| f.journal_events)),
        ("obs.heatmap_rows", folded(|f| f.heatmap_rows)),
        ("obs.heatmap_runs", folded(|f| f.heatmap_runs)),
        (
            "obs.capture_s",
            if twin_attempted > 0 {
                med(&armed_s) - twin_s
            } else {
                0.0
            },
        ),
        ("obs.qos_fold_s", med(&|p| fold_sum(p, &|f| f.qos_fold_s))),
        ("obs.slo_eval_s", med(&|p| fold_sum(p, &|f| f.slo_eval_s))),
        (
            "obs.health_fold_s",
            med(&|p| fold_sum(p, &|f| f.health_fold_s)),
        ),
        (
            "obs.jsonl_render_s",
            med(&|p| fold_sum(p, &|f| f.jsonl_render_s)),
        ),
        (
            "sim.displays_completed",
            sum(&|r| r.report.displays_completed as f64),
        ),
        (
            "sim.startup_p50_s",
            runs.iter()
                .map(|r| r.report.p50_latency_s)
                .fold(0.0, f64::max),
        ),
        (
            "sim.startup_p95_s",
            runs.iter()
                .map(|r| r.report.p95_latency_s)
                .fold(0.0, f64::max),
        ),
        ("sim.hiccup_free_pct", hiccup_free_pct(&runs)),
        ("host.cpu_s", host.on_cpu_s),
        ("host.steal_s", host.steal_s()),
        ("host.runq_s", host.runq_s),
        ("host.others_cpu_s", host.others_cpu_s),
        ("host.vm_steal_s", host.vm_steal_s),
        (
            "trace.overhead_pct",
            100.0 * (med(&pass_total) / plain_total - 1.0),
        ),
        ("trace.coverage_pct", 100.0 * covered / traced_wall),
    ]);
    if let Some(dir) = out {
        let path = dir.join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
        {
            eprintln!("cannot write {}: {e}", path.display());
        } else {
            eprintln!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            );
        }
    }
    Outcome::new(attempted, failed, PER_LAYER, values)
}

/// Prints the pinned-digest rows of `workload` at the default seed.
pub fn print_digests(workload: Workload) -> Result<(), String> {
    let mut tracer = Tracer::new(false);
    for (i, cell) in workload.cells(DEFAULT_SEED).iter().enumerate() {
        let run = run_cell(cell, cell.armed, &mut tracer, i as u32)?;
        run.verdict?;
        println!(
            "    (\"{}\", \"{}\", {:#018x}),",
            workload.name(),
            cell.name,
            digest(&run.report)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Map(entries) => &entries.iter().find(|(k, _)| k == key).expect(key).1,
            _ => panic!("{key}: not an object"),
        }
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            _ => panic!("not a string"),
        }
    }

    fn list(v: &Value) -> &[Value] {
        match v {
            Value::Seq(items) => items,
            _ => panic!("not a list"),
        }
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The metric and workload names the binary prints are exactly the
    /// ones `BENCHMARK.json` declares, with the same units, and every one
    /// matches `[A-Za-z0-9_.-]+`.
    #[test]
    fn names_match_the_benchmark_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec: Value = serde_json::from_str(&std::fs::read_to_string(path).expect("read spec"))
            .expect("parse");
        for (key, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(&str, &str)> = list(field(&spec, key))
                .iter()
                .map(|m| (text(field(m, "name")), text(field(m, "unit"))))
                .collect();
            assert_eq!(declared, ours.to_vec(), "{key}");
        }
        let workloads: Vec<&str> = list(field(&spec, "workloads"))
            .iter()
            .map(|w| text(field(w, "name")))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        for name in END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).chain(ours) {
            assert!(valid_name(name), "{name}");
        }
        assert!(!valid_name("wall s") && !valid_name("") && !valid_name("p95/s"));
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let values = END_TO_END.iter().map(|&(n, _)| (n, 1.5)).collect();
        let line = Outcome::new(4, 1, END_TO_END, values).to_json();
        let v: Value = serde_json::from_str(&line).expect("result line is JSON");
        assert!(matches!(field(&v, "correct"), Value::Bool(false)));
        let metrics = field(&v, "metrics");
        for &(name, unit) in END_TO_END {
            assert_eq!(text(field(field(metrics, name), "unit")), unit);
        }
    }
}
