//! Drives one cell through the program's public server API —
//! `new`, `step` until drained, `run` — timing each call, and checks the
//! invariants that hold for every run.

use crate::telemetry::{self, Folded};
use crate::trace::{KindCounter, Tracer};
use crate::workloads::Cell;
use ss_obs::{Registry, RegistrySpec};
use ss_server::{RunReport, Scheme, ServerConfig, StripingServer, VdrServer};
use std::collections::BTreeMap;
use std::time::Instant;

/// Either server model behind one interface. One value lives per cell
/// run, so the variants' size difference costs nothing worth a box.
#[allow(clippy::large_enum_variant)]
enum Server {
    Striping(StripingServer),
    Vdr(VdrServer),
}

impl Server {
    fn new(config: ServerConfig) -> ss_types::Result<Server> {
        Ok(match config.scheme {
            Scheme::Striping { .. } => Server::Striping(StripingServer::new(config)?),
            Scheme::Vdr { .. } => Server::Vdr(VdrServer::new(config)?),
        })
    }

    fn step(&mut self) -> bool {
        match self {
            Server::Striping(s) => s.step(),
            Server::Vdr(s) => s.step(),
        }
    }

    fn ticks_skipped(&self) -> u64 {
        match self {
            Server::Striping(s) => s.model().ticks_skipped(),
            Server::Vdr(s) => s.model().ticks_skipped(),
        }
    }

    /// The end-of-run invariants: the storage plane reconciles with the
    /// placement, and (striping) every remote fragment read at the final
    /// instant has a booked interconnect interval.
    fn invariants(&self) -> Result<(), String> {
        let (reconciles, deficit) = match self {
            Server::Striping(s) => (
                s.model().storage_reconciles(),
                s.model().remote_booking_deficit(s.now()),
            ),
            Server::Vdr(s) => (s.model().storage_reconciles(), 0),
        };
        if !reconciles {
            return Err("storage plane does not reconcile with the placement".into());
        }
        if deficit != 0 {
            return Err(format!("{deficit} remote fragment reads without a booking"));
        }
        Ok(())
    }

    fn run(self) -> RunReport {
        match self {
            Server::Striping(s) => s.run(),
            Server::Vdr(s) => s.run(),
        }
    }
}

/// Everything one run of one cell produced.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The program's report.
    pub report: RunReport,
    /// Host seconds in `Server::new`.
    pub setup_s: f64,
    /// Host seconds in the step loop.
    pub steps_s: f64,
    /// Host seconds in `run()` after the queue drained (report assembly).
    pub assemble_s: f64,
    /// `step()` calls made.
    pub steps: u64,
    /// Interval boundaries the engine proved quiescent and skipped.
    pub skipped: u64,
    /// The armed pipeline's output, for armed runs.
    pub folded: Option<Folded>,
    /// `Err` names the first invariant that failed.
    pub verdict: Result<(), String>,
}

impl CellRun {
    /// Host seconds of the timed phase: everything after set-up.
    pub fn timed_s(&self) -> f64 {
        self.steps_s + self.assemble_s + self.folded.as_ref().map_or(0.0, Folded::total_s)
    }
}

/// Runs `cell` once; with `armed`, captures the journal and folds it
/// through the `ops_report` pipeline. `cell_id` labels the cell's spans.
pub fn run_cell(
    cell: &Cell,
    armed: bool,
    tracer: &mut Tracer,
    cell_id: u32,
) -> Result<CellRun, String> {
    let root = tracer.open("cell", cell_id, None);
    let parent = Some(root.id());
    let capture = armed.then(|| telemetry::arm(&cell.config));
    let (server, setup_s) = tracer.span("server.new", cell_id, parent, || {
        Server::new(cell.config.clone())
    });
    let mut server = match server {
        Ok(s) => s,
        Err(e) => {
            if capture.is_some() {
                ss_obs::uninstall();
            }
            tracer.close(root);
            return Err(format!("config rejected: {e}"));
        }
    };
    let loop_span = tracer.open("engine.steps", cell_id, parent);
    let mut steps = 0u64;
    if tracer.enabled() {
        loop {
            let t = Instant::now();
            let more = server.step();
            tracer.step_sample(t.elapsed().as_nanos() as u64);
            if !more {
                break;
            }
            steps += 1;
        }
    } else {
        while server.step() {
            steps += 1;
        }
    }
    let steps_s = tracer.close(loop_span);
    let skipped = server.ticks_skipped();
    let mut verdict = server.invariants();
    let (report, assemble_s) = tracer.span("report.assemble", cell_id, parent, || server.run());
    let folded = match capture {
        Some(capture) => {
            let (events, registry) = capture.disarm();
            let (folded, checked) = telemetry::fold(
                &cell.config,
                &report,
                &events,
                &registry,
                tracer,
                cell_id,
                parent,
            );
            verdict = verdict.and(checked);
            Some(folded)
        }
        None => None,
    };
    tracer.close(root);
    Ok(CellRun {
        report,
        setup_s,
        steps_s,
        assemble_s,
        steps,
        skipped,
        folded,
        verdict,
    })
}

/// Runs `cell` with a journal sink that only counts event kinds (and a
/// registry that keeps no heatmap rows), for the per-layer counts of
/// cells whose measured run is unarmed. Returns the report — which must
/// equal the unarmed one — and the counts.
pub fn run_counted(cell: &Cell) -> Result<(RunReport, BTreeMap<&'static str, u64>), String> {
    let counter = KindCounter::default();
    let counts = counter.handle();
    ss_obs::install(
        Box::new(counter),
        Registry::new(RegistrySpec {
            disks: cell.config.disks,
            interval_us: cell.config.interval().as_micros(),
            max_heatmap_rows: 0,
        }),
    );
    let report = ss_server::run(&cell.config);
    ss_obs::uninstall();
    let counts = std::mem::take(&mut *counts.lock().expect("kind counts poisoned"));
    report
        .map(|r| (r, counts))
        .map_err(|e| format!("config rejected: {e}"))
}
