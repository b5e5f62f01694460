//! The armed path of `obs_armed`: install the journal and registry,
//! then fold the capture the way `ops_report` does — QoS ledger, SLO
//! evaluation, health board with incidents, JSONL rendering — and check
//! that the ledger reconciles with the run report.

use crate::trace::{count_kinds, Tracer};
use ss_obs::{
    evaluate, Event, HealthBoard, QosLedger, Registry, RegistrySpec, SloReport, SloSpec,
    VecRecorder,
};
use ss_server::{RunReport, Scheme, ServerConfig};
use std::collections::BTreeMap;

/// A journal being captured on this thread.
pub struct Armed {
    events: ss_obs::Shared<Vec<(u64, Event)>>,
}

/// Installs an in-memory journal and a registry sized for `config`.
pub fn arm(config: &ServerConfig) -> Armed {
    let recorder = VecRecorder::new();
    let events = recorder.handle();
    ss_obs::install(
        Box::new(recorder),
        Registry::new(RegistrySpec {
            disks: config.disks,
            interval_us: config.interval().as_micros(),
            ..RegistrySpec::default()
        }),
    );
    Armed { events }
}

impl Armed {
    /// Uninstalls the sink and takes the capture.
    pub fn disarm(self) -> (Vec<(u64, Event)>, Registry) {
        let (_, registry) = ss_obs::uninstall().expect("journal armed by this cell");
        let events = std::mem::take(&mut *self.events.lock().expect("journal poisoned"));
        (events, registry)
    }
}

/// What folding one capture produced and cost.
#[derive(Debug, Clone, Default)]
pub struct Folded {
    /// Events in the journal.
    pub journal_events: u64,
    /// Heatmap rows the registry accepted.
    pub heatmap_rows: u64,
    /// Runs those rows collapsed into.
    pub heatmap_runs: u64,
    /// Seconds in `QosLedger::from_events`.
    pub qos_fold_s: f64,
    /// Seconds in `slo::evaluate`.
    pub slo_eval_s: f64,
    /// Seconds in `HealthBoard::from_events` plus `incidents`.
    pub health_fold_s: f64,
    /// Seconds rendering the journal and the breaches as JSONL.
    pub jsonl_render_s: f64,
    /// Journal events per kind.
    pub kinds: BTreeMap<&'static str, u64>,
}

impl Folded {
    /// Host seconds of the whole fold.
    pub fn total_s(&self) -> f64 {
        self.qos_fold_s + self.slo_eval_s + self.health_fold_s + self.jsonl_render_s
    }
}

/// Runs the `ops_report` pipeline over a capture, each stage inside its
/// own span under `parent`, and checks the result. `Err` names the first
/// failed check.
pub fn fold(
    config: &ServerConfig,
    report: &RunReport,
    events: &[(u64, Event)],
    registry: &Registry,
    tracer: &mut Tracer,
    cell: u32,
    parent: Option<u32>,
) -> (Folded, Result<(), String>) {
    let interval_us = config.interval().as_micros();
    let (ledger, qos_fold_s) = tracer.span("obs.qos_fold", cell, parent, || {
        QosLedger::from_events(events)
    });
    let specs = SloSpec::default_set(interval_us);
    let (slo, slo_eval_s) = tracer.span("obs.slo_eval", cell, parent, || {
        evaluate(&specs, &ledger, events, interval_us)
    });
    let (nodes, disks_per_node) = match &config.distributed {
        Some(d) => (d.topology.nodes, d.topology.disks_per_node),
        None => (1, config.disks),
    };
    let ((), health_fold_s) = tracer.span("obs.health_fold", cell, parent, || {
        let board = HealthBoard::from_events(
            events,
            config.disks,
            nodes,
            disks_per_node,
            interval_us,
            slo.horizon,
        );
        std::hint::black_box(board.incidents(&slo.alerts));
    });
    let ((), jsonl_render_s) = tracer.span("obs.jsonl_render", cell, parent, || {
        std::hint::black_box(render_jsonl(events, &slo, interval_us));
    });
    let folded = Folded {
        journal_events: events.len() as u64,
        heatmap_rows: registry.heatmap_len() as u64,
        heatmap_runs: registry.heatmap_runs() as u64,
        qos_fold_s,
        slo_eval_s,
        health_fold_s,
        jsonl_render_s,
        kinds: count_kinds(events),
    };
    let verdict =
        reconcile(config, events, report, &ledger).and_then(|()| check_alerts(&slo, &specs));
    (folded, verdict)
}

/// The journal followed by one `slo_breach` event per alert, stamped at
/// the end of its window — the `ops_trace.jsonl` artifact.
fn render_jsonl(events: &[(u64, Event)], slo: &SloReport, interval_us: u64) -> String {
    let mut out = String::new();
    for (at, ev) in events {
        ev.write_jsonl(*at, &mut out);
        out.push('\n');
    }
    for a in &slo.alerts {
        a.to_event().write_jsonl(a.until * interval_us, &mut out);
        out.push('\n');
    }
    out
}

/// QoS-ledger ⇄ run-report reconciliation, as `ops_report` checks it:
/// the ledger's totals must recover the report's aggregates exactly.
fn reconcile(
    config: &ServerConfig,
    events: &[(u64, Event)],
    report: &RunReport,
    ledger: &QosLedger,
) -> Result<(), String> {
    let t = ledger.totals(events);
    let same = |what: &str, ledger: u64, report: u64| {
        if ledger == report {
            Ok(())
        } else {
            Err(format!("ledger counts {ledger} {what}, report {report}"))
        }
    };
    same(
        "measured display ends",
        t.ends_measured,
        report.displays_completed,
    )?;
    let g = report.degraded.clone().unwrap_or_default();
    same("drops", t.drops, g.streams_dropped)?;
    same("rescues", t.rescues, g.rescues)?;
    // Striping journals one event per lost read charging `1 + viewers`
    // intervals; VDR bills lost intervals at drop time.
    let billed = if matches!(config.scheme, Scheme::Striping { .. }) {
        events
            .iter()
            .map(|(_, e)| match e {
                Event::Hiccup { viewers, .. } => 1 + viewers,
                _ => 0,
            })
            .sum()
    } else {
        t.drop_hiccup_intervals
    };
    same("hiccup intervals", billed, g.hiccup_intervals)?;
    if let Some(s) = &report.sharing {
        same("shared joins", t.shared_joins, s.viewers_joined)?;
    }
    let opens = events
        .iter()
        .filter(|(_, e)| {
            matches!(
                e,
                Event::AdmitAccept { .. }
                    | Event::SharedJoin { .. }
                    | Event::ClusterDisplayStart { .. }
            )
        })
        .count() as u64;
    same("display opens", t.opened, opens)?;
    if t.startup_samples > t.opened {
        return Err(format!(
            "{} startup samples for {} opens",
            t.startup_samples, t.opened
        ));
    }
    Ok(())
}

/// Every alert must describe a valid window of the journal, owned by a
/// real SLO and hot on both burn windows.
fn check_alerts(slo: &SloReport, specs: &[SloSpec]) -> Result<(), String> {
    for a in &slo.alerts {
        if a.from >= a.until || a.until > slo.horizon {
            return Err(format!(
                "alert window [{}, {}) escapes the journal horizon {}",
                a.from, a.until, slo.horizon
            ));
        }
        let spec = specs
            .get(a.slo as usize)
            .ok_or_else(|| format!("alert names unknown SLO index {}", a.slo))?;
        if a.fast_burn < spec.alert_burn || a.slow_burn < spec.alert_burn {
            return Err(format!(
                "alert on {} paged below its burn threshold",
                spec.name
            ));
        }
    }
    Ok(())
}
