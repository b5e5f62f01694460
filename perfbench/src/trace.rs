//! The benchmark's own tracing: spans recorded around its calls into
//! the program's public functions, and a journal recorder that only
//! counts event kinds.
//!
//! Spans are kept in memory and written out when the run ends. Each has
//! a name, a start, an end and a parent; the spans of one cell share the
//! cell's id. Individual `step()` calls are too many to keep as spans,
//! so each cell gets one `engine.steps` span covering its step loop, and
//! the traced run keeps every step's own duration as a sample.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: u32,
    /// The layer call it wraps (`server.new`, `engine.steps`, …).
    pub name: &'static str,
    /// The cell every span of one simulation shares.
    pub cell: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// A span that has been opened but not yet closed.
#[derive(Debug)]
pub struct Open {
    id: u32,
    name: &'static str,
    cell: u32,
    parent: Option<u32>,
    start: Instant,
}

impl Open {
    /// This span's id, for use as a child's parent.
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// Records spans (when enabled) and always measures their durations.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    next_id: u32,
    spans: Vec<Span>,
    /// Duration of every individual `step()` call, in nanoseconds, while
    /// enabled.
    step_ns: Vec<u64>,
}

impl Tracer {
    /// A tracer that keeps spans and step samples iff `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            next_id: 0,
            spans: Vec::new(),
            step_ns: Vec::new(),
        }
    }

    /// Whether spans and step samples are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span.
    pub fn open(&mut self, name: &'static str, cell: u32, parent: Option<u32>) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            name,
            cell,
            parent,
            start: Instant::now(),
        }
    }

    /// Closes `open`, returning its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if self.enabled {
            let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                id: open.id,
                name: open.name,
                cell: open.cell,
                parent: open.parent,
                start_ns: ns(open.start),
                end_ns: ns(end),
            });
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Runs `f` inside a span named `name`, returning its result and
    /// duration in seconds.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        cell: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let open = self.open(name, cell, parent);
        let r = f();
        (r, self.close(open))
    }

    /// Records the duration of one `step()` call.
    pub fn step_sample(&mut self, ns: u64) {
        self.step_ns.push(ns);
    }

    /// The step samples recorded so far.
    pub fn step_samples(&self) -> &[u64] {
        &self.step_ns
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders every recorded span as one JSON line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"name\":\"{}\",\"cell\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, s.name, s.cell, parent, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// A journal sink that keeps only a count per event kind, so an armed
/// counterpart of a large cell costs no journal memory.
#[derive(Debug, Default)]
pub struct KindCounter {
    counts: ss_obs::Shared<BTreeMap<&'static str, u64>>,
}

impl KindCounter {
    /// Clonable handle to the counts.
    pub fn handle(&self) -> ss_obs::Shared<BTreeMap<&'static str, u64>> {
        std::sync::Arc::clone(&self.counts)
    }
}

impl ss_obs::Recorder for KindCounter {
    fn record(&mut self, _at: u64, ev: &ss_obs::Event) {
        *self
            .counts
            .lock()
            .expect("kind counts poisoned")
            .entry(ev.kind())
            .or_insert(0) += 1;
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Per-kind counts of a captured journal.
pub fn count_kinds(events: &[(u64, ss_obs::Event)]) -> BTreeMap<&'static str, u64> {
    let mut counts = BTreeMap::new();
    for (_, e) in events {
        *counts.entry(e.kind()).or_insert(0) += 1;
    }
    counts
}
