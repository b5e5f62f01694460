//! Layer probes: direct calls into `PlacementMap`, `IntervalScheduler`
//! and `InterconnectLedger` at a workload's farm width, timed per call,
//! for the per-layer costs the outside view of `step()` cannot split.
//!
//! Each probe runs for a fixed host-time budget and reports the median
//! per-call cost in microseconds. Inputs come from a small deterministic
//! generator seeded by the workload seed.

use ss_core::admission::AdmissionPolicy;
use ss_core::placement::{PlacementMap, StripingConfig};
use ss_core::{InterconnectLedger, IntervalScheduler, VirtualFrame};
use ss_server::ServerConfig;
use ss_types::{NodeId, ObjectId};
use std::time::{Duration, Instant};

use crate::host::median;

/// Host time each probe runs for.
const BUDGET: Duration = Duration::from_millis(250);

/// Median per-call costs, microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCosts {
    /// `PlacementMap::place` of one Table-3 object.
    pub place_us: f64,
    /// `IntervalScheduler::plan` of one contiguous request.
    pub plan_us: f64,
    /// `IntervalScheduler::refresh_index` after one commit.
    pub refresh_index_us: f64,
    /// `InterconnectLedger::retire` + `try_book` of one display's spans.
    pub book_us: f64,
}

/// splitmix64: a tiny deterministic generator for probe inputs.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n)) as u32
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs every probe over the farm of `config` (its width, catalog and
/// media; striping with the stride equal to the degree).
pub fn measure(config: &ServerConfig, seed: u64) -> LayerCosts {
    let (plan_us, refresh_index_us) = admission(config, seed);
    LayerCosts {
        place_us: place(config),
        plan_us,
        refresh_index_us,
        book_us: book(config, seed),
    }
}

/// Places the catalog most-popular-first into fresh maps until the farm
/// is full, timing each `place`.
fn place(config: &ServerConfig) -> f64 {
    let degree = config.degree();
    let striping = StripingConfig {
        disks: config.disks,
        stride: degree,
        fragment: config.fragment_size(),
        b_disk: config.b_disk(),
        parity_group: None,
    };
    let catalog = config.catalog();
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < BUDGET {
        let mut map = PlacementMap::new(
            striping.clone(),
            config.disk.cylinders,
            config.cylinders_per_fragment,
        )
        .expect("valid placement config");
        for spec in catalog.iter() {
            let t = Instant::now();
            let placed = map.place(spec);
            samples.push(micros(t.elapsed()));
            if placed.is_err() {
                break;
            }
        }
    }
    median(&samples)
}

/// Contiguous admissions at the workload's load: arrivals come at the
/// rate that keeps one display per station active (at most half the
/// farm busy), each `plan` is timed, and each granted plan is committed
/// and followed by a timed `refresh_index`.
fn admission(config: &ServerConfig, seed: u64) -> (f64, f64) {
    let degree = config.degree();
    let subobjects = config.subobjects;
    let mut sched = IntervalScheduler::new(VirtualFrame::new(config.disks, degree));
    let mut rng = Mix(seed ^ 0xad31);
    let active = f64::from(config.stations.min(config.disks / (2 * degree)).max(1));
    let gap = f64::from(subobjects) / active;
    let mut clock = 0.0f64;
    let (mut plans, mut refreshes) = (Vec::new(), Vec::new());
    let warm = u64::from(subobjects);
    let start = Instant::now();
    let mut object = 0u32;
    loop {
        clock += gap;
        let now = clock as u64;
        if now >= warm && start.elapsed() >= BUDGET {
            break;
        }
        let start_disk = rng.below(config.disks);
        object = object.wrapping_add(1);
        let t = Instant::now();
        let verdict = sched.plan(
            now,
            ObjectId(object),
            start_disk,
            degree,
            subobjects,
            AdmissionPolicy::Contiguous,
        );
        let plan = t.elapsed();
        if let Ok(grant) = verdict {
            sched.commit(now, &grant, subobjects);
            // Warm-up fills the farm without paying an index rebuild per
            // commit; planning reads `free_from` directly either way.
            if now >= warm {
                let t = Instant::now();
                sched.refresh_index();
                refreshes.push(micros(t.elapsed()));
            }
        }
        if now >= warm {
            plans.push(micros(plan));
        }
    }
    (median(&plans), median(&refreshes))
}

/// One display's remote demand per interval on the config's node split
/// (four nodes when it has none), booked on its home node's link, with
/// bookings retired as the clock passes.
fn book(config: &ServerConfig, seed: u64) -> f64 {
    let nodes = config
        .distributed
        .as_ref()
        .map_or(4, |d| d.topology.nodes.max(2));
    let disks = config.disks;
    let per_node = disks.div_ceil(nodes);
    let degree = config.degree();
    let subobjects = u64::from(config.subobjects);
    let frame = VirtualFrame::new(disks, degree);
    let mut rng = Mix(seed ^ 0xb00c);
    let mut ledger = InterconnectLedger::new(nodes, None, None);
    let mut samples = Vec::new();
    let mut spans = Vec::with_capacity(subobjects as usize);
    let start = Instant::now();
    let mut now = 0u64;
    while start.elapsed() < BUDGET {
        let home = NodeId(rng.below(nodes));
        let first = rng.below(disks);
        spans.clear();
        for u in now..now + subobjects {
            let remote = (0..degree)
                .filter(|&i| frame.physical((first + i) % disks, u) / per_node != home.0)
                .count() as u64;
            spans.push((u, remote));
        }
        let t = Instant::now();
        ledger.retire(now);
        let booked = ledger.try_book(home, &spans);
        samples.push(micros(t.elapsed()));
        assert!(booked, "an uncapped interconnect refuses nothing");
        now += 1;
    }
    median(&samples)
}
