//! Stream-sharing equivalence and invariants.
//!
//! Two properties pin the sharing layer down:
//!
//! 1. **Off ≡ absent.** A run whose arrivals never overlap produces — with
//!    sharing armed — a report byte-identical to the unshared run except
//!    for the `sharing` section itself. The knob is pay-for-what-you-use.
//! 2. **Shared bandwidth is viewer-independent.** N arrivals riding one
//!    stream book exactly the disk bandwidth of one arrival: the
//!    utilization trace of a 1-viewer run and an N-viewer run of the same
//!    object are equal, while completions scale with N.

use staggered_striping::prelude::*;
use staggered_striping::server::config::{ArrivalModel, MaterializeMode, Scheme};
use staggered_striping::server::vdr::vdr_config_for;

/// A trace whose arrivals never land inside any join window: one arrival
/// per object, each many intervals apart.
fn disjoint_trace(cfg: &mut ServerConfig) {
    cfg.arrivals = ArrivalModel::Trace {
        events: (0..6)
            .map(|i| (i * 60_000_000_000, (i % 10) as u32))
            .collect(),
    };
}

/// Arming sharing on a workload with no overlapping interest is free:
/// the report is byte-identical to the unshared run apart from the
/// `sharing` section (which records zero joins).
#[test]
fn sharing_without_overlap_changes_nothing_but_the_section() {
    let mut base = ServerConfig::small_test(1, 11);
    base.verify_delivery = false;
    disjoint_trace(&mut base);
    let unshared = staggered_striping::server::run(&base).expect("unshared run");

    let mut shared_cfg = base.clone();
    shared_cfg.sharing = Some(SharingConfig::window(4));
    let mut shared = staggered_striping::server::run(&shared_cfg).expect("shared run");
    let section = shared.sharing.take().expect("sharing section present");
    assert_eq!(section.viewers_joined, 0, "no window overlap, no joins");
    assert_eq!(unshared, shared, "sharing must be pay-for-what-you-use");
}

/// The bandwidth invariant: a shared stream's booked disk bandwidth does
/// not depend on how many viewers ride it. Five same-object arrivals
/// inside the window produce the *same* utilization trace as one, while
/// completing five displays from one stream.
#[test]
fn shared_stream_bandwidth_is_independent_of_viewer_count() {
    let interval_us = 604_800u64; // ServerConfig::small_test interval
    let mk = |events: Vec<(u64, u32)>| {
        let mut c = ServerConfig::small_test(1, 5);
        c.verify_delivery = false;
        c.warmup = SimDuration::ZERO;
        c.arrivals = ArrivalModel::Trace { events };
        c.sharing = Some(SharingConfig::window(4));
        c
    };
    let solo = staggered_striping::server::run(&mk(vec![(0, 0)])).expect("solo run");
    let crowd_events = vec![
        (0, 0),
        (0, 0),
        (interval_us, 0),
        (2 * interval_us, 0),
        (2 * interval_us, 0),
    ];
    let crowd = staggered_striping::server::run(&mk(crowd_events)).expect("crowd run");

    assert_eq!(
        solo.disk_utilization, crowd.disk_utilization,
        "five viewers on one stream must book exactly one stream's reads"
    );
    assert_eq!(solo.displays_completed, 1);
    assert_eq!(crowd.displays_completed, 5, "every viewer is served");
    let s = crowd.sharing.expect("sharing section present");
    assert_eq!(s.streams_opened, 1, "one disk stream serves the crowd");
    assert_eq!(s.viewers_joined, 4);
    assert_eq!(s.batched_joins + s.patched_joins, 4);
    assert!(
        s.patched_joins > 0,
        "staggered arrivals must exercise the prefix-patch path: {s:?}"
    );
    assert!(
        s.cache_hits >= s.patched_joins,
        "every patched join replays its prefix from cache: {s:?}"
    );
    assert!(
        s.peak_catchup_fragments > 0,
        "patched joins hold catch-up buffers"
    );
}

/// Same invariant on the VDR baseline: the closed loop with a one-object
/// hotspot must batch viewers onto shared cluster streams, lifting
/// throughput past the replica count without extra cluster-time.
#[test]
fn vdr_sharing_batches_the_hotspot() {
    let mut cfg = ServerConfig::small_test(8, 42);
    cfg.scheme = Scheme::Vdr {
        vdr: vdr_config_for(&cfg),
    };
    cfg.materialize = MaterializeMode::AfterFull;
    cfg.popularity = Popularity::TruncatedGeometric { mean: 0.3 };
    let unshared = staggered_striping::server::run(&cfg).expect("unshared run");

    let mut shared_cfg = cfg.clone();
    shared_cfg.sharing = Some(SharingConfig::window(4));
    let shared = staggered_striping::server::run(&shared_cfg).expect("shared run");
    let s = shared.sharing.expect("sharing section present");
    assert!(
        s.viewers_joined > 0,
        "the hotspot must trigger joins: {s:?}"
    );
    assert!(
        shared.displays_per_hour > unshared.displays_per_hour,
        "sharing must lift hotspot throughput: {} vs {}",
        shared.displays_per_hour,
        unshared.displays_per_hour
    );
}

/// Sharing runs are seed-deterministic — cache salts, join order, and the
/// catch-up accounting all replay exactly.
#[test]
fn sharing_runs_are_deterministic() {
    for vdr in [false, true] {
        let mk = || {
            let mut c = ServerConfig::small_test(6, 99);
            c.verify_delivery = false;
            c.sharing = Some(SharingConfig {
                batch_window: 4,
                prefix_intervals: 8,
                cache_fragments: 64,
            });
            if vdr {
                c.scheme = Scheme::Vdr {
                    vdr: vdr_config_for(&c),
                };
                c.materialize = MaterializeMode::AfterFull;
            }
            c
        };
        let a = staggered_striping::server::run(&mk()).expect("first run");
        let b = staggered_striping::server::run(&mk()).expect("second run");
        assert_eq!(a, b);
    }
}
