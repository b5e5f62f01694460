//! End-to-end determinism goldens: the serialized [`RunReport`]s of a
//! fixed set of small configurations, pinned **byte-for-byte**.
//!
//! These runs cover the engine's hot paths — preloaded and cold starts,
//! eviction under an overcommitted farm, contiguous and time-fragmented
//! admission, dynamic coalescing, and the VDR baseline — so any change to
//! placement, admission, or the tick loop that alters behavior (rather
//! than just speed) shows up as a golden diff. Performance work must keep
//! this file green without regenerating it.
//!
//! Regenerate (after an *intentional* behavior change) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_reports
//! ```

use staggered_striping::prelude::*;
use staggered_striping::server::config::{ArrivalModel, MediaMix};
use staggered_striping::server::experiment::{run_batch, run_batch_stats, small_grid_configs};

const GOLDEN_PATH: &str = "tests/golden/run_reports.json";

/// The pinned configuration set. Every config is small enough to run in
/// well under a second but still exercises a distinct engine path.
fn golden_configs() -> Vec<ServerConfig> {
    let mut out = Vec::new();

    // 1–2. The overcommitted small-farm grid cell (striping + VDR):
    // 750 objects on a 300-object farm, so LFU eviction and tertiary
    // refetches run.
    out.extend(small_grid_configs(&[8], 20.0, 1994));

    // 3. Mixed-media staggered striping with time-fragmented admission
    // and dynamic coalescing (the §3.2.1 machinery).
    let mut mixed =
        staggered_striping::server::experiment::mixed_media_configs(12, 7).swap_remove(0);
    mixed.disks = 60;
    mixed.mix = Some(MediaMix::section31_example(20, 200));
    mixed.popularity = staggered_striping::workload::Popularity::Uniform;
    mixed.warmup = SimDuration::from_secs(1200);
    mixed.measure = SimDuration::from_secs(3600);
    out.push(mixed);

    // 4. Cold start: empty farm, every request goes through the tertiary
    // materialization pipeline.
    let mut cold = ServerConfig::small_test(2, 7);
    cold.preload = false;
    out.push(cold);

    // 5. Open-system Poisson arrivals (the non-closed request path).
    let mut open = ServerConfig::small_test(1, 11);
    open.arrivals = ArrivalModel::Open {
        rate_per_hour: 300.0,
    };
    out.push(open);

    for c in &out {
        c.validate().expect("golden config is valid");
    }
    out
}

#[test]
fn run_reports_match_golden_bytes() {
    let reports = run_batch(golden_configs(), 1);
    let rendered = format!(
        "{}\n",
        serde_json::to_string_pretty(&reports).expect("serialize reports")
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file exists (UPDATE_GOLDEN=1 to create)");
    assert_eq!(
        rendered, golden,
        "RunReports drifted from {GOLDEN_PATH}; if the behavior change is \
         intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn run_batch_thread_count_is_invisible() {
    let seq = run_batch(golden_configs(), 1);
    let par = run_batch(golden_configs(), 4);
    assert_eq!(seq, par, "reports must not depend on --threads");
}

/// The batch runner at 2 threads returns reports in input order with
/// bytes identical to the 1-thread batch (the `run_batch` contract the
/// grid benches lean on).
#[test]
fn two_thread_batch_matches_one_thread_batch() {
    let configs: Vec<ServerConfig> = [(1u32, 50u64), (4, 51), (2, 52), (3, 53)]
        .into_iter()
        .map(|(stations, seed)| ServerConfig::small_test(stations, seed))
        .collect();
    let one = run_batch(configs.clone(), 1);
    let (two, stats) = run_batch_stats(configs, 2);
    assert_eq!(stats.threads_used, 2);
    let stations: Vec<u32> = two.iter().map(|r| r.stations).collect();
    assert_eq!(stations, vec![1, 4, 2, 3], "reports must keep input order");
    let bytes = |rs: &[RunReport]| serde_json::to_string_pretty(rs).expect("reports serialize");
    assert_eq!(bytes(&one), bytes(&two));
}
