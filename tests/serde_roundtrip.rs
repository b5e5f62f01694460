//! Serde round-trip tests: configurations and reports must survive
//! JSON serialisation unchanged (they are the interface between the
//! harness binaries, the CSV/JSON artifacts, and any external tooling).

use staggered_striping::prelude::*;
use staggered_striping::server::config::{ArrivalModel, MediaMix, QueuePolicy};

#[test]
fn server_config_roundtrips_through_json() {
    let mut cfg = ServerConfig::paper_striping(64, 20.0, 7);
    cfg.mix = Some(MediaMix::section31_example(3, 10));
    cfg.queue = QueuePolicy::SmallestFirst;
    cfg.arrivals = ArrivalModel::Trace {
        events: vec![(0, 1), (100, 2)],
    };
    let json = serde_json::to_string_pretty(&cfg).unwrap();
    let back: ServerConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(cfg, back);
}

/// A config saved while `ServerConfig` still had its intra-run sharding
/// knob loads and runs to the same report bytes as the same config
/// without the key: deserialization skips unknown keys, so
/// `trace_dump --config` and `ops_report --config` keep reading old
/// files.
#[test]
fn config_with_a_retired_key_still_loads_and_runs() {
    const RETIRED_KEY: &str = "parallel_shards";
    let cfg = ServerConfig::small_test(2, 9);
    let json = serde_json::to_string(&cfg).unwrap();
    let mut value: serde_json::Value = serde_json::from_str(&json).unwrap();
    let serde_json::Value::Map(entries) = &mut value else {
        panic!("a ServerConfig serializes to a JSON object");
    };
    entries.push((RETIRED_KEY.to_string(), serde_json::Value::U64(4)));
    let old_json = serde_json::to_string(&value).unwrap();
    assert!(
        old_json.contains(&format!("\"{RETIRED_KEY}\":4")),
        "{old_json}"
    );
    let old: ServerConfig = serde_json::from_str(&old_json).unwrap();
    assert_eq!(old, cfg);
    let render =
        |c: &ServerConfig| serde_json::to_string_pretty(&ss_server::run(c).unwrap()).unwrap();
    assert_eq!(render(&old), render(&cfg));
}

#[test]
fn vdr_config_roundtrips() {
    let cfg = ServerConfig::paper_vdr(16, 10.0, 3);
    let json = serde_json::to_string(&cfg).unwrap();
    let back: ServerConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(cfg, back);
}

#[test]
fn run_report_roundtrips_and_fields_survive() {
    let cfg = ServerConfig::small_test(2, 9);
    let report = ss_server::run(&cfg).unwrap();
    let json = serde_json::to_string(&report).unwrap();
    let back: RunReport = serde_json::from_str(&json).unwrap();
    assert_eq!(report, back);
    // Spot-check the JSON carries the headline field by name.
    assert!(json.contains("displays_per_hour"));
    assert!(json.contains("peak_buffer_fragments"));
}

#[test]
fn table4_rows_serialize() {
    use staggered_striping::server::experiment::Table4Row;
    let rows = vec![Table4Row {
        stations: 256,
        improvement_pct: vec![126.1, 602.5, 413.1],
    }];
    let json = serde_json::to_string(&rows).unwrap();
    let back: Vec<Table4Row> = serde_json::from_str(&json).unwrap();
    assert_eq!(rows, back);
}

#[test]
fn core_types_roundtrip() {
    use staggered_striping::core::admission::AdmissionPolicy;
    let layout = StripingLayout::new(ObjectId(3), 4, 5, 3000, 1000, 5);
    let back: StripingLayout =
        serde_json::from_str(&serde_json::to_string(&layout).unwrap()).unwrap();
    assert_eq!(layout, back);

    let policy = AdmissionPolicy::Fragmented {
        max_buffer_fragments: 64,
        max_delay_intervals: 16,
    };
    let back: AdmissionPolicy =
        serde_json::from_str(&serde_json::to_string(&policy).unwrap()).unwrap();
    assert_eq!(policy, back);

    let d = DiskParams::table3();
    let back: DiskParams = serde_json::from_str(&serde_json::to_string(&d).unwrap()).unwrap();
    assert_eq!(d, back);

    let t = TertiaryParams::table3();
    let back: TertiaryParams = serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
    assert_eq!(t, back);
}

#[test]
fn unit_types_roundtrip_with_exact_values() {
    let vals = (
        SimTime::from_micros(123_456_789),
        SimDuration::from_micros(604_800),
        Bytes::new(1_512_000),
        Bandwidth::mbps(100),
        ObjectId(1999),
        DiskId(999),
    );
    let json = serde_json::to_string(&vals).unwrap();
    let back: (SimTime, SimDuration, Bytes, Bandwidth, ObjectId, DiskId) =
        serde_json::from_str(&json).unwrap();
    assert_eq!(vals, back);
}
