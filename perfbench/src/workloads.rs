//! The four workloads: which `ServerConfig`s each one runs, built from
//! the workload seed alone.
//!
//! Every cell is a closed loop — a station issues its next request only
//! when its previous display completes — and the benchmark's own cell
//! sequence is closed too: the next cell starts when the previous one
//! has finished. The program under test receives nothing but the
//! generated configs.

use ss_server::config::{NodeOutage, SharingConfig};
use ss_server::experiment::{FIG8_MEANS, FIG8_STATIONS};
use ss_server::{DistributedConfig, ParityConfig, RebuildConfig, ScrubConfig, ServerConfig};
use ss_sim::{CrashFaults, FaultPlan};
use ss_types::{SimDuration, SimTime};

/// The seed whose per-cell `RunReport` digests are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// One simulation the workload runs.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Stable label, unique within the workload (pinned digests key on it).
    pub name: String,
    /// The generated configuration handed to the program.
    pub config: ServerConfig,
    /// Run with the journal and registry installed, then fold the
    /// capture through the `ops_report` pipeline.
    pub armed: bool,
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 100,000-disk striping farm, every plane and telemetry off.
    FarmScale,
    /// The 54 Figure-8 cells, run serially, planes and telemetry off.
    Fig8Grid,
    /// Both schemes at D = 1000 with every optional plane armed at once.
    PlanesArmed,
    /// The `ops_report` pipeline: armed cells folded into QoS, SLO,
    /// health and JSONL.
    ObsArmed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::FarmScale,
        Workload::Fig8Grid,
        Workload::PlanesArmed,
        Workload::ObsArmed,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FarmScale => "farm_scale",
            Workload::Fig8Grid => "fig8_grid",
            Workload::PlanesArmed => "planes_armed",
            Workload::ObsArmed => "obs_armed",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cells this workload runs at `seed`, in run order.
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        match self {
            Workload::FarmScale => farm_scale(seed),
            Workload::Fig8Grid => fig8_grid(seed),
            Workload::PlanesArmed => planes_armed(seed),
            Workload::ObsArmed => obs_armed(seed),
        }
    }
}

fn cell(name: String, config: ServerConfig, armed: bool) -> Cell {
    Cell {
        name,
        config,
        armed,
    }
}

/// 2048 stations on 100,000 disks with the Table-3 catalog (2000 objects
/// of 3000 subobjects) under geometric(20) popularity. The window covers
/// one display time of warm-up and one of measurement.
fn farm_scale(seed: u64) -> Vec<Cell> {
    let mut c = ServerConfig::paper_striping(2048, 20.0, seed);
    c.disks = 100_000;
    c.warmup = SimDuration::from_secs(1800);
    c.measure = SimDuration::from_secs(1800);
    vec![cell("striping-d100000-s2048-m20".into(), c, false)]
}

/// Both schemes × means {10, 20, 43.5} × stations 1–256 at D = 1000, the
/// paper's own configuration and window.
fn fig8_grid(seed: u64) -> Vec<Cell> {
    let mut out = Vec::new();
    for &mean in &FIG8_MEANS {
        for &stations in &FIG8_STATIONS {
            out.push(cell(
                format!("striping-s{stations}-m{mean}"),
                ServerConfig::paper_striping(stations, mean, seed),
                false,
            ));
            out.push(cell(
                format!("vdr-s{stations}-m{mean}"),
                ServerConfig::paper_vdr(stations, mean, seed),
                false,
            ));
        }
    }
    out
}

/// Arms the fault planes of the `ops_report` demo on `c`: a disk fail
/// window over the middle half of the measurement window (with parity
/// reconstruction and hot-spare rebuild under striping), stochastic
/// power losses and torn writes, the scrub daemon, and an even
/// `nodes`-way distributed tier with node 1 out for the third sixth of
/// the window. With the demo's farm, 2 nodes and a 300 s power-loss
/// MTBF this is exactly `ops_report`'s default config.
fn arm_fault_planes(c: &mut ServerConfig, nodes: u32, power_loss_mtbf_s: u64) {
    let striping = matches!(c.scheme, ss_server::Scheme::Striping { .. });
    // Crash recovery may refetch objects mid-run; per-admission delivery
    // verification is a test aid, not part of the measured work.
    c.verify_delivery = false;
    if striping {
        c.parity = Some(ParityConfig::group(4));
        c.rebuild = Some(RebuildConfig::rate(4));
    }
    let warmup = c.warmup.as_micros();
    let measure = c.measure.as_micros();
    c.faults = FaultPlan::fail_window(
        0,
        SimTime::from_micros(warmup + measure / 4),
        SimTime::from_micros(warmup + 3 * measure / 4),
    );
    c.faults.crash = Some(CrashFaults {
        power_loss_mtbf: Some(SimDuration::from_secs(power_loss_mtbf_s)),
        torn_write_mtbf: Some(SimDuration::from_secs(power_loss_mtbf_s * 4 / 5)),
        ..Default::default()
    });
    c.scrub = Some(ScrubConfig::rate(4));
    let mut dist = DistributedConfig::even(nodes, c.disks);
    dist.node_outages = vec![NodeOutage {
        node: 1,
        fail_at: SimTime::from_micros(warmup + measure / 3),
        repair_at: SimTime::from_micros(warmup + measure / 2),
    }];
    c.distributed = Some(dist);
}

/// Both schemes at D = 1000, geometric(20), every plane armed — the
/// fault planes plus stream sharing — with a four-node distributed tier.
/// Sized by stations and window, never by disarming a plane: 32 stations
/// over 30 min + 1 h keep a pass near 3 s of host time.
fn planes_armed(seed: u64) -> Vec<Cell> {
    let mut out = Vec::new();
    for (scheme, stations) in [("striping", 32u32), ("vdr", 32)] {
        let mut c = if scheme == "striping" {
            ServerConfig::paper_striping(stations, 20.0, seed)
        } else {
            ServerConfig::paper_vdr(stations, 20.0, seed)
        };
        c.warmup = SimDuration::from_secs(1800);
        c.measure = SimDuration::from_secs(3600);
        arm_fault_planes(&mut c, 4, 1800);
        c.sharing = Some(SharingConfig::window(4));
        out.push(cell(format!("{scheme}-planes-s{stations}-n4"), c, false));
    }
    out
}

/// The `ops_report` all-planes demo for both schemes (20 disks, 20
/// stations, two nodes) plus paper-scale striping and VDR cells at low
/// (16 stations) and medium (64 stations) load, every cell armed. The
/// 30 min + 3 h window bounds the capture: a dense heatmap row is kept
/// for every boundary, so the paper's 16 h window would hold 95k rows of
/// 1000 disks per cell.
fn obs_armed(seed: u64) -> Vec<Cell> {
    let mut out = Vec::new();
    for vdr in [false, true] {
        let mut c = if vdr {
            ServerConfig::small_vdr_test(20, seed)
        } else {
            ServerConfig::small_test(20, seed)
        };
        arm_fault_planes(&mut c, 2, 300);
        let scheme = if vdr { "vdr" } else { "striping" };
        out.push(cell(format!("{scheme}-ops-demo-s20-n2"), c, true));
    }
    for stations in [16u32, 64] {
        for vdr in [false, true] {
            let mut c = if vdr {
                ServerConfig::paper_vdr(stations, 20.0, seed)
            } else {
                ServerConfig::paper_striping(stations, 20.0, seed)
            };
            c.warmup = SimDuration::from_secs(1800);
            c.measure = SimDuration::from_secs(3 * 3600);
            let scheme = if vdr { "vdr" } else { "striping" };
            out.push(cell(format!("{scheme}-s{stations}-m20"), c, true));
        }
    }
    out
}
