//! Micro-benchmark: admission control on a paper-scale farm
//! (D = 1000, k = 5) at ~50 % occupancy.
//!
//! Contiguous admission is O(M); fragmented admission is O(D·M) per
//! attempt and runs once per queued request per interval, so its constant
//! matters for the mixed-media workloads.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ss_core::admission::{AdmissionPolicy, IntervalScheduler};
use ss_core::coalesce::ActiveFragmentedDisplay;
use ss_core::frame::VirtualFrame;
use ss_core::placement::StripingLayout;
use ss_core::schedule::DeliverySchedule;
use ss_types::ObjectId;
use std::hint::black_box;

/// A 1000-disk scheduler with every other 5-disk group committed.
fn half_busy() -> IntervalScheduler {
    half_busy_farm(1000)
}

/// A `disks`-disk scheduler with every other 5-disk group committed.
fn half_busy_farm(disks: u32) -> IntervalScheduler {
    let mut s = IntervalScheduler::new(VirtualFrame::new(disks, 5));
    for (id, start) in (0..disks).step_by(10).enumerate() {
        s.try_admit(
            0,
            ObjectId(id as u32),
            start,
            5,
            3000,
            AdmissionPolicy::Contiguous,
        )
        .expect("setup admission");
    }
    s
}

fn bench_admission(c: &mut Criterion) {
    let mut g = c.benchmark_group("admission");

    g.bench_function("contiguous_grant", |b| {
        b.iter_batched(
            half_busy,
            |mut s| {
                // Free aligned group.
                black_box(
                    s.try_admit(0, ObjectId(999), 5, 5, 3000, AdmissionPolicy::Contiguous)
                        .is_ok(),
                )
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("contiguous_reject", |b| {
        let mut s = half_busy();
        b.iter(|| {
            // Busy aligned group: rejection path, no state mutation.
            black_box(
                s.try_admit(0, ObjectId(998), 0, 5, 3000, AdmissionPolicy::Contiguous)
                    .is_err(),
            )
        })
    });

    g.bench_function("fragmented_grant", |b| {
        b.iter_batched(
            half_busy,
            |mut s| {
                black_box(
                    s.try_admit(
                        0,
                        ObjectId(997),
                        0,
                        5,
                        3000,
                        AdmissionPolicy::Fragmented {
                            max_buffer_fragments: 64,
                            max_delay_intervals: 16,
                        },
                    )
                    .is_ok(),
                )
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("fragmented_reject_saturated", |b| {
        // Every virtual disk busy beyond the delay window: one rank query
        // on the always-sorted free-horizon index rejects before any
        // candidate enumeration. This is the hot no-free-slot case at
        // 1000 disks.
        let mut s = IntervalScheduler::new(VirtualFrame::new(1000, 5));
        for v in 0..1000 {
            s.set_free_from(v, 100);
        }
        b.iter(|| {
            black_box(
                s.try_admit(
                    0,
                    ObjectId(996),
                    0,
                    5,
                    3000,
                    AdmissionPolicy::Fragmented {
                        max_buffer_fragments: 64,
                        max_delay_intervals: 16,
                    },
                )
                .is_err(),
            )
        })
    });

    g.bench_function("free_count_scan", |b| {
        // A rank query on the free-horizon index, which every write keeps
        // sorted: a walk over the block lengths, no rebuild.
        let s = half_busy();
        b.iter(|| black_box(s.free_count(0)))
    });

    g.bench_function("commit_then_free_count_d100k", |b| {
        // The per-write price of the always-sorted index at farm scale:
        // one contiguous grant (five index writes) on a half-busy
        // 100k-disk farm, then the rank query that reads it. The five
        // writes that restore the farm for the next iteration are timed
        // too, so the commit is about half the figure.
        let mut s = half_busy_farm(100_000);
        let grant = s
            .plan(0, ObjectId(999), 5, 5, 3000, AdmissionPolicy::Contiguous)
            .expect("free aligned group");
        let before: Vec<u64> = grant
            .virtual_disks
            .iter()
            .map(|&v| s.free_from(v))
            .collect();
        b.iter(|| {
            s.commit(0, &grant, 3000);
            let free = s.free_count(0);
            for (&v, &f) in grant.virtual_disks.iter().zip(&before) {
                s.set_free_from(v, f);
            }
            black_box(free)
        })
    });

    g.bench_function("plan_coalesce_scan", |b| {
        // A fragmented display with a 4-interval offset on a half-busy
        // farm; the planner scans the offset window per fragment.
        let mut s = half_busy();
        let grant = s
            .try_admit(
                0,
                ObjectId(500),
                3,
                5,
                3000,
                AdmissionPolicy::Fragmented {
                    max_buffer_fragments: 64,
                    max_delay_intervals: 16,
                },
            )
            .expect("fragmented grant");
        let display = ActiveFragmentedDisplay::from_grant(&grant, 3, 3000);
        b.iter(|| black_box(s.plan_coalesce(&display, 8)))
    });

    g.bench_function("delivery_schedule_expand_verify", |b| {
        let mut s = IntervalScheduler::new(VirtualFrame::new(1000, 5));
        let layout = StripingLayout::new(ObjectId(0), 0, 5, 3000, 1000, 5);
        let grant = s
            .try_admit(0, ObjectId(0), 0, 5, 3000, AdmissionPolicy::Contiguous)
            .expect("grant");
        b.iter(|| {
            let ds = DeliverySchedule::from_grant(&grant, &layout, s.frame());
            ds.verify(&layout).expect("hiccup-free");
            black_box(ds.reads.len())
        })
    });

    g.finish();
}

criterion_group!(benches, bench_admission);
criterion_main!(benches);
