//! Property tests for the virtual-disk frame and admission control — the
//! correctness core of staggered striping.

use proptest::prelude::*;
use staggered_striping::core::admission::{AdmissionGrant, AdmissionPolicy, IntervalScheduler};
use staggered_striping::prelude::*;

/// A random farm plus a stream of admission attempts.
fn farm_strategy() -> impl Strategy<Value = (u32, u32, Vec<(u32, u32, u32)>)> {
    (4u32..40, 0u32..41).prop_flat_map(|(d, k)| {
        let attempts = prop::collection::vec((0u32..d, 1u32..=d.min(6), 1u32..30), 1..40);
        attempts.prop_map(move |a| (d, k, a))
    })
}

/// Asserts that the scheduler's free-horizon index answers `free_count`
/// for every interval up to one past the latest horizon, and
/// `earliest_free` for every `m` in `0..=D + 1`, exactly as a brute-force
/// pass over `free_from` does.
fn assert_index_exact(sched: &IntervalScheduler) {
    let d = sched.frame().disks();
    let horizons: Vec<u64> = (0..d).map(|v| sched.free_from(v)).collect();
    let top = horizons.iter().copied().max().unwrap_or(0);
    for t in 0..=top + 1 {
        let brute = horizons.iter().filter(|&&f| f <= t).count() as u32;
        assert_eq!(
            sched.free_count(t),
            brute,
            "free_count({t}) over {horizons:?}"
        );
    }
    for m in 0..=d + 1 {
        let brute = (0..=top).find(|&t| horizons.iter().filter(|&&f| f <= t).count() >= m as usize);
        assert_eq!(
            sched.earliest_free(m),
            brute,
            "earliest_free({m}) over {horizons:?}"
        );
    }
}

/// Replays a set of grants against an independent occupancy matrix and
/// asserts no (virtual disk, interval) cell is used twice and that every
/// read is aligned with its data.
fn check_grants(d: u32, k: u32, grants: &[(AdmissionGrant, u32, u32)]) {
    let frame = VirtualFrame::new(d, k);
    let horizon: u64 = grants
        .iter()
        .map(|(g, _, _)| g.end_interval)
        .max()
        .unwrap_or(0);
    let mut used = vec![vec![false; (horizon + 1) as usize]; d as usize];
    for (g, start_disk, subobjects) in grants {
        assert_eq!(g.virtual_disks.len(), g.read_start.len());
        for (i, (&v, &t0)) in g.virtual_disks.iter().zip(&g.read_start).enumerate() {
            // Alignment (hiccup-freedom): when this virtual disk reads
            // subobject j of fragment i, it must sit over the physical
            // disk that stores that fragment.
            for j in 0..*subobjects {
                let t = t0 + u64::from(j);
                let expect = (u64::from(*start_disk) + u64::from(j) * u64::from(k % d) + i as u64)
                    % u64::from(d);
                assert_eq!(
                    u64::from(frame.physical(v, t)),
                    expect,
                    "misaligned read: D={d} k={k} v={v} j={j}"
                );
                // Exclusivity: no double-booked (disk, interval).
                let cell = &mut used[v as usize][t as usize];
                assert!(!*cell, "double booking: D={d} k={k} v={v} t={t}");
                *cell = true;
            }
            // Buffering sanity: reads never start after delivery.
            assert!(t0 <= g.delivery_start);
        }
        // Buffer bill matches the definition.
        let bill: u64 = g.read_start.iter().map(|&t| g.delivery_start - t).sum();
        assert_eq!(bill, g.buffer_fragments);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Contiguous admission: granted reads are aligned and exclusive.
    #[test]
    fn contiguous_grants_are_sound((d, k, attempts) in farm_strategy()) {
        let mut sched = IntervalScheduler::new(VirtualFrame::new(d, k));
        let mut grants = Vec::new();
        for (idx, (start, m, n)) in attempts.iter().enumerate() {
            let t = idx as u64; // one attempt per interval
            if let Ok(g) = sched.try_admit(
                t,
                ObjectId(idx as u32),
                *start,
                *m,
                *n,
                AdmissionPolicy::Contiguous,
            ) {
                prop_assert_eq!(g.delivery_start, t);
                prop_assert_eq!(g.buffer_fragments, 0);
                grants.push((g, *start, *n));
            }
        }
        check_grants(d, k, &grants);
    }

    /// Fragmented admission: ditto, plus the policy's caps are honoured.
    #[test]
    fn fragmented_grants_are_sound((d, k, attempts) in farm_strategy()) {
        let policy = AdmissionPolicy::Fragmented {
            max_buffer_fragments: 24,
            max_delay_intervals: 10,
        };
        let mut sched = IntervalScheduler::new(VirtualFrame::new(d, k));
        let mut grants = Vec::new();
        for (idx, (start, m, n)) in attempts.iter().enumerate() {
            let t = (idx as u64) * 2;
            if let Ok(g) = sched.try_admit(t, ObjectId(idx as u32), *start, *m, *n, policy) {
                prop_assert!(g.buffer_fragments <= 24);
                prop_assert!(g.delivery_start <= t + 10);
                prop_assert!(g.read_start.iter().all(|&r| r >= t));
                grants.push((g, *start, *n));
            }
        }
        check_grants(d, k, &grants);
    }

    /// Every mutation keeps the free-horizon index exact: random
    /// interleavings of `try_admit` under both policies, split
    /// `plan` + `commit`, and `set_free_from` on small farms, checked
    /// against brute force after every step.
    #[test]
    fn free_horizon_index_stays_exact(
        d in 1u32..=40,
        k in 0u32..41,
        ops in prop::collection::vec((0u8..4, 0u32..1000, 0u32..1000, 0u32..1000), 1..60),
    ) {
        let mut sched = IntervalScheduler::new(VirtualFrame::new(d, k));
        assert_index_exact(&sched);
        for (step, &(op, a, b, c)) in ops.iter().enumerate() {
            let now = step as u64;
            let start = a % d;
            let degree = 1 + b % d.min(6);
            let subobjects = 1 + c % 30;
            let object = ObjectId(step as u32);
            match op {
                0 => {
                    let _ = sched.try_admit(now, object, start, degree, subobjects, AdmissionPolicy::Contiguous);
                }
                1 => {
                    let policy = AdmissionPolicy::Fragmented {
                        max_buffer_fragments: 24,
                        max_delay_intervals: 10,
                    };
                    let _ = sched.try_admit(now, object, start, degree, subobjects, policy);
                }
                2 => {
                    if let Ok(g) = sched.plan(now, object, start, degree, subobjects, AdmissionPolicy::Contiguous) {
                        sched.commit(now, &g, subobjects);
                    }
                }
                _ => sched.set_free_from(start, u64::from(b % 80)),
            }
            assert_index_exact(&sched);
        }
    }

    /// The frame maps are mutually inverse for every (D, k, t).
    #[test]
    fn frame_inverse(d in 1u32..200, k in 0u32..400, t in 0u64..10_000) {
        let f = VirtualFrame::new(d, k);
        for v in 0..d {
            prop_assert_eq!(f.virtual_of(f.physical(v, t), t), v);
        }
    }

    /// `next_alignment` returns the earliest alignment and never lies.
    #[test]
    fn next_alignment_sound(d in 2u32..30, k in 0u32..30, v in 0u32..30, p in 0u32..30, t0 in 0u64..50) {
        let v = v % d;
        let p = p % d;
        let f = VirtualFrame::new(d, k);
        match f.next_alignment(v, p, t0) {
            Some(t) => {
                prop_assert!(t >= t0);
                prop_assert_eq!(f.physical(v, t), p);
                for earlier in t0..t {
                    prop_assert_ne!(f.physical(v, earlier), p);
                }
            }
            None => {
                // Never aligned within two full rotations => truly unreachable.
                for t in t0..t0 + 2 * u64::from(d) + 2 {
                    prop_assert_ne!(f.physical(v, t), p);
                }
            }
        }
    }
}

/// Admission saturates exactly at the farm's capacity: on an idle farm,
/// D/M simultaneous displays fit and one more is rejected.
#[test]
fn admission_saturates_at_capacity() {
    let mut sched = IntervalScheduler::new(VirtualFrame::new(20, 5));
    for i in 0..4 {
        sched
            .try_admit(0, ObjectId(i), i * 5, 5, 100, AdmissionPolicy::Contiguous)
            .expect("fits");
    }
    assert!(sched
        .try_admit(0, ObjectId(99), 0, 5, 100, AdmissionPolicy::Contiguous)
        .is_err());
    assert_eq!(sched.free_count(0), 0);
    assert!((sched.utilization(0) - 1.0).abs() < 1e-12);
    // After the displays end, everything frees.
    assert_eq!(sched.free_count(100), 20);
}

/// Horizons that repeat across the index's internal block boundaries: a
/// farm several blocks wide whose disks share a handful of values, moved
/// back and forth so blocks split, merge and rebalance, stays exact
/// throughout.
#[test]
fn repeated_horizons_across_blocks_stay_exact() {
    let d = 4 * 1024 + 7;
    let mut sched = IntervalScheduler::new(VirtualFrame::new(d, 1));
    // All zero: one value repeated across every block.
    assert_index_exact(&sched);
    // Bookings past the end fill the last block and open a new one;
    // freeing the latest refills that small block from its full
    // neighbour.
    for v in 0..250 {
        sched.set_free_from(v, 100 + u64::from(v));
    }
    sched.set_free_from(249, 0);
    assert_index_exact(&sched);
    // Ascending bookings, each ending after every other: appends past
    // the last block while the zeros drain from the first.
    for v in 0..d {
        sched.set_free_from(v, 1 + u64::from(v) / 700);
    }
    assert_index_exact(&sched);
    // A striped mix of three values, then every other disk to the
    // middle one.
    for v in 0..d {
        sched.set_free_from(v, [1, 2, 3][(v % 3) as usize]);
    }
    assert_index_exact(&sched);
    for v in (0..d).step_by(2) {
        sched.set_free_from(v, 2);
    }
    assert_index_exact(&sched);
    // Pseudo-random rewrites over four values: heavy split, merge and
    // rebalance churn.
    let mut x = 0x9e37_79b9u32;
    for step in 0..12_000 {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        sched.set_free_from((x >> 8) % d, u64::from(x >> 30));
        if step % 1000 == 0 {
            assert_index_exact(&sched);
        }
    }
    assert_index_exact(&sched);
    // Drain to idle from the top, then from the bottom.
    for v in (0..d).rev() {
        sched.set_free_from(v, u64::from(v % 2) * 9);
    }
    assert_index_exact(&sched);
    for v in 0..d {
        sched.set_free_from(v, 0);
    }
    assert_index_exact(&sched);
}
