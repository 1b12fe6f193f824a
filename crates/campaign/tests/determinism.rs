//! Campaign determinism contract, mirroring the fleet layer's
//! `determinism` suite: a [`CampaignReport`] is a pure function
//! of the spec — bit-identical across worker counts and shard sizes —
//! and prefix-stable in fleet size, because every per-node input
//! stream (population, schedules, weather) is order-pinned.

use eh_campaign::{CampaignContext, CampaignReport, CampaignRunner, CampaignSpec};
use eh_units::Seconds;
use proptest::prelude::*;

/// A fast campaign: a handful of nodes, two short epochs, 30-minute
/// step. Small enough for proptest, heterogeneous enough to exercise
/// drift, weather and (at the reference probability) faults.
fn tiny_spec(nodes: u32, seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::smoke(seed);
    spec.nodes = nodes;
    spec.days = 8;
    spec.epoch_days = 4;
    spec.dt = Seconds::new(1800.0);
    spec
}

fn assert_reports_identical(a: &CampaignReport, b: &CampaignReport, what: &str) {
    assert_eq!(a.outcomes.len(), b.outcomes.len(), "{what}: node count");
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x, y, "{what}: node {} diverged", x.id);
    }
    assert_eq!(a, b, "{what}: aggregate diverged");
}

#[test]
fn report_is_bit_identical_across_workers_and_shard_sizes() {
    for seed in [2011_u64, 7] {
        let ctx = CampaignContext::prepare(&tiny_spec(12, seed)).unwrap();
        let reference = CampaignRunner::new(1).run_prepared(&ctx).unwrap();
        for workers in [1_usize, 2, 4] {
            for shard_size in [1_usize, 5, 32] {
                let candidate = CampaignRunner::new(workers)
                    .with_shard_size(shard_size)
                    .run_prepared(&ctx)
                    .unwrap();
                assert_reports_identical(
                    &reference,
                    &candidate,
                    &format!("seed {seed}, {workers} workers, shard {shard_size}"),
                );
            }
        }
    }
}

#[test]
fn report_is_prefix_stable_in_fleet_size() {
    // The first 8 nodes of a 20-node campaign are exactly the 8-node
    // campaign: population (9 draws/node), schedules (6 draws/node) and
    // weather (1 draw/day, node-independent) are all order-pinned.
    let small = CampaignRunner::new(2).run(&tiny_spec(8, 42)).unwrap();
    let large = CampaignRunner::new(2).run(&tiny_spec(20, 42)).unwrap();
    assert_eq!(small.outcomes[..], large.outcomes[..8]);
}

#[test]
fn rerunning_a_prepared_context_is_idempotent() {
    let ctx = CampaignContext::prepare(&tiny_spec(6, 99)).unwrap();
    let a = CampaignRunner::new(3).run_prepared(&ctx).unwrap();
    let b = CampaignRunner::new(3).run_prepared(&ctx).unwrap();
    assert_reports_identical(&a, &b, "rerun");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any seed and any worker/shard pairing, the campaign report
    /// matches the single-worker reference bit for bit.
    #[test]
    fn any_seed_any_sharding_is_bit_identical(
        seed in 0..u64::MAX,
        workers in 1..5usize,
        shard_size in 1..40usize,
    ) {
        let ctx = CampaignContext::prepare(&tiny_spec(6, seed)).expect("prepare");
        let reference = CampaignRunner::new(1).run_prepared(&ctx).expect("reference");
        let candidate = CampaignRunner::new(workers)
            .with_shard_size(shard_size)
            .run_prepared(&ctx)
            .expect("candidate");
        prop_assert_eq!(&reference, &candidate);
    }

    /// Prefix stability holds for any seed and any fleet-size pair.
    #[test]
    fn any_seed_is_prefix_stable(seed in 0..u64::MAX, extra in 1..12u32) {
        let small = CampaignRunner::new(2).run(&tiny_spec(4, seed)).expect("small");
        let large = CampaignRunner::new(2)
            .run(&tiny_spec(4 + extra, seed))
            .expect("large");
        prop_assert_eq!(&small.outcomes[..], &large.outcomes[..4]);
    }
}
