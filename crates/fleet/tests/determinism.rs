//! The fleet determinism contract: one spec, one result — bit for bit —
//! regardless of how the work was parallelised.

use eh_fleet::{Engine, FleetContext, FleetReport, FleetRunner, FleetSpec, TrackerKind};
use eh_units::Seconds;

/// A mixed fleet on a coarse grid: big enough that shards actually
/// interleave across workers (200 nodes over 32-node shards), coarse
/// enough to keep the 4-runner comparison fast in a debug test run.
fn spec() -> FleetSpec {
    small_spec(200, 2011)
}

/// A fully heterogeneous spec: every placement, 10-minute light grid,
/// 10-minute step.
fn small_spec(nodes: u32, seed: u64) -> FleetSpec {
    let mut spec = FleetSpec::mixed_indoor_outdoor(nodes, seed).unwrap();
    spec.trace_decimate = 600;
    spec.dt = Seconds::new(600.0);
    spec
}

/// The FOCV fleet on the per-node oracle.
fn run(runner: FleetRunner, spec: &FleetSpec) -> FleetReport {
    runner
        .run_engine(spec, TrackerKind::Focv, Engine::PerNode)
        .unwrap()
}

#[test]
fn report_is_bit_identical_across_worker_counts() {
    let spec = spec();
    let reference = run(FleetRunner::new(1), &spec);
    assert_eq!(reference.nodes(), 200);
    for workers in [2, 4, 16] {
        let report = run(FleetRunner::new(workers), &spec);
        // PartialEq compares every f64 of every node report: this is
        // bit-identity, not tolerance.
        assert_eq!(report, reference, "{workers} workers diverged");
    }
}

#[test]
fn report_is_bit_identical_across_shard_sizes() {
    let spec = spec();
    let reference = run(FleetRunner::new(4).with_shard_size(1), &spec);
    for shard in [7, 32, 1000] {
        let report = run(FleetRunner::new(4).with_shard_size(shard), &spec);
        assert_eq!(report, reference, "shard size {shard} diverged");
    }
}

#[test]
fn report_is_bit_identical_across_seeds_workers_and_shards() {
    // Every outcome, in fleet order, and the fleet aggregate: down to
    // the last ULP of any energy total, at every worker count and
    // shard size, for several populations.
    for seed in [2011_u64, 7, 404] {
        let ctx = FleetContext::prepare(&small_spec(24, seed)).unwrap();
        let reference = FleetRunner::new(1)
            .run_engine_prepared(&ctx, TrackerKind::Focv, Engine::PerNode)
            .unwrap();
        for workers in [1_usize, 2, 4] {
            for shard_size in [1_usize, 32, 257] {
                let report = FleetRunner::new(workers)
                    .with_shard_size(shard_size)
                    .run_engine_prepared(&ctx, TrackerKind::Focv, Engine::PerNode)
                    .unwrap();
                let what = format!("seed {seed}, {workers} workers, shard {shard_size}");
                for (a, b) in reference.outcomes.iter().zip(&report.outcomes) {
                    assert_eq!(a, b, "{what}: node {} diverged", a.id);
                }
                assert_eq!(report, reference, "{what}: fleet aggregate diverged");
            }
        }
    }
}

#[test]
fn derived_statistics_inherit_the_determinism() {
    let spec = spec();
    let a = run(FleetRunner::new(1), &spec);
    let b = run(FleetRunner::new(16), &spec);
    assert_eq!(a.net_energy_percentiles(), b.net_energy_percentiles());
    assert_eq!(a.overhead_percentiles(), b.overhead_percentiles());
    assert_eq!(a.brown_out_count(), b.brown_out_count());
    assert_eq!(a.cold_start_failures(), b.cold_start_failures());
    assert_eq!(a.worst_node().map(|w| w.id), b.worst_node().map(|w| w.id));
}

#[test]
fn baseline_replay_is_deterministic_too() {
    // The comparison path shares the runner machinery; spot-check one
    // baseline kind rather than all eleven.
    let mut spec = spec();
    spec.nodes = 40;
    let run = |workers| {
        FleetRunner::new(workers)
            .run_engine(&spec, TrackerKind::FixedVoltage, Engine::PerNode)
            .unwrap()
    };
    assert_eq!(run(1), run(4));
}

#[test]
fn population_path_is_prefix_stable_on_both_engines() {
    // Growing the fleet appends nodes; the existing prefix re-simulates
    // to the exact same outcomes on either engine (the vectorized engine
    // is bit-identical to itself, whatever its pack membership).
    let runner = FleetRunner::new(2);
    for engine in Engine::ALL {
        let run = |nodes| {
            runner
                .run_engine(&small_spec(nodes, 2011), TrackerKind::Focv, engine)
                .unwrap()
        };
        let small = run(12);
        let large = run(36);
        assert_eq!(small.outcomes.len(), 12);
        assert_eq!(
            small.outcomes.as_slice(),
            &large.outcomes[..12],
            "{engine}: prefix outcomes diverged when the fleet grew"
        );
    }
}

#[test]
fn different_seeds_produce_different_fleets() {
    let mut a_spec = spec();
    a_spec.nodes = 40;
    let mut b_spec = a_spec.clone();
    b_spec.seed = a_spec.seed + 1;
    let a = run(FleetRunner::new(2), &a_spec);
    let b = run(FleetRunner::new(2), &b_spec);
    assert_ne!(a, b, "the seed must actually steer the population");
}
