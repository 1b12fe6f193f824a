//! Bounded-divergence contract of the wide-lane vectorized engine.
//!
//! The vectorized engine is **not** bit-identical to the per-node
//! oracle — its strength reductions (cursored PV reads, energy-domain
//! supercap, prefix-sum load profile) reassociate a handful of float
//! operations. These tests pin the contract it holds instead
//! (`DESIGN.md` §10):
//!
//! 1. Pulse/measurement/decision counts and outcome classifications
//!    (brown-out, cold-start failure, net-negative) are **exactly**
//!    equal to the oracle's.
//! 2. Per-node energy totals agree to **rel 1e-9**.
//! 3. The engine is **bit-identical to itself** across seeds × worker
//!    counts {1, 2, 4} × shard sizes {1, 32, 257}.
//! 4. Everything without a wide lane (other trackers, `pv_cache:
//!    false`) delegates to the per-node oracle and stays bit-identical
//!    to it, across the same seed × worker × shard matrix.

use eh_fleet::{
    compare_trackers_over_fleet, Engine, FleetContext, FleetReport, FleetRunner, FleetSpec,
    TrackerKind,
};
use eh_units::Seconds;

/// A fast, fully heterogeneous spec: every placement, 10-minute light
/// grid, 10-minute step.
fn spec(nodes: u32, seed: u64) -> FleetSpec {
    let mut spec = FleetSpec::mixed_indoor_outdoor(nodes, seed).unwrap();
    spec.trace_decimate = 600;
    spec.dt = Seconds::new(600.0);
    spec
}

/// Runs `kind` over the prepared fleet through `engine`.
fn run(runner: FleetRunner, ctx: &FleetContext, kind: TrackerKind, engine: Engine) -> FleetReport {
    runner.run_engine_prepared(ctx, kind, engine).unwrap()
}

/// FOCV on the per-node oracle.
fn oracle(runner: FleetRunner, ctx: &FleetContext) -> FleetReport {
    run(runner, ctx, TrackerKind::Focv, Engine::PerNode)
}

/// FOCV on the vectorized engine.
fn vectorized(runner: FleetRunner, ctx: &FleetContext) -> FleetReport {
    run(runner, ctx, TrackerKind::Focv, Engine::Vectorized)
}

/// Relative disagreement with an absolute floor well below any energy
/// this scenario moves (loads draw millijoules per cycle; traces run a
/// full day).
fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-12)
}

/// The per-node divergence budget of the contract.
const NET_ENERGY_REL: f64 = 1e-9;

fn assert_contract(reference: &FleetReport, candidate: &FleetReport, what: &str) {
    assert_eq!(
        reference.outcomes.len(),
        candidate.outcomes.len(),
        "{what}: node count diverged"
    );
    for (a, b) in reference.outcomes.iter().zip(&candidate.outcomes) {
        assert_eq!(a.id, b.id, "{what}: fleet order diverged");
        assert_eq!(a.placement, b.placement, "{what}: node {} placement", a.id);
        // Exact clauses: counts and classifications.
        assert_eq!(
            a.cold_start_ok, b.cold_start_ok,
            "{what}: node {} cold-start classification",
            a.id
        );
        assert_eq!(
            a.report.measurements, b.report.measurements,
            "{what}: node {} measurement count",
            a.id
        );
        assert_eq!(
            a.report.decisions, b.report.decisions,
            "{what}: node {} decision count",
            a.id
        );
        assert_eq!(
            a.browned_out(),
            b.browned_out(),
            "{what}: node {} brown-out classification",
            a.id
        );
        assert_eq!(
            a.report.is_net_positive(),
            b.report.is_net_positive(),
            "{what}: node {} net-positive classification",
            a.id
        );
        assert_eq!(a.report.tracker, b.report.tracker, "{what}: tracker name");
        assert_eq!(
            a.report.duration.value().to_bits(),
            b.report.duration.value().to_bits(),
            "{what}: node {} duration must be exact",
            a.id
        );
        // Bounded clauses: every energy total within rel 1e-9.
        for (label, x, y) in [
            ("net", a.net_energy().value(), b.net_energy().value()),
            (
                "gross",
                a.report.gross_energy.value(),
                b.report.gross_energy.value(),
            ),
            (
                "overhead",
                a.report.overhead_energy.value(),
                b.report.overhead_energy.value(),
            ),
            (
                "load_demand",
                a.report.load_demand.value(),
                b.report.load_demand.value(),
            ),
            (
                "load_served",
                a.report.load_served.value(),
                b.report.load_served.value(),
            ),
            (
                "loss",
                a.report.loss_energy.value(),
                b.report.loss_energy.value(),
            ),
            (
                "compute",
                a.report.compute_energy.value(),
                b.report.compute_energy.value(),
            ),
            (
                "final_store",
                a.report.final_store_energy.value(),
                b.report.final_store_energy.value(),
            ),
        ] {
            let rel = rel_err(x, y);
            assert!(
                rel <= NET_ENERGY_REL,
                "{what}: node {} {label} energy diverged by rel {rel:.3e} ({x} vs {y})",
                a.id
            );
        }
    }
    // Fleet-level classifications follow from the per-node ones, but
    // assert them anyway — they are what campaign gates consume.
    assert_eq!(reference.brown_out_count(), candidate.brown_out_count());
    assert_eq!(
        reference.cold_start_failures(),
        candidate.cold_start_failures()
    );
    assert_eq!(
        reference.net_negative_count(),
        candidate.net_negative_count()
    );
}

#[test]
fn vectorized_holds_the_contract_against_the_oracle_across_seeds() {
    for seed in [2011_u64, 7, 404] {
        let spec = spec(24, seed);
        let ctx = FleetContext::prepare(&spec).unwrap();
        let reference = oracle(FleetRunner::new(1), &ctx);
        let candidate = vectorized(FleetRunner::new(2), &ctx);
        assert_contract(&reference, &candidate, &format!("seed {seed}"));
    }
}

#[test]
fn vectorized_is_bit_identical_to_itself_across_workers_and_shards() {
    for seed in [2011_u64, 7, 404] {
        let spec = spec(24, seed);
        let ctx = FleetContext::prepare(&spec).unwrap();
        let reference = vectorized(FleetRunner::new(1), &ctx);
        for workers in [1_usize, 2, 4] {
            for shard_size in [1_usize, 32, 257] {
                let runner = FleetRunner::new(workers).with_shard_size(shard_size);
                let candidate = vectorized(runner, &ctx);
                assert_eq!(
                    reference, candidate,
                    "seed {seed}: vectorized run diverged from itself at \
                     {workers} workers, shard {shard_size}"
                );
            }
        }
    }
}

#[test]
fn obs_metric_stores_hold_the_contract_at_every_shard_size() {
    let mut spec = spec(24, 2011);
    spec.obs = true;
    let ctx = FleetContext::prepare(&spec).unwrap();
    // The fleet-level metric fold groups per-shard partial sums, so the
    // merged floats are comparable across runs only at equal shard size
    // (the outcomes themselves are shard-size-invariant either way).
    for shard_size in [1_usize, 8, 32] {
        let runner = FleetRunner::new(2).with_shard_size(shard_size);
        let per_node = oracle(runner, &ctx);
        let candidate = vectorized(runner, &ctx);
        let what = format!("obs fleet, shard {shard_size}");
        assert_contract(&per_node, &candidate, &what);
        let a = per_node.metrics.as_ref().expect("obs run carries metrics");
        let b = candidate.metrics.as_ref().expect("obs run carries metrics");
        // Counter sums are integers, so the exact-count clause extends
        // to the merged metric store verbatim.
        for name in [
            "engine.steps",
            "engine.dwell_steps",
            "node.measurements",
            "tracker.decisions",
            "tracker.ops",
            "converter.transfer_steps",
            "fleet.nodes",
        ] {
            assert_eq!(
                a.counter(name),
                b.counter(name),
                "{what}: fleet counter {name} diverged"
            );
        }
        // Span counts are exact too; their accumulated times are
        // energies of the same bounded-divergence class as the rest.
        for name in [
            "engine.drive",
            "engine.dwell",
            "node.harvesting",
            "node.measuring",
        ] {
            let sa = a.span_stats(name).expect("oracle records span");
            let sb = b.span_stats(name).expect("vectorized records span");
            assert_eq!(sa.count, sb.count, "{what}: span {name} count diverged");
            assert!(
                rel_err(sa.sim_time().value(), sb.sim_time().value()) <= NET_ENERGY_REL,
                "{what}: span {name} time diverged"
            );
        }
        // Both engines' merged stores are worker-invariant at equal
        // shard size.
        let one = FleetRunner::new(1).with_shard_size(shard_size);
        let four = FleetRunner::new(4).with_shard_size(shard_size);
        assert_eq!(oracle(one, &ctx), oracle(four, &ctx), "{what}: per-node");
        assert_eq!(candidate, vectorized(one, &ctx), "{what}: vectorized");
        // A tracker without a wide lane carries the oracle's store bit
        // for bit.
        let kind = TrackerKind::VariableHoldFocv;
        let delegated = run(runner, &ctx, kind, Engine::Vectorized);
        assert_eq!(
            run(runner, &ctx, kind, Engine::PerNode),
            delegated,
            "{what}: delegated obs store"
        );
        assert!(delegated.metrics.is_some(), "obs run must carry metrics");
    }
}

#[test]
fn every_tracker_kind_holds_its_contract() {
    let spec = spec(8, 99);
    let ctx = FleetContext::prepare(&spec).unwrap();
    let runner = FleetRunner::new(2).with_shard_size(3);
    for &kind in &TrackerKind::ALL {
        let per_node = run(runner, &ctx, kind, Engine::PerNode);
        let candidate = run(runner, &ctx, kind, Engine::Vectorized);
        if kind == TrackerKind::Focv {
            assert_contract(&per_node, &candidate, kind.label());
        } else {
            assert_eq!(
                per_node,
                candidate,
                "{}: delegation lane must stay bit-identical",
                kind.label()
            );
        }
    }
}

#[test]
fn adaptive_trackers_delegate_bit_identically_across_seeds_workers_and_shards() {
    // The three adaptive trackers have no wide lane; the vectorized
    // engine hands them to the per-node fold, which must reproduce the
    // single-worker oracle across the full seed × worker × shard matrix.
    let kinds = [
        TrackerKind::VariableHoldFocv,
        TrackerKind::AdaptiveKFocv,
        TrackerKind::GradientDescent,
    ];
    for seed in [2011_u64, 7, 404] {
        let ctx = FleetContext::prepare(&spec(12, seed)).unwrap();
        for &kind in &kinds {
            let reference = run(FleetRunner::new(1), &ctx, kind, Engine::PerNode);
            for workers in [1_usize, 2, 4] {
                for shard_size in [1_usize, 32, 257] {
                    let runner = FleetRunner::new(workers).with_shard_size(shard_size);
                    assert_eq!(
                        reference,
                        run(runner, &ctx, kind, Engine::Vectorized),
                        "{}, seed {seed}, {workers} workers, shard {shard_size}",
                        kind.label()
                    );
                }
            }
        }
    }
}

#[test]
fn uncached_fleets_delegate_and_stay_bit_identical() {
    let mut spec = spec(12, 7);
    spec.pv_cache = false;
    let ctx = FleetContext::prepare(&spec).unwrap();
    let runner = FleetRunner::new(2);
    assert_eq!(
        oracle(runner, &ctx),
        vectorized(runner, &ctx),
        "pv_cache: false has no cursor to reuse — must delegate to per-node"
    );
}

#[test]
fn engine_aware_comparison_matrix_honours_the_contract() {
    let spec = spec(6, 5);
    let runner = FleetRunner::new(2);
    let per_node = compare_trackers_over_fleet(&spec, &runner, Engine::PerNode).unwrap();
    let vectorized = compare_trackers_over_fleet(&spec, &runner, Engine::Vectorized).unwrap();
    assert_eq!(per_node.len(), TrackerKind::ALL.len());
    assert_eq!(per_node.len(), vectorized.len());
    for ((kind_a, report_a), (kind_b, report_b)) in per_node.iter().zip(&vectorized) {
        assert_eq!(kind_a, kind_b);
        if *kind_a == TrackerKind::Focv {
            assert_contract(report_a, report_b, kind_a.label());
        } else {
            assert_eq!(report_a, report_b, "{}: delegation lane", kind_a.label());
        }
    }
}
