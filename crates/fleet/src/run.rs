//! The sharded fleet runner.
//!
//! ```text
//! FleetSpec ──FleetContext::prepare──▶ population + traces + pool
//!                                              │ shards
//!     TrackerKind, Engine ──▶ FleetContext::simulate_shard ──▶ SweepRunner::run_shards
//!                              ├─ per-node oracle                  │ fold
//!                              └─ vectorized lane packs            ▼
//!                       FleetReport ◀──merge in shard index order
//! ```
//!
//! Each worker claims a contiguous shard of nodes, simulates it against
//! its placement's shared base trace (perturbed per node) and the shared
//! warmed PV surface, and folds the single-node reports locally; the
//! per-shard aggregates merge in shard index order. The result is
//! bit-for-bit identical at any worker count.
//!
//! Two engines execute a shard: the per-node oracle (one boxed tracker
//! and store per node, the reference semantics) and the wide-lane
//! vectorized engine in [`crate::vectorized`], which trades
//! bit-identity for a bounded-divergence contract and roughly twice the
//! oracle's step throughput on FOCV fleets.
//!
//! Endurance campaigns run through the same fold: each epoch hands its
//! drifted, faulted and worn node specs to [`FleetRunner::run_nodes`].

use eh_sim::SweepRunner;

use crate::compare::TrackerKind;
use crate::context::FleetContext;
use crate::error::FleetError;
use crate::population::NodeSpec;
use crate::report::FleetReport;
use crate::spec::FleetSpec;

/// Which shard-execution engine a fleet run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Engine {
    /// The reference engine: one boxed tracker, store and simulation
    /// per node. Slow but maximally simple — the oracle the vectorized
    /// engine is equivalence-tested against.
    PerNode,
    /// The wide-lane vectorized engine ([`crate::vectorized`]): lane
    /// packs step in lockstep with strength-reduced physics (incremental
    /// load phase, energy-domain supercap, cursored PV reads). Not
    /// bit-identical to the oracle — counts and classifications are
    /// exact, energies agree to rel 1e-9, and the engine is
    /// bit-identical to itself at any worker count and shard size.
    /// Only FOCV on a `pv_cache` fleet has a wide lane; every other
    /// run delegates to the per-node oracle and stays bit-identical.
    Vectorized,
}

impl Engine {
    /// Every engine, reference first.
    pub const ALL: [Engine; 2] = [Engine::PerNode, Engine::Vectorized];

    /// Stable label for reports and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            Engine::PerNode => "per-node",
            Engine::Vectorized => "vectorized",
        }
    }

    /// Parses a CLI/env spelling (`per-node`, `per_node`, `vectorized`,
    /// ...). `batch`/`batched` name the retired batch engine, which was
    /// bit-identical to the oracle, so they parse as
    /// [`Engine::PerNode`].
    pub fn parse(s: &str) -> Option<Engine> {
        match s.trim().to_ascii_lowercase().as_str() {
            "per-node" | "per_node" | "pernode" | "node" | "oracle" => Some(Engine::PerNode),
            "batch" | "batched" => Some(Engine::PerNode),
            "vectorized" | "vector" | "wide" | "lanes" => Some(Engine::Vectorized),
            _ => None,
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Runs fleets: a [`SweepRunner`] worker pool plus a shard size.
///
/// The shard size trades scheduling overhead against load balance; it
/// never affects the per-node outcomes (see
/// [`SweepRunner::run_shards`]'s order contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetRunner {
    runner: SweepRunner,
    shard_size: usize,
}

impl FleetRunner {
    /// Default nodes per shard.
    pub const DEFAULT_SHARD_SIZE: usize = 32;

    /// A runner with a fixed worker count (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Self {
            runner: SweepRunner::new(workers),
            shard_size: Self::DEFAULT_SHARD_SIZE,
        }
    }

    /// A runner sized to the machine's available parallelism.
    pub fn auto() -> Self {
        Self {
            runner: SweepRunner::auto(),
            shard_size: Self::DEFAULT_SHARD_SIZE,
        }
    }

    /// Overrides the shard size (clamped to at least 1).
    #[must_use]
    pub fn with_shard_size(mut self, shard_size: usize) -> Self {
        self.shard_size = shard_size.max(1);
        self
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.runner.workers()
    }

    /// The nodes-per-shard granularity.
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// Runs `spec` under `kind` through `engine`, preparing the shared
    /// inputs first — the convenience spelling of
    /// [`FleetRunner::run_engine_prepared`].
    ///
    /// # Errors
    ///
    /// Propagates spec validation and simulation errors; on multiple
    /// node failures the first in fleet order is returned.
    pub fn run_engine(
        &self,
        spec: &FleetSpec,
        kind: TrackerKind,
        engine: Engine,
    ) -> Result<FleetReport, FleetError> {
        self.run_engine_prepared(&FleetContext::prepare(spec)?, kind, engine)
    }

    /// Runs the prepared fleet under `kind` through `engine`: every
    /// shard goes through [`FleetContext::simulate_shard`], and the
    /// shard reports fold in shard index order.
    ///
    /// # Errors
    ///
    /// As [`FleetRunner::run_engine`].
    pub fn run_engine_prepared(
        &self,
        ctx: &FleetContext,
        kind: TrackerKind,
        engine: Engine,
    ) -> Result<FleetReport, FleetError> {
        let report = self.run_nodes(ctx, kind, engine, ctx.population().to_vec())?;
        // Fleet-scope counters are folded after the merge so they are
        // recorded exactly once regardless of sharding or engine.
        Ok(report.with_fleet_counters())
    }

    /// The shard fold behind every run: `nodes` are cut into contiguous
    /// shards of [`FleetRunner::shard_size`], each shard runs through
    /// [`FleetContext::simulate_shard`] against `ctx`'s shared traces
    /// and surfaces, and the shard reports fold in shard index order.
    ///
    /// `nodes` need not be `ctx`'s own population: an endurance campaign
    /// passes each epoch's drifted, faulted and store-carrying specs of
    /// the same nodes. Fleet-scope counters are not stamped
    /// ([`FleetReport::with_fleet_counters`] is the caller's).
    ///
    /// # Errors
    ///
    /// The first failing node in `nodes` order;
    /// [`FleetError::EmptyFleet`] for empty `nodes`.
    pub fn run_nodes(
        &self,
        ctx: &FleetContext,
        kind: TrackerKind,
        engine: Engine,
        nodes: Vec<NodeSpec>,
    ) -> Result<FleetReport, FleetError> {
        merged_or_empty(self.runner.run_shards(nodes, self.shard_size, |_, shard| {
            ctx.simulate_shard(kind, engine, shard)
        })?)
    }
}

/// Lifts an optional merge result into a [`FleetError`]: a run that
/// produced no aggregate (zero nodes, or every shard dropped before
/// yielding one) is an [`FleetError::EmptyFleet`], not a panic.
pub(crate) fn merged_or_empty<T>(merged: Option<Result<T, FleetError>>) -> Result<T, FleetError> {
    merged.ok_or(FleetError::EmptyFleet)?
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Placement, Tolerances};
    use eh_units::Seconds;

    /// A small fleet that still exercises every placement, sized so the
    /// test-suite run stays fast: 10-minute trace grid, 10-minute step.
    fn small_spec() -> FleetSpec {
        let mut spec = FleetSpec::mixed_indoor_outdoor(24, 2011).unwrap();
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
    fn fleet_runs_and_aggregates_every_node() {
        let report = run(FleetRunner::new(2), &small_spec());
        assert_eq!(report.nodes(), 24);
        assert!(report.net_energy_percentiles().is_some());
        assert!(report.worst_node().is_some());
        let placed: usize = Placement::ALL
            .iter()
            .map(|&p| report.placement_count(p))
            .sum();
        assert_eq!(placed, 24);
    }

    #[test]
    fn empty_merge_is_an_error_not_a_panic() {
        // Regression: both engine paths used to `.expect` on the merged
        // shard fold, so a fleet that produced no outcomes panicked
        // instead of erroring.
        let lifted: Result<FleetReport, FleetError> = merged_or_empty(None);
        assert!(matches!(lifted, Err(FleetError::EmptyFleet)));
        let passthrough = merged_or_empty(Some(Err::<FleetReport, _>(FleetError::EmptyFleet)));
        assert!(passthrough.is_err());
    }

    #[test]
    fn heterogeneity_spreads_the_outcomes() {
        let report = run(FleetRunner::new(1), &small_spec());
        let p = report
            .net_energy_percentiles()
            .expect("non-empty fleet has percentiles");
        assert!(
            p.p95 > p.p5,
            "a toleranced fleet must not collapse to one outcome: {p:?}"
        );
    }

    #[test]
    fn zero_tolerance_single_placement_fleet_collapses() {
        let mut spec = small_spec();
        spec.tolerances = Tolerances::none();
        spec.placements = crate::PlacementMix::new(0.0, 1.0, 0.0).unwrap();
        let report = run(FleetRunner::new(2), &spec);
        let p = report
            .net_energy_percentiles()
            .expect("non-empty fleet has percentiles");
        // Identical hardware and identical light: only the power-up
        // phase differs, which perturbs day-scale energy marginally.
        let spread = (p.p95 - p.p5).abs();
        let scale = p.p50.abs().max(1e-12);
        assert!(
            spread / scale < 0.05,
            "golden fleet spread {spread:.3e} vs median {scale:.3e}"
        );
    }

    #[test]
    fn obs_fleet_metrics_merge_worker_invariant_and_conserve() {
        let mut spec = small_spec();
        spec.obs = true;
        let one = run(FleetRunner::new(1), &spec);
        let two = run(FleetRunner::new(2), &spec);
        let m = one
            .metrics
            .as_ref()
            .expect("obs spec carries a fleet store");
        assert_eq!(
            one.metrics, two.metrics,
            "merged metrics depend on worker count"
        );
        assert_eq!(m.counter("fleet.nodes"), 24);
        assert_eq!(
            m.counter("node.measurements"),
            one.outcomes
                .iter()
                .map(|o| o.report.measurements)
                .sum::<u64>()
        );
        // The fleet ledger must balance the summed closed-loop node
        // accounting: overhead + conversion losses + load served +
        // control-law compute.
        let closed_loop: f64 = one
            .outcomes
            .iter()
            .map(|o| {
                o.report.overhead_energy.value()
                    + o.report.loss_energy.value()
                    + o.report.load_served.value()
                    + o.report.compute_energy.value()
            })
            .sum();
        let rel = m
            .ledger()
            .relative_error(eh_units::Joules::new(closed_loop));
        assert!(
            rel < 1e-9,
            "fleet ledger drifts from closed loop: {rel:.3e}"
        );
        // Per-node reports stay lean: every store was hoisted out.
        assert!(one.outcomes.iter().all(|o| o.report.metrics.is_none()));
    }

    #[test]
    fn oracle_fleet_dominates_focv_fleet() {
        let spec = small_spec();
        let runner = FleetRunner::new(2);
        let focv = run(runner, &spec);
        let oracle = runner
            .run_engine(&spec, TrackerKind::Oracle, Engine::PerNode)
            .unwrap();
        let net = |r: &FleetReport| {
            r.net_energy_percentiles()
                .expect("non-empty fleet has percentiles")
                .p50
        };
        assert!(net(&oracle) >= net(&focv));
    }

    #[test]
    fn prepared_runs_match_unprepared_runs() {
        let spec = small_spec();
        let runner = FleetRunner::new(1);
        let ctx = FleetContext::prepare(&spec).unwrap();
        for engine in Engine::ALL {
            assert_eq!(
                runner
                    .run_engine_prepared(&ctx, TrackerKind::Focv, engine)
                    .unwrap(),
                runner.run_engine(&spec, TrackerKind::Focv, engine).unwrap(),
                "{engine}"
            );
        }
    }

    #[test]
    fn engine_labels_parse_and_dispatch() {
        assert_eq!(Engine::parse("per-node"), Some(Engine::PerNode));
        assert_eq!(Engine::parse("PER_NODE"), Some(Engine::PerNode));
        assert_eq!(Engine::parse("warp"), None);
        assert_eq!(Engine::parse("vectorized"), Some(Engine::Vectorized));
        // The retired batch engine was bit-identical to the oracle, so
        // its spellings keep meaning exactly that.
        assert_eq!(Engine::parse("batch"), Some(Engine::PerNode));
        assert_eq!(Engine::parse("Batched"), Some(Engine::PerNode));
        for engine in Engine::ALL {
            assert_eq!(Engine::parse(engine.label()), Some(engine));
            assert_eq!(engine.to_string(), engine.label());
        }
        // The vectorized engine is not bit-identical (bounded-divergence
        // contract, pinned by the vectorized_equivalence suite), but it
        // must dispatch and cover the same fleet.
        let vectorized = FleetRunner::new(1)
            .run_engine(&small_spec(), TrackerKind::Focv, Engine::Vectorized)
            .unwrap();
        assert_eq!(vectorized.nodes(), 24);
    }
}
