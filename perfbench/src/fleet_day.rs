//! `fleet_day`: one cold 1000-node mixed indoor/outdoor fleet per
//! operation — `FleetContext::prepare`, then FOCV on the vectorized
//! engine over one day on the 1-minute grid — each on a distinct seed.

use std::time::Instant;

use eh_env::week;
use eh_fleet::{
    Engine, FleetContext, FleetReport, FleetRunner, FleetSpec, Placement, SurfacePool, TrackerKind,
};
use eh_sim::Mergeable as _;

use crate::golden::{self, Observed};
use crate::stats::{self, rel_err, Outcome};
use crate::trace::{self, Tracer};
use crate::{Run, SIM_WORKERS};

/// The vectorized engine's contract against the per-node oracle:
/// energies within this relative bound.
const CONTRACT_REL: f64 = 1e-9;

/// What set-up leaves for the timed loop.
pub struct Prepared {
    runner: FleetRunner,
}

fn spec(run: &Run, i: u64) -> Result<FleetSpec, String> {
    let nodes = if run.smoke { 64 } else { 1000 };
    FleetSpec::mixed_indoor_outdoor(nodes, run.op_seed(i)).map_err(|e| e.to_string())
}

/// Builds the runner and runs one untimed warm-up fleet.
pub fn setup(run: &Run) -> Result<Prepared, String> {
    let runner = FleetRunner::new(SIM_WORKERS);
    let ctx = FleetContext::prepare(&spec(run, 0)?).map_err(|e| e.to_string())?;
    runner
        .run_engine_prepared(&ctx, TrackerKind::Focv, Engine::Vectorized)
        .map_err(|e| format!("warm-up fleet: {e}"))?;
    Ok(Prepared { runner })
}

/// One operation traced layer by layer: the same public calls the
/// runner makes, one shard at a time, then the in-order merge fold.
fn run_traced(
    ctx: &FleetContext,
    shard_size: usize,
    tracer: &Tracer,
    op: u64,
) -> Result<FleetReport, String> {
    let _run = tracer.enter("fleet.run", op);
    let mut shards = Vec::new();
    for nodes in ctx.population().chunks(shard_size) {
        let report = tracer.span("fleet.shard", op, || {
            ctx.simulate_shard(TrackerKind::Focv, Engine::Vectorized, nodes.to_vec())
        });
        shards.push(report.map_err(|e| e.to_string())?);
    }
    tracer.span("fleet.merge", op, || {
        let mut shards = shards.into_iter();
        let mut merged = shards.next().ok_or("empty fleet")?;
        for s in shards {
            merged.merge(s);
        }
        Ok(merged.with_fleet_counters())
    })
}

/// The parts of `FleetContext::prepare`, called separately: population
/// stamping, one decimated day trace per day kind, surface warming.
fn trace_prepare_parts(spec: &FleetSpec, tracer: &Tracer, op: u64) -> Result<(), String> {
    let _probe = tracer.enter("probe.prepare_parts", op);
    let population = tracer
        .span("fleet.population", op, || spec.population())
        .map_err(|e| e.to_string())?;
    let in_use: Vec<Placement> = Placement::ALL
        .into_iter()
        .filter(|p| population.iter().any(|n| n.placement == *p))
        .collect();
    tracer.span("env.day_trace", op, || {
        let mut kinds = Vec::new();
        for p in &in_use {
            if !kinds.contains(&p.day_kind()) {
                kinds.push(p.day_kind());
                week::day(p.day_kind(), spec.seed)
                    .decimate(spec.trace_decimate)
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok::<(), String>(())
    })?;
    tracer
        .span("pv.surface_warm", op, || {
            SurfacePool::warm(&spec.cell, in_use.iter().copied(), spec.pv_cache)
        })
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// The vectorized contract on the first shard, re-run on the per-node
/// oracle: counts and classifications exact, energies within 1e-9.
fn check_first_shard(ctx: &FleetContext, report: &FleetReport) -> Result<(), String> {
    if report.nodes() != ctx.population().len() {
        return Err(format!(
            "report has {} nodes, fleet {}",
            report.nodes(),
            ctx.population().len()
        ));
    }
    let n = FleetRunner::DEFAULT_SHARD_SIZE.min(ctx.population().len());
    let oracle = ctx
        .simulate_shard(
            TrackerKind::Focv,
            Engine::PerNode,
            ctx.population()[..n].to_vec(),
        )
        .map_err(|e| format!("per-node re-run: {e}"))?;
    for (a, b) in oracle.outcomes.iter().zip(&report.outcomes[..n]) {
        let exact = a.id == b.id
            && a.placement == b.placement
            && a.cold_start_ok == b.cold_start_ok
            && a.report.measurements == b.report.measurements
            && a.report.decisions == b.report.decisions
            && a.browned_out() == b.browned_out()
            && a.report.is_net_positive() == b.report.is_net_positive();
        if !exact {
            return Err(format!(
                "node {} counts or classes differ from per-node",
                a.id
            ));
        }
        let (x, y) = (&a.report, &b.report);
        let energies = [
            (x.gross_energy.value(), y.gross_energy.value()),
            (x.overhead_energy.value(), y.overhead_energy.value()),
            (x.load_demand.value(), y.load_demand.value()),
            (x.load_served.value(), y.load_served.value()),
            (x.loss_energy.value(), y.loss_energy.value()),
            (x.final_store_energy.value(), y.final_store_energy.value()),
            (a.net_energy().value(), b.net_energy().value()),
        ];
        if let Some((p, q)) = energies
            .into_iter()
            .find(|(p, q)| rel_err(*p, *q) > CONTRACT_REL)
        {
            return Err(format!(
                "node {} energy {q} vs per-node {p} beyond rel {CONTRACT_REL}",
                a.id
            ));
        }
    }
    Ok(())
}

fn observed(report: &FleetReport) -> Vec<Observed> {
    let mut obs = vec![
        Observed::count("nodes", report.nodes()),
        Observed::count("brown_outs", report.brown_out_count()),
        Observed::count("cold_start_failures", report.cold_start_failures()),
        Observed::count("net_negative", report.net_negative_count()),
    ];
    for p in Placement::ALL {
        obs.push(Observed::count(
            format!("placed_{}", p.label().replace(' ', "_")),
            report.placement_count(p),
        ));
    }
    if let Some(p) = report.net_energy_percentiles() {
        obs.push(Observed::energy("net_j_p5", p.p5));
        obs.push(Observed::energy("net_j_p50", p.p50));
        obs.push(Observed::energy("net_j_p95", p.p95));
    }
    obs
}

/// The pinned operation, untimed: the first timed fleet of the
/// full-size default-seed run, checked like every operation and compared
/// with `golden.json`.
fn pinned(run: &Run, prepared: &Prepared) -> Result<(), String> {
    let ctx = FleetContext::prepare(&spec(&run.pinned(), 1)?).map_err(|e| e.to_string())?;
    let report = prepared
        .runner
        .run_engine_prepared(&ctx, TrackerKind::Focv, Engine::Vectorized)
        .map_err(|e| e.to_string())?;
    check_first_shard(&ctx, &report)?;
    let obs = observed(&report);
    println!("golden observed fleet_day: {}", golden::render(&obs));
    golden::check("fleet_day", &obs)
}

/// Runs cold fleet days for `run.seconds`.
pub fn measure(run: &Run, prepared: Prepared, tracer: &Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let shard_size = FleetRunner::DEFAULT_SHARD_SIZE;
    let (mut cold, mut warm, mut node_days) = (Vec::new(), Vec::new(), 0.0);
    let mut steps = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < run.seconds {
        i += 1;
        let spec = match spec(run, i) {
            Ok(s) => s,
            Err(e) => {
                outcome.record("cold", Some(e));
                continue;
            }
        };
        // Timed: preparation plus the vectorized day.
        let t0 = Instant::now();
        let result = {
            let _op = tracer.enter("op.cold", i);
            tracer
                .span("fleet.prepare", i, || FleetContext::prepare(&spec))
                .map_err(|e| e.to_string())
                .and_then(|ctx| {
                    let t1 = Instant::now();
                    let report = if tracer.enabled() {
                        run_traced(&ctx, shard_size, tracer, i)
                    } else {
                        prepared
                            .runner
                            .run_engine_prepared(&ctx, TrackerKind::Focv, Engine::Vectorized)
                            .map_err(|e| e.to_string())
                    };
                    report.map(|r| (ctx, r, t1.elapsed().as_secs_f64()))
                })
        };
        let total = t0.elapsed().as_secs_f64();

        // Untimed: output checks and the traced prepare parts.
        let failure = match result {
            Err(e) => Some(e),
            Ok((ctx, report, engine_s)) => {
                cold.push(total);
                warm.push(engine_s);
                node_days += report.nodes() as f64;
                let decisions = report.outcomes.iter().map(|o| o.report.decisions);
                steps.push((i, decisions.sum::<u64>()));
                let mut failure = check_first_shard(&ctx, &report).err();
                if tracer.enabled() {
                    failure = failure.or(trace_prepare_parts(&spec, tracer, i).err());
                }
                failure
            }
        };
        outcome.record("cold", failure);
    }
    outcome.record("golden", pinned(run, &prepared).err());

    let m = &mut outcome.metrics;
    if tracer.enabled() {
        let spans = tracer.spans();
        let per_op: Vec<f64> = steps
            .iter()
            .map(|&(op, n)| {
                let shard_ns: u64 = spans
                    .iter()
                    .filter(|s| s.op == op && s.name == "fleet.shard")
                    .map(trace::Span::duration_ns)
                    .sum();
                shard_ns as f64 / n.max(1) as f64
            })
            .collect();
        let steps_f: Vec<f64> = steps.iter().map(|&(_, n)| n as f64).collect();
        m.put(
            "fleet.node_steps",
            stats::median(&steps_f),
            "count",
            steps.len(),
        );
        m.put(
            "fleet.engine_ns_per_node_step",
            stats::median(&per_op),
            "ns",
            per_op.len(),
        );
    } else {
        stats::put_prepared_runs(m, &cold, &warm, node_days);
    }
    outcome.samples.insert("cold_s", cold);
    outcome.samples.insert("warm_s", warm);
    outcome
}
