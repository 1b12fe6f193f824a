//! `campaign_endurance`: one `CampaignSpec::reference` campaign per
//! operation — 730 days in 73-day epochs, seasonal sky, Markov weather,
//! drift and faults, default engine — through `CampaignContext::prepare`
//! and `CampaignRunner::run_prepared`.

use std::time::Instant;

use eh_campaign::environment::epoch_traces;
use eh_campaign::run::WEATHER_SALT;
use eh_campaign::{CampaignContext, CampaignReport, CampaignRunner, CampaignSpec};
use eh_fleet::{FleetSpec, Placement, SurfacePool};

use crate::golden::{self, Observed};
use crate::stats::Outcome;
use crate::trace::Tracer;
use crate::{Run, SIM_WORKERS};

/// What set-up leaves for the timed loop.
pub struct Prepared {
    runner: CampaignRunner,
}

fn spec(run: &Run, i: u64) -> CampaignSpec {
    if run.smoke {
        let mut s = CampaignSpec::reference(6, run.op_seed(i));
        s.days = 146;
        s
    } else {
        CampaignSpec::reference(30, run.op_seed(i))
    }
}

/// Builds the runner and runs one untimed warm-up campaign.
pub fn setup(run: &Run) -> Result<Prepared, String> {
    let runner = CampaignRunner::new(SIM_WORKERS);
    runner
        .run(&spec(run, 0))
        .map_err(|e| format!("warm-up campaign: {e}"))?;
    Ok(Prepared { runner })
}

/// The parts of `CampaignContext::prepare`, called separately: the
/// weather chain, every epoch's traces and the surface pool.
fn trace_prepare_parts(spec: &CampaignSpec, tracer: &Tracer, op: u64) -> Result<(), String> {
    let _probe = tracer.enter("probe.prepare_parts", op);
    let fleet =
        FleetSpec::mixed_indoor_outdoor(spec.nodes, spec.seed).map_err(|e| e.to_string())?;
    let population = fleet.population().map_err(|e| e.to_string())?;
    let mut in_use = [false; 3];
    for node in &population {
        in_use[node.placement.index()] = true;
    }
    let attenuations = tracer.span("env.weather", op, || {
        let mut weather = spec
            .climate
            .weather(spec.seed ^ WEATHER_SALT)
            .map_err(|e| e.to_string())?;
        Ok::<_, String>(weather.attenuations(spec.days as usize))
    })?;
    tracer.span("campaign.epoch_traces", op, || {
        let season = spec
            .climate
            .season(spec.latitude_deg)
            .map_err(|e| e.to_string())?;
        for (start, len) in spec.epochs() {
            epoch_traces(&season, &attenuations, start, len, spec.dt, in_use)
                .map_err(|e| e.to_string())?;
        }
        Ok::<(), String>(())
    })?;
    let placements = Placement::ALL.into_iter().filter(|p| in_use[p.index()]);
    tracer
        .span("pv.surface_warm", op, || {
            SurfacePool::warm(&fleet.cell, placements, fleet.pv_cache)
        })
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// Every node of a prepared campaign, one `simulate_node` span each.
fn trace_nodes(ctx: &CampaignContext, tracer: &Tracer, op: u64) -> Result<(), String> {
    let _probe = tracer.enter("probe.nodes", op);
    for (node, sched) in ctx.population().iter().zip(ctx.schedules()) {
        tracer
            .span("campaign.node", op, || ctx.simulate_node(node, sched))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Checks a campaign's report: one outcome per node, survivors plus
/// browned-out nodes make the campaign, every brownout day lies inside
/// it, every energy is finite, and node 0 re-run alone through
/// `simulate_node` reproduces its outcome exactly.
fn check(
    spec: &CampaignSpec,
    ctx: &CampaignContext,
    report: &CampaignReport,
) -> Result<(), String> {
    let nodes = spec.nodes as usize;
    if report.outcomes.len() != nodes
        || report.nodes() != nodes
        || report.survivors() + report.browned_out() != nodes
    {
        return Err(format!(
            "{} survivors + {} browned out over {} reported nodes, campaign of {nodes}",
            report.survivors(),
            report.browned_out(),
            report.nodes()
        ));
    }
    if let Some(o) = report.outcomes.iter().find(|o| {
        o.first_brownout_day.is_some_and(|d| d > spec.days)
            || !(o.net_energy.value().is_finite() && o.final_store_energy.value().is_finite())
    }) {
        return Err(format!(
            "node {}: brownout day {:?} of {}, net {} J, final store {} J",
            o.id,
            o.first_brownout_day,
            spec.days,
            o.net_energy.value(),
            o.final_store_energy.value()
        ));
    }
    let alone = ctx
        .simulate_node(&ctx.population()[0], &ctx.schedules()[0])
        .map_err(|e| format!("node 0 re-run: {e}"))?;
    if alone.outcomes.first() != report.outcomes.first() {
        return Err(format!(
            "node 0 re-run alone gives {:?}, the campaign {:?}",
            alone.outcomes.first(),
            report.outcomes.first()
        ));
    }
    Ok(())
}

fn observed(report: &CampaignReport) -> Vec<Observed> {
    let mut obs = vec![
        Observed::count("survivors", report.survivors()),
        Observed::count("browned_out", report.browned_out()),
        Observed::count("faulted", report.faulted()),
    ];
    if let Some(p) = report.net_energy_percentiles() {
        obs.push(Observed::energy("net_j_p5", p.p5));
        obs.push(Observed::energy("net_j_p50", p.p50));
        obs.push(Observed::energy("net_j_p95", p.p95));
    }
    obs
}

/// The pinned operation, untimed: the first timed campaign of the
/// full-size default-seed run, checked like every operation and compared
/// with `golden.json`.
fn pinned(run: &Run, prepared: &Prepared) -> Result<(), String> {
    let spec = spec(&run.pinned(), 1);
    let ctx = CampaignContext::prepare(&spec).map_err(|e| e.to_string())?;
    let report = prepared
        .runner
        .run_prepared(&ctx)
        .map_err(|e| e.to_string())?;
    check(&spec, &ctx, &report)?;
    let obs = observed(&report);
    println!(
        "golden observed campaign_endurance: {}",
        golden::render(&obs)
    );
    golden::check("campaign_endurance", &obs)
}

/// Runs campaigns for `run.seconds`.
pub fn measure(run: &Run, prepared: Prepared, tracer: &Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let (mut cold, mut warm, mut node_days) = (Vec::new(), Vec::new(), 0.0);
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < run.seconds {
        i += 1;
        let spec = spec(run, i);
        // Timed: preparation plus the run.
        let t0 = Instant::now();
        let result = {
            let _op = tracer.enter("op.cold", i);
            tracer
                .span("campaign.prepare", i, || CampaignContext::prepare(&spec))
                .and_then(|ctx| {
                    let t1 = Instant::now();
                    let report =
                        tracer.span("campaign.run", i, || prepared.runner.run_prepared(&ctx));
                    report.map(|r| (ctx, r, t1.elapsed().as_secs_f64()))
                })
                .map_err(|e| e.to_string())
        };
        let total = t0.elapsed().as_secs_f64();

        // Untimed: output checks and, once, the traced layer probes.
        let failure = match result {
            Err(e) => Some(e),
            Ok((ctx, report, run_s)) => {
                cold.push(total);
                warm.push(run_s);
                node_days += f64::from(spec.nodes) * f64::from(spec.days);
                let mut failure = check(&spec, &ctx, &report).err();
                if tracer.enabled() && i == 1 {
                    failure = failure
                        .or(trace_prepare_parts(&spec, tracer, i).err())
                        .or(trace_nodes(&ctx, tracer, i).err());
                }
                failure
            }
        };
        outcome.record("cold", failure);
    }
    outcome.record("golden", pinned(run, &prepared).err());
    if !tracer.enabled() {
        crate::stats::put_prepared_runs(&mut outcome.metrics, &cold, &warm, node_days);
    }
    outcome.samples.insert("cold_s", cold);
    outcome.samples.insert("warm_s", warm);
    outcome
}
