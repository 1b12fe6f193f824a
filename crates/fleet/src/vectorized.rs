//! The wide-lane vectorized fleet engine.
//!
//! The per-node oracle drives one boxed tracker and store per node
//! through `dyn` seams; this engine devirtualizes the FOCV tracker and
//! the store into flat lane state and removes the per-step
//! *transcendentals*. Nodes advance in struct-of-arrays lane packs of
//! fixed width [`LANES`] — plain arrays of `f64`/`u64` state walked in
//! lockstep inner loops the compiler can unroll and autovectorize (the
//! workspace stays `forbid(unsafe_code)`; there are no intrinsics here)
//! — with three strength reductions over the oracle's per-step cost:
//!
//! 1. **Load walk**: per-step demand comes from a prefix-sum
//!    [`LoadEnergyProfile`] — whole cycles by multiplication plus two
//!    cumulative-energy reads — instead of walking the duty-cycle
//!    phase list segment by segment every step.
//! 2. **Store arithmetic**: a supercapacitor store evolves in the
//!    energy domain ([`EnergyDomainSupercap`]), so deposits and
//!    withdrawals are adds/clamps and the per-step `sqrt` count drops
//!    from three to the single one leakage genuinely needs.
//! 3. **PV lookups**: surface reads go through a per-lane
//!    [`LuxCursor`], which reuses the `ln`-derived log-lux cell index
//!    while the illuminance stays inside the current cell.
//!
//! # The bounded-divergence contract
//!
//! The vectorized engine is **not** bit-identical to the per-node
//! oracle — the cursor's series expansion, the energy-domain store, and
//! the prefix-sum load profile reassociate a handful of float
//! operations. What it guarantees instead (enforced by the `vectorized_equivalence`
//! suite; see `DESIGN.md` §10):
//!
//! - **Counts and classifications are exact.** The engine replicates
//!   [`eh_sim::drive`]'s time arithmetic operation for operation, and
//!   FOCV decisions depend only on the step-size sequence — so step,
//!   dwell, measurement and decision counts, and every outcome
//!   classification (brown-out, cold-start failure, net-negative)
//!   equal the oracle's exactly.
//! - **Energies agree to rel 1e-9** per node (net, gross, overhead,
//!   load, losses, final store).
//! - **The engine is bit-identical to itself** at any worker count and
//!   shard size: lanes never exchange data, so pack membership cannot
//!   influence a lane's trajectory.
//!
//! Only [`TrackerKind::Focv`] on a `pv_cache` fleet has a wide lane.
//! Other trackers, and fleets with `pv_cache: false` (whose exact-solver
//! reads have no cursor to reuse), never reach this module:
//! [`FleetContext::simulate_shard`] hands them to the per-node fold,
//! keeping the oracle's bit-identity.
//!
//! [`TrackerKind::Focv`]: crate::TrackerKind::Focv

use eh_converter::InputRegulatedConverter;
use eh_core::baselines::{FocvDecision, FocvKernel, FocvLane};
use eh_env::TimeSeries;
use eh_node::{
    ConcreteStore, EnergyDomainSupercap, EnergyStore, LoadEnergyProfile, NodeError, NodeReport,
    ObsLocals,
};
use eh_obs::{Metrics, Recorder};
use eh_pv::{CachedPvSurface, LuxCursor};
use eh_sim::{Accumulator, Mergeable, SimError};
use eh_units::{Amps, Joules, Lux, Seconds, Volts};

use crate::context::FleetContext;
use crate::error::FleetError;
use crate::population::NodeSpec;
use crate::report::{FleetReport, NodeOutcome};
use crate::run::merged_or_empty;
use crate::spec::{FleetSpec, Placement};

/// Lanes per pack. Eight f64 lanes fill one AVX-512 register or two
/// AVX2 registers, and a pack's hot state (~1 KiB) sits comfortably in
/// L1 alongside the shared PV surface rows.
pub(crate) const LANES: usize = 8;

/// Simulates one shard of FOCV nodes through the wide lanes and folds
/// their reports in fleet order. The caller,
/// [`FleetContext::simulate_shard`], routes only FOCV on a `pv_cache`
/// fleet here.
///
/// Staging: lane builds, batched cold start, placement-grouped packs
/// stepped in lockstep, fleet-order fold.
pub(crate) fn simulate_shard(
    ctx: &FleetContext,
    nodes: Vec<NodeSpec>,
) -> Result<FleetReport, FleetError> {
    let spec = ctx.spec();
    let n = nodes.len();
    let converter = InputRegulatedConverter::paper_prototype()?;
    // One prefix-sum profile shared by every pack; each lane carries
    // only its `f64` cycle position.
    let load_profile = spec.load.as_ref().map(|l| l.energy_profile());

    // Stage 1 — lane-constant state, one slot per node in fleet order.
    let mut traces: Vec<TimeSeries> = Vec::with_capacity(n);
    let mut peaks: Vec<Lux> = Vec::with_capacity(n);
    let mut builds: Vec<Option<Result<LaneBuild, FleetError>>> = Vec::with_capacity(n);
    for node in &nodes {
        let trace = node.perturbation.apply(ctx.base_trace(node.placement));
        peaks.push(Lux::new(trace.max()));
        traces.push(trace);
        builds.push(Some(build_lane(spec, node)));
    }

    // Stage 2 — batched cold-start feasibility (same math and call
    // sequence as the per-node engine: Voc at the node's own peak must
    // clear the supervisor knee, and the current at the knee must
    // out-supply the supervisor's quiescent draw).
    let cold = cold_start_lanes(ctx, &nodes, &peaks);

    // Stage 3 — pack consecutive same-placement lanes and step them in
    // lockstep. Results land back in their fleet-order slots; pack
    // membership is irrelevant to any lane's outcome (lanes share only
    // the immutable surface), which is what makes the engine
    // self-bit-identical across worker counts and shard sizes.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| nodes[i].placement.index());
    let mut sims: Vec<Option<Result<NodeReport, FleetError>>> = Vec::with_capacity(n);
    sims.resize_with(n, || None);
    let mut at = 0;
    while at < order.len() {
        let placement = nodes[order[at]].placement;
        let mut end = at;
        while end < order.len() && nodes[order[end]].placement == placement {
            end += 1;
        }
        let cell = ctx.cell(placement);
        for chunk in order[at..end].chunks(LANES) {
            match cell.cached() {
                Err(e) => {
                    // Same error precedence as the per-node engine: a
                    // lane that failed to build reports its own error
                    // before the shared surface's.
                    for &i in chunk {
                        let build = builds[i].take().expect("each lane is built exactly once");
                        sims[i] = Some(match build {
                            Err(build_err) => Err(build_err),
                            Ok(_) => Err(e.clone().into()),
                        });
                    }
                }
                Ok(surface) => {
                    run_pack(
                        surface,
                        &converter,
                        load_profile.as_ref(),
                        spec.dt,
                        spec.obs,
                        &nodes,
                        &traces,
                        &mut builds,
                        chunk,
                        &mut sims,
                    );
                }
            }
        }
        at = end;
    }

    // Fold in fleet order with the same `Mergeable` semantics as the
    // per-node engine: per node, cold start before simulation; across
    // nodes, the first error in fleet order wins.
    let mut merged: Option<Result<FleetReport, FleetError>> = None;
    for (i, node) in nodes.iter().enumerate() {
        let sim = sims[i].take().expect("each lane is simulated exactly once");
        let single = match (cold[i].clone(), sim) {
            (Err(e), _) => Err(e),
            (Ok(_), Err(e)) => Err(e),
            (Ok(cold_start_ok), Ok(report)) => Ok(FleetReport::single(
                &spec.name,
                NodeOutcome {
                    id: node.id,
                    placement: node.placement,
                    cold_start_ok,
                    report,
                },
            )),
        };
        match merged.as_mut() {
            None => merged = Some(single),
            Some(m) => m.merge(single),
        }
    }
    merged_or_empty(merged)
}

/// Per-lane constant state built from one [`NodeSpec`]: the
/// devirtualized tracker (kernel + initial lane), the concrete store,
/// and the tracker's report name.
type LaneBuild = (FocvKernel, FocvLane, ConcreteStore, String);

/// Builds one lane, replicating the per-node engine's error precedence:
/// tracker construction, then store construction, then the
/// `measurement_dwell` validation [`eh_node::NodeSimulation::new`]
/// performs.
fn build_lane(spec: &FleetSpec, node: &NodeSpec) -> Result<LaneBuild, FleetError> {
    let tracker = node.tracker()?;
    let store = node.store.unwrap_or(spec.store).build_concrete()?;
    let dwell = node.pulse_width;
    if !(dwell.value().is_finite() && dwell.value() > 0.0) {
        return Err(NodeError::InvalidParameter {
            name: "measurement_dwell",
            value: dwell.value(),
        }
        .into());
    }
    let name = eh_core::MpptController::name(&tracker).to_owned();
    Ok((tracker.kernel(), tracker.lane(), store, name))
}

/// Per-lane cold-start feasibility, batched.
///
/// Voc screening stays scalar (one lookup per lane); the follow-up
/// supervisor-current evaluations of all Voc-passing lanes are swept in
/// one [`CachedPvSurface::eval_many`] call per placement group. On an
/// `eval_many` error the group falls back to scalar evaluation so the
/// failure is attributed to the lane that caused it, exactly as the
/// per-node engine would.
fn cold_start_lanes(
    ctx: &FleetContext,
    nodes: &[NodeSpec],
    peaks: &[Lux],
) -> Vec<Result<bool, FleetError>> {
    let knee = ctx.knee();
    let quiescent = ctx.cold().supervisor_current();
    let mut cold: Vec<Result<bool, FleetError>> = nodes
        .iter()
        .zip(peaks)
        .map(|(node, &peak)| {
            let cell = ctx.cell(node.placement);
            cell.open_circuit_voltage(peak)
                .map(|voc| voc > knee)
                .map_err(FleetError::from)
        })
        .collect();

    for p in Placement::ALL {
        let candidates: Vec<usize> = (0..nodes.len())
            .filter(|&i| nodes[i].placement == p && matches!(cold[i], Ok(true)))
            .collect();
        if candidates.is_empty() {
            continue;
        }
        let cell = ctx.cell(p);
        let swept = cell.cached().ok().and_then(|surface| {
            let mut v_lux = Vec::with_capacity(candidates.len() * 2);
            for &i in &candidates {
                v_lux.push(knee.value());
                v_lux.push(peaks[i].value());
            }
            let mut out = vec![0.0; candidates.len()];
            surface.eval_many(&v_lux, &mut out).ok()?;
            Some(out)
        });
        match swept {
            Some(out) => {
                for (j, &i) in candidates.iter().enumerate() {
                    cold[i] = Ok(Amps::new(out[j]) > quiescent);
                }
            }
            // Scalar path: the batched sweep failed and each lane
            // re-evaluates to own its error.
            None => {
                for &i in &candidates {
                    cold[i] = cell
                        .current_at(knee, peaks[i])
                        .map(|amps| amps > quiescent)
                        .map_err(FleetError::from);
                }
            }
        }
    }
    cold
}

/// A lane's energy store with the supercapacitor case strength-reduced
/// into the energy domain. Every other store kind keeps its exact
/// [`ConcreteStore`] arithmetic.
enum LaneStore {
    /// A supercapacitor evolving as stored energy: `√`-free deposits
    /// and withdrawals, one `sqrt` per leak.
    Energy(EnergyDomainSupercap),
    /// Any other concrete store, unchanged.
    Concrete(ConcreteStore),
}

impl LaneStore {
    fn new(store: ConcreteStore) -> Self {
        match store {
            ConcreteStore::Supercapacitor(sc) => {
                LaneStore::Energy(EnergyDomainSupercap::from_supercapacitor(&sc))
            }
            other => LaneStore::Concrete(other),
        }
    }

    #[inline]
    fn deposit(&mut self, energy: Joules) -> Joules {
        match self {
            LaneStore::Energy(s) => s.deposit(energy),
            LaneStore::Concrete(s) => s.deposit(energy),
        }
    }

    #[inline]
    fn withdraw(&mut self, energy: Joules) -> Joules {
        match self {
            LaneStore::Energy(s) => s.withdraw(energy),
            LaneStore::Concrete(s) => s.withdraw(energy),
        }
    }

    #[inline]
    fn leak(&mut self, dt: Seconds) {
        match self {
            LaneStore::Energy(s) => s.leak(dt),
            LaneStore::Concrete(s) => s.leak(dt),
        }
    }

    #[inline]
    fn stored_energy(&self) -> Joules {
        match self {
            LaneStore::Energy(s) => s.stored_energy(),
            LaneStore::Concrete(s) => s.stored_energy(),
        }
    }
}

/// Steps one pack of up to [`LANES`] lanes in lockstep and writes each
/// lane's `NodeReport` (or first error) into its fleet-order slot.
///
/// The per-lane state is struct-of-arrays: parallel vectors of plain
/// scalars indexed by lane, so the inner `for l in 0..w` sweeps are
/// branch-light strided loops. A lane that errors or finishes early is
/// masked out via `done` while the rest of the pack keeps stepping.
#[allow(clippy::too_many_arguments)]
fn run_pack(
    surface: &CachedPvSurface,
    converter: &InputRegulatedConverter,
    load: Option<&LoadEnergyProfile>,
    dt: Seconds,
    obs_on: bool,
    nodes: &[NodeSpec],
    traces: &[TimeSeries],
    builds: &mut [Option<Result<LaneBuild, FleetError>>],
    chunk: &[usize],
    sims: &mut [Option<Result<NodeReport, FleetError>>],
) {
    let dt_v = dt.value();

    // ── SoA lane state ──────────────────────────────────────────────
    let mut slot: Vec<usize> = Vec::with_capacity(LANES);
    let mut kernel: Vec<FocvKernel> = Vec::with_capacity(LANES);
    let mut lane: Vec<FocvLane> = Vec::with_capacity(LANES);
    let mut store: Vec<LaneStore> = Vec::with_capacity(LANES);
    let mut name: Vec<String> = Vec::with_capacity(LANES);
    let mut dwell: Vec<f64> = Vec::with_capacity(LANES);
    // Per-lane trace view, hoisted once: sample grid + raw values.
    let mut start: Vec<f64> = Vec::with_capacity(LANES);
    let mut grid: Vec<f64> = Vec::with_capacity(LANES);
    let mut values: Vec<&[f64]> = Vec::with_capacity(LANES);
    let mut total: Vec<f64> = Vec::with_capacity(LANES);
    let mut cursor: Vec<LuxCursor> = Vec::with_capacity(LANES);
    let mut load_pos: Vec<f64> = Vec::with_capacity(LANES);
    let mut acc: Vec<Accumulator> = Vec::with_capacity(LANES);
    let mut last_voc: Vec<Option<Volts>> = Vec::with_capacity(LANES);
    let mut obsl: Vec<ObsLocals> = Vec::with_capacity(LANES);
    let mut t: Vec<f64> = Vec::with_capacity(LANES);
    let mut steps: Vec<u64> = Vec::with_capacity(LANES);
    let mut dwell_steps: Vec<u64> = Vec::with_capacity(LANES);
    let mut dwell_time: Vec<f64> = Vec::with_capacity(LANES);
    let mut done: Vec<bool> = Vec::with_capacity(LANES);
    let mut err: Vec<Option<NodeError>> = Vec::with_capacity(LANES);

    for &i in chunk {
        let build = builds[i].take().expect("each lane is built exactly once");
        match build {
            Err(e) => sims[i] = Some(Err(e)),
            Ok((k, l0, s, nm)) => {
                let trace = &traces[i];
                slot.push(i);
                kernel.push(k);
                lane.push(l0);
                store.push(LaneStore::new(s));
                name.push(nm);
                dwell.push(nodes[i].pulse_width.value());
                start.push(trace.start_time().value());
                grid.push(trace.dt().value());
                values.push(trace.values());
                total.push(trace.duration().value());
                cursor.push(LuxCursor::default());
                load_pos.push(0.0);
                acc.push(Accumulator::new());
                last_voc.push(None);
                obsl.push(ObsLocals::default());
                t.push(0.0);
                steps.push(0);
                dwell_steps.push(0);
                dwell_time.push(0.0);
                done.push(false);
                err.push(None);
            }
        }
    }
    let w = slot.len();

    // ── drive() preamble, replicated per lane ───────────────────────
    let mut active = w;
    if !(dt_v.is_finite() && dt_v > 0.0) {
        for l in 0..w {
            err[l] = Some(
                SimError::InvalidParameter {
                    name: "dt",
                    value: dt_v,
                }
                .into(),
            );
            done[l] = true;
        }
        active = 0;
    } else {
        for l in 0..w {
            if !(total[l].is_finite() && total[l] > 0.0) {
                err[l] = Some(
                    SimError::InvalidParameter {
                        name: "duration",
                        value: total[l],
                    }
                    .into(),
                );
                done[l] = true;
                active -= 1;
            }
        }
    }

    // ── lockstep stepping ───────────────────────────────────────────
    // One subslice assertion per array here instead of one bounds
    // check per access inside the hot loop: every slice's length is
    // exactly `w`, the same bound the `for l in 0..w` sweep runs to.
    {
        let kernel = &mut kernel[..w];
        let lane = &mut lane[..w];
        let store = &mut store[..w];
        let dwell = &dwell[..w];
        let start = &start[..w];
        let grid = &grid[..w];
        let values = &values[..w];
        let total = &total[..w];
        let cursor = &mut cursor[..w];
        let load_pos = &mut load_pos[..w];
        let acc = &mut acc[..w];
        let last_voc = &mut last_voc[..w];
        let obsl = &mut obsl[..w];
        let t = &mut t[..w];
        let steps = &mut steps[..w];
        let dwell_steps = &mut dwell_steps[..w];
        let dwell_time = &mut dwell_time[..w];
        let done = &mut done[..w];
        let err = &mut err[..w];
        while active > 0 {
            for l in 0..w {
                if done[l] {
                    continue;
                }
                let planned = dt_v.min(total[l] - t[l]);
                // Inline `Light::lux_at`: the query time is re-derived
                // through the series' own start offset so the division
                // matches `TimeSeries::value_at` bit for bit.
                let vs = values[l];
                let tq = start[l] + t[l];
                let rel = (tq - start[l]) / grid[l];
                let raw = if rel < 0.0 || rel > (vs.len() - 1) as f64 {
                    0.0
                } else {
                    let i = rel.floor() as usize;
                    if i + 1 >= vs.len() {
                        vs[i]
                    } else {
                        let f = rel - i as f64;
                        vs[i] * (1.0 - f) + vs[i + 1] * f
                    }
                };
                let lux = Lux::new(raw.max(0.0));

                let planned_s = Seconds::new(planned);
                let decision = kernel[l].step(&mut lane[l], last_voc[l].take(), planned_s);
                let is_connect = matches!(decision, FocvDecision::Connect(_));
                let actual = if is_connect {
                    planned
                } else {
                    dwell[l].min(planned)
                };
                let actual_s = Seconds::new(actual);

                let surface_read: Result<(), NodeError> = match decision {
                    FocvDecision::Connect(target) if target.value() > 0.0 => {
                        match surface.connect_point_lane(&mut cursor[l], target, lux) {
                            Err(e) => Err(e.into()),
                            Ok(point) => {
                                if let Some(current) = point.current {
                                    let current = current.max(Amps::ZERO);
                                    let harvest = converter.harvest(point.v_op, current, actual_s);
                                    acc[l].add_harvest(harvest.output_energy);
                                    acc[l].add_loss(harvest.losses * actual_s);
                                    if obs_on {
                                        obsl[l].observe_harvest(&harvest, actual_s);
                                    }
                                    store[l].deposit(harvest.output_energy);
                                }
                                Ok(())
                            }
                        }
                    }
                    FocvDecision::Connect(_) => Ok(()),
                    FocvDecision::Measure => {
                        match surface.open_circuit_voltage_lane(&mut cursor[l], lux) {
                            Err(e) => Err(e.into()),
                            Ok(voc) => {
                                last_voc[l] = Some(voc);
                                acc[l].count_measurement();
                                Ok(())
                            }
                        }
                    }
                };
                if let Err(e) = surface_read {
                    err[l] = Some(e);
                    done[l] = true;
                    active -= 1;
                    continue;
                }

                let overhead = kernel[l].overhead_power() * actual_s;
                acc[l].add_overhead(overhead);
                store[l].withdraw(overhead);

                // Mirror of the per-node engine's (exactly zero) compute
                // charge, kept so the accumulator arithmetic stays aligned.
                let compute = Joules::ZERO;
                acc[l].add_compute(compute);
                acc[l].count_decision();
                store[l].withdraw(compute);

                let mut served = Joules::ZERO;
                if let Some(load) = load {
                    let demand = load.energy_over(&mut load_pos[l], actual_s);
                    served = store[l].withdraw(demand);
                    acc[l].add_load(demand, served);
                }

                store[l].leak(actual_s);

                if obs_on {
                    obsl[l].observe_step(is_connect, overhead, compute, served, actual_s);
                }

                // drive()'s advance clamp and loop statistics, replicated
                // operation for operation — this is what pins the step and
                // dwell counts to the oracle's exactly.
                let advanced = if actual.is_finite() && actual > 0.0 {
                    actual.min(planned)
                } else {
                    planned
                };
                steps[l] += 1;
                if advanced < planned {
                    dwell_steps[l] += 1;
                    dwell_time[l] += advanced;
                }
                t[l] += advanced;
                if t[l] >= total[l] {
                    done[l] = true;
                    active -= 1;
                }
            }
        }
    }

    // ── per-lane epilogue: drive() stats + NodeReport assembly ──────
    for l in 0..w {
        let i = slot[l];
        let result = match err[l].take() {
            Some(e) => Err(FleetError::from(e)),
            None => finalize_lane(
                std::mem::take(&mut name[l]),
                Seconds::new(total[l]),
                &acc[l],
                &store[l],
                &obsl[l],
                steps[l],
                dwell_steps[l],
                t[l],
                dwell_time[l],
                obs_on,
            )
            .map_err(FleetError::from),
        };
        sims[i] = Some(result);
    }
}

/// Assembles one lane's [`NodeReport`] exactly as
/// [`eh_node::NodeSimulation::run`]'s epilogue does, including
/// [`eh_sim::drive`]'s loop-statistic recording that the lockstep loop
/// accumulated in locals.
#[allow(clippy::too_many_arguments)]
fn finalize_lane(
    name: String,
    duration: Seconds,
    acc: &Accumulator,
    store: &LaneStore,
    obsl: &ObsLocals,
    steps: u64,
    dwell_steps: u64,
    t: f64,
    dwell_time: f64,
    obs_on: bool,
) -> Result<NodeReport, NodeError> {
    let mut metrics = obs_on.then(Metrics::new);
    if let Some(m) = metrics.as_mut() {
        m.add_counter("engine.steps", steps);
        m.add_counter("engine.dwell_steps", dwell_steps);
        let mut drive_span = eh_obs::span!("engine.drive");
        drive_span.add_time(Seconds::new(t));
        drive_span.finish(m);
        let mut dwell_span = eh_obs::span!("engine.dwell");
        dwell_span.add_time(Seconds::new(dwell_time));
        dwell_span.finish(m);
        obsl.flush(m);
        m.add_counter("node.measurements", acc.measurements);
        m.add_counter("tracker.decisions", acc.decisions);
        m.add_counter("tracker.ops", 0);
        let closed_loop =
            acc.overhead_energy + acc.loss_energy + acc.load_served + acc.compute_energy;
        m.ledger().check_conservation(closed_loop, 1e-9)?;
    }
    Ok(NodeReport {
        tracker: name,
        duration,
        gross_energy: acc.gross_energy,
        overhead_energy: acc.overhead_energy,
        load_demand: acc.load_demand,
        load_served: acc.load_served,
        final_store_energy: store.stored_energy(),
        loss_energy: acc.loss_energy,
        compute_energy: acc.compute_energy,
        measurements: acc.measurements,
        decisions: acc.decisions,
        metrics,
    })
}
