//! Criterion microbenches for the per-step components of the fleet
//! engines — the reproducible form of the profiling table in
//! `DESIGN.md` §10.
//!
//! Each pair benches one strength reduction the vectorized engine
//! applies against the scalar form the per-node engine pays per step:
//!
//! - **load walk** — `energy_demand` (absolute clock, one `rem_euclid`
//!   per step) vs `energy_demand_with_cursor` (incremental
//!   [`PhaseAccumulator`]) vs `energy_profile` (prefix-sum
//!   [`LoadEnergyProfile`], the vectorized engine's form).
//! - **supercap round-trip** — voltage-domain [`Supercapacitor`]
//!   (deposit + withdraw + leak, √ per op) vs the energy-domain
//!   [`EnergyDomainSupercap`] (√ only in `leak`'s voltage observation).
//! - **surface lookup** — scalar [`CachedPvSurface::connect_point`]
//!   (`ln`-derived cell index per query) vs the cursored
//!   [`CachedPvSurface::connect_point_lane`] / 8-wide
//!   [`CachedPvSurface::eval_lanes`] (cell index reused while the
//!   illuminance stays in cell).
//!
//! The drives mimic the reference fleet scenario: `dt = 60 s` steps, a
//! duty-cycled sensor load, and slowly varying daylight so the cursors
//! hit their fast paths at realistic rates.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use eh_node::{DutyCycledLoad, EnergyDomainSupercap, EnergyStore, StoreSpec};
use eh_pv::{presets, ConnectPoint, LuxCursor};
use eh_units::{Joules, Lux, Seconds, Volts};

const DT: f64 = 60.0;
/// Steps per timed iteration — long enough to amortise loop setup, short
/// enough that one iteration stays in cache.
const STEPS: usize = 1024;

/// A day-shaped illuminance walk on the 1-minute grid: small relative
/// steps, so consecutive queries usually share a log-lux cell — the
/// regime the [`LuxCursor`] is built for.
fn daylight(steps: usize) -> Vec<f64> {
    (0..steps)
        .map(|i| {
            let phase = i as f64 / steps as f64 * std::f64::consts::TAU;
            500.0 + 450.0 * phase.sin()
        })
        .collect()
}

fn bench_load_walk(c: &mut Criterion) {
    let load = DutyCycledLoad::typical_sensor_node().expect("valid load");
    let mut group = c.benchmark_group("step_components/load_walk");
    group.sample_size(20);
    group.bench_function("rem_euclid_1024_steps", |b| {
        let mut t = 0.0_f64;
        b.iter(|| {
            let mut total = 0.0;
            for _ in 0..STEPS {
                total += load
                    .energy_demand(Seconds::new(black_box(t)), Seconds::new(DT))
                    .value();
                t += DT;
            }
            total
        })
    });
    group.bench_function("phase_cursor_1024_steps", |b| {
        let mut cursor = load.phase_cursor(Seconds::ZERO);
        b.iter(|| {
            let mut total = 0.0;
            for _ in 0..STEPS {
                total += load
                    .energy_demand_with_cursor(black_box(&mut cursor), Seconds::new(DT))
                    .value();
            }
            total
        })
    });
    group.bench_function("energy_profile_1024_steps", |b| {
        let profile = load.energy_profile();
        let mut pos = 0.0_f64;
        b.iter(|| {
            let mut total = 0.0;
            for _ in 0..STEPS {
                total += profile
                    .energy_over(black_box(&mut pos), Seconds::new(DT))
                    .value();
            }
            total
        })
    });
    group.finish();
}

fn bench_supercap_round_trip(c: &mut Criterion) {
    let spec = StoreSpec::supercapacitor_022f_at(4.0);
    let mut group = c.benchmark_group("step_components/supercap");
    group.sample_size(20);
    // One engine step touches the store three times: deposit the
    // harvest, withdraw the load, integrate the leak.
    let deposit = Joules::new(2e-4);
    let withdraw = Joules::new(1.9e-4);
    group.bench_function("voltage_domain_1024_steps", |b| {
        let mut store = spec.build_concrete().expect("valid store");
        b.iter(|| {
            let mut served = 0.0;
            for _ in 0..STEPS {
                store.deposit(black_box(deposit));
                served += store.withdraw(black_box(withdraw)).value();
                store.leak(Seconds::new(DT));
            }
            served
        })
    });
    group.bench_function("energy_domain_1024_steps", |b| {
        let concrete = spec.build_concrete().expect("valid store");
        let eh_node::ConcreteStore::Supercapacitor(sc) = &concrete else {
            panic!("spec builds a supercapacitor");
        };
        let mut store = EnergyDomainSupercap::from_supercapacitor(sc);
        b.iter(|| {
            let mut served = 0.0;
            for _ in 0..STEPS {
                store.deposit(black_box(deposit));
                served += store.withdraw(black_box(withdraw)).value();
                store.leak(Seconds::new(DT));
            }
            served
        })
    });
    group.finish();
}

fn bench_surface_lookup(c: &mut Criterion) {
    let warmed = presets::sanyo_am1815().with_cache(true);
    let surface = warmed.cached().expect("surface builds").clone();
    let luxes = daylight(STEPS);
    let target = Volts::new(1.25);
    let mut group = c.benchmark_group("step_components/surface");
    group.sample_size(20);
    group.bench_function("scalar_connect_1024_steps", |b| {
        b.iter(|| {
            let mut i_sum = 0.0;
            for &l in &luxes {
                let p = surface
                    .connect_point(target, Lux::new(black_box(l)))
                    .expect("in-domain query");
                i_sum += p.current.map_or(0.0, |i| i.value());
            }
            i_sum
        })
    });
    group.bench_function("cursored_connect_1024_steps", |b| {
        let mut cursor = LuxCursor::default();
        b.iter(|| {
            let mut i_sum = 0.0;
            for &l in &luxes {
                let p = surface
                    .connect_point_lane(&mut cursor, target, Lux::new(black_box(l)))
                    .expect("in-domain query");
                i_sum += p.current.map_or(0.0, |i| i.value());
            }
            i_sum
        })
    });
    group.bench_function("eval_lanes8_1024_steps", |b| {
        // 8 lanes × 128 rounds = the same 1024 queries, pack-shaped.
        let mut cursors = [LuxCursor::default(); 8];
        let targets = [target; 8];
        let mut out = [ConnectPoint {
            voc: Volts::ZERO,
            v_op: Volts::ZERO,
            current: None,
        }; 8];
        let active = [true; 8];
        b.iter(|| {
            let mut i_sum = 0.0;
            for round in luxes.chunks_exact(8) {
                let mut pack = [Lux::ZERO; 8];
                for (slot, &l) in pack.iter_mut().zip(round) {
                    *slot = Lux::new(l);
                }
                surface
                    .eval_lanes(&targets, &pack, &active, &mut cursors, &mut out)
                    .expect("in-domain queries");
                for p in &out {
                    i_sum += p.current.map_or(0.0, |i| i.value());
                }
            }
            black_box(i_sum)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_load_walk,
    bench_supercap_round_trip,
    bench_surface_lookup
);
criterion_main!(benches);
