//! Property tests: every drawn node stays inside the spec's declared
//! tolerance budget, for any budget and any seed; merged fleet metrics
//! are invariant under the worker count and shard size.

use eh_core::baselines::FocvSampleHold;
use eh_core::MpptController;
use eh_fleet::{Engine, FleetRunner, FleetSpec, Placement, Tolerances, TrackerKind};
use eh_units::Seconds;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Divider, astable, optics, placement offset and phase all land
    /// inside the bounds the tolerance budget declares.
    #[test]
    fn jitter_stays_inside_declared_bounds(
        divider in 0.0..0.45f64,
        cap in 0.0..0.45f64,
        res in 0.0..0.45f64,
        optical in 0.0..0.45f64,
        derate in 0.0..0.95f64,
        offset in 0.0..500.0f64,
        seed in 0..u64::MAX,
    ) {
        let mut spec = FleetSpec::mixed_indoor_outdoor(60, seed).expect("valid base spec");
        spec.tolerances = Tolerances {
            pv_optical_pct: optical,
            divider_pct: divider,
            capacitor_pct: cap,
            resistor_pct: res,
            derate_max: derate,
            offset_lux: offset,
        };
        let proto = FocvSampleHold::paper_prototype().expect("prototype constants");
        let timing_lo = (1.0 - cap) * (1.0 - res);
        let timing_hi = (1.0 + cap) * (1.0 + res);
        for node in spec.population().expect("population builds") {
            let k_rel = node.k / proto.k();
            prop_assert!(
                (1.0 - divider..=1.0 + divider).contains(&k_rel),
                "node {}: k ratio {k_rel} outside ±{divider}", node.id
            );
            let period_rel = node.sample_period.value() / proto.sample_period().value();
            prop_assert!(
                (timing_lo..=timing_hi).contains(&period_rel),
                "node {}: period ratio {period_rel} outside [{timing_lo}, {timing_hi}]", node.id
            );
            let pulse_rel = node.pulse_width.value() / proto.pulse_width().value();
            prop_assert!(
                (timing_lo..=timing_hi).contains(&pulse_rel),
                "node {}: pulse ratio {pulse_rel} outside [{timing_lo}, {timing_hi}]", node.id
            );
            prop_assert!(node.phase_offset.value() >= 0.0);
            prop_assert!(
                node.phase_offset < node.sample_period,
                "node {}: phase {} >= period {}", node.id, node.phase_offset, node.sample_period
            );
            let gain = node.perturbation.gain();
            let gain_lo = (1.0 - optical) * (1.0 - derate);
            let gain_hi = 1.0 + optical;
            prop_assert!(
                (gain_lo..=gain_hi).contains(&gain),
                "node {}: gain {gain} outside [{gain_lo}, {gain_hi}]", node.id
            );
            let off = node.perturbation.offset_lux();
            prop_assert!(off.abs() <= offset + 1e-9, "node {}: offset {off}", node.id);
            match node.placement {
                Placement::WindowDesk => prop_assert!(off >= 0.0),
                Placement::InteriorDesk => prop_assert!(off <= 0.0),
                Placement::Outdoor => prop_assert!(off.abs() <= 0.2 * offset + 1e-9),
                // `Placement` is non_exhaustive; future variants only
                // need the global bound asserted above.
                _ => {}
            }
            // Every drawn node must build a valid tracker whose hold
            // period strictly exceeds its PULSE width.
            let tracker = node.tracker().expect("in-budget node builds a tracker");
            prop_assert!(tracker.pulse_width() < tracker.sample_period());
            prop_assert!(tracker.overhead_power().as_micro() < 30.0);
        }
    }

    /// The merged metric store of a multi-worker run equals the
    /// single-worker store bit for bit, for any worker count, shard
    /// size and seed — the eh-obs determinism contract at fleet scale.
    /// The shard size must match between the runs: it fixes the
    /// floating-point fold grouping, which is part of the result's
    /// identity (worker count is not).
    #[test]
    fn merged_metrics_are_worker_invariant(
        workers in 2..6usize,
        shard in 1..9usize,
        seed in 0..1024u64,
    ) {
        let mut spec = FleetSpec::mixed_indoor_outdoor(8, seed).expect("valid spec");
        spec.trace_decimate = 3600; // 1-hour grid: contract, not physics
        spec.dt = Seconds::new(3600.0);
        spec.obs = true;
        let reference = FleetRunner::new(1)
            .with_shard_size(shard)
            .run_engine(&spec, TrackerKind::Focv, Engine::PerNode)
            .expect("single-worker run");
        let parallel = FleetRunner::new(workers)
            .with_shard_size(shard)
            .run_engine(&spec, TrackerKind::Focv, Engine::PerNode)
            .expect("multi-worker run");
        prop_assert!(reference.metrics.is_some(), "obs run must carry metrics");
        prop_assert_eq!(reference.metrics, parallel.metrics);
    }

    /// The population is a pure function of the spec for any seed, and
    /// prefixes are stable under fleet growth.
    #[test]
    fn population_is_seed_stable(seed in 0..u64::MAX, extra in 1..64u32) {
        let base = FleetSpec::mixed_indoor_outdoor(32, seed).expect("valid spec");
        let small = base.population().expect("population builds");
        let mut grown = base.clone();
        grown.nodes += extra;
        let large = grown.population().expect("population builds");
        prop_assert_eq!(&small[..], &large[..32]);
    }
}
