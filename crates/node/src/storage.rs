//! Energy stores: supercapacitor and an idealised accumulator.

use eh_units::{Amps, Farads, Joules, Ratio, Seconds, Volts};

use crate::error::NodeError;

/// Something that can absorb and supply harvested energy.
pub trait EnergyStore {
    /// Deposits energy; returns the amount actually absorbed (a full
    /// store absorbs less).
    fn deposit(&mut self, energy: Joules) -> Joules;

    /// Withdraws up to `energy`; returns the amount actually supplied.
    fn withdraw(&mut self, energy: Joules) -> Joules;

    /// Applies self-discharge over `dt`.
    fn leak(&mut self, dt: Seconds);

    /// Usable energy currently stored.
    fn stored_energy(&self) -> Joules;

    /// Fill level in `[0, 1]` where meaningful.
    fn state_of_charge(&self) -> Ratio;
}

/// A supercapacitor store: energy lives in `½CV²` between a minimum
/// usable voltage and a maximum rated voltage, with a constant leakage
/// current (the dominant supercap loss at these scales).
///
/// ```
/// use eh_node::{EnergyStore, Supercapacitor};
/// use eh_units::{Farads, Joules, Volts};
///
/// let mut sc = Supercapacitor::new(Farads::new(0.1), Volts::new(5.0), Volts::new(1.8))?;
/// let absorbed = sc.deposit(Joules::new(0.5));
/// assert!(absorbed.value() > 0.0);
/// # Ok::<(), eh_node::NodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Supercapacitor {
    capacitance: Farads,
    v_max: Volts,
    v_min: Volts,
    leakage: Amps,
    voltage: Volts,
}

impl Supercapacitor {
    /// Creates a supercapacitor, initially at its minimum usable voltage.
    ///
    /// # Errors
    ///
    /// Rejects non-positive capacitance or `v_min` not in `(0, v_max)`.
    pub fn new(capacitance: Farads, v_max: Volts, v_min: Volts) -> Result<Self, NodeError> {
        if !(capacitance.value().is_finite() && capacitance.value() > 0.0) {
            return Err(NodeError::InvalidParameter {
                name: "capacitance",
                value: capacitance.value(),
            });
        }
        if !(v_min.value() > 0.0 && v_max > v_min) {
            return Err(NodeError::InvalidParameter {
                name: "voltage_window",
                value: v_min.value(),
            });
        }
        Ok(Self {
            capacitance,
            v_max,
            v_min,
            leakage: Amps::from_micro(2.0),
            voltage: v_min,
        })
    }

    /// Overrides the leakage current (default 2 µA).
    #[must_use]
    pub fn with_leakage(mut self, leakage: Amps) -> Self {
        self.leakage = leakage.max(Amps::ZERO);
        self
    }

    /// Starts the capacitor at a given terminal voltage (clamped into the
    /// usable window) — e.g. a node deployed with a charged store.
    #[must_use]
    pub fn with_initial_voltage(mut self, v: Volts) -> Self {
        self.voltage = v.clamp(self.v_min, self.v_max);
        self
    }

    /// The terminal voltage.
    pub fn voltage(&self) -> Volts {
        self.voltage
    }

    /// The capacitance.
    pub fn capacitance(&self) -> Farads {
        self.capacitance
    }

    /// The maximum rated voltage.
    pub fn v_max(&self) -> Volts {
        self.v_max
    }

    /// The minimum usable voltage.
    pub fn v_min(&self) -> Volts {
        self.v_min
    }

    /// The leakage current.
    pub fn leakage(&self) -> Amps {
        self.leakage
    }

    /// Usable capacity: `½C(v_max² − v_min²)`.
    pub fn usable_capacity(&self) -> Joules {
        Joules::new(
            0.5 * self.capacitance.value()
                * (self.v_max.value().powi(2) - self.v_min.value().powi(2)),
        )
    }

    #[inline]
    fn energy_at(&self, v: Volts) -> f64 {
        0.5 * self.capacitance.value() * v.value().powi(2)
    }

    #[inline]
    fn voltage_for_energy(&self, e: f64) -> Volts {
        Volts::new((2.0 * e / self.capacitance.value()).max(0.0).sqrt())
    }
}

impl EnergyStore for Supercapacitor {
    #[inline]
    fn deposit(&mut self, energy: Joules) -> Joules {
        if energy.value() <= 0.0 {
            return Joules::ZERO;
        }
        let now = self.energy_at(self.voltage);
        let cap = self.energy_at(self.v_max);
        let absorbed = energy.value().min(cap - now);
        self.voltage = self.voltage_for_energy(now + absorbed);
        Joules::new(absorbed)
    }

    #[inline]
    fn withdraw(&mut self, energy: Joules) -> Joules {
        if energy.value() <= 0.0 {
            return Joules::ZERO;
        }
        let now = self.energy_at(self.voltage);
        let floor = self.energy_at(self.v_min);
        // Bit-identity note: the withdraw path always runs the
        // energy→voltage round trip, even for a zero-supplied result —
        // skipping it would move the terminal voltage by one ULP.
        let supplied = energy.value().min((now - floor).max(0.0));
        self.voltage = self.voltage_for_energy(now - supplied);
        Joules::new(supplied)
    }

    #[inline]
    fn leak(&mut self, dt: Seconds) {
        if dt.value() <= 0.0 {
            return;
        }
        let dv = (self.leakage * dt) / self.capacitance;
        self.voltage = (self.voltage - dv).max(Volts::ZERO);
    }

    #[inline]
    fn stored_energy(&self) -> Joules {
        Joules::new((self.energy_at(self.voltage) - self.energy_at(self.v_min)).max(0.0))
    }

    fn state_of_charge(&self) -> Ratio {
        let usable = self.usable_capacity().value();
        if usable <= 0.0 {
            return Ratio::ZERO;
        }
        Ratio::new((self.stored_energy().value() / usable).clamp(0.0, 1.0))
    }
}

/// A [`Supercapacitor`] with its state carried in the *energy* domain.
///
/// The voltage-domain store pays an energy→voltage `sqrt` round trip on
/// every deposit and withdraw — three per simulated step on the fleet
/// hot path, the second-largest entry in the DESIGN.md §10 step profile.
/// Carrying `E = ½CV²` directly makes deposit and withdraw pure
/// add/clamp operations; only `leak` (whose physics is linear in
/// voltage) and the explicit [`voltage`](Self::voltage) observation pay
/// a `sqrt`, cutting the per-step count from three to one.
///
/// The reordering changes float rounding, so the state is *not*
/// bit-identical to the voltage-domain store — it tracks it within
/// rel 1e-12 over arbitrary deposit/withdraw/leak sequences (including
/// the campaign's worn-store `v₀ = √(v_min² + 2E/C_worn)` deployment
/// path), property-tested in `tests/properties.rs`. Engines that use it
/// therefore run under the fleet's bounded-divergence contract, not the
/// oracle's bit-identity.
///
/// ```
/// use eh_node::{EnergyDomainSupercap, EnergyStore, Supercapacitor};
/// use eh_units::{Farads, Joules, Volts};
///
/// let mut sc = Supercapacitor::new(Farads::new(0.1), Volts::new(5.0), Volts::new(1.8))?;
/// sc.deposit(Joules::new(0.4));
/// let mut fast = EnergyDomainSupercap::from_supercapacitor(&sc);
/// let rel = (fast.stored_energy().value() - sc.stored_energy().value()).abs()
///     / sc.stored_energy().value();
/// assert!(rel < 1e-12);
/// # Ok::<(), eh_node::NodeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyDomainSupercap {
    capacitance: f64,
    leakage: f64,
    e_max: f64,
    e_floor: f64,
    energy: f64,
    /// `√(2/C)`, so `V(E) = √(2/C)·√E` costs one `sqrt` and one
    /// multiply instead of a divide-then-`sqrt` round trip per step.
    sqrt_2_over_c: f64,
    /// `1/C`, hoisting the leak update's division out of the hot loop.
    inv_c: f64,
}

impl EnergyDomainSupercap {
    /// Captures a voltage-domain supercapacitor's parameters and current
    /// state.
    pub fn from_supercapacitor(sc: &Supercapacitor) -> Self {
        let c = sc.capacitance().value();
        Self {
            capacitance: c,
            leakage: sc.leakage().value(),
            e_max: 0.5 * c * sc.v_max().value().powi(2),
            e_floor: 0.5 * c * sc.v_min().value().powi(2),
            energy: 0.5 * c * sc.voltage().value().powi(2),
            sqrt_2_over_c: (2.0 / c).sqrt(),
            inv_c: 1.0 / c,
        }
    }

    /// The terminal voltage — the one observation that pays a `sqrt`.
    pub fn voltage(&self) -> Volts {
        Volts::new(self.sqrt_2_over_c * self.energy.max(0.0).sqrt())
    }

    /// Usable capacity: `½C(v_max² − v_min²)`.
    pub fn usable_capacity(&self) -> Joules {
        Joules::new(self.e_max - self.e_floor)
    }
}

impl EnergyStore for EnergyDomainSupercap {
    #[inline]
    fn deposit(&mut self, energy: Joules) -> Joules {
        if energy.value() <= 0.0 {
            return Joules::ZERO;
        }
        // Mirrors the voltage-domain clamp without the √ round trip.
        let absorbed = energy.value().min(self.e_max - self.energy);
        self.energy += absorbed;
        Joules::new(absorbed)
    }

    #[inline]
    fn withdraw(&mut self, energy: Joules) -> Joules {
        if energy.value() <= 0.0 {
            return Joules::ZERO;
        }
        let supplied = energy.value().min((self.energy - self.e_floor).max(0.0));
        self.energy -= supplied;
        Joules::new(supplied)
    }

    #[inline]
    fn leak(&mut self, dt: Seconds) {
        if dt.value() <= 0.0 {
            return;
        }
        // Leakage is a constant current, i.e. linear in *voltage*, so
        // this is where the remaining per-step sqrt lives; the two
        // divisions are hoisted into `sqrt_2_over_c` / `inv_c`.
        let v = self.sqrt_2_over_c * self.energy.max(0.0).sqrt();
        let dv = self.leakage * dt.value() * self.inv_c;
        let after = (v - dv).max(0.0);
        self.energy = 0.5 * self.capacitance * after * after;
    }

    #[inline]
    fn stored_energy(&self) -> Joules {
        Joules::new((self.energy - self.e_floor).max(0.0))
    }

    fn state_of_charge(&self) -> Ratio {
        let usable = self.e_max - self.e_floor;
        if usable <= 0.0 {
            return Ratio::ZERO;
        }
        Ratio::new((self.stored_energy().value() / usable).clamp(0.0, 1.0))
    }
}

/// A small rechargeable battery (LIR-coin-cell / thin-film class):
/// fixed usable capacity, coulombic charge inefficiency and a slow
/// relative self-discharge.
///
/// ```
/// use eh_node::{Battery, EnergyStore};
/// use eh_units::Joules;
///
/// let mut b = Battery::new(Joules::new(100.0), 0.9, 0.05)?;
/// let absorbed = b.deposit(Joules::new(10.0));
/// assert!((absorbed.value() - 9.0).abs() < 1e-12); // 90 % coulombic
/// # Ok::<(), eh_node::NodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Battery {
    capacity: Joules,
    charge_efficiency: f64,
    /// Fraction of the stored energy lost per month to self-discharge.
    self_discharge_per_month: f64,
    level: f64,
}

impl Battery {
    /// Creates an empty battery.
    ///
    /// # Errors
    ///
    /// Rejects non-positive capacity, charge efficiency outside `(0, 1]`
    /// or self-discharge outside `[0, 1)`.
    pub fn new(
        capacity: Joules,
        charge_efficiency: f64,
        self_discharge_per_month: f64,
    ) -> Result<Self, NodeError> {
        if !(capacity.value().is_finite() && capacity.value() > 0.0) {
            return Err(NodeError::InvalidParameter {
                name: "capacity",
                value: capacity.value(),
            });
        }
        if !(charge_efficiency > 0.0 && charge_efficiency <= 1.0) {
            return Err(NodeError::InvalidParameter {
                name: "charge_efficiency",
                value: charge_efficiency,
            });
        }
        if !(0.0..1.0).contains(&self_discharge_per_month) {
            return Err(NodeError::InvalidParameter {
                name: "self_discharge_per_month",
                value: self_discharge_per_month,
            });
        }
        Ok(Self {
            capacity,
            charge_efficiency,
            self_discharge_per_month,
            level: 0.0,
        })
    }

    /// Starts the battery at a given state of charge in `[0, 1]`.
    #[must_use]
    pub fn with_state_of_charge(mut self, soc: f64) -> Self {
        self.level = self.capacity.value() * soc.clamp(0.0, 1.0);
        self
    }

    /// The rated capacity.
    pub fn capacity(&self) -> Joules {
        self.capacity
    }
}

impl EnergyStore for Battery {
    #[inline]
    fn deposit(&mut self, energy: Joules) -> Joules {
        if energy.value() <= 0.0 {
            return Joules::ZERO;
        }
        let absorbed =
            (energy.value() * self.charge_efficiency).min(self.capacity.value() - self.level);
        self.level += absorbed;
        Joules::new(absorbed)
    }

    #[inline]
    fn withdraw(&mut self, energy: Joules) -> Joules {
        if energy.value() <= 0.0 {
            return Joules::ZERO;
        }
        let supplied = energy.value().min(self.level);
        self.level -= supplied;
        Joules::new(supplied)
    }

    #[inline]
    fn leak(&mut self, dt: Seconds) {
        if dt.value() <= 0.0 || self.self_discharge_per_month <= 0.0 {
            return;
        }
        const MONTH: f64 = 30.0 * 86_400.0;
        let keep = (1.0 - self.self_discharge_per_month).powf(dt.value() / MONTH);
        self.level *= keep;
    }

    fn stored_energy(&self) -> Joules {
        Joules::new(self.level)
    }

    fn state_of_charge(&self) -> Ratio {
        Ratio::new((self.level / self.capacity.value()).clamp(0.0, 1.0))
    }
}

/// An idealised store: infinite capacity, no leakage, never empty-limited
/// below zero. Used for pure tracker comparisons where storage artefacts
/// would muddy the metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IdealStore {
    energy: f64,
}

impl IdealStore {
    /// Creates an empty ideal store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EnergyStore for IdealStore {
    #[inline]
    fn deposit(&mut self, energy: Joules) -> Joules {
        if energy.value() <= 0.0 {
            return Joules::ZERO;
        }
        self.energy += energy.value();
        energy
    }

    #[inline]
    fn withdraw(&mut self, energy: Joules) -> Joules {
        if energy.value() <= 0.0 {
            return Joules::ZERO;
        }
        let supplied = energy.value().min(self.energy.max(0.0));
        self.energy -= supplied;
        Joules::new(supplied)
    }

    #[inline]
    fn leak(&mut self, _dt: Seconds) {}

    #[inline]
    fn stored_energy(&self) -> Joules {
        Joules::new(self.energy.max(0.0))
    }

    fn state_of_charge(&self) -> Ratio {
        Ratio::ONE
    }
}

/// A declarative, cloneable description of an energy store.
///
/// `Box<dyn EnergyStore>` is neither `Clone` nor comparable, which makes
/// it awkward for specifications that must stamp out one fresh store per
/// simulated node (a fleet) or per sweep job. `StoreSpec` is the
/// value-type counterpart: describe the store once, [`StoreSpec::build`]
/// a fresh instance wherever one is needed.
///
/// ```
/// use eh_node::{EnergyStore, StoreSpec};
///
/// let spec = StoreSpec::supercapacitor_022f_at(4.0);
/// let a = spec.build()?;
/// let b = spec.build()?;
/// assert_eq!(a.stored_energy(), b.stored_energy()); // independent, identical
/// # Ok::<(), eh_node::NodeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum StoreSpec {
    /// An [`IdealStore`].
    Ideal,
    /// A [`Supercapacitor`].
    Supercapacitor {
        /// Capacitance in farads.
        capacitance: Farads,
        /// Maximum rated voltage.
        v_max: Volts,
        /// Minimum usable voltage.
        v_min: Volts,
        /// Deployment voltage.
        initial_voltage: Volts,
    },
    /// A [`Battery`].
    Battery {
        /// Rated capacity.
        capacity: Joules,
        /// Coulombic charge efficiency in `(0, 1]`.
        charge_efficiency: f64,
        /// Fraction of stored energy lost per month.
        self_discharge_per_month: f64,
        /// Deployment state of charge in `[0, 1]`.
        initial_soc: f64,
    },
}

impl StoreSpec {
    /// The week-endurance reference store: a 0.22 F / 5 V supercapacitor
    /// (1.8 V dropout) deployed charged to `initial_volts`.
    pub fn supercapacitor_022f_at(initial_volts: f64) -> Self {
        StoreSpec::Supercapacitor {
            capacitance: Farads::new(0.22),
            v_max: Volts::new(5.0),
            v_min: Volts::new(1.8),
            initial_voltage: Volts::new(initial_volts),
        }
    }

    /// Builds a fresh store from the description.
    ///
    /// # Errors
    ///
    /// Propagates the underlying constructors' parameter validation.
    pub fn build(&self) -> Result<Box<dyn EnergyStore + Send>, NodeError> {
        Ok(match self.build_concrete()? {
            ConcreteStore::Ideal(s) => Box::new(s),
            ConcreteStore::Supercapacitor(s) => Box::new(s),
            ConcreteStore::Battery(s) => Box::new(s),
        })
    }

    /// Builds the same fresh store as [`StoreSpec::build`], but as a
    /// closed [`ConcreteStore`] enum instead of a boxed trait object, so
    /// lane engines get static dispatch on the step hot path.
    ///
    /// # Errors
    ///
    /// Propagates the underlying constructors' parameter validation.
    pub fn build_concrete(&self) -> Result<ConcreteStore, NodeError> {
        Ok(match *self {
            StoreSpec::Ideal => ConcreteStore::Ideal(IdealStore::new()),
            StoreSpec::Supercapacitor {
                capacitance,
                v_max,
                v_min,
                initial_voltage,
            } => ConcreteStore::Supercapacitor(
                Supercapacitor::new(capacitance, v_max, v_min)?
                    .with_initial_voltage(initial_voltage),
            ),
            StoreSpec::Battery {
                capacity,
                charge_efficiency,
                self_discharge_per_month,
                initial_soc,
            } => ConcreteStore::Battery(
                Battery::new(capacity, charge_efficiency, self_discharge_per_month)?
                    .with_state_of_charge(initial_soc),
            ),
        })
    }
}

/// An energy store as a closed enum over the concrete store types.
///
/// `Box<dyn EnergyStore>` costs a virtual call per deposit / withdraw /
/// leak — three per simulated step. A `ConcreteStore` dispatches with a
/// three-way match the optimiser can inline, which is what the
/// struct-of-arrays vectorized engine keeps per lane. Both forms are built
/// from the same constructors ([`StoreSpec::build`] delegates to
/// [`StoreSpec::build_concrete`]), so their state sequences are
/// bit-identical.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConcreteStore {
    /// An [`IdealStore`].
    Ideal(IdealStore),
    /// A [`Supercapacitor`].
    Supercapacitor(Supercapacitor),
    /// A [`Battery`].
    Battery(Battery),
}

impl EnergyStore for ConcreteStore {
    #[inline]
    fn deposit(&mut self, energy: Joules) -> Joules {
        match self {
            ConcreteStore::Ideal(s) => s.deposit(energy),
            ConcreteStore::Supercapacitor(s) => s.deposit(energy),
            ConcreteStore::Battery(s) => s.deposit(energy),
        }
    }

    #[inline]
    fn withdraw(&mut self, energy: Joules) -> Joules {
        match self {
            ConcreteStore::Ideal(s) => s.withdraw(energy),
            ConcreteStore::Supercapacitor(s) => s.withdraw(energy),
            ConcreteStore::Battery(s) => s.withdraw(energy),
        }
    }

    #[inline]
    fn leak(&mut self, dt: Seconds) {
        match self {
            ConcreteStore::Ideal(s) => s.leak(dt),
            ConcreteStore::Supercapacitor(s) => s.leak(dt),
            ConcreteStore::Battery(s) => s.leak(dt),
        }
    }

    #[inline]
    fn stored_energy(&self) -> Joules {
        match self {
            ConcreteStore::Ideal(s) => s.stored_energy(),
            ConcreteStore::Supercapacitor(s) => s.stored_energy(),
            ConcreteStore::Battery(s) => s.stored_energy(),
        }
    }

    #[inline]
    fn state_of_charge(&self) -> Ratio {
        match self {
            ConcreteStore::Ideal(s) => s.state_of_charge(),
            ConcreteStore::Supercapacitor(s) => s.state_of_charge(),
            ConcreteStore::Battery(s) => s.state_of_charge(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc() -> Supercapacitor {
        Supercapacitor::new(Farads::new(0.1), Volts::new(5.0), Volts::new(1.8)).unwrap()
    }

    #[test]
    fn validation() {
        assert!(Supercapacitor::new(Farads::ZERO, Volts::new(5.0), Volts::new(1.8)).is_err());
        assert!(Supercapacitor::new(Farads::new(0.1), Volts::new(1.0), Volts::new(1.8)).is_err());
        assert!(Supercapacitor::new(Farads::new(0.1), Volts::new(5.0), Volts::ZERO).is_err());
    }

    #[test]
    fn deposit_withdraw_round_trip() {
        let mut s = sc();
        assert_eq!(s.stored_energy(), Joules::ZERO);
        let put = s.deposit(Joules::new(0.4));
        assert_eq!(put, Joules::new(0.4));
        let got = s.withdraw(Joules::new(0.4));
        assert!((got.value() - 0.4).abs() < 1e-12);
        assert!(s.stored_energy().value() < 1e-12);
    }

    #[test]
    fn clamps_at_full_and_empty() {
        let mut s = sc();
        let cap = s.usable_capacity();
        let absorbed = s.deposit(Joules::new(100.0));
        assert!((absorbed.value() - cap.value()).abs() < 1e-9);
        assert!((s.voltage().value() - 5.0).abs() < 1e-9);
        assert_eq!(s.state_of_charge(), Ratio::ONE);
        // Can't pull below v_min.
        let got = s.withdraw(Joules::new(1000.0));
        assert!((got.value() - cap.value()).abs() < 1e-9);
        assert!((s.voltage().value() - 1.8).abs() < 1e-9);
    }

    #[test]
    fn leakage_drains() {
        let mut s = sc();
        s.deposit(Joules::new(0.5));
        let before = s.voltage();
        s.leak(Seconds::from_hours(1.0));
        // 2 µA for 1 h on 0.1 F: ΔV = 72 mV.
        assert!((before - s.voltage()).value() - 0.072 < 1e-6);
    }

    #[test]
    fn usable_capacity_formula() {
        let s = sc();
        let expect = 0.5 * 0.1 * (25.0 - 3.24);
        assert!((s.usable_capacity().value() - expect).abs() < 1e-9);
    }

    #[test]
    fn ideal_store_semantics() {
        let mut s = IdealStore::new();
        s.deposit(Joules::new(2.0));
        assert_eq!(s.stored_energy(), Joules::new(2.0));
        let got = s.withdraw(Joules::new(5.0));
        assert_eq!(got, Joules::new(2.0));
        assert_eq!(s.stored_energy(), Joules::ZERO);
        s.leak(Seconds::from_hours(10.0));
        assert_eq!(s.state_of_charge(), Ratio::ONE);
    }

    #[test]
    fn negative_amounts_ignored() {
        let mut s = sc();
        assert_eq!(s.deposit(Joules::new(-1.0)), Joules::ZERO);
        assert_eq!(s.withdraw(Joules::new(-1.0)), Joules::ZERO);
    }

    #[test]
    fn battery_validation() {
        assert!(Battery::new(Joules::ZERO, 0.9, 0.05).is_err());
        assert!(Battery::new(Joules::new(10.0), 0.0, 0.05).is_err());
        assert!(Battery::new(Joules::new(10.0), 1.2, 0.05).is_err());
        assert!(Battery::new(Joules::new(10.0), 0.9, 1.0).is_err());
    }

    #[test]
    fn battery_coulombic_loss_and_capacity_clamp() {
        let mut b = Battery::new(Joules::new(10.0), 0.8, 0.0).unwrap();
        let absorbed = b.deposit(Joules::new(5.0));
        assert!((absorbed.value() - 4.0).abs() < 1e-12);
        // Fill it up; only the remaining 6 J of headroom can be absorbed.
        let absorbed = b.deposit(Joules::new(100.0));
        assert!((absorbed.value() - 6.0).abs() < 1e-12);
        assert_eq!(b.state_of_charge(), Ratio::ONE);
        // Discharge has no extra loss.
        assert_eq!(b.withdraw(Joules::new(4.0)), Joules::new(4.0));
    }

    #[test]
    fn battery_self_discharge_monthly() {
        let mut b = Battery::new(Joules::new(100.0), 1.0, 0.10)
            .unwrap()
            .with_state_of_charge(1.0);
        b.leak(Seconds::new(30.0 * 86_400.0));
        assert!((b.stored_energy().value() - 90.0).abs() < 1e-6);
        // Half a month loses about half the monthly fraction (compounded).
        let mut c = Battery::new(Joules::new(100.0), 1.0, 0.10)
            .unwrap()
            .with_state_of_charge(1.0);
        c.leak(Seconds::new(15.0 * 86_400.0));
        assert!(c.stored_energy().value() > 94.0 && c.stored_energy().value() < 96.0);
    }

    #[test]
    fn store_spec_builds_fresh_equivalent_stores() {
        let spec = StoreSpec::supercapacitor_022f_at(4.0);
        let mut a = spec.build().unwrap();
        let b = spec.build().unwrap();
        assert!(a.stored_energy().value() > 0.0);
        assert_eq!(a.stored_energy(), b.stored_energy());
        // Instances are independent: draining one leaves the other full.
        a.withdraw(Joules::new(1.0));
        assert!(a.stored_energy() < b.stored_energy());

        assert_eq!(
            StoreSpec::Ideal.build().unwrap().stored_energy(),
            Joules::ZERO
        );
        let bat = StoreSpec::Battery {
            capacity: Joules::new(200.0),
            charge_efficiency: 0.9,
            self_discharge_per_month: 0.03,
            initial_soc: 0.5,
        };
        assert_eq!(bat.build().unwrap().stored_energy(), Joules::new(100.0));
    }

    #[test]
    fn store_spec_propagates_validation() {
        let bad = StoreSpec::Battery {
            capacity: Joules::ZERO,
            charge_efficiency: 0.9,
            self_discharge_per_month: 0.03,
            initial_soc: 0.5,
        };
        assert!(bad.build().is_err());
    }

    #[test]
    fn concrete_store_matches_the_boxed_store_bitwise() {
        let specs = [
            StoreSpec::Ideal,
            StoreSpec::supercapacitor_022f_at(4.0),
            StoreSpec::Battery {
                capacity: Joules::new(200.0),
                charge_efficiency: 0.9,
                self_discharge_per_month: 0.03,
                initial_soc: 0.5,
            },
        ];
        for spec in specs {
            let mut boxed = spec.build().unwrap();
            let mut concrete = spec.build_concrete().unwrap();
            // A mixed op sequence with no-op withdraws and overfills.
            let ops: [(u8, f64); 9] = [
                (0, 0.3),
                (1, 0.1),
                (2, 3600.0),
                (1, 1e6),
                (0, 1e6),
                (1, 0.0),
                (2, 86_400.0),
                (0, -1.0),
                (1, 0.25),
            ];
            for (op, x) in ops {
                let (a, b) = match op {
                    0 => (
                        boxed.deposit(Joules::new(x)),
                        concrete.deposit(Joules::new(x)),
                    ),
                    1 => (
                        boxed.withdraw(Joules::new(x)),
                        concrete.withdraw(Joules::new(x)),
                    ),
                    _ => {
                        boxed.leak(Seconds::new(x));
                        concrete.leak(Seconds::new(x));
                        (Joules::ZERO, Joules::ZERO)
                    }
                };
                assert_eq!(a.value().to_bits(), b.value().to_bits(), "{spec:?} op {op}");
                assert_eq!(
                    boxed.stored_energy().value().to_bits(),
                    concrete.stored_energy().value().to_bits(),
                    "{spec:?} diverged after op {op}"
                );
                assert_eq!(boxed.state_of_charge(), concrete.state_of_charge());
            }
        }
    }

    #[test]
    fn battery_initial_soc_clamped() {
        let b = Battery::new(Joules::new(50.0), 1.0, 0.0)
            .unwrap()
            .with_state_of_charge(1.7);
        assert_eq!(b.stored_energy(), Joules::new(50.0));
        assert_eq!(b.capacity(), Joules::new(50.0));
    }
}
