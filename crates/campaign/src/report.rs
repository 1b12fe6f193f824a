//! Campaign outcomes and survival statistics.
//!
//! A [`CampaignReport`] holds one [`CampaignNodeOutcome`] per node in
//! fleet order. The campaign runner collects them epoch by epoch from
//! the fleet layer's shard fold, whose per-node outcomes do not depend
//! on sharding, so the report — and every derived survival statistic —
//! is bit-for-bit identical at any worker count and shard size.

use std::fmt;

use eh_fleet::{Percentiles, Placement};
use eh_obs::Recorder;
use eh_units::Joules;

use crate::schedule::FaultKind;

/// One node's endurance outcome across every epoch of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignNodeOutcome {
    /// The node's fleet index.
    pub id: u32,
    /// Where the node was deployed.
    pub placement: Placement,
    /// The first campaign day on which the node failed to serve load,
    /// if it ever did. Timing is estimated inside the failing epoch
    /// from the served-energy fraction — exact to the epoch, approximate
    /// within it (documented in DESIGN.md §13).
    pub first_brownout_day: Option<u32>,
    /// How many epochs contained at least one brownout.
    pub brownout_epochs: u32,
    /// The fault injected into this node, if any.
    pub fault: Option<(FaultKind, u32)>,
    /// Net harvested energy summed over the whole campaign.
    pub net_energy: Joules,
    /// Usable store energy at the end of the final epoch.
    pub final_store_energy: Joules,
}

impl CampaignNodeOutcome {
    /// Days survived before the first brownout (the full campaign length
    /// for survivors).
    pub fn survival_days(&self, campaign_days: u32) -> u32 {
        self.first_brownout_day.unwrap_or(campaign_days)
    }
}

/// The merged outcome of an endurance campaign: every node's outcome in
/// fleet order plus the campaign length the survival statistics are
/// measured against.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The campaign's display name.
    pub name: String,
    /// Campaign length in simulated days.
    pub days: u32,
    /// Per-node outcomes, in fleet (input) order.
    pub outcomes: Vec<CampaignNodeOutcome>,
}

impl CampaignReport {
    /// Number of nodes aggregated.
    pub fn nodes(&self) -> usize {
        self.outcomes.len()
    }

    /// Nodes that never browned out.
    pub fn survivors(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.first_brownout_day.is_none())
            .count()
    }

    /// Nodes that browned out at least once.
    pub fn browned_out(&self) -> usize {
        self.nodes() - self.survivors()
    }

    /// Nodes that had a fault injected.
    pub fn faulted(&self) -> usize {
        self.outcomes.iter().filter(|o| o.fault.is_some()).count()
    }

    /// Survival-days percentiles across the whole fleet (survivors count
    /// the full campaign length).
    pub fn survival_percentiles(&self) -> Option<Percentiles> {
        Percentiles::of(
            self.outcomes
                .iter()
                .map(|o| f64::from(o.survival_days(self.days)))
                .collect(),
        )
    }

    /// Time-to-first-brownout percentiles over the nodes that browned
    /// out; `None` when every node survived.
    pub fn time_to_first_brownout_percentiles(&self) -> Option<Percentiles> {
        Percentiles::of(
            self.outcomes
                .iter()
                .filter_map(|o| o.first_brownout_day.map(f64::from))
                .collect(),
        )
    }

    /// Campaign-total net-energy percentiles, in joules.
    pub fn net_energy_percentiles(&self) -> Option<Percentiles> {
        Percentiles::of(self.outcomes.iter().map(|o| o.net_energy.value()).collect())
    }

    /// Survivors deployed at the given placement.
    pub fn survivors_at(&self, p: Placement) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.placement == p && o.first_brownout_day.is_none())
            .count()
    }

    /// Records the campaign's headline statistics into a metric store
    /// (counters `campaign.nodes` / `.survivors` / `.faulted`, gauge
    /// `campaign.survival_days_p50`).
    pub fn record_into<R: Recorder>(&self, recorder: &mut R) {
        recorder.add_counter("campaign.nodes", self.nodes() as u64);
        recorder.add_counter("campaign.survivors", self.survivors() as u64);
        recorder.add_counter("campaign.faulted", self.faulted() as u64);
        if let Some(p) = self.survival_percentiles() {
            recorder.set_gauge("campaign.survival_days_p50", p.p50);
        }
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "campaign `{}` — {} nodes over {} days",
            self.name,
            self.nodes(),
            self.days
        )?;
        writeln!(
            f,
            "  survivors {} / {}   faulted {}",
            self.survivors(),
            self.nodes(),
            self.faulted()
        )?;
        if let Some(p) = self.survival_percentiles() {
            writeln!(
                f,
                "  survival     p5 {:>7.1} d   p50 {:>7.1} d   p95 {:>7.1} d",
                p.p5, p.p50, p.p95
            )?;
        }
        if let Some(p) = self.time_to_first_brownout_percentiles() {
            writeln!(
                f,
                "  first brown  p5 {:>7.1} d   p50 {:>7.1} d   p95 {:>7.1} d",
                p.p5, p.p50, p.p95
            )?;
        }
        if let Some(p) = self.net_energy_percentiles() {
            writeln!(
                f,
                "  net energy   p5 {:>10.2} J   p50 {:>10.2} J   p95 {:>10.2} J",
                p.p5, p.p50, p.p95
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u32, brown: Option<u32>) -> CampaignNodeOutcome {
        CampaignNodeOutcome {
            id,
            placement: Placement::InteriorDesk,
            first_brownout_day: brown,
            brownout_epochs: u32::from(brown.is_some()),
            fault: id
                .is_multiple_of(3)
                .then_some((FaultKind::DropoutStorm, 10)),
            net_energy: Joules::new(f64::from(id)),
            final_store_energy: Joules::ZERO,
        }
    }

    fn report(outcomes: Vec<CampaignNodeOutcome>) -> CampaignReport {
        CampaignReport {
            name: "t".to_owned(),
            days: 100,
            outcomes,
        }
    }

    #[test]
    fn survival_counts_and_percentiles() {
        let r = report(vec![
            outcome(0, None),
            outcome(1, Some(20)),
            outcome(2, Some(60)),
            outcome(3, None),
        ]);
        assert_eq!(r.survivors(), 2);
        assert_eq!(r.browned_out(), 2);
        let p = r.survival_percentiles().unwrap();
        assert_eq!(p.p5, 20.0);
        assert_eq!(p.p95, 100.0);
        let b = r.time_to_first_brownout_percentiles().unwrap();
        assert_eq!(b.p5, 20.0);
        assert_eq!(b.p95, 60.0);
    }

    #[test]
    fn all_survivors_have_no_brownout_percentiles() {
        let r = report(vec![outcome(0, None), outcome(1, None)]);
        assert!(r.time_to_first_brownout_percentiles().is_none());
        assert_eq!(r.survival_percentiles().unwrap().p50, 100.0);
    }

    #[test]
    fn record_into_emits_headline_metrics() {
        use eh_obs::Metrics;
        let r = report(vec![
            outcome(0, Some(5)),
            outcome(1, None),
            outcome(2, None),
        ]);
        let mut m = Metrics::new();
        r.record_into(&mut m);
        assert_eq!(m.counter("campaign.nodes"), 3);
        assert_eq!(m.counter("campaign.survivors"), 2);
        assert_eq!(m.counter("campaign.faulted"), 1);
        assert_eq!(m.gauge("campaign.survival_days_p50"), Some(100.0));
    }

    #[test]
    fn display_renders_survival() {
        let s = report(vec![outcome(0, Some(30)), outcome(1, None)]).to_string();
        assert!(s.contains("survivors 1 / 2"));
        assert!(s.contains("first brown"));
    }
}
