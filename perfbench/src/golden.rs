//! Pinned outcomes of the default seed (`golden.json`).
//!
//! Integer outcomes (counts and classifications) must match exactly;
//! energy percentiles must agree within the PV cache's documented
//! relative bound. Result bits are not pinned, so a change that only
//! makes the code faster, and keeps every classification, passes.

use eh_serve::Json;

use crate::stats::rel_err;

/// The PV cache's documented relative energy bound.
pub const ENERGY_REL: f64 = 5e-3;

const GOLDEN: &str = include_str!("../golden.json");

/// One observed value of the first timed operation.
pub struct Observed {
    /// Key in the workload's `golden.json` object.
    pub key: String,
    /// The observed value.
    pub value: f64,
    /// Exact (counts) or within [`ENERGY_REL`] (energies).
    pub exact: bool,
}

impl Observed {
    /// A count that must match exactly.
    pub fn count(key: impl Into<String>, value: usize) -> Self {
        Self {
            key: key.into(),
            value: value as f64,
            exact: true,
        }
    }

    /// An energy that must agree within [`ENERGY_REL`].
    pub fn energy(key: impl Into<String>, value: f64) -> Self {
        Self {
            key: key.into(),
            value,
            exact: false,
        }
    }
}

/// Renders observed values as the JSON object `golden.json` holds for a
/// workload, so a deliberate model change can re-pin them.
pub fn render(observed: &[Observed]) -> String {
    let members: Vec<String> = observed
        .iter()
        .map(|o| format!("\"{}\":{}", o.key, crate::json_num(o.value)))
        .collect();
    format!("{{{}}}", members.join(","))
}

/// Compares `observed` with the pinned values of `workload`.
pub fn check(workload: &str, observed: &[Observed]) -> Result<(), String> {
    let golden = Json::parse(GOLDEN).map_err(|e| format!("golden.json does not parse: {e}"))?;
    let pinned = golden
        .get(workload)
        .ok_or_else(|| format!("golden.json has no {workload} entry"))?;
    let mut bad = Vec::new();
    for o in observed {
        let Some(want) = pinned.get(&o.key).and_then(Json::as_f64) else {
            bad.push(format!("{} has no pinned value", o.key));
            continue;
        };
        let ok = if o.exact {
            want == o.value
        } else {
            rel_err(want, o.value) <= ENERGY_REL
        };
        if !ok {
            bad.push(format!("{} = {} (pinned {want})", o.key, o.value));
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("default-seed outcomes moved: {}", bad.join("; ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_hold_their_own_values_and_reject_moved_ones() {
        let pinned = Json::parse(GOLDEN).expect("golden.json parses");
        let workload = pinned.get("campaign_endurance").expect("an entry");
        let survivors = workload.get("survivors").and_then(Json::as_f64).unwrap();
        let p50 = workload.get("net_j_p50").and_then(Json::as_f64).unwrap();
        let ok = [
            Observed::count("survivors", survivors as usize),
            Observed::energy("net_j_p50", p50 * (1.0 + 0.5 * ENERGY_REL)),
        ];
        assert!(check("campaign_endurance", &ok).is_ok());
        let moved = [Observed::count("survivors", survivors as usize + 1)];
        assert!(check("campaign_endurance", &moved).is_err());
        let drifted = [Observed::energy(
            "net_j_p50",
            p50 * (1.0 + 2.0 * ENERGY_REL),
        )];
        assert!(check("campaign_endurance", &drifted).is_err());
        let unknown = [Observed::count("no_such_key", 0)];
        assert!(check("campaign_endurance", &unknown).is_err());
    }
}
