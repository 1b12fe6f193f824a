//! The accuracy block: the model's error against the paper's reference
//! values, computed with the same public calls as the `table1_tracking`
//! and `sec4_astable_power` experiments. These are simulated statistics,
//! identical on every run; a change that only makes the code faster
//! leaves them identical.

use eh_analog::astable::AstableMultivibrator;
use eh_analog::sample_hold::{SampleHold, SampleHoldConfig};
use eh_analog::CurrentLedger;
use eh_core::{tracking_accuracy_table, SystemConfig};
use eh_sim::{drive, Light, SimError, StepInput, StepOutput, Stepper};
use eh_units::{Lux, Seconds, Volts};

use crate::json_num;

/// The paper's Table I: intensity (lux) and measured k (%).
const PAPER_TABLE1: [(f64, f64); 12] = [
    (200.0, 59.6),
    (300.0, 59.4),
    (400.0, 59.5),
    (500.0, 59.3),
    (600.0, 59.2),
    (700.0, 59.2),
    (800.0, 59.5),
    (900.0, 59.5),
    (1000.0, 59.7),
    (2000.0, 59.4),
    (3000.0, 59.8),
    (5000.0, 60.1),
];
/// §IV-A: PULSE width 39 ms, period 69 s, astable + S&H draw 7.6 µA.
const PAPER_PULSE_MS: f64 = 39.0;
const PAPER_PERIOD_S: f64 = 69.0;
const PAPER_DRAW_UA: f64 = 7.6;

/// The paper's §IV-A bench measurement: astable plus sample-and-hold on
/// a 3.3 V supply, stepped from transition to transition.
struct DrawProbe {
    astable: AstableMultivibrator,
    sh: SampleHold,
    ledger: CurrentLedger,
}

impl Stepper for DrawProbe {
    type Error = SimError;
    fn step(
        &mut self,
        _t: Seconds,
        planned: Seconds,
        _input: &StepInput,
    ) -> Result<StepOutput, SimError> {
        let seg = self
            .astable
            .time_to_next_transition()
            .max(Seconds::from_milli(1.0))
            .min(planned);
        let pulse = self.astable.output_high();
        let a = self.astable.step(seg);
        let s = self.sh.step(Volts::new(5.44), pulse, seg);
        self.ledger
            .accumulate("astable", a.supply_charge / seg, seg);
        self.ledger
            .accumulate("sample-and-hold", s.supply_charge / seg, seg);
        self.ledger.advance(seg);
        Ok(StepOutput::dwell(seg))
    }
}

/// Model values beside the paper's.
pub struct Accuracy {
    rows: Vec<(&'static str, &'static str, f64, f64)>,
    max_k_err_pct: f64,
    error: Option<String>,
}

impl Accuracy {
    /// Why the block could not be computed, if it could not.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// One human-readable line.
    pub fn render_text(&self) -> String {
        if let Some(e) = &self.error {
            return format!("accuracy: unavailable ({e})");
        }
        let mut parts: Vec<String> = self
            .rows
            .iter()
            .map(|(name, unit, model, paper)| format!("{name} {model:.4} {unit} (paper {paper})"))
            .collect();
        parts.push(format!(
            "max |k - paper k| over Table I {:.4} %-points",
            self.max_k_err_pct
        ));
        format!("accuracy: {}", parts.join(" | "))
    }

    /// The block as a JSON object.
    pub fn render_json(&self) -> String {
        if let Some(e) = &self.error {
            return format!("{{\"error\":{}}}", crate::json_str(e));
        }
        let mut members: Vec<String> = self
            .rows
            .iter()
            .map(|(name, unit, model, paper)| {
                format!(
                    "\"{name}\":{{\"model\":{},\"paper\":{},\"unit\":\"{unit}\",\"rel_err\":{}}}",
                    json_num(*model),
                    json_num(*paper),
                    json_num((model - paper) / paper)
                )
            })
            .collect();
        members.push(format!(
            "\"table1_max_abs_k_err_pct\":{}",
            json_num(self.max_k_err_pct)
        ));
        format!("{{{}}}", members.join(","))
    }
}

fn compute() -> Result<Accuracy, Box<dyn std::error::Error>> {
    let astable = AstableMultivibrator::paper_configuration()?;
    let (t_on, t_off) = astable.analytic_periods();

    let mut probe = DrawProbe {
        astable: AstableMultivibrator::paper_configuration()?,
        sh: SampleHold::new(SampleHoldConfig::paper_configuration(0.298)?)?,
        ledger: CurrentLedger::new(),
    };
    drive(
        &mut probe,
        &Light::constant(Lux::ZERO, Seconds::new(5.0 * 69.05)),
        Seconds::new(1.0),
    )?;
    let draw_ua = probe.ledger.average_current_elapsed().value() * 1e6;

    let intensities: Vec<Lux> = PAPER_TABLE1.iter().map(|&(l, _)| Lux::new(l)).collect();
    let table = tracking_accuracy_table(&SystemConfig::paper_prototype()?, &intensities, 3)?;
    let max_k_err_pct = table
        .iter()
        .zip(&PAPER_TABLE1)
        .map(|(row, &(_, paper_k))| (row.k.as_percent() - paper_k).abs())
        .fold(0.0, f64::max);

    Ok(Accuracy {
        rows: vec![
            ("pulse_width", "ms", t_on.value() * 1e3, PAPER_PULSE_MS),
            ("period", "s", (t_on + t_off).value(), PAPER_PERIOD_S),
            ("metrology_draw", "uA", draw_ua, PAPER_DRAW_UA),
        ],
        max_k_err_pct,
        error: None,
    })
}

/// Computes the block; a model error is recorded in it, not raised.
pub fn measure() -> Accuracy {
    compute().unwrap_or_else(|e| Accuracy {
        rows: Vec::new(),
        max_k_err_pct: f64::NAN,
        error: Some(e.to_string()),
    })
}
