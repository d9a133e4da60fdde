//! Impulse-response and energy-decay analysis.
//!
//! Room-acoustics simulations exist to produce impulse responses and derived
//! room parameters (auralisation, §I of the paper). This module provides the
//! standard post-processing: Schroeder backward integration of an impulse
//! response into an energy-decay curve (EDC), and reverberation-time
//! estimates (T20/T30-style linear fits extrapolated to 60 dB).

/// The Schroeder energy-decay curve: `EDC(t) = Σ_{τ≥t} p²(τ)`, normalised
/// to 0 dB at `t = 0`, returned in dB. Trailing zero energy yields `-inf`
/// entries.
pub fn schroeder_edc_db(ir: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    let mut tail: Vec<f64> = ir
        .iter()
        .rev()
        .map(|p| {
            acc += p * p;
            acc
        })
        .collect();
    tail.reverse();
    let total = tail.first().copied().unwrap_or(0.0);
    tail.into_iter()
        .map(
            |e| if e > 0.0 && total > 0.0 { 10.0 * (e / total).log10() } else { f64::NEG_INFINITY },
        )
        .collect()
}

/// First index where the EDC drops below `level_db` (negative), if any.
pub fn time_to_level(edc_db: &[f64], level_db: f64) -> Option<usize> {
    edc_db.iter().position(|&v| v <= level_db)
}

/// Reverberation time estimated from the decay between `-5 dB` and
/// `-5 - span_db` (T20: span 20, T30: span 30), extrapolated to 60 dB.
/// Returns the time in *steps*; multiply by the step period for seconds.
/// `None` when the response never decays far enough.
pub fn rt60_steps(edc_db: &[f64], span_db: f64) -> Option<f64> {
    let start = time_to_level(edc_db, -5.0)?;
    let end = time_to_level(edc_db, -5.0 - span_db)?;
    if end <= start {
        return None;
    }
    let steps_per_db = (end - start) as f64 / span_db;
    Some(steps_per_db * 60.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edc_of_pure_exponential_is_linear_in_db() {
        // p(t) = a^t ⇒ EDC is also exponential ⇒ dB curve is linear.
        let a: f64 = 0.98;
        let ir: Vec<f64> = (0..2000).map(|t| a.powi(t)).collect();
        let edc = schroeder_edc_db(&ir);
        // slope between two windows should match 20·log10(a) per step
        let slope1 = (edc[500] - edc[100]) / 400.0;
        let slope2 = (edc[1200] - edc[800]) / 400.0;
        assert!((slope1 - slope2).abs() < 1e-6, "{slope1} vs {slope2}");
        let expected = 20.0 * a.log10();
        assert!((slope1 - expected).abs() < 1e-6, "{slope1} vs {expected}");
    }

    #[test]
    fn edc_starts_at_zero_db_and_decreases() {
        let ir = vec![1.0, 0.5, 0.25, 0.125, 0.0625];
        let edc = schroeder_edc_db(&ir);
        assert_eq!(edc[0], 0.0);
        assert!(edc.windows(2).all(|w| w[1] <= w[0] + 1e-12));
    }

    #[test]
    fn rt60_matches_analytic_decay() {
        let a: f64 = 0.99;
        let ir: Vec<f64> = (0..8000).map(|t| a.powi(t)).collect();
        let edc = schroeder_edc_db(&ir);
        let rt = rt60_steps(&edc, 20.0).unwrap();
        // analytic: EDC slope 20·log10(a) dB/step ⇒ T60 = 60 / |slope|
        let expected = 60.0 / (20.0 * a.log10()).abs();
        assert!((rt - expected).abs() / expected < 0.02, "{rt} vs {expected}");
    }

    #[test]
    fn rt60_none_for_non_decaying() {
        let ir = vec![1.0; 100];
        let edc = schroeder_edc_db(&ir);
        assert!(rt60_steps(&edc, 20.0).is_none());
    }

    #[test]
    fn silence_is_neg_infinity() {
        let ir = vec![1.0, 0.0, 0.0];
        let edc = schroeder_edc_db(&ir);
        assert!(edc[1].is_infinite() && edc[1] < 0.0);
    }
}
