//! Execution statistics and the per-operator linear-regression estimators
//! behind the O-DUR and O-MEM features (Section 4.1 of the paper).

use std::collections::VecDeque;

/// Statistics reported by a worker thread when a work order completes
/// (Quickstep's completion messages, Section 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkOrderStats {
    /// Wall-clock duration of the work order, in seconds.
    pub duration: f64,
    /// Peak memory used by the work order, in bytes.
    pub memory: f64,
    /// Rows produced.
    pub output_rows: u64,
    /// Completion time (engine clock).
    pub completed_at: f64,
}

/// A sliding-window linear regressor.
///
/// The paper predicts the duration `D_{w_t}` of an operator's next work
/// order by fitting a linear regression *only on the work orders within
/// the last time window k* (footnote 1), trading accuracy for
/// computational efficiency. We regress the observed values against their
/// sequence index and extrapolate one step ahead; with fewer than two
/// observations the prediction falls back to the optimizer's estimate or
/// the running mean.
///
/// The fit runs once per observation and is cached, so
/// [`TrailingRegressor::predict_next`] is an `O(1)` read: schedulers and
/// feature snapshots query it far more often than work orders complete.
#[derive(Debug, Clone)]
pub struct TrailingRegressor {
    window: usize,
    values: VecDeque<f64>,
    next_index: u64,
    fallback: f64,
    /// Non-finite observations currently inside the window, maintained
    /// incrementally so [`TrailingRegressor::is_finite`] is `O(1)` —
    /// guard wrappers poll it on their snapshot scans, where refitting
    /// the regression just to test finiteness was the dominant cost.
    nonfinite_in_window: usize,
    /// [`TrailingRegressor::fit`] of the current window, refreshed by
    /// every [`TrailingRegressor::observe`].
    prediction: f64,
}

impl TrailingRegressor {
    /// Creates a regressor keeping the last `window` observations, with
    /// `fallback` used until observations arrive (the optimizer's
    /// estimate).
    pub fn new(window: usize, fallback: f64) -> Self {
        assert!(window >= 2, "window must hold at least two observations");
        Self {
            window,
            values: VecDeque::with_capacity(window),
            next_index: 0,
            fallback,
            nonfinite_in_window: 0,
            prediction: fallback,
        }
    }

    /// Records a completed work order's observed value.
    pub fn observe(&mut self, value: f64) {
        if self.values.len() == self.window {
            if let Some(old) = self.values.pop_front() {
                if !old.is_finite() {
                    self.nonfinite_in_window -= 1;
                }
            }
        }
        if !value.is_finite() {
            self.nonfinite_in_window += 1;
        }
        self.values.push_back(value);
        self.next_index += 1;
        self.prediction = self.fit();
    }

    /// Whether every input of the next prediction (windowed observations
    /// and the fallback estimate) is finite — and hence the prediction
    /// itself, barring overflow of finite inputs. `O(1)`.
    pub fn is_finite(&self) -> bool {
        self.nonfinite_in_window == 0 && self.fallback.is_finite()
    }

    /// Number of observations recorded so far (lifetime, not window).
    pub fn count(&self) -> u64 {
        self.next_index
    }

    /// Predicts the value of the *next* work order: the least-squares
    /// fit cached by the last [`TrailingRegressor::observe`]. `O(1)`.
    #[inline]
    pub fn predict_next(&self) -> f64 {
        self.prediction
    }

    /// Least-squares line over the trailing window, evaluated one step
    /// past the window's end; predictions are clamped to be non-negative
    /// (durations and memory cannot be negative).
    fn fit(&self) -> f64 {
        let n = self.values.len();
        match n {
            0 => self.fallback,
            1 => self.values[0],
            _ => {
                // x = 0..n-1, predict at x = n.
                let nf = n as f64;
                let sx = nf * (nf - 1.0) / 2.0;
                let sxx = (nf - 1.0) * nf * (2.0 * nf - 1.0) / 6.0;
                let sy: f64 = self.values.iter().sum();
                let sxy: f64 =
                    self.values.iter().enumerate().map(|(i, v)| i as f64 * v).sum();
                let denom = nf * sxx - sx * sx;
                if denom.abs() < 1e-12 {
                    return (sy / nf).max(0.0);
                }
                let slope = (nf * sxy - sx * sy) / denom;
                let intercept = (sy - slope * sx) / nf;
                (intercept + slope * nf).max(0.0)
            }
        }
    }

    /// Mean of the trailing window (or the fallback when empty).
    pub fn window_mean(&self) -> f64 {
        if self.values.is_empty() {
            self.fallback
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fallback_until_observations() {
        let r = TrailingRegressor::new(4, 2.5);
        assert_eq!(r.predict_next(), 2.5);
        assert_eq!(r.window_mean(), 2.5);
    }

    #[test]
    fn single_observation_is_prediction() {
        let mut r = TrailingRegressor::new(4, 0.0);
        r.observe(3.0);
        assert_eq!(r.predict_next(), 3.0);
    }

    #[test]
    fn linear_trend_extrapolated() {
        let mut r = TrailingRegressor::new(8, 0.0);
        for v in [1.0, 2.0, 3.0, 4.0] {
            r.observe(v);
        }
        // Perfect line y = x + 1 over x=0..3, next (x=4) is 5.
        assert!((r.predict_next() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn constant_values_predict_constant() {
        let mut r = TrailingRegressor::new(5, 0.0);
        for _ in 0..10 {
            r.observe(0.7);
        }
        assert!((r.predict_next() - 0.7).abs() < 1e-9);
        assert_eq!(r.count(), 10);
    }

    #[test]
    fn window_slides() {
        let mut r = TrailingRegressor::new(3, 0.0);
        for v in [100.0, 100.0, 100.0, 1.0, 1.0, 1.0] {
            r.observe(v);
        }
        // Old spikes evicted; window is flat at 1.
        assert!((r.predict_next() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prediction_clamped_non_negative() {
        let mut r = TrailingRegressor::new(4, 0.0);
        for v in [4.0, 3.0, 2.0, 1.0] {
            r.observe(v);
        }
        // Trend would extrapolate to 0; steeper trends must not go below 0.
        let mut r2 = TrailingRegressor::new(4, 0.0);
        for v in [9.0, 6.0, 3.0, 0.0] {
            r2.observe(v);
        }
        assert!(r.predict_next() >= 0.0);
        assert!(r2.predict_next() >= 0.0);
    }

    /// Independent least-squares recomputation from the raw window — the
    /// oracle for the prediction cached at `observe` time.
    fn lsq_oracle(window: &[f64], fallback: f64) -> f64 {
        match window.len() {
            0 => fallback,
            1 => window[0],
            n => {
                let nf = n as f64;
                let sx = nf * (nf - 1.0) / 2.0;
                let sxx = (nf - 1.0) * nf * (2.0 * nf - 1.0) / 6.0;
                let sy: f64 = window.iter().sum();
                let sxy: f64 = window.iter().enumerate().map(|(i, v)| i as f64 * v).sum();
                let denom = nf * sxx - sx * sx;
                if denom.abs() < 1e-12 {
                    return (sy / nf).max(0.0);
                }
                let slope = (nf * sxy - sx * sy) / denom;
                let intercept = (sy - slope * sx) / nf;
                (intercept + slope * nf).max(0.0)
            }
        }
    }

    fn assert_cached_matches(r: &TrailingRegressor) {
        let window: Vec<f64> = r.values.iter().copied().collect();
        let want = lsq_oracle(&window, r.fallback);
        assert_eq!(
            r.predict_next().to_bits(),
            want.to_bits(),
            "cached {} vs recomputed {want} over {window:?}",
            r.predict_next()
        );
    }

    #[test]
    fn cached_prediction_matches_recomputation_bitwise() {
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -3.5, 1e300];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for window in [2, 3, 5, 16] {
            for fallback in [0.0, 0.25, f64::NAN, f64::INFINITY] {
                let mut r = TrailingRegressor::new(window, fallback);
                // Fallback before any observation.
                assert_cached_matches(&r);
                for _ in 0..(4 * window + 9) {
                    let x = next();
                    let v = if x % 11 == 0 {
                        specials[(x >> 8) as usize % specials.len()]
                    } else {
                        (x >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 1.0
                    };
                    r.observe(v);
                    assert_cached_matches(&r);
                }
            }
        }
    }
}
