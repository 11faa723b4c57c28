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
/// Work orders complete far more often than anything reads a prediction
/// (a policy sees the estimates only when a scheduling context is built),
/// so the fit is lazy: [`TrailingRegressor::observe`] only records the
/// value and marks the regressor stale, and [`TrailingRegressor::refresh`]
/// — which the engines run for every changed query right before they
/// build a context — fits the window once. [`TrailingRegressor::predict_next`]
/// is then an `O(1)` read of that fit; it debug-asserts that no
/// observation arrived since the last refresh.
#[derive(Debug, Clone)]
pub struct TrailingRegressor {
    values: VecDeque<f64>,
    next_index: u64,
    fallback: f64,
    /// [`TrailingRegressor::fit`] of the window as of the last
    /// [`TrailingRegressor::refresh`].
    prediction: f64,
    window: u32,
    /// Non-finite observations currently inside the window, maintained
    /// incrementally so [`TrailingRegressor::is_finite`] is `O(1)` —
    /// guard wrappers poll it on their snapshot scans, where refitting
    /// the regression just to test finiteness was the dominant cost.
    nonfinite_in_window: u32,
    /// An observation arrived since the last refresh, so `prediction`
    /// does not describe the window. Packed beside the two `u32`s, it
    /// keeps the struct at the size it had without the mark.
    stale: bool,
}

impl TrailingRegressor {
    /// Creates a regressor keeping the last `window` observations, with
    /// `fallback` used until observations arrive (the optimizer's
    /// estimate).
    pub fn new(window: usize, fallback: f64) -> Self {
        assert!(window >= 2, "window must hold at least two observations");
        Self {
            values: VecDeque::with_capacity(window),
            next_index: 0,
            fallback,
            prediction: fallback,
            window: u32::try_from(window).expect("window fits in u32"),
            nonfinite_in_window: 0,
            stale: false,
        }
    }

    /// Records a completed work order's observed value. `O(1)`: the fit
    /// waits for the next [`TrailingRegressor::refresh`].
    pub fn observe(&mut self, value: f64) {
        if self.values.len() == self.window as usize {
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
        self.stale = true;
    }

    /// Fits the window if an observation arrived since the last refresh
    /// (`O(window)`); otherwise does nothing.
    #[inline]
    pub fn refresh(&mut self) {
        if self.stale {
            self.prediction = self.fit();
            self.stale = false;
        }
    }

    /// Whether every input of the next prediction (windowed observations
    /// and the fallback estimate) is finite — and hence the prediction
    /// itself, barring overflow of finite inputs. `O(1)`, and current
    /// whether or not the regressor is stale.
    pub fn is_finite(&self) -> bool {
        self.nonfinite_in_window == 0 && self.fallback.is_finite()
    }

    /// Number of observations recorded so far (lifetime, not window).
    pub fn count(&self) -> u64 {
        self.next_index
    }

    /// Predicts the value of the *next* work order: the least-squares
    /// fit made by the last [`TrailingRegressor::refresh`]. `O(1)`.
    /// The caller must have refreshed since the last observation.
    #[inline]
    pub fn predict_next(&self) -> f64 {
        debug_assert!(!self.stale, "stale regressor read: refresh() after observe()");
        self.prediction
    }

    /// Least-squares line over the trailing window, evaluated one step
    /// past the window's end; predictions are clamped to be non-negative
    /// (durations and memory cannot be negative).
    pub(crate) fn fit(&self) -> f64 {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A regressor that has observed `values` and been refreshed.
    fn fitted(window: usize, fallback: f64, values: &[f64]) -> TrailingRegressor {
        let mut r = TrailingRegressor::new(window, fallback);
        for &v in values {
            r.observe(v);
        }
        r.refresh();
        r
    }

    #[test]
    fn fallback_until_observations() {
        let r = TrailingRegressor::new(4, 2.5);
        assert!(!r.stale);
        assert_eq!(r.predict_next(), 2.5);
    }

    #[test]
    fn single_observation_is_prediction() {
        assert_eq!(fitted(4, 0.0, &[3.0]).predict_next(), 3.0);
    }

    #[test]
    fn linear_trend_extrapolated() {
        let r = fitted(8, 0.0, &[1.0, 2.0, 3.0, 4.0]);
        // Perfect line y = x + 1 over x=0..3, next (x=4) is 5.
        assert!((r.predict_next() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn constant_values_predict_constant() {
        let r = fitted(5, 0.0, &[0.7; 10]);
        assert!((r.predict_next() - 0.7).abs() < 1e-9);
        assert_eq!(r.count(), 10);
    }

    #[test]
    fn window_slides() {
        let r = fitted(3, 0.0, &[100.0, 100.0, 100.0, 1.0, 1.0, 1.0]);
        // Old spikes evicted; window is flat at 1.
        assert!((r.predict_next() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prediction_clamped_non_negative() {
        // Trend would extrapolate to 0; steeper trends must not go below 0.
        assert!(fitted(4, 0.0, &[4.0, 3.0, 2.0, 1.0]).predict_next() >= 0.0);
        assert!(fitted(4, 0.0, &[9.0, 6.0, 3.0, 0.0]).predict_next() >= 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale regressor read")]
    fn reading_before_refresh_is_caught_in_debug_builds() {
        let mut r = TrailingRegressor::new(4, 0.0);
        r.observe(1.0);
        let _ = r.predict_next();
    }

    /// The stale mark lives in padding: one regressor is as large as it
    /// was when every observation refit eagerly, so the two per operator
    /// add nothing to a query's footprint (`OpRuntime`'s own pin is in
    /// `scheduler.rs`).
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn stale_mark_adds_no_bytes() {
        assert_eq!(std::mem::size_of::<TrailingRegressor>(), 72);
    }

    /// Independent least-squares recomputation from the raw window — the
    /// oracle for the prediction fitted at refresh time.
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

    /// Reads are separated by 0..=window observations (so some refreshes
    /// have nothing to fit and some follow a whole window slide), every
    /// special value — NaN, ±∞, ±0.0, a negative, a huge finite — goes
    /// through the window, and each read must equal the oracle over an
    /// independently kept window, bit for bit.
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
                let mut shadow: VecDeque<f64> = VecDeque::new();
                let mut fed = 0;
                let read = |r: &TrailingRegressor, shadow: &VecDeque<f64>| {
                    let win: Vec<f64> = shadow.iter().copied().collect();
                    let want = lsq_oracle(&win, fallback);
                    assert_eq!(
                        r.predict_next().to_bits(),
                        want.to_bits(),
                        "fitted {} vs recomputed {want} over {win:?}",
                        r.predict_next()
                    );
                    let finite = fallback.is_finite() && win.iter().all(|v| v.is_finite());
                    assert_eq!(r.is_finite(), finite, "non-finite count over {win:?}");
                };
                // Fallback before any observation.
                read(&r, &shadow);
                while fed < 6 * window + 9 {
                    let gap = (next() % (window as u64 + 1)) as usize;
                    for _ in 0..gap {
                        let v = if fed < specials.len() {
                            specials[fed]
                        } else {
                            let x = next();
                            if x % 7 == 0 {
                                specials[(x >> 8) as usize % specials.len()]
                            } else {
                                (x >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 1.0
                            }
                        };
                        r.observe(v);
                        shadow.push_back(v);
                        if shadow.len() > window {
                            shadow.pop_front();
                        }
                        fed += 1;
                    }
                    assert_eq!(r.stale, gap > 0);
                    r.refresh();
                    assert!(!r.stale);
                    read(&r, &shadow);
                    // A refresh with nothing new to fit changes nothing.
                    let before = r.predict_next().to_bits();
                    r.refresh();
                    assert_eq!(r.predict_next().to_bits(), before);
                }
                assert_eq!(r.count(), fed as u64);
            }
        }
    }
}
