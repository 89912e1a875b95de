//! Host-speed gauge for the batch workloads.
//!
//! The shared guest the benchmark runs on drifts in speed by tens of
//! percent over minutes (other tenants' load on the shared cores; steal
//! time stays near 0), so two runs of the same code minutes apart can
//! read further apart than any bound. The gauge is a fixed `exp`/`ln`
//! loop over an L1-resident array — code of the benchmark's own, which no
//! change to the program touches — timed on the measuring thread between
//! timed calls, at most once per `INTERVAL`, so its samples spread evenly
//! over the measured time. A run's batch timings are reported at the
//! reference speed:
//!
//! ```text
//! reported = measured × (REF_S / gauge)^ALPHA
//! ```
//!
//! with `gauge` the run's median sample and `ALPHA` how strongly the batch
//! workloads' times follow the gauge (see `perfbench/README.md`). Two
//! builds measured in the same stretch of the host get the same factor,
//! so their ratio is the ratio of their measured times. The raw times and
//! the gauge go into the report.

use std::time::{Duration, Instant};

use crate::stats::median;

/// About the seconds one gauge loop takes on the reference host (2-vCPU
/// "Intel(R) Xeon(R) Processor" guest, release build) in a fast stretch;
/// it only sets the level of the reported times.
pub const REF_S: f64 = 0.000_5;

/// Slope of log batch time on log gauge time, measured over runs of
/// `table6` and `bigcrowd` in slow and fast stretches of the host: their
/// times move by about three quarters of the gauge's move.
pub const ALPHA: f64 = 0.75;

/// Least time between two samples.
const INTERVAL: Duration = Duration::from_millis(100);

/// Gauge samples taken over one run.
#[derive(Debug)]
pub struct Gauge {
    on: bool,
    buf: Vec<f64>,
    last: Option<Instant>,
    samples: Vec<f64>,
}

impl Gauge {
    /// A gauge that samples when `on` (the untraced run) and otherwise
    /// does nothing.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            buf: vec![0.0; 512],
            last: None,
            samples: Vec::new(),
        }
    }

    /// One loop: 120 sweeps of `exp` then `ln` over 512 values.
    fn time_once(&mut self) -> f64 {
        for (i, x) in self.buf.iter_mut().enumerate() {
            *x = 0.1 + i as f64 * 1e-3;
        }
        let t = Instant::now();
        for _ in 0..120 {
            for x in self.buf.iter_mut() {
                *x = (x.exp().ln() + 1e-9).abs();
            }
        }
        std::hint::black_box(&self.buf);
        t.elapsed().as_secs_f64()
    }

    /// Take a sample unless one was taken less than `INTERVAL` ago.
    pub fn tick(&mut self) {
        if !self.on || self.last.is_some_and(|t| t.elapsed() < INTERVAL) {
            return;
        }
        let s = self.time_once();
        self.samples.push(s);
        self.last = Some(Instant::now());
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Median sample of the run.
    pub fn median_s(&self) -> f64 {
        median(&self.samples)
    }

    /// Factor that turns a time measured in this run into a time at the
    /// reference speed (1.0 when no sample was taken).
    pub fn factor(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            (REF_S / self.median_s()).powf(ALPHA)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_at_most_once_per_interval() {
        let mut off = Gauge::new(false);
        off.tick();
        assert_eq!(off.len(), 0);
        assert_eq!(off.factor(), 1.0);
        let mut g = Gauge::new(true);
        g.tick();
        g.tick();
        assert_eq!(g.len(), 1);
        g.last = Some(Instant::now() - INTERVAL);
        g.tick();
        assert_eq!(g.len(), 2);
        assert!(g.median_s() > 0.0 && g.factor().is_finite());
    }

    #[test]
    fn factor_scales_to_reference() {
        let mut g = Gauge::new(true);
        g.samples = vec![2.0 * REF_S, 16.0 * REF_S, 100.0];
        // Median 16·REF_S: the gauge ran 16 times slower than at the
        // reference, so batch times are scaled by 16^-ALPHA.
        assert!((g.factor() - 16f64.powf(-ALPHA)).abs() < 1e-12);
        g.samples = vec![REF_S];
        assert_eq!(g.factor(), 1.0);
    }
}
