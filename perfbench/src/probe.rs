//! Per-layer measurements taken on their own, outside a workload pass:
//! the kernel cost per element, and deltas of the program's existing
//! `crowd-obs` series over a traced region.

use std::time::Instant;

use crowd_obs::{HistogramSnapshot, MetricsSnapshot};
use crowd_stats::kernels;

use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{Layer, Tracer};

/// The difference of two registry snapshots: what a region recorded.
pub struct ObsDelta {
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl ObsDelta {
    pub fn new(before: MetricsSnapshot, after: MetricsSnapshot) -> Self {
        Self { before, after }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.after
            .counter(name)
            .saturating_sub(self.before.counter(name))
    }

    /// The histogram of observations recorded between the snapshots
    /// (`max` is the process-wide maximum, not the region's).
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        let mut h = self.after.histogram(name)?.clone();
        if let Some(b) = self.before.histogram(name) {
            for (x, y) in h.buckets.iter_mut().zip(&b.buckets) {
                *x -= y;
            }
            h.count -= b.count;
            h.sum -= b.sum;
        }
        Some(h)
    }

    pub fn hist_sum(&self, name: &str) -> f64 {
        self.histogram(name).map_or(0.0, |h| h.sum)
    }

    pub fn hist_count(&self, name: &str) -> u64 {
        self.histogram(name).map_or(0, |h| h.count)
    }

    /// Bucket-edge quantile of the region's observations, with the count.
    pub fn hist_quantile(&self, name: &str, q: f64) -> (f64, u64) {
        self.histogram(name)
            .map_or((0.0, 0), |h| (h.quantile(q), h.count))
    }

    /// One delta covering several regions: their counters and
    /// histograms summed.
    pub fn merged(deltas: &[ObsDelta]) -> Option<ObsDelta> {
        if deltas.is_empty() {
            return None;
        }
        let mut before = MetricsSnapshot::default();
        let mut after = MetricsSnapshot::default();
        for d in deltas {
            before.merge(&d.before);
            after.merge(&d.after);
        }
        Some(ObsDelta::new(before, after))
    }
}

/// The `exec` layer's per-layer metrics from an obs delta.
pub fn exec_metrics(out: &mut Outcome, d: &ObsDelta) {
    let parallel = d.counter("core.pool.batches_total");
    let inline = d.counter("core.pool.inline_batches_total");
    let share = if parallel + inline == 0 {
        0.0
    } else {
        parallel as f64 / (parallel + inline) as f64
    };
    out.metric_n(
        "exec.parallel_batch_share",
        share,
        "share",
        (parallel + inline) as usize,
    );
    let (p99, n) = d.hist_quantile("core.pool.dispatch_seconds", 0.99);
    out.metric_n("exec.dispatch_p99_ms", p99 * 1e3, "ms", n as usize);
}

/// Per-element cost of the transcendental kernels on a posterior of
/// `rows × cols` log-values (table6's S_Rel shape), each the median of
/// repeated timed calls. Reported as `kernels.*_ns`.
pub fn kernel_metrics(out: &mut Outcome, tracer: &mut Tracer, rows: usize, cols: usize, seed: u64) {
    let n = rows * cols;
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    // Log-posteriors in [-30, 0]; probabilities in (0, 1]; logits in [-8, 8].
    let logs: Vec<f64> = (0..n).map(|_| -30.0 * next()).collect();
    let probs: Vec<f64> = (0..n).map(|_| 1.0 - next()).collect();
    let logits: Vec<f64> = (0..n).map(|_| 16.0 * next() - 8.0).collect();
    let mut buf = vec![0.0; n];
    let mut row_out = vec![0.0; rows];
    const REPS: usize = 101;

    let mut time = |tracer: &mut Tracer,
                    name: &str,
                    src: &[f64],
                    op: &mut dyn FnMut(&mut [f64], &mut [f64])| {
        let mut per_elem = Vec::with_capacity(REPS);
        let id = tracer.begin(Layer::Kernels, name);
        for _ in 0..REPS {
            buf.copy_from_slice(src);
            let t = Instant::now();
            op(std::hint::black_box(&mut buf), &mut row_out);
            per_elem.push(t.elapsed().as_secs_f64() * 1e9 / n as f64);
            std::hint::black_box(&buf);
        }
        tracer.end(id);
        median(&per_elem)
    };
    let exp_ns = time(tracer, "kernels.exp_slice", &logs, &mut |b, _| {
        kernels::exp_slice(b)
    });
    let ln_ns = time(tracer, "kernels.ln_slice", &probs, &mut |b, _| {
        kernels::ln_slice(b)
    });
    let sig_ns = time(tracer, "kernels.sigmoid_slice", &logits, &mut |b, _| {
        kernels::sigmoid_slice(b)
    });
    let lse_ns = time(
        tracer,
        "kernels.log_sum_exp_rows_flat",
        &logs,
        &mut |b, o| kernels::log_sum_exp_rows_flat(cols, b, o),
    );
    let norm_ns = time(
        tracer,
        "kernels.log_normalize_rows_flat",
        &logs,
        &mut |b, _| kernels::log_normalize_rows_flat(cols, b),
    );
    out.metric_n("kernels.exp_ns", exp_ns, "ns", REPS);
    out.metric_n("kernels.ln_ns", ln_ns, "ns", REPS);
    out.metric_n("kernels.sigmoid_ns", sig_ns, "ns", REPS);
    out.metric_n("kernels.log_sum_exp_rows_ns", lse_ns, "ns", REPS);
    out.metric_n("kernels.log_normalize_rows_ns", norm_ns, "ns", REPS);
}
