//! The seventeen truth-inference methods of Table 4.
//!
//! Each submodule implements one method with its paper-faithful task
//! model, worker model, and inference technique, plus unit tests against
//! the paper's running example and simulated data.

use std::sync::OnceLock;

/// Posterior rows produced by the fused row kernels
/// ([`crowd_stats::fused_posterior_row`] / `fused_two_term_row`) — one
/// count per task row per E-step sweep, added in bulk per sweep/chunk.
pub(crate) fn obs_fused_rows() -> &'static crowd_obs::Counter {
    static H: OnceLock<crowd_obs::Counter> = OnceLock::new();
    H.get_or_init(|| crowd_obs::counter("core.kernel.fused_rows_total"))
}

/// Wall time of one fused E-step sweep, timer-sampled around the whole
/// pass (the view-level methods record the same sample into
/// `core.shard.estep_seconds`).
pub(crate) fn obs_kernel_estep_seconds() -> &'static crowd_obs::Histogram {
    static H: OnceLock<crowd_obs::Histogram> = OnceLock::new();
    H.get_or_init(|| crowd_obs::histogram("core.kernel.estep_seconds"))
}

/// Wall time of one M-step pass that is not a closed-form table update
/// (Minimax's dual ascent: `gradient_steps` softmax-and-fold rounds),
/// one sample per outer iteration — the complement of
/// `core.kernel.estep_seconds` for the same method.
pub(crate) fn obs_kernel_mstep_seconds() -> &'static crowd_obs::Histogram {
    static H: OnceLock<crowd_obs::Histogram> = OnceLock::new();
    H.get_or_init(|| crowd_obs::histogram("core.kernel.mstep_seconds"))
}

mod bcc;
mod catd;
mod cbcc;
mod ds;
mod glad;
mod kos;
mod lfc;
mod lfc_n;
mod mean;
mod median;
mod minimax;
mod multi;
mod mv;
mod pm;
mod vi_bp;
mod vi_mf;
mod zc;

pub use bcc::Bcc;
pub use catd::Catd;
pub use cbcc::Cbcc;
pub use ds::Ds;
pub use glad::Glad;
pub use kos::Kos;
pub use lfc::Lfc;
pub use lfc_n::LfcN;
pub use mean::MeanAgg;
pub use median::MedianAgg;
pub use minimax::Minimax;
pub use multi::Multi;
pub use mv::Mv;
pub use pm::Pm;
pub use vi_bp::ViBp;
pub use vi_mf::ViMf;
pub use zc::Zc;

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures for method unit tests.

    use crowd_data::datasets::PaperDataset;
    use crowd_data::toy::paper_example;
    use crowd_data::{Answer, Dataset};

    use crate::framework::{InferenceOptions, InferenceResult, TruthInference};

    /// The paper's Table 2 example.
    pub fn toy() -> Dataset {
        paper_example()
    }

    /// A small but informative decision-making dataset (simulated
    /// D_Product at 10% scale — large enough for confusion-matrix
    /// estimation to be stable).
    pub fn small_decision() -> Dataset {
        PaperDataset::DProduct.generate(0.1, 42)
    }

    /// A small single-choice dataset with 4 labels (5% of S_Rel — big
    /// enough that multi-class EM methods are stable).
    pub fn small_single() -> Dataset {
        PaperDataset::SRel.generate(0.05, 1234)
    }

    /// A small numeric dataset.
    pub fn small_numeric() -> Dataset {
        PaperDataset::NEmotion.generate(0.2, 1234)
    }

    /// Accuracy of inferred truths against known ground truth.
    pub fn accuracy(dataset: &Dataset, result: &InferenceResult) -> f64 {
        let mut total = 0usize;
        let mut correct = 0usize;
        for (task, truth) in dataset.truths().iter().enumerate() {
            if let Some(t) = truth {
                total += 1;
                if &result.truths[task] == t {
                    correct += 1;
                }
            }
        }
        correct as f64 / total.max(1) as f64
    }

    /// F1-score on the positive class (label 0) against ground truth.
    pub fn f1(dataset: &Dataset, result: &InferenceResult) -> f64 {
        let (mut tp, mut fp, mut fn_) = (0usize, 0usize, 0usize);
        for (task, truth) in dataset.truths().iter().enumerate() {
            if let Some(Answer::Label(g)) = truth {
                let p = result.truths[task].label().expect("categorical estimate");
                match (p, g) {
                    (0, 0) => tp += 1,
                    (0, _) => fp += 1,
                    (_, 0) => fn_ += 1,
                    _ => {}
                }
            }
        }
        let precision = tp as f64 / (tp + fp).max(1) as f64;
        let recall = tp as f64 / (tp + fn_).max(1) as f64;
        if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        }
    }

    /// RMSE of inferred numeric truths against ground truth.
    pub fn rmse(dataset: &Dataset, result: &InferenceResult) -> f64 {
        let mut total = 0usize;
        let mut sq = 0.0;
        for (task, truth) in dataset.truths().iter().enumerate() {
            if let Some(Answer::Numeric(t)) = truth {
                total += 1;
                let est = result.truths[task].numeric().expect("numeric estimate");
                sq += (est - t).powi(2);
            }
        }
        (sq / total.max(1) as f64).sqrt()
    }

    /// Run a method with default options and assert it beats the given
    /// accuracy bar on the dataset.
    pub fn assert_accuracy_at_least(
        method: &dyn TruthInference,
        dataset: &Dataset,
        bar: f64,
    ) -> InferenceResult {
        let result = method
            .infer(dataset, &InferenceOptions::seeded(7))
            .unwrap_or_else(|e| panic!("{} failed: {e}", method.name()));
        let acc = accuracy(dataset, &result);
        assert!(
            acc >= bar,
            "{} accuracy {acc} below bar {bar}",
            method.name()
        );
        result
    }

    /// Check structural invariants every result must satisfy.
    pub fn assert_result_sane(dataset: &Dataset, result: &InferenceResult) {
        assert_eq!(result.truths.len(), dataset.num_tasks());
        assert_eq!(result.worker_quality.len(), dataset.num_workers());
        assert!(result.iterations >= 1);
        if let Some(post) = &result.posteriors {
            assert_eq!(post.len(), dataset.num_tasks());
            for p in post {
                let sum: f64 = p.iter().sum();
                assert!((sum - 1.0).abs() < 1e-6, "posterior sums to {sum}");
                assert!(p.iter().all(|&x| (-1e-9..=1.0 + 1e-9).contains(&x)));
            }
        }
    }
}
