//! The inference trait, options, results, and errors shared by all
//! seventeen methods.

use crowd_data::{Answer, Dataset, TaskType};
use std::fmt;

/// How a method initialises worker qualities (line 1 of Algorithm 1).
#[derive(Debug, Clone, Default)]
pub enum QualityInit {
    /// Every worker starts at the method's default quality.
    #[default]
    Uniform,
    /// Initialise from a qualification test: per-worker accuracy in
    /// `[0, 1]` (`None` for workers without a test score, who fall back
    /// to the default). For numeric methods the value is the accuracy
    /// proxy produced by `crowd_data::bootstrap_qualification`.
    Qualification(Vec<Option<f64>>),
}

/// Converged state carried from one inference run into the next — the
/// substrate of incremental/streaming re-convergence (`crowd-stream`).
///
/// When answers arrive over time, re-running EM from the majority-vote
/// initialisation discards everything the previous run learned. A warm
/// start reuses the previous run's **posteriors** and **worker quality
/// parameters** (confusion matrices for the D&S family, correctness
/// probabilities for ZC/GLAD) as the starting point, so the loop only has
/// to absorb the new answers' evidence. At an unchanged answer log the
/// warmed loop re-converges at the same fixed point as a cold run
/// (labels exactly, parameters within the convergence tolerance — see
/// the `crowd-stream` equivalence tests).
///
/// Vectors are indexed by the *previous* run's task/worker ids; entries
/// past the end (tasks or workers that appeared since) fall back to the
/// method's cold initialisation. Methods that do not support warm starts
/// ignore the field.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    /// Per-task posterior over the `ℓ` choices from the previous run
    /// (`InferenceResult::posteriors`); `None` for methods that did not
    /// produce one.
    pub posteriors: Option<Vec<Vec<f64>>>,
    /// Per-worker quality from the previous run
    /// (`InferenceResult::worker_quality`).
    pub worker_quality: Vec<WorkerQuality>,
}

impl WarmStart {
    /// Capture the warm-startable state of a finished run.
    pub fn from_result(result: &InferenceResult) -> Self {
        Self {
            posteriors: result.posteriors.clone(),
            worker_quality: result.worker_quality.clone(),
        }
    }
}

/// Options shared by every method.
#[derive(Debug, Clone)]
pub struct InferenceOptions {
    /// Iteration cap for the outer two-step loop (paper default: enough
    /// to converge; we cap at 100).
    pub max_iterations: usize,
    /// Convergence tolerance on the mean absolute parameter change
    /// (paper example: 1e-3).
    pub tolerance: f64,
    /// Seed for any stochastic component (tie breaking, Gibbs sampling,
    /// message initialisation). Same seed ⇒ same output.
    pub seed: u64,
    /// Worker-quality initialisation.
    pub quality_init: QualityInit,
    /// Hidden-test golden tasks: a full-length truth vector with `Some`
    /// exactly at tasks whose truth the method may use (Section 6.3.3).
    /// Methods that support golden tasks clamp these truths in their
    /// truth-inference step and use them in their quality-estimation
    /// step; others ignore the field.
    pub golden: Option<Vec<Option<Answer>>>,
    /// Cap for a method's *internal* parallel fan-out (the size-gated
    /// E/M-step fan-out of the D&S family and Minimax's dual ascent and
    /// truth update). `None` = use the machine's
    /// available parallelism. Callers that already fan out at a higher
    /// level (e.g. the experiment harness running repeats in parallel)
    /// should set `Some(1)` to avoid oversubscribing the machine. Thread
    /// count never changes results — per-task/per-worker updates are
    /// independent, so outputs are bit-identical at any setting.
    pub threads: Option<usize>,
    /// Resume from a previous run's converged state instead of the cold
    /// initialisation (majority vote / uniform qualities). Supported by
    /// the EM-family categorical methods (D&S, LFC, ZC, GLAD); others
    /// ignore it. Takes precedence over `quality_init` when both are
    /// set.
    pub warm_start: Option<WarmStart>,
}

impl Default for InferenceOptions {
    fn default() -> Self {
        Self {
            max_iterations: 100,
            tolerance: 1e-3,
            seed: 0,
            quality_init: QualityInit::Uniform,
            golden: None,
            threads: None,
            warm_start: None,
        }
    }
}

impl InferenceOptions {
    /// Options with a specific seed, otherwise defaults.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}

/// A method's estimate of one worker's quality, in whatever shape the
/// method models it (Section 4.2 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerQuality {
    /// Probability of answering correctly, in `[0, 1]`.
    Probability(f64),
    /// Unbounded reliability weight (PM, CATD).
    Weight(f64),
    /// Row-stochastic confusion matrix, `q[j][k] = Pr(answer k | truth j)`.
    Confusion(Vec<Vec<f64>>),
    /// Numeric answer variance (LFC_N); smaller is better.
    Variance(f64),
    /// Bias and variance of a numeric worker (Multi-style models).
    BiasVariance {
        /// Additive bias.
        bias: f64,
        /// Noise variance.
        variance: f64,
    },
    /// Per-topic skill vector (Multi, Minimax-style diverse skills).
    Skills(Vec<f64>),
    /// The method does not model workers (MV, Mean, Median).
    Unmodeled,
}

impl WorkerQuality {
    /// Collapse to a scalar "higher is better" score where possible, for
    /// reporting and histograms.
    pub fn scalar(&self) -> Option<f64> {
        match self {
            Self::Probability(p) => Some(*p),
            Self::Weight(w) => Some(*w),
            Self::Confusion(m) => {
                // Mean diagonal: average per-class accuracy. A ragged or
                // short row has no diagonal entry to read — report "no
                // scalar" instead of panicking on malformed input.
                let l = m.len();
                if l == 0 || m.iter().enumerate().any(|(j, row)| row.len() <= j) {
                    return None;
                }
                Some(m.iter().enumerate().map(|(j, row)| row[j]).sum::<f64>() / l as f64)
            }
            Self::Variance(v) => Some(1.0 / (1.0 + v)),
            Self::BiasVariance { bias, variance } => {
                Some(1.0 / (1.0 + bias.abs() + variance.sqrt()))
            }
            Self::Skills(s) => {
                if s.is_empty() {
                    None
                } else {
                    Some(s.iter().sum::<f64>() / s.len() as f64)
                }
            }
            Self::Unmodeled => None,
        }
    }
}

/// Output of one inference run.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// Inferred truth per task (always full length; tasks with no answers
    /// get the method's prior guess).
    pub truths: Vec<Answer>,
    /// Estimated quality per worker.
    pub worker_quality: Vec<WorkerQuality>,
    /// Outer iterations executed (1 for direct methods).
    pub iterations: usize,
    /// Whether the convergence criterion was met (always true for direct
    /// methods).
    pub converged: bool,
    /// For categorical tasks: per-task posterior over the `ℓ` choices,
    /// when the method computes one.
    pub posteriors: Option<Vec<Vec<f64>>>,
}

/// Errors a method can raise.
#[derive(Debug)]
pub enum InferenceError {
    /// The method does not handle this task type (Table 4's "Task Types"
    /// column; e.g. KOS is decision-making only).
    UnsupportedTaskType {
        /// The method name.
        method: &'static str,
        /// The offending task type.
        task_type: TaskType,
    },
    /// The dataset has no answers.
    EmptyDataset,
    /// An option vector had the wrong length (e.g. a qualification vector
    /// not matching the worker count).
    BadOptions {
        /// Description of the problem.
        detail: String,
    },
}

impl fmt::Display for InferenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnsupportedTaskType { method, task_type } => {
                write!(f, "{method} does not support task type {task_type:?}")
            }
            Self::EmptyDataset => write!(f, "dataset contains no answers"),
            Self::BadOptions { detail } => write!(f, "bad options: {detail}"),
        }
    }
}

impl std::error::Error for InferenceError {}

/// The unifying interface: every method in Table 4 implements this.
pub trait TruthInference {
    /// The method's name as used in the paper (e.g. `"D&S"`).
    fn name(&self) -> &'static str;

    /// Whether the method can run on datasets of this task type.
    fn supports(&self, task_type: TaskType) -> bool;

    /// Whether worker qualities can be initialised from a qualification
    /// test (the paper finds 8 such methods, §6.3.2).
    fn supports_qualification(&self) -> bool {
        false
    }

    /// Whether hidden-test golden tasks can be incorporated (the paper
    /// finds 9 such methods, §6.3.3).
    fn supports_golden(&self) -> bool {
        false
    }

    /// Run inference over the answer set.
    fn infer(
        &self,
        dataset: &Dataset,
        options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError>;
}

/// Validate options for the view-level entry points (`infer_view`),
/// which bypass [`validate_common`]: the view supplies task type and
/// golden clamps, but a qualification vector still has to match the
/// worker count or the per-worker init loops would index past its end.
pub(crate) fn validate_view_options(
    num_workers: usize,
    options: &InferenceOptions,
) -> Result<(), InferenceError> {
    if let QualityInit::Qualification(q) = &options.quality_init {
        if q.len() != num_workers {
            return Err(InferenceError::BadOptions {
                detail: format!(
                    "qualification vector has {} entries for {} workers",
                    q.len(),
                    num_workers
                ),
            });
        }
    }
    Ok(())
}

/// Validate the parts of [`InferenceOptions`] that are method-independent
/// (shared by every implementation).
pub(crate) fn validate_common(
    method: &'static str,
    dataset: &Dataset,
    options: &InferenceOptions,
    supports: bool,
) -> Result<(), InferenceError> {
    if !supports {
        return Err(InferenceError::UnsupportedTaskType {
            method,
            task_type: dataset.task_type(),
        });
    }
    if dataset.num_answers() == 0 {
        return Err(InferenceError::EmptyDataset);
    }
    if let QualityInit::Qualification(q) = &options.quality_init {
        if q.len() != dataset.num_workers() {
            return Err(InferenceError::BadOptions {
                detail: format!(
                    "qualification vector has {} entries for {} workers",
                    q.len(),
                    dataset.num_workers()
                ),
            });
        }
    }
    if let Some(g) = &options.golden {
        if g.len() != dataset.num_tasks() {
            return Err(InferenceError::BadOptions {
                detail: format!(
                    "golden vector has {} entries for {} tasks",
                    g.len(),
                    dataset.num_tasks()
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_scalar_shapes() {
        assert_eq!(WorkerQuality::Probability(0.7).scalar(), Some(0.7));
        assert_eq!(WorkerQuality::Weight(2.5).scalar(), Some(2.5));
        let conf = WorkerQuality::Confusion(vec![vec![0.8, 0.2], vec![0.4, 0.6]]);
        assert_eq!(conf.scalar(), Some(0.7));
        assert_eq!(WorkerQuality::Unmodeled.scalar(), None);
        let v = WorkerQuality::Variance(3.0).scalar().unwrap();
        assert!((v - 0.25).abs() < 1e-12);
    }

    #[test]
    fn malformed_confusion_yields_none_instead_of_panicking() {
        // Empty matrix.
        assert_eq!(WorkerQuality::Confusion(vec![]).scalar(), None);
        // Ragged: second row too short to hold its diagonal entry.
        let ragged = WorkerQuality::Confusion(vec![vec![0.9, 0.1], vec![0.3]]);
        assert_eq!(ragged.scalar(), None);
        // Uniformly short rows (no row reaches its diagonal column).
        let short = WorkerQuality::Confusion(vec![vec![1.0], vec![1.0]]);
        assert_eq!(short.scalar(), None);
        // A square-but-wider matrix still works.
        let wide = WorkerQuality::Confusion(vec![vec![0.6, 0.4, 0.0], vec![0.2, 0.8, 0.0]]);
        assert_eq!(wide.scalar(), Some(0.7));
    }

    #[test]
    fn default_options_match_paper() {
        let o = InferenceOptions::default();
        assert_eq!(o.max_iterations, 100);
        assert!((o.tolerance - 1e-3).abs() < 1e-15);
        assert!(o.golden.is_none());
    }
}
