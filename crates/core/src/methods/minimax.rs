//! Minimax — minimax entropy (Zhou, Basu, Mao & Platt, NIPS 2012).
//!
//! The optimization method with *diverse skills* (Table 4): the answers
//! worker `w` gives on task `i` are modelled by a per-(task, worker)
//! distribution from an exponential family with task multipliers `τ_i[k]`
//! and worker multipliers `σ_w[j][k]` (given truth `j`):
//!
//! ```text
//! π_iw^j(k) ∝ exp( τ_i[k] + σ_w[j][k] )
//! ```
//!
//! Minimax entropy chooses the truth distribution minimising the maximum
//! entropy of the answer model subject to moment constraints — per task,
//! the expected counts of each choice match the observed counts, and per
//! worker, the expected (truth, answer) counts match (Section 5.2(3)).
//! We implement the regularised dual: alternating between
//!
//! 1. updating the truth posterior `q_i(j) ∝ exp( Σ_{w∈W_i}
//!    ln π_iw^j(v_i^w) )`, and
//! 2. dual gradient ascent on `τ` and `σ` matching observed to expected
//!    counts (with L2 regularisation, as in the authors' "regularised
//!    minimax conditional entropy" follow-up).

use crowd_data::{Dataset, TaskType};
use crowd_stats::kernels::{self, log_normalize, log_normalize_rows_flat, log_sum_exp_rows_flat};
use crowd_stats::{ConvergenceTracker, DMat};
use rand::rngs::StdRng;
use rand::SeedableRng;

use std::sync::Mutex;

use crate::exec;
use crate::framework::{
    validate_common, InferenceError, InferenceOptions, InferenceResult, TruthInference,
    WorkerQuality,
};
use crate::views::Cat;

use super::ds::PARALLEL_ESTEP_MIN_WORK;

/// Minimax entropy truth inference.
#[derive(Debug, Clone, Copy)]
pub struct Minimax {
    /// Dual gradient-ascent learning rate.
    pub learning_rate: f64,
    /// Gradient steps per outer iteration.
    pub gradient_steps: usize,
    /// L2 regularisation on the per-task multipliers `τ`. Must be strong:
    /// a task sees only `r` answers, so an unregularised `τ_i` can absorb
    /// the observed counts entirely and wipe out the worker signal (the
    /// slack the regularised minimax-entropy formulation introduces on
    /// the task constraints).
    pub l2_tau: f64,
    /// L2 regularisation on the per-worker multipliers `σ`.
    pub l2_sigma: f64,
}

impl Default for Minimax {
    fn default() -> Self {
        Self {
            learning_rate: 0.3,
            gradient_steps: 10,
            l2_tau: 2.0,
            l2_sigma: 0.05,
        }
    }
}

impl TruthInference for Minimax {
    fn name(&self) -> &'static str {
        "Minimax"
    }

    fn supports(&self, task_type: TaskType) -> bool {
        task_type.is_categorical()
    }

    fn supports_golden(&self) -> bool {
        true
    }

    fn infer(
        &self,
        dataset: &Dataset,
        options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError> {
        validate_common(
            self.name(),
            dataset,
            options,
            self.supports(dataset.task_type()),
        )?;
        let cat = Cat::build(self.name(), dataset, options, true)?;
        let l = cat.l;

        // Flat-memory multipliers: τ is `n × ℓ`, σ packs every worker's
        // `ℓ × ℓ` block as rows `w·ℓ + j` of one `(m·ℓ) × ℓ` matrix —
        // the same layout the D&S confusion tables use. The gradient
        // matrices are allocated once and refilled per step; the old
        // nested-`Vec` form allocated `n + m·(ℓ+1)` vectors per gradient
        // step and one ℓ-vector per (answer, j) model evaluation, which
        // dominated Minimax's wall time.
        let mut tau = DMat::zeros(cat.n, l);
        let mut sigma = DMat::zeros(cat.m * l, l);
        // Break the label-permutation symmetry: seed σ diagonals positive.
        for w in 0..cat.m {
            for j in 0..l {
                sigma[(w * l + j, j)] = 1.0;
            }
        }
        let mut grad_tau = DMat::zeros(cat.n, l);
        let mut grad_sigma = DMat::zeros(cat.m * l, l);
        // Scratch for one posterior row (dynamic-width fallback).
        let mut logp = vec![0.0f64; l];
        // Per-task list of the truth hypotheses with non-negligible
        // posterior mass, as `(j, q_i(j))` in ascending-`j` order. The
        // posterior is fixed for the whole dual-ascent pass, so the
        // `q_i(j) < 1e-9` skip the old code evaluated per (answer, j)
        // is hoisted here and rebuilt once per outer iteration — the
        // surviving (answer, j) pairs and their visit order are
        // unchanged.
        let mut active: Vec<(u8, f64)> = Vec::with_capacity(cat.n * l);
        let mut active_off: Vec<usize> = vec![0; cat.n + 1];
        let max_task_len = (0..cat.n).map(|t| cat.task_len(t)).max().unwrap_or(0);
        let specialised = (2..=4).contains(&l);
        // Per-chunk scratch of the specialised passes, allocated once:
        // its size is fixed by [`CHUNK_ROWS`] × [`BLOCK_CHUNKS`], not by
        // the dataset (only chunk 0 also fits the largest task).
        let mut chunks: Vec<Mutex<Chunk>> = if specialised {
            (0..BLOCK_CHUNKS)
                .map(|c| {
                    let rows = if c == 0 {
                        CHUNK_ROWS.max(l * max_task_len)
                    } else {
                        CHUNK_ROWS
                    };
                    Mutex::new(Chunk::new(l, rows))
                })
                .collect()
        } else {
            Vec::new()
        };
        // Flat batch of ℓ-wide model rows and their log-sum-exps for the
        // dynamic-width fallback, sized for its largest task.
        let dyn_len = if specialised { 0 } else { l * max_task_len };
        let mut row_buf: Vec<f64> = Vec::with_capacity(dyn_len * l);
        let mut lse_buf: Vec<f64> = Vec::with_capacity(dyn_len);

        // The fan-out budget, gated by one dual-ascent step's row work:
        // at most ℓ model rows of ℓ lanes per answer.
        let thread_budget = options.threads.unwrap_or_else(exec::default_threads).max(1);
        let threads = if cat.num_answers() * l * l >= PARALLEL_ESTEP_MIN_WORK {
            thread_budget
        } else {
            1
        };

        let mut post = cat.majority_posteriors();
        let mut tracker = ConvergenceTracker::new(options.tolerance, options.max_iterations);

        // Degree normalisers: keep step sizes independent of how many
        // answers a task/worker has.
        let task_deg: Vec<f64> = (0..cat.n).map(|t| cat.task_len(t).max(1) as f64).collect();
        let worker_deg: Vec<f64> = (0..cat.m)
            .map(|w| cat.worker_len(w).max(1) as f64)
            .collect();

        let mut st = State {
            tau: &mut tau,
            sigma: &mut sigma,
            grad_tau: &mut grad_tau,
            grad_sigma: &mut grad_sigma,
            post: &mut post,
            active: &mut active,
            active_off: &mut active_off,
            task_deg: &task_deg,
            worker_deg: &worker_deg,
            row_buf: &mut row_buf,
            lse_buf: &mut lse_buf,
        };
        loop {
            // Rebuild the active-hypothesis lists under the current
            // posterior (see `active` above).
            st.active.clear();
            for task in 0..cat.n {
                for (j, &qj) in st.post.row(task).iter().enumerate() {
                    if qj >= 1e-9 {
                        st.active.push((j as u8, qj));
                    }
                }
                st.active_off[task + 1] = st.active.len();
            }

            // The two hot passes are specialised by ℓ so the model rows
            // live in fixed-size stack arrays (no bounds checks, unrolled
            // lanes); every dataset in the benchmark has ℓ ∈ {2, 3, 4}.
            // The serial dynamic fallback performs the identical
            // operations in the identical order on slices for any other
            // ℓ (exercised by the `six_choice_fallback_runs` test).
            match l {
                2 => {
                    dual_ascent::<2>(self, &cat, &mut st, &mut chunks, threads);
                    truth_update::<2>(&cat, &mut st, &chunks, threads);
                }
                3 => {
                    dual_ascent::<3>(self, &cat, &mut st, &mut chunks, threads);
                    truth_update::<3>(&cat, &mut st, &chunks, threads);
                }
                4 => {
                    dual_ascent::<4>(self, &cat, &mut st, &mut chunks, threads);
                    truth_update::<4>(&cat, &mut st, &chunks, threads);
                }
                _ => {
                    dual_ascent_dyn(self, &cat, &mut st);
                    truth_update_dyn(&cat, &mut st, &mut logp);
                }
            }
            cat.clamp_golden(st.post);

            if tracker.step(st.post.data()) {
                break;
            }
        }

        // Worker quality: the diagonal pull of σ (diverse-skill summary).
        let worker_quality: Vec<WorkerQuality> = (0..cat.m)
            .map(|w| {
                let skills: Vec<f64> = (0..l).map(|j| sigma.row(w * l + j)[j]).collect();
                WorkerQuality::Skills(skills)
            })
            .collect();

        let mut rng = StdRng::seed_from_u64(options.seed);
        let labels = cat.decode(&post, &mut rng);
        Ok(InferenceResult {
            truths: Cat::answers(&labels),
            worker_quality,
            iterations: tracker.iterations(),
            converged: tracker.converged(),
            posteriors: Some(post.into_nested()),
        })
    }
}

/// The mutable EM state threaded through the hot passes. Keeping the
/// matrices behind one struct lets the specialised and dynamic passes
/// share a signature while the borrow checker still sees disjoint
/// fields.
struct State<'a> {
    tau: &'a mut DMat,
    sigma: &'a mut DMat,
    grad_tau: &'a mut DMat,
    grad_sigma: &'a mut DMat,
    post: &'a mut DMat,
    active: &'a mut Vec<(u8, f64)>,
    active_off: &'a mut [usize],
    task_deg: &'a [f64],
    worker_deg: &'a [f64],
    row_buf: &'a mut Vec<f64>,
    lse_buf: &'a mut Vec<f64>,
}

/// Most model rows one chunk of the specialised passes holds (a task
/// with more rows gets a chunk, and a super-block, of its own): 512
/// rows × 4 lanes × 8 B = 16 KB, L1-resident while the chunk builds,
/// softmaxes and differentiates them.
const CHUNK_ROWS: usize = 512;

/// Chunks per dual-ascent super-block, so a block holds at most 2¹⁴
/// rows. Each block's chunks fan out in one pool batch; enough of them
/// to balance uneven tasks across several cores.
const BLOCK_CHUNKS: usize = 32;

/// One chunk's scratch in the specialised passes. The chunk layout is a
/// function of the data alone, never of the thread count, and every
/// chunk does the same arithmetic on whichever thread runs it.
struct Chunk {
    /// The tasks `first..end` this chunk covers in the current block.
    first: usize,
    end: usize,
    /// ℓ-wide rows: the model rows, softmaxed in place, then each
    /// row's gradient contribution.
    rows: Vec<f64>,
    /// The τ-gradient rows of tasks `first..end`.
    grad_tau: Vec<f64>,
    /// Per-row log-sum-exps of the truth update.
    lse: Vec<f64>,
}

impl Chunk {
    fn new(l: usize, rows: usize) -> Self {
        Self {
            first: 0,
            end: 0,
            rows: vec![0.0; rows * l],
            grad_tau: vec![0.0; CHUNK_ROWS * l],
            lse: vec![0.0; CHUNK_ROWS],
        }
    }
}

/// Cut the next dual-ascent super-block, starting at task `start`, into
/// `chunks` and return how many it fills. A chunk takes whole tasks up
/// to [`CHUNK_ROWS`] rows, counting each task as at least one row so a
/// chunk never covers more than [`CHUNK_ROWS`] tasks. A task with more
/// rows sits alone in chunk 0 of a block of its own (chunk 0 is the one
/// sized for the largest task).
fn plan_block(cat: &Cat, active_off: &[usize], start: usize, chunks: &mut [Mutex<Chunk>]) -> usize {
    let mut k = 0;
    let mut task = start;
    while k < chunks.len() && task < cat.n {
        let first = task;
        let mut rows = 0;
        while task < cat.n {
            let need = ((active_off[task + 1] - active_off[task]) * cat.task_len(task)).max(1);
            if rows + need > CHUNK_ROWS && (rows > 0 || k > 0) {
                break;
            }
            rows += need;
            task += 1;
            if rows > CHUNK_ROWS {
                break;
            }
        }
        if task == first {
            break;
        }
        let c = chunks[k]
            .get_mut()
            .expect("chunk scratch poisoned by a panicked chunk");
        (c.first, c.end) = (first, task);
        k += 1;
        if rows > CHUNK_ROWS {
            break;
        }
    }
    k
}

/// The regularised multiplier updates after one gradient accumulation
/// (cold relative to the accumulation itself, so kept dynamic and
/// shared by both paths).
fn update_multipliers(mm: &Minimax, cat: &Cat, st: &mut State) {
    let l = st.tau.cols();
    for t in 0..cat.n {
        let g = st.grad_tau.row(t);
        let deg = st.task_deg[t];
        let tau_row = st.tau.row_mut(t);
        for k in 0..l {
            tau_row[k] += mm.learning_rate * (g[k] / deg - mm.l2_tau * tau_row[k]);
            tau_row[k] = tau_row[k].clamp(-6.0, 6.0);
        }
    }
    for w in 0..cat.m {
        let deg = st.worker_deg[w];
        for j in 0..l {
            let g = st.grad_sigma.row(w * l + j);
            let sig_row = st.sigma.row_mut(w * l + j);
            for k in 0..l {
                sig_row[k] += mm.learning_rate * (g[k] / deg - mm.l2_sigma * sig_row[k]);
                sig_row[k] = sig_row[k].clamp(-6.0, 6.0);
            }
        }
    }
}

/// One dual-ascent pass (`gradient_steps` accumulate/update rounds),
/// specialised by ℓ: model rows are `[f64; L]` stack arrays and every
/// row borrow is a checked-once fixed-width conversion. Arithmetic and
/// evaluation order match [`dual_ascent_dyn`] exactly.
///
/// Each step walks the tasks in super-blocks ([`plan_block`]). A
/// block's chunks fan out over the pool: each builds its (answer,
/// hypothesis) model rows, softmaxes them with one
/// [`log_normalize_rows_flat`] call, and turns them into its own
/// tasks' τ-gradient rows plus one σ-gradient contribution per row.
/// Every row and every task's τ row is independent of the others, so
/// this part is bit-identical at any thread count. The σ fold is not:
/// each `(w, j)` accumulator must receive its adds in task-ascending
/// order, so the calling thread then folds the block's contributions
/// chunk by chunk, exactly as the serial pass would.
fn dual_ascent<const L: usize>(
    mm: &Minimax,
    cat: &Cat,
    st: &mut State,
    chunks: &mut [Mutex<Chunk>],
    threads: usize,
) {
    let _timer = crate::methods::obs_kernel_mstep_seconds().start_timer();
    for _ in 0..mm.gradient_steps {
        st.grad_sigma.fill(0.0);
        let (tau, sigma) = (&*st.tau, &*st.sigma);
        let (active, active_off) = (&st.active[..], &st.active_off[..]);

        let mut start = 0;
        while start < cat.n {
            let k = plan_block(cat, active_off, start, chunks);
            exec::parallel_chunks(threads, &mut chunks[..k], 1, |_, c| {
                let c = c[0]
                    .get_mut()
                    .expect("chunk scratch poisoned by a panicked chunk");
                chunk_gradients::<L>(cat, tau, sigma, active, active_off, c);
            });

            for c in chunks[..k].iter_mut() {
                let c = c
                    .get_mut()
                    .expect("chunk scratch poisoned by a panicked chunk");
                st.grad_tau.data_mut()[c.first * L..c.end * L]
                    .copy_from_slice(&c.grad_tau[..(c.end - c.first) * L]);
                let mut diffs = c.rows.chunks_exact(L);
                for task in c.first..c.end {
                    let acts = &active[active_off[task]..active_off[task + 1]];
                    for &(worker, _) in cat.task_row(task) {
                        let base = worker as usize * L;
                        for &(j, _) in acts {
                            let d: &[f64; L] = diffs
                                .next()
                                .expect("one row per (answer, hypothesis) pair")
                                .try_into()
                                .expect("row width ℓ");
                            let gs_row: &mut [f64; L] = st
                                .grad_sigma
                                .row_mut(base + j as usize)
                                .try_into()
                                .expect("row width ℓ");
                            for k in 0..L {
                                gs_row[k] += d[k];
                            }
                        }
                    }
                }
                start = c.end;
            }
        }

        update_multipliers(mm, cat, st);
    }
}

/// The parallel part of one dual-ascent step for one chunk: model rows,
/// their softmax, the chunk's τ-gradient rows, and each row's σ-gradient
/// contribution `q_i(j)·(obs − π)` written over the row.
fn chunk_gradients<const L: usize>(
    cat: &Cat,
    tau: &DMat,
    sigma: &DMat,
    active: &[(u8, f64)],
    active_off: &[usize],
    c: &mut Chunk,
) {
    let mut out = c.rows.chunks_exact_mut(L);
    let mut n_rows = 0;
    for task in c.first..c.end {
        let acts = &active[active_off[task]..active_off[task + 1]];
        let tau_row: &[f64; L] = tau.row(task).try_into().expect("row width ℓ");
        for &(worker, _) in cat.task_row(task) {
            let base = worker as usize * L;
            for &(j, _) in acts {
                // Model distribution for this (i, w, j).
                let sig_row: &[f64; L] = sigma
                    .row(base + j as usize)
                    .try_into()
                    .expect("row width ℓ");
                let row: &mut [f64; L] = out
                    .next()
                    .expect("scratch row")
                    .try_into()
                    .expect("width ℓ");
                for k in 0..L {
                    row[k] = tau_row[k] + sig_row[k];
                }
            }
        }
        n_rows += acts.len() * cat.task_len(task);
    }
    let rows = &mut c.rows[..n_rows * L];
    log_normalize_rows_flat(L, rows); // now probabilities

    let mut lps = rows.chunks_exact_mut(L);
    let grad_tau = &mut c.grad_tau[..(c.end - c.first) * L];
    grad_tau.fill(0.0);
    for (task, gt) in (c.first..c.end).zip(grad_tau.chunks_exact_mut(L)) {
        let acts = &active[active_off[task]..active_off[task + 1]];
        let gt_row: &mut [f64; L] = gt.try_into().expect("row width ℓ");
        for &(_, label) in cat.task_row(task) {
            for &(_, qj) in acts {
                let lp: &mut [f64; L] = lps
                    .next()
                    .expect("one row per (answer, hypothesis) pair")
                    .try_into()
                    .expect("row width ℓ");
                for k in 0..L {
                    let obs = if k == label as usize { 1.0 } else { 0.0 };
                    let diff = qj * (obs - lp[k]);
                    gt_row[k] += diff;
                    lp[k] = diff;
                }
            }
        }
    }
}

/// Dynamic-width fallback for [`dual_ascent`] (ℓ outside the
/// specialised range): same operations, same order, slice-based.
fn dual_ascent_dyn(mm: &Minimax, cat: &Cat, st: &mut State) {
    let _timer = crate::methods::obs_kernel_mstep_seconds().start_timer();
    let l = st.tau.cols();
    for _ in 0..mm.gradient_steps {
        st.grad_tau.fill(0.0);
        st.grad_sigma.fill(0.0);

        for task in 0..cat.n {
            let acts = &st.active[st.active_off[task]..st.active_off[task + 1]];
            let answers = cat.task_row(task);
            if acts.is_empty() || answers.is_empty() {
                continue;
            }
            let tau_row = st.tau.row(task);
            st.row_buf.clear();
            st.row_buf.reserve(answers.len() * acts.len() * l);
            for &(worker, _) in answers {
                let base = worker as usize * l;
                for &(j, _) in acts.iter() {
                    let sig_row = st.sigma.row(base + j as usize);
                    for (&t, &s) in tau_row.iter().zip(sig_row) {
                        st.row_buf.push(t + s);
                    }
                }
            }
            log_normalize_rows_flat(l, st.row_buf); // now probabilities

            let gt_row = st.grad_tau.row_mut(task);
            let mut rows = st.row_buf.chunks_exact(l);
            for &(worker, label) in answers {
                let base = worker as usize * l;
                for &(j, qj) in acts.iter() {
                    let lp = rows.next().expect("one row per (answer, hypothesis) pair");
                    let gs_row = st.grad_sigma.row_mut(base + j as usize);
                    for (k, ((&p, gt), gs)) in lp
                        .iter()
                        .zip(gt_row.iter_mut())
                        .zip(gs_row.iter_mut())
                        .enumerate()
                    {
                        let obs = if k == label as usize { 1.0 } else { 0.0 };
                        let diff = qj * (obs - p);
                        *gt += diff;
                        *gs += diff;
                    }
                }
            }
        }

        update_multipliers(mm, cat, st);
    }
}

/// Truth update, specialised by ℓ. Only the answered label's model
/// probability is needed, so per (answer, j) the pass evaluates the
/// log-sum-exp of the model row once and exponentiates a single
/// element — the same values the full row-normalise produced, minus
/// ℓ−1 unused `exp`s and `ln`s per row.
///
/// Tasks are independent here, so they fan out in contiguous ranges,
/// one per chunk scratch: range `c` writes only its own posterior rows
/// and uses only scratch `c` (its lock is never contended).
fn truth_update<const L: usize>(
    cat: &Cat,
    st: &mut State,
    chunks: &[Mutex<Chunk>],
    threads: usize,
) {
    let _timer = crate::methods::obs_kernel_estep_seconds().start_timer();
    let (tau, sigma) = (&*st.tau, &*st.sigma);
    let tasks_per_chunk = cat.n.div_ceil(chunks.len()).max(1);
    exec::parallel_chunks(
        threads,
        st.post.data_mut(),
        tasks_per_chunk * L,
        |ci, post| {
            let mut c = chunks[ci]
                .lock()
                .expect("chunk scratch poisoned by a panicked chunk");
            chunk_posteriors::<L>(cat, tau, sigma, ci * tasks_per_chunk, post, &mut c);
        },
    );
}

/// The truth update of the tasks whose posterior rows are `post`,
/// starting at task `first`, in chunk `c`'s scratch.
fn chunk_posteriors<const L: usize>(
    cat: &Cat,
    tau: &DMat,
    sigma: &DMat,
    first: usize,
    post: &mut [f64],
    c: &mut Chunk,
) {
    let mut fused_rows = 0u64;
    for (task, post_row) in (first..).zip(post.chunks_exact_mut(L)) {
        if cat.golden[task].is_some() || cat.task_len(task) == 0 {
            continue;
        }
        fused_rows += 1;
        let tau_row: &[f64; L] = tau.row(task).try_into().expect("row width ℓ");
        let mut logp = [0.0f64; L];
        // Gather the ℓ model rows of a run of answers into one flat
        // batch and log-sum-exp them in a single kernel call; only the
        // answered label's probability is read out afterwards. A run is
        // the whole task unless it has more than `CHUNK_ROWS` rows.
        for answers in cat.task_row(task).chunks(CHUNK_ROWS / L) {
            let rows = answers.len() * L;
            let mut out = c.rows[..rows * L].chunks_exact_mut(L);
            for &(worker, _) in answers {
                let base = worker as usize * L;
                for j in 0..L {
                    let sig_row: &[f64; L] = sigma.row(base + j).try_into().expect("row width ℓ");
                    let row: &mut [f64; L] = out
                        .next()
                        .expect("scratch row")
                        .try_into()
                        .expect("width ℓ");
                    for k in 0..L {
                        row[k] = tau_row[k] + sig_row[k];
                    }
                }
            }
            log_sum_exp_rows_flat(L, &c.rows[..rows * L], &mut c.lse[..rows]);

            for (r, &(_, label)) in answers.iter().enumerate() {
                for (j, lp) in logp.iter_mut().enumerate() {
                    let lse = c.lse[r * L + j];
                    // Mirror log_normalize's degenerate-input branch
                    // (all -inf → uniform mass).
                    let p = if lse.is_finite() {
                        kernels::exp(c.rows[(r * L + j) * L + label as usize] - lse)
                    } else {
                        1.0 / L as f64
                    };
                    *lp += kernels::safe_ln(p);
                }
            }
        }
        log_normalize(&mut logp);
        post_row.copy_from_slice(&logp);
    }
    crate::methods::obs_fused_rows().add(fused_rows);
}

/// Dynamic-width fallback for [`truth_update`].
fn truth_update_dyn(cat: &Cat, st: &mut State, logp: &mut [f64]) {
    let _timer = crate::methods::obs_kernel_estep_seconds().start_timer();
    let mut fused_rows = 0u64;
    let l = st.tau.cols();
    for task in 0..cat.n {
        if cat.golden[task].is_some() || cat.task_len(task) == 0 {
            continue;
        }
        fused_rows += 1;
        let answers = cat.task_row(task);
        let tau_row = st.tau.row(task);
        st.row_buf.clear();
        st.row_buf.reserve(answers.len() * l * l);
        for &(worker, _) in answers {
            let base = worker as usize * l;
            for j in 0..l {
                let sig_row = st.sigma.row(base + j);
                for (&t, &s) in tau_row.iter().zip(sig_row) {
                    st.row_buf.push(t + s);
                }
            }
        }
        st.lse_buf.clear();
        st.lse_buf.resize(answers.len() * l, 0.0);
        log_sum_exp_rows_flat(l, st.row_buf, st.lse_buf);

        logp.fill(0.0);
        for (r, &(_, label)) in answers.iter().enumerate() {
            for (j, lp) in logp.iter_mut().enumerate() {
                let lse = st.lse_buf[r * l + j];
                let p = if lse.is_finite() {
                    kernels::exp(st.row_buf[(r * l + j) * l + label as usize] - lse)
                } else {
                    1.0 / l as f64
                };
                *lp += kernels::safe_ln(p);
            }
        }
        log_normalize(logp);
        st.post.row_mut(task).copy_from_slice(logp);
    }
    crate::methods::obs_fused_rows().add(fused_rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::test_support::*;

    #[test]
    fn reasonable_on_toy() {
        let d = toy();
        let r = Minimax::default()
            .infer(&d, &InferenceOptions::seeded(1))
            .unwrap();
        assert_result_sane(&d, &r);
        let acc = accuracy(&d, &r);
        assert!(acc >= 4.0 / 6.0, "toy accuracy {acc}");
    }

    #[test]
    fn decent_on_decision_data() {
        // Table 6 shape: Minimax is the weakest non-VI method on the
        // imbalanced D_Product (84.1% vs MV's 89.7%); the simulated
        // dataset reproduces a Minimax < MV gap.
        let d = small_decision();
        assert_accuracy_at_least(&Minimax::default(), &d, 0.62);
    }

    #[test]
    fn handles_single_choice() {
        let d = small_single();
        let r = Minimax::default()
            .infer(&d, &InferenceOptions::seeded(3))
            .unwrap();
        assert_result_sane(&d, &r);
        let acc = accuracy(&d, &r);
        assert!(acc > 0.30, "Minimax single-choice accuracy {acc}");
    }

    #[test]
    fn golden_clamped() {
        use crowd_data::GoldenSplit;
        let d = small_decision();
        let split = GoldenSplit::sample(&d, 0.2, 5);
        let opts = InferenceOptions {
            golden: Some(split.revealed.clone()),
            ..InferenceOptions::seeded(5)
        };
        let r = Minimax::default().infer(&d, &opts).unwrap();
        for &t in &split.golden {
            assert_eq!(Some(r.truths[t]), d.truth(t));
        }
    }

    #[test]
    fn six_choice_fallback_runs() {
        // ℓ = 6 is outside the specialised dispatch range, so this
        // exercises the dynamic-width passes end to end.
        use crowd_data::{DatasetBuilder, TaskType};
        let mut b = DatasetBuilder::new("six", TaskType::SingleChoice { choices: 6 }, 12, 5);
        for t in 0..12usize {
            let truth = (t % 6) as u8;
            b.set_truth_label(t, truth).unwrap();
            for w in 0..5usize {
                let noisy = if (t + w) % 4 == 0 {
                    (truth + 1) % 6
                } else {
                    truth
                };
                b.add_label(t, w, noisy).unwrap();
            }
        }
        let d = b.build();
        let r = Minimax::default()
            .infer(&d, &InferenceOptions::seeded(9))
            .unwrap();
        assert_result_sane(&d, &r);
        let acc = accuracy(&d, &r);
        assert!(acc > 0.5, "6-choice fallback accuracy {acc}");
    }

    #[test]
    fn skills_reported_per_class() {
        let d = small_single();
        let r = Minimax::default()
            .infer(&d, &InferenceOptions::seeded(3))
            .unwrap();
        for q in &r.worker_quality {
            let WorkerQuality::Skills(s) = q else {
                panic!("expected skills")
            };
            assert_eq!(s.len(), 4);
        }
    }
}
