//! Task-range sharding of the categorical CSR view — the one view the
//! D&S, LFC, ZC, GLAD and MV engines read, in batch (one shard) and in
//! streams (see ARCHITECTURE.md §sharded substrate).
//!
//! A [`ShardedView`] splits the task axis into contiguous ranges
//! (the **shard directory**) and stores, per shard, both CSR
//! adjacencies restricted to that range:
//!
//! - `task_adj`: the shard's task rows (local row `i` = global task
//!   `start + i`), entries `(worker, label)` in record order — a
//!   verbatim slice of the unsharded task adjacency;
//! - `worker_adj`: all `m` worker rows restricted to the shard's tasks,
//!   entries `(global task, label)` in **task-ascending order** (the
//!   canonical order — derived from the task rows, not from arrival
//!   order).
//!
//! The canonical worker-row order is the bit-identity keystone: walking
//! every shard's worker row in ascending shard order visits a worker's
//! answers in ascending task order **regardless of the shard count**, so
//! any per-worker f64 fold over the sharded view is invariant in the
//! number of shards and in the arrival order of the answers. It is the
//! only fold order the EM engines have.
//!
//! Views are built from a dataset as one shard ([`ShardedView::build`],
//! the batch entry point), by slicing an existing [`Cat`]
//! ([`ShardedView::from_cat`]), or streamed from a `(task, worker,
//! label)` iterator in a single pass ([`ShardedView::from_records`]) —
//! per-shard buffers plus the counted CSR constructor
//! ([`Csr::from_triples_counted`]) lift `from_triples`' `Clone`-iterator
//! two-pass requirement, so a million-task synthetic stream never
//! materialises one flat answer log.

use crowd_data::Dataset;
use crowd_stats::DMat;
use rand::rngs::StdRng;
use std::ops::Range;
use std::sync::OnceLock;

use super::{decode_row, golden_labels, Cat, Csr};
use crate::exec;
use crate::framework::{InferenceError, InferenceOptions};

/// Shards-rebuilt counter: incremented once per shard rebuild (the
/// streaming dirty-shard path calls [`ShardedView::rebuild_shard`] only
/// for shards that received answers since the last converge, so this
/// counts shards-dirty-per-converge in aggregate).
fn obs_dirty_rebuilds() -> &'static crowd_obs::Counter {
    static H: OnceLock<crowd_obs::Counter> = OnceLock::new();
    H.get_or_init(|| crowd_obs::counter("core.shard.dirty_rebuilds_total"))
}

/// E-step wall time over the view (one sample per E-step sweep).
pub(crate) fn obs_estep_seconds() -> &'static crowd_obs::Histogram {
    static H: OnceLock<crowd_obs::Histogram> = OnceLock::new();
    H.get_or_init(|| crowd_obs::histogram("core.shard.estep_seconds"))
}

/// M-step partial-reduce wall time (one sample per EM iteration).
pub(crate) fn obs_reduce_seconds() -> &'static crowd_obs::Histogram {
    static H: OnceLock<crowd_obs::Histogram> = OnceLock::new();
    H.get_or_init(|| crowd_obs::histogram("core.shard.reduce_seconds"))
}

/// The shard directory: `shard_count + 1` task boundaries splitting
/// `0..n` into contiguous ranges as evenly as possible (the first
/// `n % shard_count` shards hold one extra task; with more shards than
/// tasks the tail shards are empty ranges).
pub(crate) fn shard_starts(n: usize, shard_count: usize) -> Vec<usize> {
    let s = shard_count.max(1);
    let (base, extra) = (n / s, n % s);
    let mut starts = Vec::with_capacity(s + 1);
    let mut at = 0usize;
    starts.push(0);
    for i in 0..s {
        at += base + usize::from(i < extra);
        starts.push(at);
    }
    starts
}

/// One task-range shard: both adjacencies restricted to the range.
#[derive(Debug)]
struct ShardData {
    /// Local task rows (`(worker, label)` entries, record order).
    task_adj: Csr<u8>,
    /// All `m` worker rows over this range (`(global task, label)`
    /// entries, task-ascending — the canonical order).
    worker_adj: Csr<u8>,
}

impl ShardData {
    /// Derive the canonical worker adjacency from the shard's task rows:
    /// count per-worker degrees, then scatter the task rows in ascending
    /// task order. Both constructors and the rebuild path funnel through
    /// here, so the canonical-order invariant has one owner.
    fn from_task_adj(start: usize, m: usize, task_adj: Csr<u8>) -> Self {
        let mut counts = vec![0u32; m];
        for local in 0..task_adj.num_rows() {
            for &(worker, _) in task_adj.row(local) {
                counts[worker as usize] += 1;
            }
        }
        let worker_adj = Csr::from_triples_counted(
            &counts,
            (0..task_adj.num_rows()).flat_map(|local| {
                task_adj
                    .row(local)
                    .iter()
                    .map(move |&(worker, label)| (worker as usize, (start + local) as u32, label))
            }),
        );
        Self {
            task_adj,
            worker_adj,
        }
    }
}

/// A categorical answer view split into contiguous task-range shards —
/// the substrate the view-level EM entry points (`Ds::infer_view` and
/// friends) run on. See the module docs for the layout and order
/// guarantees.
#[derive(Debug)]
pub struct ShardedView {
    /// Number of tasks.
    pub n: usize,
    /// Number of workers.
    pub m: usize,
    /// Number of choices ℓ.
    pub l: usize,
    /// Shard directory: task boundaries, `starts[s]..starts[s + 1]` is
    /// shard `s`'s global task range.
    starts: Vec<usize>,
    shards: Vec<ShardData>,
    /// Golden clamp per global task.
    golden: Vec<Option<u8>>,
}

impl ShardedView {
    /// Slice an existing flat view into `shard_count` task-range shards.
    /// Task rows are copied verbatim; worker rows are re-derived in the
    /// canonical task-ascending order.
    pub fn from_cat(cat: &Cat, shard_count: usize) -> Self {
        let starts = shard_starts(cat.n, shard_count);
        let shards: Vec<ShardData> = starts
            .windows(2)
            .map(|w| {
                let (start, end) = (w[0], w[1]);
                let counts: Vec<u32> = (start..end).map(|t| cat.task_len(t) as u32).collect();
                let task_adj = Csr::from_triples_counted(
                    &counts,
                    (start..end).flat_map(|t| {
                        cat.task_row(t)
                            .iter()
                            .map(move |&(worker, label)| (t - start, worker, label))
                    }),
                );
                ShardData::from_task_adj(start, cat.m, task_adj)
            })
            .collect();
        Self {
            n: cat.n,
            m: cat.m,
            l: cat.l,
            starts,
            shards,
            golden: cat.golden.clone(),
        }
    }

    /// Build a one-shard view straight from a dataset's records — the
    /// batch entry point of D&S, LFC, ZC, GLAD and MV. Fails on numeric
    /// datasets exactly like [`Cat::build`], and takes golden clamps
    /// from `options.golden` when `use_golden` is set.
    pub fn build(
        method: &'static str,
        dataset: &Dataset,
        options: &InferenceOptions,
        use_golden: bool,
    ) -> Result<Self, InferenceError> {
        let l = dataset
            .num_choices()
            .ok_or(InferenceError::UnsupportedTaskType {
                method,
                task_type: dataset.task_type(),
            })? as usize;
        let (n, m) = (dataset.num_tasks(), dataset.num_workers());
        let counts: Vec<u32> = (0..n).map(|t| dataset.task_degree(t) as u32).collect();
        let task_adj = Csr::from_triples_counted(
            &counts,
            dataset.records().iter().map(|r| {
                (
                    r.task,
                    r.worker as u32,
                    r.answer.label().expect("categorical dataset"),
                )
            }),
        );
        Ok(Self {
            n,
            m,
            l,
            starts: shard_starts(n, 1),
            shards: vec![ShardData::from_task_adj(0, m, task_adj)],
            golden: golden_labels(options, use_golden, n),
        })
    }

    /// Build directly from a `(task, worker, label)` record stream in
    /// **one pass** — the iterator is consumed once (no `Clone` bound)
    /// and the full log is never materialised as a single allocation:
    /// records are bucketed per shard with per-task degree counting,
    /// then each shard builds its CSRs via the counted constructor.
    ///
    /// Within each task, record order is preserved, so the view is
    /// entry-identical to [`ShardedView::from_cat`] over the flat view of
    /// the same log.
    ///
    /// # Panics
    /// Panics on any out-of-range record (task ≥ `n`, worker ≥ `m`,
    /// label ≥ `l`): the EM loops index their tables by these values
    /// unchecked, so a malformed view must fail here.
    pub fn from_records(
        n: usize,
        m: usize,
        l: usize,
        shard_count: usize,
        records: impl Iterator<Item = (u32, u32, u8)>,
        golden: Vec<Option<u8>>,
    ) -> Self {
        assert_eq!(golden.len(), n, "golden vector length");
        let starts = shard_starts(n, shard_count);
        let num_shards = starts.len() - 1;
        let mut buffers: Vec<Vec<(u32, u32, u8)>> = vec![Vec::new(); num_shards];
        let mut counts: Vec<Vec<u32>> =
            starts.windows(2).map(|w| vec![0u32; w[1] - w[0]]).collect();
        for (task, worker, label) in records {
            let (t, w) = (task as usize, worker as usize);
            assert!(t < n, "record task {t} ≥ {n}");
            assert!(w < m, "record worker {w} ≥ {m}");
            assert!((label as usize) < l, "record label {label} ≥ {l}");
            let s = shard_of(&starts, t);
            counts[s][t - starts[s]] += 1;
            buffers[s].push((task, worker, label));
        }
        let shards: Vec<ShardData> = buffers
            .into_iter()
            .zip(&counts)
            .enumerate()
            .map(|(s, (buf, counts))| {
                let start = starts[s];
                let task_adj = Csr::from_triples_counted(
                    counts,
                    buf.into_iter()
                        .map(|(task, worker, label)| (task as usize - start, worker, label)),
                );
                ShardData::from_task_adj(start, m, task_adj)
            })
            .collect();
        Self {
            n,
            m,
            l,
            starts,
            shards,
            golden,
        }
    }

    /// Rebuild one shard from its current records — the streaming
    /// dirty-shard path: `StreamEngine` buckets the answer log per dirty
    /// shard and rebuilds only those, leaving clean shards untouched.
    /// `records` must hold **every** answer in the shard's task range
    /// (global coordinates), in the desired within-task order.
    ///
    /// # Panics
    /// Panics if `shard` is out of range or any record falls outside the
    /// shard's task range (or out of the view's worker/label ranges).
    pub fn rebuild_shard(&mut self, shard: usize, records: &[(u32, u32, u8)]) {
        let (start, end) = (self.starts[shard], self.starts[shard + 1]);
        let mut counts = vec![0u32; end - start];
        for &(task, worker, label) in records {
            let t = task as usize;
            assert!(
                (start..end).contains(&t),
                "record task {t} outside shard {shard} range {start}..{end}"
            );
            assert!(
                (worker as usize) < self.m,
                "record worker {worker} ≥ {}",
                self.m
            );
            assert!(
                (label as usize) < self.l,
                "record label {label} ≥ {}",
                self.l
            );
            counts[t - start] += 1;
        }
        let task_adj = Csr::from_triples_counted(
            &counts,
            records
                .iter()
                .map(|&(task, worker, label)| (task as usize - start, worker, label)),
        );
        self.shards[shard] = ShardData::from_task_adj(start, self.m, task_adj);
        obs_dirty_rebuilds().inc();
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard directory: `num_shards() + 1` task boundaries.
    pub fn directory(&self) -> &[usize] {
        &self.starts
    }

    /// Shard `s`'s global task range.
    pub fn shard_tasks(&self, s: usize) -> Range<usize> {
        self.starts[s]..self.starts[s + 1]
    }

    /// The shard holding global task `t`.
    pub fn shard_for_task(&self, t: usize) -> usize {
        shard_of(&self.starts, t)
    }

    /// Answers in shard `s`.
    pub fn shard_num_answers(&self, s: usize) -> usize {
        self.shards[s].task_adj.num_entries()
    }

    /// Task row for **local** task `local` of shard `s` (`(worker,
    /// label)` entries, record order).
    #[inline]
    pub fn shard_task_row(&self, s: usize, local: usize) -> &[(u32, u8)] {
        self.shards[s].task_adj.row(local)
    }

    /// Worker `w`'s answers within shard `s` (`(global task, label)`
    /// entries, task-ascending).
    #[inline]
    pub fn shard_worker_row(&self, s: usize, w: usize) -> &[(u32, u8)] {
        self.shards[s].worker_adj.row(w)
    }

    /// Call `f(task, answers)` for every task of the global range
    /// `tasks`, in task order (`(worker, label)` entries, record order).
    /// Walks the shard directory, so the range may span shards — the
    /// task-chunked E-step and GLAD's task-major passes read the view
    /// through this.
    #[inline]
    pub fn for_each_task<'a>(
        &'a self,
        tasks: Range<usize>,
        mut f: impl FnMut(usize, &'a [(u32, u8)]),
    ) {
        let mut task = tasks.start;
        while task < tasks.end {
            // The shard holding `task` is non-empty, so each pass advances.
            let s = self.shard_for_task(task);
            let (start, end) = (self.starts[s], self.starts[s + 1].min(tasks.end));
            let adj = &self.shards[s].task_adj;
            for t in task..end {
                f(t, adj.row(t - start));
            }
            task = end;
        }
    }

    /// Total answers in the view (`|V|`).
    pub fn num_answers(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.task_adj.num_entries())
            .sum()
    }

    /// Number of answers on global task `t`.
    pub fn task_len(&self, t: usize) -> usize {
        let s = self.shard_for_task(t);
        self.shards[s].task_adj.row_len(t - self.starts[s])
    }

    /// Number of answers by worker `w` (summed over shards).
    pub fn worker_len(&self, w: usize) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.worker_adj.row_len(w))
            .sum()
    }

    /// Golden clamps per global task.
    pub fn golden(&self) -> &[Option<u8>] {
        &self.golden
    }

    /// Maximum per-task answer count, combined across shards with the
    /// deterministic pairwise [`exec::tree_reduce`] (max is exact, so
    /// the combine shape cannot change the result).
    pub fn max_task_degree(&self) -> usize {
        let per_shard: Vec<usize> = self
            .shards
            .iter()
            .map(|shard| {
                (0..shard.task_adj.num_rows())
                    .map(|local| shard.task_adj.row_len(local))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        exec::tree_reduce(per_shard, usize::max).unwrap_or(0)
    }

    /// Soft majority-vote posteriors — same per-task arithmetic as
    /// [`Cat::majority_posteriors`], walked shard-by-shard, so the
    /// result is bit-identical at any shard count.
    pub fn majority_posteriors(&self) -> DMat {
        let mut post = DMat::zeros(self.n, self.l);
        for s in 0..self.num_shards() {
            let start = self.starts[s];
            for task in self.shard_tasks(s) {
                if let Some(g) = self.golden[task] {
                    post[(task, g as usize)] = 1.0;
                    continue;
                }
                let row = self.shard_task_row(s, task - start);
                if row.is_empty() {
                    post.row_mut(task).fill(1.0 / self.l as f64);
                    continue;
                }
                for &(_, label) in row {
                    post[(task, label as usize)] += 1.0;
                }
                post.row_normalize(task);
            }
        }
        post
    }

    /// Clamp golden tasks in a posterior matrix (delta at the truth).
    pub fn clamp_golden(&self, post: &mut DMat) {
        for (task, g) in self.golden.iter().enumerate() {
            if let Some(truth) = g {
                let row = post.row_mut(task);
                row.fill(0.0);
                row[*truth as usize] = 1.0;
            }
        }
    }

    /// Decode MAP labels from posteriors with seeded tie-breaking — same
    /// RNG consumption pattern as [`Cat::decode`].
    pub fn decode(&self, post: &DMat, rng: &mut StdRng) -> Vec<u8> {
        (0..self.n)
            .map(|task| decode_row(post.row(task), rng))
            .collect()
    }
}

/// Locate the shard containing task `t` in a monotone directory
/// (`partition_point` handles empty shards: the returned range always
/// contains `t`).
fn shard_of(starts: &[usize], t: usize) -> usize {
    debug_assert!(t < *starts.last().unwrap());
    starts.partition_point(|&s| s <= t) - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::InferenceOptions;
    use crowd_data::{DatasetBuilder, TaskType};

    fn ragged_cat() -> Cat {
        let mut b = DatasetBuilder::new("shard", TaskType::SingleChoice { choices: 3 }, 7, 4);
        // Task-by-task fill with uneven degrees and gaps (task 3 empty).
        b.add_label(0, 0, 0).unwrap();
        b.add_label(0, 1, 1).unwrap();
        b.add_label(0, 2, 0).unwrap();
        b.add_label(1, 3, 2).unwrap();
        b.add_label(2, 0, 1).unwrap();
        b.add_label(2, 3, 1).unwrap();
        b.add_label(4, 1, 2).unwrap();
        b.add_label(5, 0, 0).unwrap();
        b.add_label(5, 2, 2).unwrap();
        b.add_label(6, 3, 0).unwrap();
        let d = b.build();
        Cat::build("test", &d, &InferenceOptions::default(), false).unwrap()
    }

    #[test]
    fn directory_splits_evenly_and_handles_boundaries() {
        assert_eq!(shard_starts(7, 2), vec![0, 4, 7]);
        assert_eq!(shard_starts(7, 7), vec![0, 1, 2, 3, 4, 5, 6, 7]);
        // More shards than tasks: tail shards are empty ranges.
        assert_eq!(shard_starts(3, 5), vec![0, 1, 2, 3, 3, 3]);
        // Zero is clamped to one shard.
        assert_eq!(shard_starts(4, 0), vec![0, 4]);
        assert_eq!(shard_starts(0, 3), vec![0, 0, 0, 0]);
    }

    #[test]
    fn from_cat_preserves_rows_and_canonicalizes_workers() {
        let cat = ragged_cat();
        for shards in [1, 2, 3, 7, 11] {
            let view = ShardedView::from_cat(&cat, shards);
            assert_eq!(view.num_answers(), cat.num_answers());
            assert_eq!(view.max_task_degree(), 3);
            // Task rows are verbatim slices.
            for t in 0..cat.n {
                let s = view.shard_for_task(t);
                assert_eq!(
                    view.shard_task_row(s, t - view.shard_tasks(s).start),
                    cat.task_row(t),
                    "task {t} at {shards} shards"
                );
                assert_eq!(view.task_len(t), cat.task_len(t));
            }
            // Concatenated worker rows are the task-ascending canonical
            // order (the builder filled task-by-task, so this equals the
            // flat worker rows).
            for w in 0..cat.m {
                let mut concat: Vec<(u32, u8)> = Vec::new();
                for s in 0..view.num_shards() {
                    concat.extend_from_slice(view.shard_worker_row(s, w));
                }
                assert_eq!(concat, cat.worker_row(w), "worker {w} at {shards} shards");
                assert_eq!(view.worker_len(w), cat.worker_len(w));
            }
        }
    }

    #[test]
    fn for_each_task_walks_the_directory_across_shard_boundaries() {
        let cat = ragged_cat();
        for shards in [1, 2, 3, 7, 11] {
            let view = ShardedView::from_cat(&cat, shards);
            for start in 0..=cat.n {
                for end in start..=cat.n {
                    let mut rows: Vec<(usize, &[(u32, u8)])> = Vec::new();
                    view.for_each_task(start..end, |t, row| rows.push((t, row)));
                    let want: Vec<(usize, &[(u32, u8)])> =
                        (start..end).map(|t| (t, cat.task_row(t))).collect();
                    assert_eq!(rows, want, "tasks {start}..{end} at {shards} shards");
                }
            }
        }
    }

    #[test]
    fn streamed_build_matches_sliced_build() {
        let cat = ragged_cat();
        let records: Vec<(u32, u32, u8)> = (0..cat.n)
            .flat_map(|t| {
                cat.task_row(t)
                    .iter()
                    .map(move |&(w, label)| (t as u32, w, label))
            })
            .collect();
        for shards in [1, 2, 5, 9] {
            let sliced = ShardedView::from_cat(&cat, shards);
            let streamed = ShardedView::from_records(
                cat.n,
                cat.m,
                cat.l,
                shards,
                records.iter().copied(),
                vec![None; cat.n],
            );
            for s in 0..sliced.num_shards() {
                let start = sliced.shard_tasks(s).start;
                for t in sliced.shard_tasks(s) {
                    assert_eq!(
                        sliced.shard_task_row(s, t - start),
                        streamed.shard_task_row(s, t - start)
                    );
                }
                for w in 0..cat.m {
                    assert_eq!(
                        sliced.shard_worker_row(s, w),
                        streamed.shard_worker_row(s, w)
                    );
                }
            }
            assert_eq!(sliced.directory(), streamed.directory());
        }
    }

    #[test]
    fn majority_posteriors_bit_identical_to_flat() {
        let cat = ragged_cat();
        let flat = cat.majority_posteriors();
        for shards in [1, 2, 7, 16] {
            let view = ShardedView::from_cat(&cat, shards);
            let sharded = view.majority_posteriors();
            assert_eq!(
                flat.data()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<u64>>(),
                sharded
                    .data()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<u64>>(),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn rebuild_shard_swaps_one_range_only() {
        let cat = ragged_cat();
        let mut view = ShardedView::from_cat(&cat, 3);
        // Shard 1 covers tasks 3..5 (ceil split of 7 into 3: [0,3,5,7]).
        let range = view.shard_tasks(1);
        // Replace shard 1's content: task 4 now has two answers.
        let records = vec![(4u32, 0u32, 1u8), (4, 3, 1)];
        assert!(records.iter().all(|r| range.contains(&(r.0 as usize))));
        view.rebuild_shard(1, &records);
        assert_eq!(view.task_len(4), 2);
        assert_eq!(view.task_len(3), 0);
        // Other shards untouched.
        assert_eq!(view.shard_task_row(0, 0), cat.task_row(0));
        assert_eq!(view.task_len(6), cat.task_len(6));
        // Entry offsets re-derived.
        assert_eq!(
            view.num_answers(),
            cat.num_answers() - cat.task_len(3) - cat.task_len(4) + 2
        );
        // Canonical worker rows reflect the swap.
        assert_eq!(view.shard_worker_row(1, 0), &[(4u32, 1u8)]);
    }

    #[test]
    #[should_panic(expected = "outside shard")]
    fn rebuild_shard_rejects_out_of_range_records() {
        let cat = ragged_cat();
        let mut view = ShardedView::from_cat(&cat, 3);
        view.rebuild_shard(1, &[(0, 0, 0)]);
    }
}
