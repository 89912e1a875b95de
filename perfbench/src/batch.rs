//! The two batch-inference workloads: `table6` (every applicable method
//! on the five paper datasets) and `bigcrowd` (one large crowd loaded
//! from TSV and run through six methods). A pass runs its cells one
//! after another; scoring and checks run between cells, outside the
//! timed calls.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crowd_core::views::Cat;
use crowd_core::{InferenceOptions, InferenceResult, Method};
use crowd_data::datasets::PaperDataset;
use crowd_data::{io, Dataset, StreamSim, TaskType};
use crowd_metrics::{accuracy, f1_score, mae};

use crate::gauge::Gauge;
use crate::probe::{exec_metrics, kernel_metrics, ObsDelta};
use crate::report::{num, Outcome};
use crate::stats::{geomean_of_cell_medians, median, Dist};
use crate::trace::{Layer, Tracer};
use crate::{method_key, RunConfig};

/// The methods `bigcrowd` runs (GLAD is left out: at 10^6 answers it
/// runs to its 100-iteration cap for ~19 s).
pub const BIGCROWD_METHODS: [Method; 6] = [
    Method::Mv,
    Method::Ds,
    Method::Lfc,
    Method::Zc,
    Method::Pm,
    Method::Catd,
];

#[derive(Debug, Clone, Copy)]
pub enum Batch {
    /// The paper's five datasets at `scale`, `draws` independent
    /// draws of each from the seed.
    Table6 { scale: f64, draws: u64 },
    /// One `StreamSim` crowd.
    BigCrowd {
        tasks: usize,
        workers: usize,
        choices: u8,
        redundancy: usize,
    },
}

impl Batch {
    pub fn table6(tiny: bool) -> Self {
        Batch::Table6 {
            scale: if tiny { 0.01 } else { 0.1 },
            draws: if tiny { 1 } else { 3 },
        }
    }

    pub fn bigcrowd(tiny: bool) -> Self {
        if tiny {
            Batch::BigCrowd {
                tasks: 2_000,
                workers: 100,
                choices: 4,
                redundancy: 5,
            }
        } else {
            Batch::BigCrowd {
                tasks: 200_000,
                workers: 2_000,
                choices: 4,
                redundancy: 5,
            }
        }
    }

    pub fn sizes_json(&self) -> String {
        match *self {
            Batch::Table6 { scale, draws } => {
                let parts: Vec<String> = PaperDataset::ALL
                    .iter()
                    .map(|d| {
                        let c = d.config(scale);
                        format!(
                            "\"{}\": {{\"tasks\": {}, \"workers\": {}, \"redundancy\": {}}}",
                            d.name(),
                            c.num_tasks,
                            c.num_workers,
                            c.redundancy
                        )
                    })
                    .collect();
                format!(
                    "{{\"scale\": {scale}, \"draws\": {draws}, \"cells\": {}, {}}}",
                    self.num_cells(),
                    parts.join(", ")
                )
            }
            Batch::BigCrowd {
                tasks,
                workers,
                choices,
                redundancy,
            } => format!(
                "{{\"tasks\": {tasks}, \"workers\": {workers}, \"choices\": {choices}, \
                 \"redundancy\": {redundancy}, \"answers\": {}, \"methods\": {}}}",
                tasks * redundancy,
                BIGCROWD_METHODS.len()
            ),
        }
    }

    /// `Method::build().infer` cells per pass.
    pub fn num_cells(&self) -> usize {
        match *self {
            Batch::Table6 { draws, .. } => {
                PaperDataset::ALL
                    .iter()
                    .map(|d| Method::for_task_type(d.task_type()).len())
                    .sum::<usize>()
                    * draws as usize
            }
            Batch::BigCrowd { .. } => BIGCROWD_METHODS.len(),
        }
    }

    fn methods(&self, dataset: &Dataset) -> Vec<Method> {
        match self {
            Batch::Table6 { .. } => Method::for_task_type(dataset.task_type()),
            Batch::BigCrowd { .. } => BIGCROWD_METHODS.to_vec(),
        }
    }
}

/// A workload's inputs once set up.
enum Input {
    InMemory(Vec<Dataset>),
    Tsv {
        answers: PathBuf,
        truths: PathBuf,
        task_type: TaskType,
        num_answers: usize,
        num_tasks: usize,
    },
}

impl Input {
    fn num_answers(&self) -> usize {
        match self {
            Input::InMemory(ds) => ds.iter().map(Dataset::num_answers).sum(),
            Input::Tsv { num_answers, .. } => *num_answers,
        }
    }
}

fn setup(batch: &Batch, seed: u64, dir: &Path, tracer: &mut Tracer) -> Result<Input, String> {
    match *batch {
        Batch::Table6 { scale, draws } => Ok(Input::InMemory(
            (0..draws)
                .flat_map(|k| PaperDataset::ALL.iter().map(move |d| (k, d)))
                .map(|(k, d)| {
                    let draw_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ k;
                    tracer.span(Layer::Data, "data.generate", || {
                        d.generate(scale, draw_seed)
                    })
                })
                .collect(),
        )),
        Batch::BigCrowd {
            tasks,
            workers,
            choices,
            redundancy,
        } => {
            let ds = tracer.span(Layer::Data, "data.generate", || {
                StreamSim::new(seed, tasks, workers, choices, redundancy).to_dataset("bigcrowd")
            });
            let answers = tracer
                .span(Layer::Data, "data.write_tsv", || io::write_tsv(&ds, dir))
                .map_err(|e| format!("write_tsv: {e}"))?;
            Ok(Input::Tsv {
                answers,
                truths: dir.join("truths.tsv"),
                task_type: ds.task_type(),
                num_answers: ds.num_answers(),
                num_tasks: ds.num_tasks(),
            })
        }
    }
}

/// One cell's measurement and scores.
#[derive(Debug, Clone)]
struct Cell {
    method: Method,
    task_type: TaskType,
    secs: f64,
    iterations: usize,
    accuracy: Option<f64>,
    f1: Option<f64>,
    mae: Option<f64>,
}

impl Cell {
    /// Everything that must repeat exactly between passes.
    fn fingerprint(&self) -> (usize, Option<u64>, Option<u64>, Option<u64>) {
        (
            self.iterations,
            self.accuracy.map(f64::to_bits),
            self.f1.map(f64::to_bits),
            self.mae.map(f64::to_bits),
        )
    }
}

struct Pass {
    /// Timed calls only: the TSV load plus every cell.
    infer_s: f64,
    read_s: f64,
    cells: Vec<Cell>,
    cat_build_s: Option<f64>,
}

/// Check one inference result's shape; return a failure reason.
fn check_result(r: &InferenceResult, ds: &Dataset) -> Option<String> {
    if r.truths.len() != ds.num_tasks() {
        return Some(format!(
            "{} truths for {} tasks",
            r.truths.len(),
            ds.num_tasks()
        ));
    }
    if let Some(p) = &r.posteriors {
        if p.len() != ds.num_tasks() || p.iter().flatten().any(|x| !x.is_finite()) {
            return Some("posteriors of wrong length or not finite".to_string());
        }
    }
    None
}

fn run_pass(
    batch: &Batch,
    input: &Input,
    seed: u64,
    tracer: &mut Tracer,
    gauge: &mut Gauge,
    out: &mut Outcome,
) -> Pass {
    let mut read_s = 0.0;
    let loaded;
    let datasets: &[Dataset] = match input {
        Input::InMemory(ds) => ds,
        Input::Tsv {
            answers,
            truths,
            task_type,
            num_answers,
            num_tasks,
        } => {
            let t = Instant::now();
            let r = tracer.span(Layer::Data, "data.read_tsv", || {
                io::read_tsv(answers, Some(truths), *task_type, "bigcrowd")
            });
            read_s = t.elapsed().as_secs_f64();
            gauge.tick();
            let r = r.map_err(|e| format!("read_tsv: {e}")).and_then(|ds| {
                if ds.num_answers() == *num_answers && ds.num_tasks() == *num_tasks {
                    Ok(ds)
                } else {
                    Err(format!(
                        "read_tsv loaded {} answers / {} tasks, wrote {num_answers} / {num_tasks}",
                        ds.num_answers(),
                        ds.num_tasks()
                    ))
                }
            });
            out.op(r.is_ok(), || r.as_ref().err().cloned().unwrap_or_default());
            loaded = r.into_iter().collect::<Vec<_>>();
            &loaded
        }
    };
    let mut cells = Vec::new();
    for ds in datasets {
        for method in batch.methods(ds) {
            let opts = InferenceOptions::seeded(seed);
            let t = Instant::now();
            let r = tracer.span(
                Layer::Methods,
                &format!("methods.{}", method_key(method)),
                || method.build().infer(ds, &opts),
            );
            let secs = t.elapsed().as_secs_f64();
            gauge.tick();
            let r = r
                .map_err(|e| format!("{} on {}: {e}", method.name(), ds.name()))
                .and_then(|r| match check_result(&r, ds) {
                    Some(why) => Err(format!("{} on {}: {why}", method.name(), ds.name())),
                    None => Ok(r),
                });
            out.op(r.is_ok(), || r.as_ref().err().cloned().unwrap_or_default());
            let Ok(r) = r else { continue };
            let categorical = ds.num_choices().is_some();
            cells.push(Cell {
                method,
                task_type: ds.task_type(),
                secs,
                iterations: r.iterations,
                accuracy: categorical.then(|| accuracy(ds, &r.truths)),
                f1: (categorical && scores_f1(batch, ds)).then(|| f1_score(ds, &r.truths)),
                mae: (!categorical).then(|| mae(ds, &r.truths)),
            });
        }
    }
    let infer_s = read_s + cells.iter().map(|c| c.secs).sum::<f64>();
    // The view probe: one `Cat::build` on its own, outside the pass time.
    let cat_build_s = tracer.active().then(|| {
        let probe = match batch {
            Batch::Table6 { .. } => datasets.get(2), // S_Rel of the first draw
            Batch::BigCrowd { .. } => datasets.first(),
        };
        probe.map_or(0.0, |ds| {
            let t = Instant::now();
            let cat = tracer.span(Layer::Views, "views.cat_build", || {
                Cat::build("probe", ds, &InferenceOptions::default(), false)
            });
            let secs = t.elapsed().as_secs_f64();
            if let Err(e) = cat {
                out.fail(format!("Cat::build: {e}"));
            }
            secs
        })
    });
    Pass {
        infer_s,
        read_s,
        cells,
        cat_build_s,
    }
}

/// `f1` is the paper's positive-class F1: on table6's decision-making
/// datasets, and on bigcrowd as label 0 against the rest.
fn scores_f1(batch: &Batch, ds: &Dataset) -> bool {
    match batch {
        Batch::Table6 { .. } => ds.task_type() == TaskType::DecisionMaking,
        Batch::BigCrowd { .. } => true,
    }
}

/// Mean of a score over the cells that have it (every cell weighs the
/// same, as in the paper's tables), with the number of cells.
fn mean_of(cells: &[Cell], f: impl Fn(&Cell) -> Option<f64>) -> (f64, usize) {
    let xs: Vec<f64> = cells.iter().filter_map(f).collect();
    let n = xs.len();
    (
        if n == 0 {
            f64::NAN
        } else {
            xs.iter().sum::<f64>() / n as f64
        },
        n,
    )
}

/// Run a batch workload for `cfg.seconds` and report its metrics.
pub fn run(batch: Batch, cfg: &RunConfig, out: &mut Outcome) {
    let mut tracer = Tracer::new(cfg.trace);
    let work = cfg.work_dir.join("input");

    // Set up several times; keep the last input.
    let mut setup_secs = Vec::new();
    let mut generate_secs = Vec::new();
    let mut input = None;
    let setup_start = Instant::now();
    while setup_secs.len() < cfg.min_setups
        || (setup_secs.len() < cfg.max_setups
            && setup_start.elapsed().as_secs_f64() < cfg.setup_budget_s)
    {
        let t = Instant::now();
        let before = tracer.spans().len();
        let r = setup(&batch, cfg.seed, &work, &mut tracer);
        setup_secs.push(t.elapsed().as_secs_f64());
        generate_secs.push(
            tracer.spans()[before..]
                .iter()
                .filter(|s| s.name == "data.generate")
                .map(|s| s.end - s.start)
                .sum::<f64>(),
        );
        out.op(r.is_ok(), || r.as_ref().err().cloned().unwrap_or_default());
        match r {
            Ok(i) => input = Some(i),
            Err(_) => return,
        }
    }
    let input = input.expect("at least one setup ran");

    // Warm-up pass: fills caches and lazy state; its scores are the
    // reference every later pass must repeat exactly.
    tracer.set_active(false);
    let reference = run_pass(
        &batch,
        &input,
        cfg.seed,
        &mut tracer,
        &mut Gauge::new(false),
        out,
    );
    tracer.set_active(cfg.trace);

    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut deltas: Vec<ObsDelta> = Vec::new();
    // The untraced run samples the host-speed gauge between timed calls.
    let mut gauge = Gauge::new(!cfg.trace);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(cfg.seconds);
    let mut i = 0usize;
    loop {
        let enough = if cfg.trace {
            traced.len() >= cfg.min_passes.div_ceil(2).max(2) && plain.len() >= 2
        } else {
            plain.len() >= cfg.min_passes
        };
        if enough && Instant::now() >= deadline {
            break;
        }
        // In the traced run, traced and untraced passes alternate (order
        // flipped every pair) so drift hits both sides alike.
        let traced_turn = cfg.trace && matches!(i % 4, 0 | 3);
        i += 1;
        tracer.set_active(traced_turn);
        let before = traced_turn.then(crowd_obs::snapshot);
        let pass = run_pass(&batch, &input, cfg.seed, &mut tracer, &mut gauge, out);
        if let Some(b) = before {
            deltas.push(ObsDelta::new(b, crowd_obs::snapshot()));
        }
        tracer.set_active(cfg.trace);
        compare_to_reference(&reference, &pass, out);
        if traced_turn {
            traced.push(pass);
        } else {
            plain.push(pass);
        }
    }

    if cfg.trace {
        let rows = PaperDataset::SRel.config(0.1).num_tasks;
        kernel_metrics(out, &mut tracer, rows, 4, cfg.seed);
        per_layer(
            &batch,
            &reference,
            &plain,
            &traced,
            &deltas,
            &generate_secs,
            &tracer,
            out,
        );
        cfg.write_trace(&tracer);
    } else {
        end_to_end(&input, &reference, &plain, &setup_secs, &gauge, out);
    }
    let (mae_mean, mae_n) = mean_of(&reference.cells, |c| c.mae);
    if mae_n > 0 {
        out.detail(
            "mae",
            format!(
                "{{\"value\": {}, \"cells\": {mae_n}}}",
                crate::report::num(mae_mean)
            ),
        );
    }
    out.detail("cells", cells_json(&reference.cells));
}

fn compare_to_reference(reference: &Pass, pass: &Pass, out: &mut Outcome) {
    let same = reference.cells.len() == pass.cells.len()
        && reference
            .cells
            .iter()
            .zip(&pass.cells)
            .all(|(a, b)| a.method == b.method && a.fingerprint() == b.fingerprint());
    if !same {
        out.fail("quality or iteration counts differ between passes of one run".to_string());
    }
}

fn end_to_end(
    input: &Input,
    reference: &Pass,
    passes: &[Pass],
    setup_secs: &[f64],
    gauge: &Gauge,
    out: &mut Outcome,
) {
    let infer: Vec<f64> = passes.iter().map(|p| p.infer_s).collect();
    let cell_secs: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| p.cells.iter().map(|c| c.secs).collect())
        .collect();
    // A pass is one job: every cell is submitted at its start and its
    // truths are visible once the load and the cells before it are done.
    let lags: Vec<f64> = passes
        .iter()
        .flat_map(|p| {
            p.cells.iter().scan(p.read_s, |done, c| {
                *done += c.secs;
                Some(*done * 1e3)
            })
        })
        .collect();
    let lag = Dist::of(&lags);
    let setup_s = median(setup_secs);
    let infer_s = median(&infer);
    let geo_ms = geomean_of_cell_medians(&cell_secs) * 1e3;
    let (acc, acc_n) = mean_of(&reference.cells, |c| c.accuracy);
    let (f1, f1_n) = mean_of(&reference.cells, |c| c.f1);
    // Timings at the reference host speed (see `gauge`).
    let f = gauge.factor();
    out.metric_n("setup_s", setup_s * f, "s", setup_secs.len());
    out.metric_n("infer_s", infer_s * f, "s", infer.len());
    out.metric_n("infer_geomean_ms", geo_ms * f, "ms", cell_secs.len());
    out.metric_n(
        "ingest_answers_per_s",
        input.num_answers() as f64 / (infer_s * f),
        "answers/s",
        infer.len(),
    );
    out.metric_n("lag_p50_ms", lag.p50 * f, "ms", lag.n);
    out.detail(
        "gauge",
        format!(
            "{{\"ref_s\": {}, \"median_s\": {}, \"n\": {}, \"alpha\": {}, \"factor\": {}, \"raw\": \
             {{\"setup_s\": {}, \"infer_s\": {}, \"infer_geomean_ms\": {}, \"lag_p50_ms\": {}}}}}",
            num(crate::gauge::REF_S),
            num(gauge.median_s()),
            gauge.len(),
            num(crate::gauge::ALPHA),
            num(f),
            num(setup_s),
            num(infer_s),
            num(geo_ms),
            num(lag.p50)
        ),
    );
    out.metric_n("accuracy", acc, "ratio", acc_n);
    out.metric_n("f1", f1, "ratio", f1_n);
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    batch: &Batch,
    reference: &Pass,
    plain: &[Pass],
    traced: &[Pass],
    deltas: &[ObsDelta],
    generate_secs: &[f64],
    tracer: &Tracer,
    out: &mut Outcome,
) {
    out.metric_n(
        "data.generate_s",
        median(generate_secs),
        "s",
        generate_secs.len(),
    );
    if matches!(batch, Batch::BigCrowd { .. }) {
        let reads: Vec<f64> = traced.iter().map(|p| p.read_s).collect();
        out.metric_n("data.read_tsv_s", median(&reads), "s", reads.len());
    }
    let cats: Vec<f64> = traced.iter().filter_map(|p| p.cat_build_s).collect();
    out.metric_n("views.cat_build_s", median(&cats), "s", cats.len());
    for method in Method::ALL {
        let key = method_key(method);
        let per_pass: Vec<f64> = traced
            .iter()
            .map(|p| {
                p.cells
                    .iter()
                    .filter(|c| c.method == method)
                    .map(|c| c.secs)
                    .sum()
            })
            .collect();
        if reference.cells.iter().any(|c| c.method == method) {
            out.metric_n(
                &format!("methods.{key}_s"),
                median(&per_pass),
                "s",
                per_pass.len(),
            );
            let iters: usize = reference
                .cells
                .iter()
                .filter(|c| c.method == method)
                .map(|c| c.iterations)
                .sum();
            out.metric(&format!("methods.{key}_iters"), iters as f64, "count");
        }
    }
    let estep: Vec<f64> = deltas
        .iter()
        .map(|d| d.hist_sum("core.kernel.estep_seconds"))
        .collect();
    out.metric_n("obs.estep_s", median(&estep), "s", estep.len());
    if let Some(merged) = ObsDelta::merged(deltas) {
        exec_metrics(out, &merged);
    }
    crate::trace_metrics(
        out,
        tracer,
        plain.iter().map(|p| p.infer_s),
        traced.iter().map(|p| p.infer_s),
    );
}

fn cells_json(cells: &[Cell]) -> String {
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            let opt = |x: Option<f64>| x.map_or("null".to_string(), crate::report::num);
            format!(
                "{{\"method\": \"{}\", \"task_type\": \"{:?}\", \"iterations\": {}, \
                 \"accuracy\": {}, \"f1\": {}, \"mae\": {}}}",
                c.method.name(),
                c.task_type,
                c.iterations,
                opt(c.accuracy),
                opt(c.f1),
                opt(c.mae)
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}
