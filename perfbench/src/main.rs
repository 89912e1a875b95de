//! `crowd-perfbench`: the repository's benchmark.
//!
//! ```text
//! crowd-perfbench --workload <table6|bigcrowd|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds its inputs from the seed, measures for about `--seconds`,
//! checks every output, and prints one JSON object as the last line of
//! standard output: `correct`, `attempted`, `failed` and `metrics` —
//! every end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. The full report (stamp, sample counts, quality details,
//! failure reasons) is the line before it and is also written under
//! `perfbench/out/`. See `perfbench/README.md`.

mod batch;
mod gauge;
mod probe;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crowd_core::Method;

use report::{Outcome, Stamp};
use trace::{Layer, Tracer};

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("infer_s", "s"),
    ("infer_geomean_ms", "ms"),
    ("ingest_answers_per_s", "answers/s"),
    ("lag_p50_ms", "ms"),
    ("accuracy", "ratio"),
    ("f1", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Keys of the `methods.<key>_s` / `methods.<key>_iters` metrics.
pub fn method_key(m: Method) -> &'static str {
    match m {
        Method::Mv => "mv",
        Method::Zc => "zc",
        Method::Glad => "glad",
        Method::Ds => "ds",
        Method::Minimax => "minimax",
        Method::Bcc => "bcc",
        Method::Cbcc => "cbcc",
        Method::Lfc => "lfc",
        Method::Catd => "catd",
        Method::Pm => "pm",
        Method::Multi => "multi",
        Method::Kos => "kos",
        Method::ViBp => "vi-bp",
        Method::ViMf => "vi-mf",
        Method::LfcN => "lfc_n",
        Method::Mean => "mean",
        Method::Median => "median",
    }
}

/// Per-layer metrics: every workload reports each of them, 0 where the
/// workload makes no call into that layer.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| v.push((name.to_string(), unit));
    add("data.generate_s", "s");
    add("data.read_tsv_s", "s");
    add("views.cat_build_s", "s");
    for m in Method::ALL {
        add(&format!("methods.{}_s", method_key(m)), "s");
        add(&format!("methods.{}_iters", method_key(m)), "count");
    }
    for (name, unit) in [
        ("kernels.exp_ns", "ns"),
        ("kernels.ln_ns", "ns"),
        ("kernels.sigmoid_ns", "ns"),
        ("kernels.log_sum_exp_rows_ns", "ns"),
        ("kernels.log_normalize_rows_ns", "ns"),
        ("obs.estep_s", "s"),
        ("exec.parallel_batch_share", "share"),
        ("exec.dispatch_p99_ms", "ms"),
        ("stream.converge_ms", "ms"),
        ("stream.converge_p99_ms", "ms"),
        ("stream.converge_iters", "count"),
        ("stream.cold_converges", "count"),
        ("stream.warm_resumes", "count"),
        ("serve.submit_p50_us", "us"),
        ("serve.submit_p99_us", "us"),
        ("serve.queue_wait_p50_ms", "ms"),
        ("serve.tick_p50_ms", "ms"),
        ("serve.tick_p99_ms", "ms"),
        ("serve.tick_answers", "answers"),
        ("serve.read_p50_ns", "ns"),
        ("serve.read_p99_ns", "ns"),
        ("serve.lag_p99_ms", "ms"),
        ("durable.wal_append_p99_us", "us"),
        ("durable.snapshot_write_ms", "ms"),
        ("durable.wal_bytes", "bytes"),
        ("recover.total_s", "s"),
        ("recover.scan_s", "s"),
        ("recover.snapshot_load_s", "s"),
        ("recover.replay_s", "s"),
        ("recover.requeue_s", "s"),
        ("recover.converges_replayed", "count"),
    ] {
        add(name, unit);
    }
    for l in Layer::ALL {
        add(&format!("self.{}_s", l.name()), "s");
    }
    add("trace.wall_s", "s");
    add("trace.unattributed_share", "share");
    add("trace.overhead_ratio", "ratio");
    add("gen.late_max_ms", "ms");
    v
}

/// Settings of one run.
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs for the benchmark's own smoke tests.
    pub tiny: bool,
    /// Scratch files (TSV, WAL); removed at the end of the run.
    pub work_dir: PathBuf,
    /// Reports and traces.
    pub out_dir: PathBuf,
    pub min_setups: usize,
    pub max_setups: usize,
    /// Setups repeat (up to `max_setups`) until this much time is spent.
    pub setup_budget_s: f64,
    pub min_passes: usize,
}

impl RunConfig {
    fn new(workload: &str, seed: u64, seconds: f64, trace: bool, tiny: bool, root: &Path) -> Self {
        let tag = format!("{workload}-seed{seed}-trace{}", u8::from(trace));
        Self {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            tiny,
            work_dir: root
                .join("work")
                .join(format!("{tag}-{}", std::process::id())),
            out_dir: root.to_path_buf(),
            min_setups: 3,
            max_setups: 50,
            setup_budget_s: 1.0,
            min_passes: 3,
        }
    }

    fn tag(&self) -> String {
        format!(
            "{}-seed{}-trace{}",
            self.workload,
            self.seed,
            u8::from(self.trace)
        )
    }

    /// Write the traced run's spans and the program's obs snapshot.
    pub fn write_trace(&self, tracer: &Tracer) {
        let tag = self.tag();
        let _ = std::fs::create_dir_all(&self.out_dir);
        let _ = std::fs::write(
            self.out_dir.join(format!("{tag}.spans.jsonl")),
            tracer.to_jsonl(),
        );
        let _ = std::fs::write(
            self.out_dir.join(format!("{tag}.obs.json")),
            crowd_obs::snapshot().to_json(),
        );
    }
}

/// The metrics every traced run reports: per-layer self times, the
/// attributed share of the traced wall time, and the tracing overhead
/// (median traced pass over median untraced pass).
pub fn trace_metrics(
    out: &mut Outcome,
    tracer: &Tracer,
    plain: impl Iterator<Item = f64>,
    traced: impl Iterator<Item = f64>,
) {
    let wall = tracer.active_wall();
    let mut attributed = 0.0;
    for (layer, secs) in tracer.layer_self_times() {
        out.metric(&format!("self.{}_s", layer.name()), secs, "s");
        attributed += secs;
    }
    out.metric("trace.wall_s", wall, "s");
    out.metric(
        "trace.unattributed_share",
        (1.0 - attributed / wall).max(0.0),
        "share",
    );
    let plain: Vec<f64> = plain.collect();
    let traced: Vec<f64> = traced.collect();
    out.metric_n(
        "trace.overhead_ratio",
        stats::median(&traced) / stats::median(&plain),
        "ratio",
        plain.len().min(traced.len()),
    );
}

/// Run one workload and return its outcome (metrics completed to the
/// full list for the run's mode).
pub fn run_workload(cfg: &RunConfig) -> Result<(Outcome, String), String> {
    let mut out = Outcome::default();
    let sizes = match cfg.workload.as_str() {
        "table6" => {
            let b = batch::Batch::table6(cfg.tiny);
            batch::run(b, cfg, &mut out);
            b.sizes_json()
        }
        "bigcrowd" => {
            let b = batch::Batch::bigcrowd(cfg.tiny);
            batch::run(b, cfg, &mut out);
            b.sizes_json()
        }
        "serve" => {
            let s = serve::Sizes::new(cfg.tiny);
            serve::run(&s, cfg, &mut out);
            s.to_json()
        }
        other => {
            return Err(format!(
                "unknown workload {other:?} (table6, bigcrowd, serve)"
            ))
        }
    };
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    complete(&mut out, cfg.trace);
    Ok((out, sizes))
}

/// Add `peak_rss_mb`, then check the metric set: with `trace` every
/// per-layer metric (0 for layers the workload never calls), otherwise
/// every end-to-end metric. A missing end-to-end metric is a failure.
fn complete(out: &mut Outcome, trace: bool) {
    if trace {
        let layer = per_layer_metrics();
        for (name, unit) in &layer {
            if !out.metrics.iter().any(|m| &m.name == name) {
                out.metric_n(name, 0.0, unit, 0);
            }
        }
        out.metrics
            .retain(|m| layer.iter().any(|(n, _)| *n == m.name));
        out.metrics
            .sort_by_key(|m| layer.iter().position(|(n, _)| *n == m.name));
    } else {
        out.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
        for (name, _) in END_TO_END {
            if !out.metrics.iter().any(|m| m.name == name) {
                out.fail(format!("end-to-end metric {name} was not measured"));
            }
        }
        out.metrics
            .retain(|m| END_TO_END.iter().any(|(n, _)| *n == m.name));
        out.metrics
            .sort_by_key(|m| END_TO_END.iter().position(|(n, _)| *n == m.name));
    }
}

fn parse_args(args: &[String]) -> Result<(String, u64, u64, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed.unwrap_or(1),
        seconds.unwrap_or(20),
        trace.unwrap_or(false),
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, trace) = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("crowd-perfbench: {e}");
            eprintln!("usage: crowd-perfbench --workload <table6|bigcrowd|serve> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from("perfbench/out");
    let cfg = RunConfig::new(&workload, seed, seconds as f64, trace, false, &root);
    let (out, sizes) = match run_workload(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("crowd-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let stamp = Stamp::collect(&workload, seed, seconds, trace, sizes);
    let report = out.report_json(&stamp);
    let _ = std::fs::create_dir_all(&cfg.out_dir);
    let _ = std::fs::write(
        cfg.out_dir.join(format!("{}.report.json", cfg.tag())),
        &report,
    );
    for f in &out.failures {
        eprintln!("crowd-perfbench: FAILED: {f}");
    }
    for m in &out.metrics {
        eprintln!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{report}");
    println!("{}", out.result_line());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics (and units) the binary
    /// reports.
    #[test]
    fn benchmark_json_matches_metric_lists() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect("field present");
                        let rest = &entry[at + f.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = open + rest[open..].find('"').expect("value closes");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(section("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(section("per_layer"), layer);
    }

    #[test]
    fn args_parse_and_reject() {
        let a = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert_eq!(
            parse_args(&a("--workload serve --seed 7 --seconds 5 --trace 1")),
            Ok(("serve".to_string(), 7, 5, true))
        );
        assert!(parse_args(&a("--workload serve --trace 2")).is_err());
        assert!(parse_args(&a("--seed 1")).is_err());
        assert!(parse_args(&a("--workload serve --seconds 0")).is_err());
    }

    fn smoke(workload: &str, trace: bool) {
        let root =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/test-{}", std::process::id()));
        let mut cfg = RunConfig::new(workload, 5, 0.2, trace, true, &root.join(workload));
        cfg.min_setups = 2;
        cfg.min_passes = 2;
        let (out, _) = run_workload(&cfg).expect("known workload");
        assert!(
            out.correct(),
            "{workload} trace={trace}: {:?}",
            out.failures
        );
        assert!(out.attempted > 0);
        let expected: Vec<String> = if trace {
            per_layer_metrics().into_iter().map(|(n, _)| n).collect()
        } else {
            END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
        };
        let got: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(got, expected);
        if !trace {
            assert!(
                out.metrics.iter().all(|m| m.value > 0.0),
                "{:?}",
                out.metrics
            );
        }
        let _ = std::fs::remove_dir_all(root.join(workload));
    }

    #[test]
    fn smoke_table6() {
        smoke("table6", false);
        smoke("table6", true);
    }

    #[test]
    fn smoke_bigcrowd() {
        smoke("bigcrowd", false);
        smoke("bigcrowd", true);
    }

    #[test]
    fn smoke_serve() {
        smoke("serve", false);
        smoke("serve", true);
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let cfg = RunConfig::new("nope", 1, 1.0, false, true, Path::new("unused"));
        assert!(run_workload(&cfg).is_err());
    }
}
