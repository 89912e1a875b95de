//! What a run reports: the metrics, the operations attempted and failed,
//! and the stamp recording what was measured.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// One reported metric. `n` is the sample count a percentile or median
/// rests on (`None` for single measurements and counts).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: Option<usize>,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra report fields, each value already JSON-encoded.
    pub details: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            // `+ 0.0` turns the -0.0 of an empty f64 sum into 0.0.
            value: value + 0.0,
            unit,
            n: None,
        });
    }

    pub fn metric_n(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: value + 0.0,
            unit,
            n: Some(n),
        });
    }

    /// Count one attempted operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Record a failed output check (counted against the operation that
    /// produced the output).
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    pub fn detail(&mut self, key: &str, json_value: String) {
        self.details.push((key.to_string(), json_value));
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with exactly `value` and `unit`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed(),
            metrics.join(", ")
        )
    }

    /// The full report: the stamp, every metric with its sample count,
    /// the extra fields and the failure reasons.
    pub fn report_json(&self, stamp: &Stamp) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"stamp\": {}", stamp.to_json());
        let _ = write!(
            out,
            ", \"correct\": {}, \"attempted\": {}, \"failed\": {}",
            self.correct(),
            self.attempted,
            self.failed()
        );
        out.push_str(", \"metrics\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let n = m.n.map_or(String::new(), |n| format!(", \"n\": {n}"));
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"{n}}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        out.push('}');
        for (k, v) in &self.details {
            let _ = write!(out, ", \"{k}\": {v}");
        }
        let failures: Vec<String> = self.failures.iter().map(|f| json_str(f)).collect();
        let _ = write!(out, ", \"failures\": [{}]}}", failures.join(", "));
        out
    }
}

/// A finite number in full precision; non-finite values become `null`
/// (and make the run incorrect).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What a run measured: build, machine, source and inputs.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub fields: Vec<(&'static str, String)>,
}

impl Stamp {
    /// Collect the stamp for a run of `workload` at `seed`; `sizes` is the
    /// workload's input sizes as a JSON object.
    pub fn collect(workload: &str, seed: u64, seconds: u64, trace: bool, sizes: String) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let fields = vec![
            ("workload", json_str(workload)),
            ("seed", seed.to_string()),
            ("seconds", seconds.to_string()),
            ("trace", trace.to_string()),
            ("sizes", sizes),
            ("backend", json_str(crowd_stats::kernels::backend_name())),
            ("features", json_str("default")),
            (
                "profile",
                json_str(if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }),
            ),
            (
                "exec_default_threads",
                crowd_core::exec::default_threads().to_string(),
            ),
            ("nproc", nproc.to_string()),
            ("cpu", json_str(&cpu)),
            ("rustc", json_str(&command_line("rustc", &["-V"]))),
            // Only a checkout's own repository names its revision; git
            // would otherwise search the parent directories.
            (
                "git_rev",
                json_str(&if Path::new(".git").exists() {
                    command_line("git", &["rev-parse", "HEAD"])
                } else {
                    "unavailable".to_string()
                }),
            ),
            ("source_digest", json_str(&source_digest(Path::new(".")))),
            ("crowd_obs_enabled", crowd_obs::enabled().to_string()),
        ];
        Self { fields }
    }

    pub fn to_json(&self) -> String {
        let parts: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

/// First line of a command's standard output, or `"unavailable"` (the
/// benchmark also runs from checkouts that are not git repositories).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unavailable".to_string())
}

/// FNV-1a digest over the program's sources and manifests (path and
/// contents of every file under `crates/`, `src/`, `perfbench/src/` plus
/// the manifests), so a run names the code it measured even where no git
/// revision is available.
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for dir in ["crates", "src", "perfbench/src"] {
        collect_files(&root.join(dir), &mut files);
    }
    for f in ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"] {
        files.push(root.join(f));
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            eat(f.to_string_lossy().as_bytes());
            eat(&bytes);
        }
    }
    format!("fnv1a64:{h:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&p, out),
            Ok(t) if t.is_file() => {
                if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
                    out.push(p);
                }
            }
            _ => {}
        }
    }
}

/// Peak resident set size of this process (VmHWM) in MB, or 0.0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_result_keys() {
        let mut o = Outcome::default();
        o.op(true, String::new);
        o.op(false, || "boom".into());
        o.metric_n("lag_p99_ms", 1.25, "ms", 40);
        let line = o.result_line();
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \
             \"metrics\": {\"lag_p99_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert!(o
            .report_json(&Stamp { fields: vec![] })
            .contains("\"n\": 40"));
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
