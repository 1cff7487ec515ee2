//! Printing, result files, and the comparison of two result files.

use crate::json::Json;
use crate::run::{value_of, RunOutcome, Value};
use crate::spec::{self, Better, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use std::path::Path;
use std::time::Instant;

/// One finished run, reduced to what is printed and stored.
pub struct Record {
    pub workload: &'static str,
    pub seed: u64,
    /// Failed output checks: the cluster's outputs were wrong.
    pub violations: Vec<String>,
    /// Failed measurement-health checks: the numbers are not to be trusted.
    pub warnings: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Value>,
    /// The per-episode values behind the end-to-end medians.
    pub per_episode: Vec<(&'static str, Vec<f64>)>,
    /// Group A always; group B and the `traced.*` copies after a traced run.
    pub per_layer: Vec<Value>,
}

impl Record {
    /// A plain run's record: end-to-end metrics and group A.
    pub fn untraced(outcome: &RunOutcome) -> Record {
        Record {
            workload: outcome.workload.name,
            seed: outcome.seed,
            violations: outcome.violations.clone(),
            warnings: outcome.warnings.clone(),
            attempted: outcome.attempted,
            failed: outcome.failed,
            end_to_end: outcome.end_to_end.clone(),
            per_episode: outcome.per_episode.clone(),
            per_layer: outcome.group_a.clone(),
        }
    }

    /// A traced run's record: group A, the replay's group B, and the run's
    /// own end-to-end numbers under `traced.*`, so the tracing overhead is
    /// their distance from an untraced run's.
    pub fn traced(outcome: &RunOutcome, group_b: Vec<Value>, violations: Vec<String>) -> Record {
        let mut record = Record::untraced(outcome);
        record.violations.extend(violations);
        record.per_layer.extend(group_b);
        for (name, value) in &outcome.end_to_end {
            if let Some(metric) = PER_LAYER
                .iter()
                .find(|metric| metric.name.strip_prefix("traced.") == Some(name))
            {
                record.per_layer.push((metric.name, *value));
            }
        }
        record
    }

    /// The cluster's outputs passed every check.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Prints every metric the record holds, by name and unit.
    pub fn print(&self) {
        let verdict = match (self.correct(), self.warnings.is_empty()) {
            (true, true) => "all output checks passed",
            (true, false) => "outputs correct, MEASUREMENT INVALID",
            (false, _) => "OUTPUTS WRONG",
        };
        println!(
            "== {} (seed {}): attempted {} tx, failed {}, {verdict}",
            self.workload, self.seed, self.attempted, self.failed
        );
        if let Some(workload) = spec::workload(self.workload) {
            println!("   why: {}", workload.why);
        }
        for problem in &self.violations {
            println!("   violation: {problem}");
        }
        for problem in &self.warnings {
            println!("   warning: {problem}");
        }
        let show = |metrics: &[Metric], values: &[Value]| {
            for metric in metrics {
                if values.iter().any(|(name, _)| *name == metric.name) {
                    let episodes = self
                        .per_episode
                        .iter()
                        .find(|(name, _)| *name == metric.name)
                        .map_or(String::new(), |(_, values)| {
                            format!("  episodes {values:.4?}")
                        });
                    println!(
                        "   {:<40} {:>14.4} {}{episodes}",
                        metric.name,
                        value_of(values, metric.name),
                        metric.unit
                    );
                }
            }
        };
        show(&END_TO_END, &self.end_to_end);
        show(&PER_LAYER, &self.per_layer);
    }

    /// The line the driver reads: `metrics` holds every end-to-end metric,
    /// or (after a traced run) every per-layer metric.
    pub fn driver_line(&self, per_layer: bool) -> String {
        let (metrics, values): (&[Metric], &[Value]) = if per_layer {
            (&PER_LAYER, &self.per_layer)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        let listed = metrics.iter().map(|metric| {
            let entry = Json::object([
                ("value", Json::Number(value_of(values, metric.name))),
                ("unit", Json::text(metric.unit)),
            ]);
            (metric.name, entry)
        });
        Json::object([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Number(self.attempted as f64)),
            ("failed", Json::Number(self.failed as f64)),
            ("metrics", Json::object(listed)),
        ])
        .render()
    }

    /// Everything the record holds; one entry of a result file's `runs`.
    pub fn to_json(&self) -> Json {
        let table =
            |values: &[Value]| Json::object(values.iter().map(|(n, v)| (*n, Json::Number(*v))));
        let texts = |lines: &[String]| Json::Array(lines.iter().map(Json::text).collect());
        Json::object([
            ("workload", Json::text(self.workload)),
            ("seed", Json::Number(self.seed as f64)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Number(self.attempted as f64)),
            ("failed", Json::Number(self.failed as f64)),
            ("violations", texts(&self.violations)),
            ("warnings", texts(&self.warnings)),
            ("end_to_end", table(&self.end_to_end)),
            ("per_layer", table(&self.per_layer)),
        ])
    }
}

/// Whether a stored run (a [`Record::to_json`] object) passed every output
/// and measurement-health check.
pub fn run_is_valid(run: &Json) -> bool {
    ["violations", "warnings"].iter().all(|key| {
        run.get(key)
            .and_then(Json::as_array)
            .is_some_and(<[Json]>::is_empty)
    })
}

/// What machine produced a result: numbers from two machines do not compare.
pub fn fingerprint(data_dir: &Path) -> Json {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu_model = read("/proc/cpuinfo")
        .lines()
        .find_map(|line| line.strip_prefix("model name")?.split(':').nth(1))
        .map_or(String::new(), |model| model.trim().to_string());
    Json::object([
        (
            "nproc",
            Json::Number(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu_model", Json::text(cpu_model)),
        (
            "kernel",
            Json::text(read("/proc/sys/kernel/osrelease").trim()),
        ),
        ("wal_dir_fsync_p50_us", Json::Number(fsync_p50_us(data_dir))),
    ])
}

/// Median time of a 4 KiB append plus `sync_all` in `dir`, in µs: what one
/// WAL sync costs on the file system the benchmark's logs live on.
fn fsync_p50_us(dir: &Path) -> f64 {
    use std::io::Write;
    let path = dir.join("fsync-probe");
    let Ok(mut file) = std::fs::File::create(&path) else {
        return f64::NAN;
    };
    let times: Vec<f64> = (0..50)
        .filter_map(|_| {
            let started = Instant::now();
            file.write_all(&[0u8; 4096]).ok()?;
            file.sync_all().ok()?;
            Some(started.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    let _ = std::fs::remove_file(&path);
    median(&times)
}

/// Median and quartiles of one (workload, metric) pair over stored runs.
struct Pair {
    workload: &'static str,
    metric: &'static Metric,
    median: f64,
    q1: f64,
    q3: f64,
    spread: f64,
    runs: usize,
}

/// One [`Pair`] per (workload, end-to-end metric) the stored runs cover.
fn pairs(runs: &[Json]) -> Vec<Pair> {
    let mut pairs = Vec::new();
    for workload in &WORKLOADS {
        for metric in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter(|run| run.get("workload").and_then(Json::as_str) == Some(workload.name))
                .filter_map(|run| run.get("end_to_end")?.get(metric.name)?.as_f64())
                .collect();
            if values.is_empty() {
                continue;
            }
            let (q1, q3) = quartiles(&values);
            pairs.push(Pair {
                workload: workload.name,
                metric,
                median: median(&values),
                q1,
                q3,
                spread: spread(&values),
                runs: values.len(),
            });
        }
    }
    pairs
}

/// The result file's `summary`: workload → metric → median, quartiles, runs.
fn summary(runs: &[Json]) -> Json {
    let mut by_workload: Vec<(&str, Vec<(&str, Json)>)> = Vec::new();
    for pair in pairs(runs) {
        let entry = Json::object([
            ("median", Json::Number(pair.median)),
            ("q1", Json::Number(pair.q1)),
            ("q3", Json::Number(pair.q3)),
            ("runs", Json::Number(pair.runs as f64)),
        ]);
        match by_workload.last_mut() {
            Some((workload, metrics)) if *workload == pair.workload => {
                metrics.push((pair.metric.name, entry));
            }
            _ => by_workload.push((pair.workload, vec![(pair.metric.name, entry)])),
        }
    }
    Json::object(
        by_workload
            .into_iter()
            .map(|(workload, metrics)| (workload, Json::object(metrics))),
    )
}

/// Prints median, quartiles and spread (interquartile distance ÷ median,
/// the driver's steadiness measure) per (workload, metric) pair.
pub fn print_summary(runs: &[Json]) {
    println!(
        "{:<12} {:<24} {:>12} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for pair in pairs(runs) {
        println!(
            "{:<12} {:<24} {:>12.4} {:>12.4} {:>12.4} {:>7.1}% {:>6.0}%",
            pair.workload,
            pair.metric.name,
            pair.median,
            pair.q1,
            pair.q3,
            pair.spread * 100.0,
            pair.metric.bound * 100.0
        );
    }
}

/// The whole result document `run` writes and `compare` reads.
pub fn result_document(runs: Vec<Json>, seconds: u64, data_dir: &Path) -> Json {
    Json::object([
        ("benchmark", Json::text("wallclock")),
        ("fingerprint", fingerprint(data_dir)),
        ("seconds", Json::Number(seconds as f64)),
        ("summary", summary(&runs)),
        ("runs", Json::Array(runs)),
    ])
}

/// How much worse `after` is than `before`, as a share of `before`:
/// positive is worse, whichever direction the metric improves in.
pub fn worsening(metric: &Metric, before: f64, after: f64) -> f64 {
    match metric.better {
        Better::Lower => (after - before) / before,
        Better::Higher => (before - after) / before,
    }
}

/// Prints every (workload, metric) pair of two result documents with both
/// medians and the bound. Returns how many pairs are outside their bound
/// or missing from one document.
///
/// # Errors
///
/// A document that has no `summary`.
pub fn compare(before: &Json, after: &Json) -> Result<usize, String> {
    let summaries = [before, after].map(|document| document.get("summary"));
    let [Some(before), Some(after)] = summaries else {
        return Err("a result file has no `summary`".into());
    };
    println!(
        "{:<12} {:<24} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "before", "after", "worse by", "bound"
    );
    let mut outside = 0;
    for workload in &WORKLOADS {
        for metric in &END_TO_END {
            let pick = |summary: &Json| {
                summary
                    .get(workload.name)?
                    .get(metric.name)?
                    .get("median")?
                    .as_f64()
            };
            let within = match (pick(before), pick(after)) {
                (Some(a), Some(b)) => {
                    let worse = worsening(metric, a, b);
                    let within = worse <= metric.bound;
                    println!(
                        "{:<12} {:<24} {:>12.4} {:>12.4} {:>+8.1}% {:>6.0}% {}",
                        workload.name,
                        metric.name,
                        a,
                        b,
                        worse * 100.0,
                        metric.bound * 100.0,
                        if within { "" } else { "OUTSIDE" }
                    );
                    within
                }
                (None, None) => continue,
                _ => {
                    println!(
                        "{:<12} {:<24} present in only one file",
                        workload.name, metric.name
                    );
                    false
                }
            };
            outside += usize::from(!within);
        }
    }
    Ok(outside)
}

/// Looks a workload up by name for the command line.
///
/// # Errors
///
/// The list of known names.
pub fn workload_named(name: &str) -> Result<&'static spec::Workload, String> {
    spec::workload(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|workload| workload.name).collect();
        format!("unknown workload `{name}`; known: {}", known.join(", "))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &'static str, p50: f64) -> Record {
        Record {
            workload,
            seed: 1,
            violations: Vec::new(),
            warnings: Vec::new(),
            attempted: 10,
            failed: 0,
            end_to_end: END_TO_END
                .iter()
                .map(|metric| {
                    let value = if metric.name == "commit_latency_p50_ms" {
                        p50
                    } else {
                        100.0
                    };
                    (metric.name, value)
                })
                .collect(),
            per_episode: Vec::new(),
            per_layer: vec![("node.rounds_per_s", 50.0)],
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = record("steady", 150.5).driver_line(false);
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = parsed.get("metrics").unwrap();
        assert_eq!(metrics.members().len(), END_TO_END.len());
        let p50 = metrics.get("commit_latency_p50_ms").unwrap();
        assert_eq!(p50.get("value").and_then(Json::as_f64), Some(150.5));
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("ms"));
        let traced = Json::parse(&record("steady", 1.0).driver_line(true)).unwrap();
        assert_eq!(
            traced.get("metrics").unwrap().members().len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn only_output_checks_decide_correct_but_warnings_invalidate_a_run() {
        let mut late = record("steady", 1.0);
        late.warnings.push("generator ran late".into());
        assert!(late.correct());
        assert!(!run_is_valid(&late.to_json()));
        let mut wrong = record("steady", 1.0);
        wrong.violations.push("streams disagree".into());
        assert!(!wrong.correct());
        assert!(wrong.driver_line(false).starts_with("{\"correct\":false"));
        assert!(run_is_valid(&record("steady", 1.0).to_json()));
    }

    fn document(p50s: &[f64]) -> Json {
        let runs = p50s
            .iter()
            .map(|p50| record("steady", *p50).to_json())
            .collect();
        let text = result_document(runs, 20, &std::env::temp_dir()).render_pretty();
        Json::parse(&text).unwrap()
    }

    #[test]
    fn compare_flags_only_pairs_outside_their_bound() {
        let base = document(&[100.0, 102.0, 98.0]);
        assert_eq!(compare(&base, &document(&[110.0, 111.0, 109.0])), Ok(0));
        assert_eq!(compare(&base, &document(&[50.0])), Ok(0), "better is fine");
        assert_eq!(compare(&base, &document(&[126.0, 127.0, 128.0])), Ok(1));
        assert!(compare(&base, &Json::Null).is_err());
        let higher = spec::end_to_end("committed_tps").unwrap();
        assert!(worsening(higher, 4000.0, 3000.0) > 0.2);
        assert!(worsening(higher, 4000.0, 5000.0) < 0.0);
    }

    #[test]
    fn summary_reports_median_and_quartiles_per_pair() {
        let summary = document(&[10.0, 20.0, 40.0]);
        let pair = summary
            .get("summary")
            .and_then(|s| s.get("steady"))
            .and_then(|w| w.get("commit_latency_p50_ms"))
            .unwrap();
        assert_eq!(pair.get("median").and_then(Json::as_f64), Some(20.0));
        assert_eq!(pair.get("q1").and_then(Json::as_f64), Some(10.0));
        assert_eq!(pair.get("q3").and_then(Json::as_f64), Some(40.0));
        assert_eq!(pair.get("runs").and_then(Json::as_f64), Some(3.0));
        assert!(summary.get("summary").unwrap().get("saturate").is_none());
    }
}
