//! `wallclock`: the repository's benchmark. A 4-validator cluster on real
//! loopback TCP with a real `FileWal` per node, driven from one generator
//! thread over two client connections. README.md beside this file says what
//! every workload and metric means.
//!
//! ```text
//! wallclock --workload <w> --seed <n> --seconds <s> --trace <0|1>   one run, for the driver
//!           [--record file]                                        ... and its full record
//! wallclock run     [--seed n] [--seconds s] [--repeat k] [--workload w] [--out file]
//! wallclock trace   [--seed n] [--seconds s] [--workload w]
//! wallclock compare <before.json> <after.json>
//! ```

mod alloc;
mod cluster;
mod frame;
mod json;
mod load;
mod observe;
mod procfs;
mod replay;
mod report;
mod run;
mod spec;
mod stats;

use report::Record;
use run::RunOptions;
use spec::{Workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Measured seconds per run when none are given: the `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;

/// `--name value` pairs after the subcommand; anything else is an error.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            let name = flag
                .strip_prefix("--")
                .filter(|name| known.contains(name))
                .ok_or_else(|| format!("unknown argument `{flag}`"))?;
            let value = rest
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(flag, _)| flag == name)
            .map(|(_, value)| value.as_str())
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        self.text(name).map_or(Ok(default), |value| {
            value
                .parse()
                .map_err(|_| format!("`--{name} {value}` is not a whole number"))
        })
    }

    fn workloads(&self) -> Result<Vec<&'static Workload>, String> {
        match self.text("workload") {
            Some(name) => Ok(vec![report::workload_named(name)?]),
            None => Ok(WORKLOADS.iter().collect()),
        }
    }
}

/// Run files live beside the build output — `<target>/wallclock-data` —
/// so they stay inside the checkout whatever directory cargo builds into.
fn data_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("the executable has no target directory")?;
    let dir = target.join("wallclock-data");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// One run; after a traced one, the replay and the span file as well.
fn measure(
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    tracing: bool,
    data_dir: &Path,
) -> std::io::Result<Record> {
    let mut outcome = run::run(&RunOptions {
        workload,
        seed,
        seconds,
        tracing,
        data_dir: data_dir.to_path_buf(),
    })?;
    let Some(capture) = outcome.capture.take() else {
        return Ok(Record::untraced(&outcome));
    };
    // Let the stopped cluster's transport threads notice and exit, so the
    // replay times each layer on an idle machine.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let replayed = replay::replay(&outcome, &capture, data_dir)?;
    std::fs::remove_file(data_dir.join("replay.wal"))?;
    let path = data_dir.join(format!("trace-{}.json", workload.name));
    replay::write_trace(&path, &outcome, &replayed.spans)?;
    println!(
        "{} spans written to {}",
        replayed.spans.len(),
        path.display()
    );
    Ok(Record::traced(
        &outcome,
        replayed.metrics,
        replayed.violations,
    ))
}

fn seconds_checked(seconds: u64) -> Result<u64, String> {
    if (1..=600).contains(&seconds) {
        Ok(seconds)
    } else {
        Err(format!("--seconds {seconds} is outside 1..=600"))
    }
}

fn driver(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace", "record"])?;
    let workload = report::workload_named(flags.text("workload").ok_or("--workload is required")?)?;
    let tracing = match flags.number("trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other} is neither 0 nor 1")),
    };
    let seconds = seconds_checked(flags.number("seconds", DEFAULT_SECONDS)?)?;
    let dir = data_dir()?;
    let record = measure(workload, flags.number("seed", 1)?, seconds, tracing, &dir)
        .map_err(|e| e.to_string())?;
    record.print();
    if let Some(path) = flags.text("record") {
        std::fs::write(path, record.to_json().render()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", record.driver_line(tracing));
    Ok(ExitCode::SUCCESS)
}

/// One run in a process of its own, as the driver makes them: a run then
/// starts from a fresh heap and its `peak_rss_mb` is its own. Returns the
/// child's full record.
fn measure_in_child(
    workload: &Workload,
    seed: u64,
    seconds: u64,
    data_dir: &Path,
) -> Result<json::Json, String> {
    let record_path = data_dir.join("record.json");
    let status = std::process::Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .args(["--workload", workload.name, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .arg("--record")
        .arg(&record_path)
        .status()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    if !status.success() {
        return Err(format!("the run of {} ended with {status}", workload.name));
    }
    let text = std::fs::read_to_string(&record_path).map_err(|e| e.to_string())?;
    std::fs::remove_file(&record_path).map_err(|e| e.to_string())?;
    json::Json::parse(&text)
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "repeat", "out"])?;
    let seconds = seconds_checked(flags.number("seconds", DEFAULT_SECONDS)?)?;
    let (seed, repeat) = (flags.number("seed", 1)?, flags.number("repeat", 1)?);
    let dir = data_dir()?;
    let mut runs = Vec::new();
    for round in 0..repeat {
        // Alternate the order so no workload always runs on a machine the
        // same predecessor warmed or dirtied.
        let mut order = flags.workloads()?;
        if round % 2 == 1 {
            order.reverse();
        }
        for workload in order {
            runs.push(measure_in_child(workload, seed + round, seconds, &dir)?);
        }
    }
    if repeat > 1 {
        report::print_summary(&runs);
    }
    let invalid = runs.iter().filter(|run| !report::run_is_valid(run)).count();
    let total = runs.len();
    let out = flags
        .text("out")
        .map_or_else(|| dir.join("result.json"), PathBuf::from);
    let document = report::result_document(runs, seconds, &dir);
    std::fs::write(&out, document.render_pretty()).map_err(|e| e.to_string())?;
    println!("results written to {}", out.display());
    if invalid > 0 {
        println!("{invalid} of {total} runs failed a check");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn trace_command(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds"])?;
    let seconds = seconds_checked(flags.number("seconds", DEFAULT_SECONDS)?)?;
    let dir = data_dir()?;
    let mut valid = true;
    for workload in flags.workloads()? {
        let record = measure(workload, flags.number("seed", 1)?, seconds, true, &dir)
            .map_err(|e| format!("{}: {e}", workload.name))?;
        record.print();
        valid &= record.correct() && record.warnings.is_empty();
    }
    Ok(if valid {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_command(args: &[String]) -> Result<ExitCode, String> {
    let [before, after] = args else {
        return Err("compare takes two result files".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let outside = report::compare(&load(before)?, &load(after)?)?;
    if outside > 0 {
        println!("{outside} pairs are outside their bound");
        return Ok(ExitCode::FAILURE);
    }
    println!("every pair is within its bound");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("trace") => trace_command(&args[1..]),
        Some("compare") => compare_command(&args[1..]),
        Some(flag) if flag.starts_with("--") => driver(&args),
        _ => Err("usage: wallclock (run | trace | compare <a> <b> | --workload <w> --seed <n> --seconds <s> --trace <0|1>)".into()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("wallclock: {message}");
        ExitCode::from(2)
    })
}
