//! Shared harness code for the figure-reproduction binaries.
//!
//! Every figure of the paper has a binary in `src/bin/`:
//!
//! | Paper figure | Binary | What it sweeps |
//! |--------------|--------|----------------|
//! | Figure 3 | `fig3` | load × {Tusk, CM, MM-5, MM-4} × {10, 50} validators |
//! | Figure 4 | `fig4` | load × the four systems, 10 validators, 3 crashed |
//! | Figure 5 | `fig5` | load × MM-4 × {1,2,3} leaders × {0,3} crashed |
//! | Figure 7 | `fig7` | load × MM-5 × {1,2,3} leaders × {0,3} crashed |
//! | Lemmas 13/16/17 | `commit_probability` | analytic vs Monte-Carlo |
//!
//! Each binary prints the table rows to stdout and writes a CSV next to the
//! workspace root (`bench-results/`). Pass `--quick` for a fast smoke sweep
//! (shorter simulated durations, fewer load points).

pub mod scale;

use mahimahi_net::time::{self, Time};
use mahimahi_sim::{ProtocolChoice, SimConfig, SimReport, Simulation};
use std::io::Write;
use std::path::PathBuf;

/// The four systems of Figure 3, in the paper's plotting order.
pub fn paper_systems() -> Vec<ProtocolChoice> {
    vec![
        ProtocolChoice::Tusk,
        ProtocolChoice::CordialMiners,
        ProtocolChoice::MahiMahi5 { leaders: 2 },
        ProtocolChoice::MahiMahi4 { leaders: 2 },
    ]
}

/// Sweep parameters shared by the figure binaries.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Committee size.
    pub committee_size: usize,
    /// Crashed validators (from the tail of the committee).
    pub crashed: usize,
    /// Total offered loads to test (tx/s across all honest validators).
    pub total_loads_tps: Vec<u64>,
    /// Simulated duration per point.
    pub duration: Time,
    /// Base seed (each point perturbs it deterministically).
    pub seed: u64,
}

impl Sweep {
    /// The paper's load axis scaled for a laptop-sized run.
    pub fn standard(committee_size: usize, crashed: usize, quick: bool) -> Self {
        let total_loads_tps = if quick {
            vec![1_000, 10_000]
        } else {
            vec![1_000, 5_000, 10_000, 20_000, 50_000, 100_000]
        };
        Sweep {
            committee_size,
            crashed,
            total_loads_tps,
            duration: if quick {
                time::from_secs(5)
            } else {
                time::from_secs(10)
            },
            seed: 2024,
        }
    }
}

/// Runs one simulation point.
pub fn run_point(protocol: ProtocolChoice, sweep: &Sweep, total_load: u64) -> SimReport {
    let honest = sweep.committee_size - sweep.crashed;
    let config = SimConfig {
        protocol,
        committee_size: sweep.committee_size,
        duration: sweep.duration,
        txs_per_second_per_validator: total_load / honest as u64,
        seed: sweep.seed ^ total_load,
        ..SimConfig::default()
    }
    .with_crashed(sweep.crashed);
    Simulation::new(config).run()
}

/// Runs a full sweep for one protocol, printing rows as they complete.
pub fn run_sweep(protocol: ProtocolChoice, sweep: &Sweep) -> Vec<SimReport> {
    let mut reports = Vec::new();
    for &load in &sweep.total_loads_tps {
        let report = run_point(protocol, sweep, load);
        println!("{}", report.table_row());
        reports.push(report);
    }
    reports
}

/// The `bench-results/` output directory at the workspace root, created on
/// first use.
///
/// # Panics
///
/// Panics if the directory cannot be created (harness context: fail
/// loudly).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("bench-results");
    std::fs::create_dir_all(&dir).expect("create bench-results directory");
    dir
}

/// Writes reports as CSV under `bench-results/<name>.csv`.
///
/// # Panics
///
/// Panics on I/O errors (harness context: fail loudly).
pub fn write_csv(name: &str, reports: &[SimReport]) -> PathBuf {
    let dir = results_dir();
    let path = dir.join(format!("{name}.csv"));
    let mut file = std::fs::File::create(&path).expect("create csv");
    writeln!(file, "{}", SimReport::csv_header()).expect("write header");
    for report in reports {
        writeln!(file, "{}", report.csv_row()).expect("write row");
    }
    println!("→ wrote {}", path.display());
    path
}

/// Parses the common `--quick` flag.
pub fn quick_flag() -> bool {
    std::env::args().any(|arg| arg == "--quick")
}

/// Prints a figure banner.
pub fn banner(title: &str, claims: &str) {
    println!("\n=== {title} ===");
    println!("Paper claims: {claims}\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_point_runs() {
        let sweep = Sweep {
            committee_size: 4,
            crashed: 0,
            total_loads_tps: vec![400],
            duration: time::from_secs(3),
            seed: 1,
        };
        let report = run_point(ProtocolChoice::MahiMahi4 { leaders: 2 }, &sweep, 400);
        assert!(report.committed_transactions > 0);
    }

    #[test]
    fn systems_cover_the_paper() {
        let names: Vec<String> = paper_systems().iter().map(|p| p.name()).collect();
        assert!(names.iter().any(|n| n.contains("Tusk")));
        assert!(names.iter().any(|n| n.contains("Cordial")));
        assert!(names.iter().any(|n| n.contains("Mahi-Mahi-5")));
        assert!(names.iter().any(|n| n.contains("Mahi-Mahi-4")));
    }
}
