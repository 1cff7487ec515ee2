//! Committee-scale CI gate: measures per-block admission and per-vote
//! quorum tally at n ∈ {4, 10, 50}, writes the report to the untracked
//! `bench-results/committee_scale.json`, and exits non-zero if per-block
//! admission at n = 50 exceeds 3× the n = 4 cost (the dense-indexing
//! near-flat-hot-path claim).

use bench::scale::{self, ADMISSION_RATIO_BUDGET};
use std::io::Write;

fn main() {
    bench::banner(
        "Committee-scale hot paths",
        "per-block admission and quorum tally stay near-flat from n = 4 to n = 50",
    );
    let points = scale::measure_all();
    println!(
        "{:>4}  {:>24}  {:>20}",
        "n", "admission (ns/block)", "tally (ns/vote)"
    );
    for point in &points {
        println!(
            "{:>4}  {:>24.1}  {:>20.1}",
            point.committee_size, point.admission_per_block_ns, point.tally_per_vote_ns
        );
    }
    let ratio = scale::admission_ratio(&points);
    println!("\nadmission n=50 / n=4: {ratio:.2}x (budget {ADMISSION_RATIO_BUDGET:.1}x)");

    let path = bench::results_dir().join("committee_scale.json");
    let mut file = std::fs::File::create(&path).expect("create committee_scale.json");
    file.write_all(scale::scale_json(&points).as_bytes())
        .expect("write committee_scale.json");
    println!("→ wrote {}", path.display());

    if ratio > ADMISSION_RATIO_BUDGET {
        eprintln!(
            "FAIL: per-block admission grew {ratio:.2}x from n=4 to n=50 \
             (budget: {ADMISSION_RATIO_BUDGET:.1}x)"
        );
        std::process::exit(1);
    }
    println!("PASS");
}
