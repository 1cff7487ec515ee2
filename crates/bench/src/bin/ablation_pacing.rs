//! Ablation: the post-quorum inclusion wait (round pacing).
//!
//! Advancing rounds the instant a quorum arrives starves the slowest
//! regions: their blocks miss the (short) vote window and their leader
//! slots get skipped, inverting the Mahi-Mahi-4 advantage. This ablation
//! quantifies the effect.

use bench::{banner, quick_flag, write_csv};
use mahimahi_net::time;
use mahimahi_sim::{ProtocolChoice, SimConfig, Simulation};

fn main() {
    let quick = quick_flag();
    banner(
        "Ablation — post-quorum inclusion wait",
        "0 ms starves far regions (skips, MM-4 > MM-5); ≥50 ms restores C5",
    );
    let mut all = Vec::new();
    for wait_ms in [0u64, 25, 50, 100] {
        for protocol in [
            ProtocolChoice::MahiMahi4 { leaders: 2 },
            ProtocolChoice::MahiMahi5 { leaders: 2 },
        ] {
            let config = SimConfig {
                protocol,
                committee_size: 10,
                duration: time::from_secs(if quick { 5 } else { 10 }),
                txs_per_second_per_validator: 1_000,
                inclusion_wait: time::from_millis(wait_ms),
                seed: 7,
                ..SimConfig::default()
            };
            let report = Simulation::new(config).run();
            println!("wait={wait_ms:>3}ms {}", report.table_row());
            all.push(report);
        }
    }
    write_csv("ablation_pacing", &all);
}
