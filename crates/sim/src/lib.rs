//! Simulation harness: whole-protocol runs over the simulated WAN.
//!
//! This crate assembles the full system the paper benchmarks on AWS
//! (Section 5) — validators running a DAG committer, geo-distributed
//! clients submitting 512-byte transactions in an open loop, crash and
//! Byzantine faults — on top of the deterministic simulator in
//! `mahimahi-net`. One [`Simulation`] run produces a [`SimReport`] with the
//! paper's metrics: throughput (committed transactions per second) and
//! client-observed latency (submission → commit at the submitting
//! validator).
//!
//! The protocols under test are exactly the four systems of Figure 3:
//! Mahi-Mahi-5, Mahi-Mahi-4 (both with configurable leaders per round),
//! Cordial Miners, and Tusk. Tusk runs its certified pipeline: every block
//! is consistent-broadcast (proposal → acks → certificate) before entering
//! any DAG, costing three message delays per round and the certificate
//! verification CPU the paper attributes its latency/throughput gap to.
//!
//! # Example
//!
//! ```
//! use mahimahi_sim::{SimConfig, ProtocolChoice, Simulation};
//!
//! let config = SimConfig {
//!     protocol: ProtocolChoice::MahiMahi4 { leaders: 2 },
//!     committee_size: 4,
//!     duration: mahimahi_net::time::from_secs(5),
//!     txs_per_second_per_validator: 100,
//!     ..SimConfig::default()
//! };
//! let report = Simulation::new(config).run();
//! assert!(report.committed_transactions > 0);
//! assert!(report.latency.mean_s() < 3.0);
//! ```

mod config;
mod message;
mod metrics;
mod runner;
mod strategy;
mod validator;

pub use config::{
    AdversaryChoice, Behavior, CpuCosts, LatencyChoice, LeaderSchedule, ProtocolChoice, SimConfig,
};
pub use mahimahi_core::{IngressConfig, IngressReport, MempoolConfig, TxIntegrityReport};
pub use message::WireModel;
pub use metrics::{LatencySnapshot, LatencyStats, SimReport};
pub use runner::{SimOutcome, Simulation};
pub use validator::{Action, SimValidator};
