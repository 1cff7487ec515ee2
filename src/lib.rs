//! # Mahi-Mahi: low-latency asynchronous BFT DAG-based consensus
//!
//! A from-scratch Rust reproduction of *"Mahi-Mahi: Low-Latency
//! Asynchronous BFT DAG-Based Consensus"* (Jovanovic, Kokoris-Kogias,
//! Kumara, Sonnino, Tennage, Zablotchi — ICDCS 2025, arXiv:2410.08670):
//! the protocol, the baselines it is evaluated against (Cordial Miners and
//! Tusk), and every substrate they need.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`types`] | `mahimahi-types` | committees, blocks, references, transactions, wire codec |
//! | [`crypto`] | `mahimahi-crypto` | BLAKE2b, Schnorr signatures, threshold coin |
//! | [`wal`] | `mahimahi-wal` | crash-safe write-ahead log |
//! | [`dag`] | `mahimahi-dag` | the uncertified DAG store and Algorithm 3's traversals |
//! | [`core`] | `mahimahi-core` | **the Mahi-Mahi committer** (Algorithms 1–2) |
//! | [`baselines`] | `mahimahi-baselines` | Cordial Miners and Tusk committers |
//! | [`net`] | `mahimahi-net` | deterministic WAN simulator with adversaries |
//! | [`telemetry`] | `mahimahi-telemetry` | counters, gauges, log-scale histograms, stage tracing |
//! | [`sim`] | `mahimahi-sim` | whole-protocol simulation harness and metrics |
//! | [`scenarios`] | `mahimahi-scenarios` | attack scenarios, conformance oracles, matrix sweep |
//! | [`transport`] | `mahimahi-transport` | length-prefixed TCP transport |
//! | [`node`] | `mahimahi-node` | networked validator with WAL recovery |
//! | [`analysis`] | `mahimahi-analysis` | the paper's closed-form latency/commit models |
//!
//! ## Quickstart
//!
//! ```
//! use mahi_mahi::core::{Committer, CommitterOptions, CommitSequencer, CommitDecision};
//! use mahi_mahi::dag::DagBuilder;
//! use mahi_mahi::types::TestCommittee;
//!
//! // Provision a 4-validator committee and build a few DAG rounds.
//! let setup = TestCommittee::new(4, 42);
//! let committee = setup.committee().clone();
//! let mut dag = DagBuilder::new(setup);
//! dag.add_full_rounds(8);
//!
//! // Run the Mahi-Mahi commit rule (wave length 5, 2 leaders per round).
//! let committer = Committer::new(committee, CommitterOptions::default());
//! let mut sequencer = CommitSequencer::new(committer);
//! for decision in sequencer.try_commit(dag.store()) {
//!     if let CommitDecision::Commit(sub_dag) = decision {
//!         println!("committed leader {} (+{} blocks)", sub_dag.leader, sub_dag.blocks.len());
//!     }
//! }
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and the repository
//! README for the architecture and how each figure is reproduced.

/// The paper's closed-form models (Appendix C).
pub use mahimahi_analysis as analysis;
/// Baseline committers: Cordial Miners and Tusk.
pub use mahimahi_baselines as baselines;
/// The Mahi-Mahi committer.
pub use mahimahi_core as core;
/// Cryptographic substrate.
pub use mahimahi_crypto as crypto;
/// The uncertified DAG store.
pub use mahimahi_dag as dag;
/// Deterministic network simulator.
pub use mahimahi_net as net;
/// Networked validator node.
pub use mahimahi_node as node;
/// Attack scenarios, conformance oracles, and the matrix sweep.
pub use mahimahi_scenarios as scenarios;
/// Whole-protocol simulation harness.
pub use mahimahi_sim as sim;
/// Metrics core: counters, gauges, histograms, stage tracing.
pub use mahimahi_telemetry as telemetry;
/// TCP transport.
pub use mahimahi_transport as transport;
/// Protocol types.
pub use mahimahi_types as types;
/// Write-ahead log.
pub use mahimahi_wal as wal;
