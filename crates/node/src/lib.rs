//! Networked Mahi-Mahi validator.
//!
//! The production-shaped counterpart of the simulator's validators: a
//! [`ValidatorNode`] runs the uncertified-DAG protocol over real TCP
//! ([`mahimahi_transport`]), persists every block to a write-ahead log
//! before disseminating it, recovers its DAG from the log after a restart,
//! and emits committed sub-DAGs to the application through a channel —
//! Section 4 of the paper in miniature.
//!
//! [`LocalCluster`] assembles an `n`-node cluster on localhost for examples
//! and integration tests.

mod client;
mod cluster;
mod log;
mod node;

pub use client::{ClientError, TxClient, CLIENT_PEER};
pub use cluster::LocalCluster;
pub use node::{NodeConfig, NodeHandle, NodeMetrics, RecordedStep, StatusReport, ValidatorNode};
