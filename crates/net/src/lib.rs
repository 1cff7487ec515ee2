//! Deterministic discrete-event network simulator.
//!
//! The paper's evaluation runs on AWS `m5d.8xlarge` machines across five
//! regions (Ohio, Oregon, Cape Town, Hong Kong, Milan) with 10 Gbps links.
//! This crate is the synthetic substitute: a virtual-clock message
//! simulator reproducing the quantities that determine the protocols'
//! performance shape —
//!
//! - **propagation delay**: a per-region-pair one-way delay matrix with
//!   jitter ([`GeoLatency`]), or simpler models for unit tests;
//! - **serialization delay**: a per-sender egress bandwidth model
//!   ([`SimNetwork`]) that makes broadcast bandwidth the throughput
//!   bottleneck, as in the real system;
//! - **delivery schedule control**: pluggable [`Adversary`] policies
//!   implementing the paper's network models — benign WAN, the *random
//!   network model* (each validator advances with a uniformly random
//!   `2f + 1` subset), and the *asynchronous adversary* (targeted delays),
//!   plus healable partitions;
//! - **per-link FIFO**: messages between a pair of nodes never reorder
//!   (the implementation uses raw TCP).
//!
//! Everything is seeded: the same seed reproduces the same run bit-for-bit.

mod adversary;
mod latency;
mod network;
pub mod time;

pub use adversary::{
    Adversary, MessageMeta, NoAdversary, PartitionAdversary, RandomSubsetAdversary,
    RotatingDelayAdversary,
};
pub use latency::{GeoLatency, LatencyModel, UniformLatency, AWS_REGIONS};
pub use network::{Envelope, NetworkConfig, SimNetwork};
pub use time::Time;
