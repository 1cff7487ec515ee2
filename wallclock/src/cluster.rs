//! Cluster assembly from the public API: real TCP on loopback, one
//! `FileWal` per validator.
//!
//! This is `LocalCluster::assemble` with two differences: every node logs
//! to a file (the library helper runs on `MemWal`), and the pieces stay
//! visible so the observer can read each node's gauges and commit stream.

use crate::frame::Connection;
use crate::load::Inputs;
use crate::spec::VALIDATORS;
use mahi_mahi::node::{NodeConfig, NodeHandle, ValidatorNode};
use mahi_mahi::transport::Transport;
use mahi_mahi::types::{TestCommittee, TxReceipt};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One running validator.
pub struct Node {
    pub authority: u32,
    pub handle: NodeHandle,
    pub wal_path: PathBuf,
}

/// A started cluster. `nodes` holds the live validators only; `addresses`
/// is indexed by authority and includes the silent ones.
pub struct Cluster {
    pub setup: TestCommittee,
    pub nodes: Vec<Node>,
    pub addresses: Vec<SocketAddr>,
}

impl Cluster {
    /// Binds and meshes all four transports, then starts every validator
    /// not listed in `silent` with `NodeConfig::local` and a WAL under
    /// `dir`. A silent validator's transport is dropped after the mesh is
    /// wired, so its peers keep dialling a closed port.
    ///
    /// # Errors
    ///
    /// Socket errors from binding and WAL errors from opening the logs.
    pub fn start(seed: u64, silent: &[u32], dir: &Path) -> std::io::Result<Cluster> {
        std::fs::create_dir_all(dir)?;
        let setup = TestCommittee::new(VALIDATORS, seed);
        let transports: Vec<Transport> = (0..VALIDATORS as u32)
            .map(|id| Transport::bind(id, "127.0.0.1:0"))
            .collect::<std::io::Result<_>>()?;
        let addresses: Vec<SocketAddr> = transports.iter().map(Transport::local_addr).collect();
        for transport in &transports {
            for (peer, address) in addresses.iter().enumerate() {
                if peer as u32 != transport.id() {
                    transport.connect(peer as u32, *address);
                }
            }
        }
        let mut nodes = Vec::new();
        for (authority, transport) in transports.into_iter().enumerate() {
            let authority = authority as u32;
            if silent.contains(&authority) {
                continue;
            }
            let wal_path = dir.join(format!("v{authority}.wal"));
            let mut config = NodeConfig::local(authority, setup.clone());
            config.wal_path = Some(wal_path.clone());
            let node = ValidatorNode::new(config, transport)
                .map_err(|error| std::io::Error::other(error.to_string()))?;
            nodes.push(Node {
                authority,
                handle: node.start(),
                wal_path,
            });
        }
        Ok(Cluster {
            setup,
            nodes,
            addresses,
        })
    }

    /// Stops every validator and waits for its thread.
    pub fn stop(self) {
        for node in self.nodes {
            node.handle.stop();
        }
    }
}

/// Sends the probe batch down `connection` and waits until its `Committed`
/// notice arrives: the cluster is meshed and commits.
///
/// # Errors
///
/// Socket errors, a refused probe, or no commit within `limit`.
pub fn await_probe(
    connection: &mut Connection,
    inputs: &Inputs,
    limit: Duration,
) -> std::io::Result<()> {
    connection.send(&inputs.probe_frame())?;
    let deadline = Instant::now() + limit;
    let mut committed = false;
    let mut refused = false;
    while !committed {
        connection.flush()?;
        connection.poll(|receipt| match receipt {
            TxReceipt::Admission { .. } => refused |= receipt.accepted() == 0,
            TxReceipt::Committed { .. } => committed = true,
        })?;
        if refused {
            return Err(std::io::Error::other("the probe batch was refused"));
        }
        if Instant::now() > deadline {
            return Err(std::io::Error::other("the probe batch did not commit"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(())
}
