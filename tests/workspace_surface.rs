//! Smoke tests for the workspace surface itself: the facade re-exports, the
//! WAL's CRC32 check vectors, the thread-safety contract of the public
//! types, and — most importantly — that every example under `examples/`
//! still builds as part of the workspace (so future perf PRs always have a
//! working harness).

use std::path::Path;
use std::process::Command;

/// The ISO/IEEE CRC32 check value, plus a few auxiliary vectors, reachable
/// through the facade (`mahi_mahi::wal`).
#[test]
fn wal_crc32_check_vectors() {
    use mahi_mahi::wal::crc32::crc32;

    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    // CRC of independent buffers differs (basic sanity of the table).
    assert_ne!(crc32(b"mahi"), crc32(b"mahj"));
}

/// Every facade module is wired: touch one cheap item per re-export.
#[test]
fn facade_reexports_are_wired() {
    use mahi_mahi::net::time;

    let setup = mahi_mahi::types::TestCommittee::new(4, 7);
    assert_eq!(setup.committee().size(), 4);
    assert_eq!(time::from_millis(2), 2_000);
    let digest = mahi_mahi::crypto::blake2b::blake2b_256(b"mahi-mahi");
    assert_ne!(digest, mahi_mahi::crypto::blake2b::blake2b_256(b"tusk"));
    assert!(mahi_mahi::analysis::direct_commit_probability_w5(0, 1) > 0.0);
}

/// The thread-safety contract, checked by the compiler. `wallclock` reads
/// a running cluster's `NodeHandle`s from an observer thread and each
/// `Transport` from a scoped receiver thread, so both must stay `Sync` (a
/// `std::sync::mpsc::Receiver` inside either would break it). The engine
/// and its committer move into the node's thread and nothing shares them:
/// `Send` is all they promise.
#[test]
fn thread_safety_contract() {
    fn shared<T: Sync>() {}
    fn moved<T: Send>() {}
    shared::<mahi_mahi::node::NodeHandle>();
    shared::<mahi_mahi::transport::Transport>();
    moved::<mahi_mahi::core::ValidatorEngine>();
    moved::<mahi_mahi::core::Committer>();
}

/// `cargo build --examples` exits 0: all four end-to-end scenarios compile.
///
/// This re-enters cargo with the same toolchain and target dir, so after a
/// normal `cargo test` run the work is already cached and the check is fast.
#[test]
fn all_examples_build() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));

    let expected = [
        "faults_and_equivocation",
        "geo_replication",
        "quickstart",
        "tcp_cluster",
    ];
    for name in expected {
        assert!(
            manifest_dir
                .join("examples")
                .join(format!("{name}.rs"))
                .exists(),
            "example {name}.rs disappeared from examples/"
        );
    }

    let status = Command::new(cargo)
        .current_dir(manifest_dir)
        .args(["build", "--examples"])
        .status()
        .expect("failed to spawn cargo");
    assert!(status.success(), "cargo build --examples failed: {status}");
}
