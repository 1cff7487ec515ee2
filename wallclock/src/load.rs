//! The generated inputs and the bookkeeping of what became of them.
//!
//! Everything the cluster receives is a pure function of the seed: which
//! ids exist, what bytes each transaction holds, when each open-loop batch
//! is due. The program under test sees only the resulting frames.

use crate::spec::{Workload, BATCH_INTERVAL_NS, CONNECTIONS, THINK_MAX_NS};
use mahi_mahi::types::{Encode, Envelope, Transaction, TxReceipt};
use std::collections::{HashMap, VecDeque};

/// SplitMix64: the one pseudo-random stream the inputs are drawn from.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeded inputs of one run.
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    seed: u64,
    /// Ids are `id_base + ordinal`: seed-specific, yet dense enough for the
    /// observer's bitmap.
    id_base: u64,
    txs_per_batch: usize,
    tx_bytes: usize,
}

impl Inputs {
    pub fn new(seed: u64, workload: &Workload) -> Self {
        let mut state = seed;
        Inputs {
            seed,
            id_base: splitmix64(&mut state) << 32,
            txs_per_batch: workload.txs_per_batch,
            tx_bytes: workload.tx_bytes,
        }
    }

    pub fn txs_per_batch(&self) -> usize {
        self.txs_per_batch
    }

    /// The position of a transaction in the run's id space. Ordinal 0 is
    /// the set-up probe; batches interleave by connection so the space
    /// stays dense however far each connection gets.
    pub fn ordinal(&self, connection: usize, batch: u64, index: usize) -> u64 {
        1 + (batch * CONNECTIONS as u64 + connection as u64) * self.txs_per_batch as u64
            + index as u64
    }

    /// The ordinal an id written by [`Inputs::transaction`] stands for, or
    /// `None` for bytes this run did not generate.
    pub fn ordinal_of(&self, transaction: &Transaction) -> Option<u64> {
        transaction.benchmark_id()?.checked_sub(self.id_base)
    }

    /// The transaction at `ordinal`: its id in the first eight bytes, the
    /// rest filled from a stream keyed by seed and id.
    pub fn transaction(&self, ordinal: u64) -> Transaction {
        let id = self.id_base + ordinal;
        let mut payload = vec![0u8; self.tx_bytes.max(8)];
        payload[..8].copy_from_slice(&id.to_le_bytes());
        let mut state = self.seed ^ id.rotate_left(17);
        for chunk in payload[8..].chunks_mut(8) {
            let word = splitmix64(&mut state).to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        Transaction::new(payload)
    }

    /// The single-transaction batch that proves a fresh cluster commits.
    pub fn probe_frame(&self) -> Vec<u8> {
        Envelope::TxBatch(vec![self.transaction(0)]).to_bytes_vec()
    }

    /// The wire body of batch number `batch` on `connection`.
    pub fn batch_frame(&self, connection: usize, batch: u64) -> Vec<u8> {
        let transactions = (0..self.txs_per_batch)
            .map(|index| self.transaction(self.ordinal(connection, batch, index)))
            .collect();
        Envelope::TxBatch(transactions).to_bytes_vec()
    }

    /// Open loop: nanoseconds after the schedule's origin at which batch
    /// number `batch` on `connection` is due. Each connection has its own
    /// seeded phase inside the batch interval.
    pub fn due_ns(&self, connection: usize, batch: u64) -> u64 {
        let mut state = self.seed ^ (connection as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f);
        let phase = splitmix64(&mut state) % BATCH_INTERVAL_NS;
        phase + batch * BATCH_INTERVAL_NS
    }

    /// Closed loop: the `draw`-th think time on `connection` — how long a
    /// freed slot waits before it sends its next batch.
    pub fn think_ns(&self, connection: usize, draw: u64) -> u64 {
        let mut state = self.seed
            ^ (connection as u64 + 1).wrapping_mul(0xe703_7ed1_a0b4_28db)
            ^ draw.wrapping_mul(0x8ebc_6af0_9c88_c6e3);
        splitmix64(&mut state) % THINK_MAX_NS
    }
}

/// What is known about one sent batch. Times are nanoseconds after the
/// schedule's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batch {
    pub due_ns: u64,
    pub sent_ns: u64,
    /// Due (open loop) or sent (closed loop) inside the measured window.
    pub measured: bool,
    pub admitted_ns: Option<u64>,
    /// Transactions the admission receipt accepted / refused.
    pub accepted: u32,
    pub refused: u32,
    pub committed_ns: Option<u64>,
}

impl Batch {
    /// Nothing more will be heard about this batch.
    pub fn resolved(&self) -> bool {
        self.committed_ns.is_some() || (self.admitted_ns.is_some() && self.accepted == 0)
    }
}

/// Matches one connection's receipts to its batches.
///
/// `Admission` receipts answer batches in the order sent. The engine tags
/// a batch with its own clock at receipt, so batches that reach it in one
/// loop iteration carry the same tag and are covered by a single
/// `Committed` notice.
#[derive(Debug, Default)]
pub struct Tracker {
    pub batches: Vec<Batch>,
    awaiting_admission: VecDeque<usize>,
    awaiting_commit: HashMap<u64, Vec<usize>>,
    /// Receipts that match nothing this connection sent.
    pub violations: Vec<String>,
}

impl Tracker {
    pub fn sent(&mut self, due_ns: u64, sent_ns: u64, measured: bool) {
        self.awaiting_admission.push_back(self.batches.len());
        self.batches.push(Batch {
            due_ns,
            sent_ns,
            measured,
            admitted_ns: None,
            accepted: 0,
            refused: 0,
            committed_ns: None,
        });
    }

    /// Applies one receipt; returns how many batches it resolved.
    pub fn on_receipt(&mut self, receipt: &TxReceipt, now_ns: u64, txs_per_batch: usize) -> usize {
        match receipt {
            TxReceipt::Admission { tag, verdicts } => {
                let Some(index) = self.awaiting_admission.pop_front() else {
                    self.violations
                        .push(format!("admission (tag {tag}) answers no sent batch"));
                    return 0;
                };
                if verdicts.len() != txs_per_batch {
                    self.violations.push(format!(
                        "admission for batch {index} carries {} verdicts, batch had {txs_per_batch}",
                        verdicts.len()
                    ));
                }
                let accepted = receipt.accepted();
                let batch = &mut self.batches[index];
                batch.admitted_ns = Some(now_ns);
                batch.accepted = accepted as u32;
                batch.refused = (verdicts.len() - accepted) as u32;
                if accepted == 0 {
                    return 1;
                }
                self.awaiting_commit.entry(*tag).or_default().push(index);
                0
            }
            TxReceipt::Committed { tags } => {
                let mut resolved = 0;
                for tag in tags {
                    let Some(indexes) = self.awaiting_commit.remove(tag) else {
                        self.violations
                            .push(format!("commit notice for unknown tag {tag}"));
                        continue;
                    };
                    for index in indexes {
                        self.batches[index].committed_ns = Some(now_ns);
                        resolved += 1;
                    }
                }
                resolved
            }
        }
    }

    /// Measured batches nothing final has been heard about.
    pub fn measured_unresolved(&self) -> usize {
        self.batches
            .iter()
            .filter(|batch| batch.measured && !batch.resolved())
            .count()
    }

    /// Batches sent but never answered by an `Admission`.
    pub fn unanswered(&self) -> usize {
        self.awaiting_admission.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;
    use mahi_mahi::types::{Decode, TxVerdict};

    #[test]
    fn schedule_and_payloads_are_a_pure_function_of_the_seed() {
        for workload in &WORKLOADS {
            let a = Inputs::new(7, workload);
            let b = Inputs::new(7, workload);
            let other = Inputs::new(8, workload);
            for connection in 0..CONNECTIONS {
                for batch in [0, 1, 99] {
                    assert_eq!(
                        a.batch_frame(connection, batch),
                        b.batch_frame(connection, batch)
                    );
                    assert_ne!(
                        a.batch_frame(connection, batch),
                        other.batch_frame(connection, batch)
                    );
                    assert_eq!(a.due_ns(connection, batch), b.due_ns(connection, batch));
                    assert_eq!(
                        a.due_ns(connection, batch + 1) - a.due_ns(connection, batch),
                        BATCH_INTERVAL_NS
                    );
                }
                assert!(a.due_ns(connection, 0) < BATCH_INTERVAL_NS);
            }
            assert_eq!(a.probe_frame(), b.probe_frame());
            assert_eq!(a.think_ns(1, 17), b.think_ns(1, 17));
            assert_ne!(a.think_ns(1, 17), a.think_ns(1, 18));
            assert!(a.think_ns(0, 3) < crate::spec::THINK_MAX_NS);
            assert_ne!(a.due_ns(0, 0), a.due_ns(1, 0), "connections share a phase");
        }
    }

    #[test]
    fn frames_decode_to_distinct_sized_ids_in_a_dense_space() {
        for workload in &WORKLOADS {
            let inputs = Inputs::new(3, workload);
            let mut ordinals = Vec::new();
            for batch in 0..3 {
                for connection in 0..CONNECTIONS {
                    let frame = inputs.batch_frame(connection, batch);
                    let Ok(Envelope::TxBatch(transactions)) = Envelope::from_bytes_exact(&frame)
                    else {
                        panic!("batch frame does not decode");
                    };
                    assert_eq!(transactions.len(), workload.txs_per_batch);
                    for transaction in &transactions {
                        assert_eq!(transaction.len(), workload.tx_bytes);
                        ordinals.push(inputs.ordinal_of(transaction).unwrap());
                    }
                }
            }
            let expected: Vec<u64> = (1..=ordinals.len() as u64).collect();
            assert_eq!(ordinals, expected);
            let foreign = Inputs::new(4, workload).transaction(5);
            assert!(inputs
                .ordinal_of(&foreign)
                .is_none_or(|ordinal| ordinal > 1 << 31));
        }
    }

    fn admission(tag: u64, accepted: usize, refused: usize) -> TxReceipt {
        let mut verdicts = vec![TxVerdict::Accepted; accepted];
        verdicts.extend(vec![TxVerdict::Full; refused]);
        TxReceipt::Admission { tag, verdicts }
    }

    #[test]
    fn equal_tag_admissions_resolve_to_one_commit_notice() {
        let mut tracker = Tracker::default();
        for due in [10, 20, 30] {
            tracker.sent(due, due + 1, true);
        }
        assert_eq!(tracker.on_receipt(&admission(500, 2, 0), 40, 2), 0);
        assert_eq!(tracker.on_receipt(&admission(500, 2, 0), 41, 2), 0);
        assert_eq!(tracker.on_receipt(&admission(777, 1, 1), 42, 2), 0);
        assert_eq!(tracker.unanswered(), 0);
        assert_eq!(tracker.measured_unresolved(), 3);
        let notice = TxReceipt::Committed { tags: vec![500] };
        assert_eq!(tracker.on_receipt(&notice, 90, 2), 2);
        assert_eq!(tracker.batches[0].committed_ns, Some(90));
        assert_eq!(tracker.batches[1].committed_ns, Some(90));
        assert_eq!(tracker.batches[2].committed_ns, None);
        assert_eq!(
            (tracker.batches[2].accepted, tracker.batches[2].refused),
            (1, 1)
        );
        assert_eq!(tracker.measured_unresolved(), 1);
        assert!(tracker.violations.is_empty());
        // The same tag a second time matches nothing.
        assert_eq!(tracker.on_receipt(&notice, 95, 2), 0);
        assert_eq!(tracker.violations.len(), 1);
    }

    #[test]
    fn refused_batches_resolve_at_admission_and_strays_are_violations() {
        let mut tracker = Tracker::default();
        tracker.sent(0, 0, true);
        assert_eq!(tracker.on_receipt(&admission(1, 0, 2), 5, 2), 1);
        assert!(tracker.batches[0].resolved());
        assert_eq!(tracker.on_receipt(&admission(2, 2, 0), 6, 2), 0);
        assert_eq!(tracker.violations.len(), 1, "admission without a batch");
        tracker.sent(10, 10, false);
        tracker.on_receipt(&admission(3, 3, 0), 11, 2);
        assert_eq!(tracker.violations.len(), 2, "verdict count mismatch");
    }
}
