//! `ExtendCommitSequence` (Algorithm 1 lines 3–10) plus the DagRider-style
//! sub-DAG linearization (Section 3.2 steps 4–5).

use mahimahi_crypto::blake2b::blake2b_256;
use mahimahi_crypto::Digest;
use mahimahi_dag::BlockStore;
use mahimahi_types::codec::{CodecError, Decode, Decoder, Encode, Encoder};
use mahimahi_types::{Block, BlockRef, Round, Slot, Transaction};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use crate::protocol::ProtocolCommitter;
use crate::status::LeaderStatus;

/// A committed leader slot together with the newly linearized blocks of its
/// causal sub-DAG (the leader block last).
#[derive(Clone)]
pub struct CommittedSubDag {
    /// Global sequence index of the slot (0-based across all slots).
    pub position: u64,
    /// The committed leader block's reference.
    pub leader: BlockRef,
    /// Every block first linearized by this leader, in deterministic
    /// `(round, author, digest)` order, ending with the leader itself.
    pub blocks: Vec<Arc<Block>>,
}

impl CommittedSubDag {
    /// Iterates over the transactions committed by this sub-DAG in order.
    pub fn transactions(&self) -> impl Iterator<Item = &Transaction> {
        self.blocks.iter().flat_map(|block| block.transactions())
    }
}

impl fmt::Debug for CommittedSubDag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CommittedSubDag(#{} leader={} blocks={})",
            self.position,
            self.leader,
            self.blocks.len()
        )
    }
}

/// One sequencing decision, in commit order.
#[derive(Clone, Debug)]
pub enum CommitDecision {
    /// The slot committed; its sub-DAG extends the total order.
    Commit(CommittedSubDag),
    /// The slot was skipped (position recorded for audit).
    Skip(u64, Slot),
}

impl CommitDecision {
    /// The global sequence index of this decision.
    pub fn position(&self) -> u64 {
        match self {
            CommitDecision::Commit(sub_dag) => sub_dag.position,
            CommitDecision::Skip(position, _) => *position,
        }
    }
}

/// A resumable cut of the sequencer's state, captured at a checkpoint
/// boundary.
///
/// Because the sequence of decisions (commits *and* skips) is identical at
/// every correct validator, the snapshot after any fixed `position` is
/// identical too: same resume round/offset, same emitted set (pruned to
/// the GC floor — older blocks can never be linearized again, so dropping
/// them from the snapshot is exact, not lossy). Its [`digest`] is what a
/// `Checkpoint` signs as `resume_digest`.
///
/// [`digest`]: SequencerSnapshot::digest
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SequencerSnapshot {
    /// Decisions sequenced so far (the snapshot describes the state after
    /// decisions `0..position`).
    pub position: u64,
    /// The round sequencing resumes from.
    pub next_round: Round,
    /// How many statuses of `next_round` were already consumed.
    pub consumed_in_round: u64,
    /// Blocks already emitted with round ≥ the GC floor at capture time,
    /// in ascending `(round, author, digest)` order.
    pub emitted: Vec<BlockRef>,
}

impl SequencerSnapshot {
    /// BLAKE2b-256 over the canonical encoding — the value checkpoints
    /// sign, binding *where* to resume alongside the execution root.
    pub fn digest(&self) -> Digest {
        blake2b_256(&self.to_bytes_vec())
    }

    /// The GC floor of this cut under garbage-collection depth `depth`:
    /// the lowest round a commit after it can still linearize. Everything
    /// below is outside every future sub-DAG — the store may drop it, and
    /// so may a log that holds this snapshot.
    pub fn gc_floor(&self, depth: u64) -> Round {
        gc_floor(self.next_round, depth)
    }
}

/// The one place the floor arithmetic lives: `depth` rounds below the
/// round sequencing resumes from, never below zero.
fn gc_floor(next_round: Round, depth: u64) -> Round {
    next_round.saturating_sub(depth)
}

impl Encode for SequencerSnapshot {
    fn encode(&self, encoder: &mut Encoder) {
        encoder.put_u64(self.position);
        encoder.put_u64(self.next_round);
        encoder.put_u64(self.consumed_in_round);
        self.emitted.encode(encoder);
    }

    fn encoded_len(&self) -> usize {
        8 + 8 + 8 + self.emitted.encoded_len()
    }
}

impl Decode for SequencerSnapshot {
    fn decode(decoder: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let position = decoder.get_u64()?;
        let next_round = decoder.get_u64()?;
        let consumed_in_round = decoder.get_u64()?;
        let emitted = Vec::<BlockRef>::decode(decoder)?;
        Ok(SequencerSnapshot {
            position,
            next_round,
            consumed_in_round,
            emitted,
        })
    }
}

/// Stateful wrapper turning slot classifications into the totally-ordered
/// commit sequence.
///
/// `try_commit` is idempotent in the sense of the paper's
/// `ExtendCommitSequence`: each call sequences every slot decided since the
/// last call, stopping at the first undecided slot (step 4), and linearizes
/// each committed leader's yet-unemitted causal history (step 5).
///
/// Generic over the protocol: the same sequencer drives Mahi-Mahi (slots in
/// every round) and the baselines (slots only in wave-propose rounds).
pub struct CommitSequencer<C> {
    committer: C,
    /// Blocks already emitted in the total order.
    emitted: HashSet<BlockRef>,
    /// The round of the last status consumed (resume point).
    next_round: Round,
    /// How many statuses of `next_round` were already consumed.
    consumed_in_round: usize,
    /// Global count of sequenced slots.
    position: u64,
    /// Garbage-collection depth: a committed leader at round `r` linearizes
    /// only blocks with round ≥ `r − gc_depth`. `None` disables GC
    /// (everything reachable is linearized, memory grows unboundedly).
    gc_depth: Option<u64>,
    /// Capture a [`SequencerSnapshot`] every this many decisions (0
    /// disables capture).
    checkpoint_interval: u64,
    /// Snapshots captured at boundary crossings since the last
    /// [`CommitSequencer::take_boundary_snapshots`] call, oldest first.
    pending_snapshots: Vec<SequencerSnapshot>,
}

impl<C: ProtocolCommitter> CommitSequencer<C> {
    /// Wraps a committer with fresh sequencing state (starting at round 1).
    pub fn new(committer: C) -> Self {
        CommitSequencer {
            committer,
            emitted: HashSet::new(),
            next_round: 1,
            consumed_in_round: 0,
            position: 0,
            gc_depth: None,
            checkpoint_interval: 0,
            pending_snapshots: Vec::new(),
        }
    }

    /// Enables garbage collection with the given depth (Mysticeti-style):
    /// blocks more than `depth` rounds below a committed leader are
    /// deterministically excluded from its sub-DAG, so every validator —
    /// whenever it physically compacts — agrees on the total order.
    ///
    /// Callers may then periodically call [`BlockStore::compact`] with
    /// [`CommitSequencer::gc_floor`].
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero (a leader must at least linearize itself).
    pub fn with_gc_depth(mut self, depth: u64) -> Self {
        assert!(depth > 0, "gc depth must be positive");
        self.gc_depth = Some(depth);
        self
    }

    /// The lowest round future commits can still reference: the store may
    /// be compacted below it.
    pub fn gc_floor(&self) -> Round {
        self.gc_depth
            .map_or(0, |depth| gc_floor(self.next_round, depth))
    }

    /// Captures a [`SequencerSnapshot`] every `interval` decisions (0
    /// disables capture). Because `position` counts decisions — which are
    /// agreed across correct validators — the boundaries are agreed too,
    /// regardless of how decisions batch into individual `try_commit`
    /// calls.
    pub fn set_checkpoint_interval(&mut self, interval: u64) {
        self.checkpoint_interval = interval;
    }

    /// Drains the snapshots captured at checkpoint boundaries since the
    /// last call, oldest first.
    pub fn take_boundary_snapshots(&mut self) -> Vec<SequencerSnapshot> {
        std::mem::take(&mut self.pending_snapshots)
    }

    /// The current resumable state (what a boundary capture would record
    /// right now).
    pub fn snapshot(&self) -> SequencerSnapshot {
        let floor = self.gc_floor();
        let mut emitted: Vec<BlockRef> = self
            .emitted
            .iter()
            .filter(|reference| reference.round >= floor)
            .copied()
            .collect();
        emitted.sort_unstable();
        SequencerSnapshot {
            position: self.position,
            next_round: self.next_round,
            consumed_in_round: u64::try_from(self.consumed_in_round)
                .expect("consumed count fits u64"),
            emitted,
        }
    }

    /// Resumes sequencing from a snapshot, discarding the current state.
    ///
    /// Used by state-sync: after verifying a quorum-certified checkpoint,
    /// a joining validator restores the snapshot whose digest the
    /// checkpoint signed and continues the sequence from decision
    /// `snapshot.position` — without replaying history from genesis.
    ///
    /// # Errors
    ///
    /// Fails if the snapshot's resume offset does not fit this platform's
    /// `usize`.
    pub fn restore(&mut self, snapshot: &SequencerSnapshot) -> Result<(), CodecError> {
        let consumed_in_round = usize::try_from(snapshot.consumed_in_round)
            .map_err(|_| CodecError::InvalidValue("sequencer resume offset"))?;
        self.position = snapshot.position;
        self.next_round = snapshot.next_round;
        self.consumed_in_round = consumed_in_round;
        self.emitted = snapshot.emitted.iter().copied().collect();
        self.pending_snapshots.clear();
        Ok(())
    }

    /// The committer driving the decisions.
    pub fn committer(&self) -> &C {
        &self.committer
    }

    /// The first round not yet fully sequenced.
    pub fn next_round(&self) -> Round {
        self.next_round
    }

    /// Total slots sequenced so far.
    pub fn sequenced_slots(&self) -> u64 {
        self.position
    }

    /// Number of distinct blocks emitted into the total order so far and
    /// still remembered: a sequencer under an engine with GC forgets those
    /// below the floor each time the engine compacts.
    pub fn emitted_blocks(&self) -> usize {
        self.emitted.len()
    }

    /// Forgets which blocks below `floor` were emitted, where `floor` is at
    /// most [`CommitSequencer::gc_floor`]. Every later commit linearizes
    /// above a floor at least that high and never looks a block below it
    /// up, so this changes no decision — it keeps the set, and the
    /// boundary snapshots that scan it, the size of the GC window rather
    /// than of the whole history.
    pub(crate) fn forget_emitted_below(&mut self, floor: Round) {
        debug_assert!(floor <= self.gc_floor(), "forgetting above the GC floor");
        self.emitted.retain(|reference| reference.round >= floor);
    }

    /// Extends the commit sequence as far as the DAG allows.
    pub fn try_commit(&mut self, store: &BlockStore) -> Vec<CommitDecision> {
        let statuses = self.committer.try_decide(store, self.next_round);
        let mut decisions = Vec::new();
        let mut current_round = self.next_round;
        let mut index_in_round = 0usize;
        for status in &statuses {
            let round = status.round();
            debug_assert!(round >= current_round, "statuses out of order");
            if round > current_round {
                current_round = round;
                index_in_round = 0;
            }
            // Skip statuses sequenced by a previous call.
            if current_round == self.next_round && index_in_round < self.consumed_in_round {
                index_in_round += 1;
                continue;
            }
            match status {
                LeaderStatus::Undecided { .. } => break,
                LeaderStatus::Skip(slot) => {
                    decisions.push(CommitDecision::Skip(self.position, *slot));
                    self.consume(current_round, &mut index_in_round);
                }
                LeaderStatus::Commit(block) => {
                    let floor = self
                        .gc_depth
                        .map_or(0, |depth| block.round().saturating_sub(depth));
                    let blocks = store.linearize_sub_dag_floored(
                        &block.reference(),
                        &mut self.emitted,
                        floor,
                    );
                    decisions.push(CommitDecision::Commit(CommittedSubDag {
                        position: self.position,
                        leader: block.reference(),
                        blocks,
                    }));
                    self.consume(current_round, &mut index_in_round);
                }
            }
        }
        decisions
    }

    fn consume(&mut self, round: Round, index_in_round: &mut usize) {
        if round > self.next_round {
            self.next_round = round;
            self.consumed_in_round = 0;
        }
        // Checked, not wrapping: a silent wraparound here would desync the
        // total order across validators, which is strictly worse than a
        // crash.
        self.consumed_in_round = self
            .consumed_in_round
            .checked_add(1)
            .expect("consumed-in-round overflow");
        self.position = self
            .position
            .checked_add(1)
            .expect("sequencer position overflow");
        *index_in_round += 1;
        // A boundary crossing: by now the decision at `position - 1` has
        // been pushed and (for commits) its sub-DAG folded into `emitted`,
        // so the snapshot describes exactly the state after `position`
        // decisions.
        if self.checkpoint_interval != 0 && self.position.is_multiple_of(self.checkpoint_interval) {
            self.pending_snapshots.push(self.snapshot());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::committer::{Committer, CommitterOptions};
    use mahimahi_dag::DagBuilder;
    use mahimahi_types::TestCommittee;

    fn sequencer(
        setup: &TestCommittee,
        wave_length: u64,
        leaders: usize,
    ) -> CommitSequencer<Committer> {
        CommitSequencer::new(Committer::new(
            setup.committee().clone(),
            CommitterOptions {
                wave_length,
                leaders_per_round: leaders,
            },
        ))
    }

    #[test]
    fn sequences_full_dag_without_gaps_or_duplicates() {
        let setup = TestCommittee::new(4, 13);
        let mut sequencer = sequencer(&setup, 5, 2);
        let mut dag = DagBuilder::new(setup);
        dag.add_full_rounds(12);
        let decisions = sequencer.try_commit(dag.store());
        assert!(!decisions.is_empty());
        // Positions are consecutive from zero.
        for (expected, decision) in decisions.iter().enumerate() {
            assert_eq!(decision.position(), expected as u64);
        }
        // Every block emitted exactly once.
        let mut seen = HashSet::new();
        for decision in &decisions {
            if let CommitDecision::Commit(sub_dag) = decision {
                assert_eq!(
                    sub_dag.blocks.last().map(|b| b.reference()),
                    Some(sub_dag.leader)
                );
                for block in &sub_dag.blocks {
                    assert!(seen.insert(block.reference()), "duplicate {block}");
                }
            }
        }
    }

    #[test]
    fn incremental_calls_resume_where_they_stopped() {
        let setup = TestCommittee::new(4, 13);
        let mut incremental = sequencer(&setup, 5, 2);
        let mut oneshot = sequencer(&setup, 5, 2);
        let mut dag = DagBuilder::new(setup);

        let mut collected = Vec::new();
        for _ in 0..3 {
            dag.add_full_rounds(4);
            collected.extend(incremental.try_commit(dag.store()));
        }
        let all_at_once = oneshot.try_commit(dag.store());
        assert_eq!(collected.len(), all_at_once.len());
        for (a, b) in collected.iter().zip(&all_at_once) {
            assert_eq!(a.position(), b.position());
            match (a, b) {
                (CommitDecision::Commit(x), CommitDecision::Commit(y)) => {
                    assert_eq!(x.leader, y.leader);
                    let x_refs: Vec<BlockRef> = x.blocks.iter().map(|b| b.reference()).collect();
                    let y_refs: Vec<BlockRef> = y.blocks.iter().map(|b| b.reference()).collect();
                    assert_eq!(x_refs, y_refs);
                }
                (CommitDecision::Skip(_, x), CommitDecision::Skip(_, y)) => {
                    assert_eq!(x, y)
                }
                _ => panic!("decision kind mismatch at {}", a.position()),
            }
        }
        // Nothing more to sequence without new blocks.
        assert!(incremental.try_commit(dag.store()).is_empty());
    }

    #[test]
    fn crash_faults_interleave_skips_and_commits() {
        let setup = TestCommittee::new(4, 13);
        let mut sequencer = sequencer(&setup, 4, 2);
        let mut dag = DagBuilder::new(setup);
        dag.add_full_round();
        for _ in 0..11 {
            dag.add_round_producers(&[0, 1, 2]);
        }
        let decisions = sequencer.try_commit(dag.store());
        let commits = decisions
            .iter()
            .filter(|d| matches!(d, CommitDecision::Commit(_)))
            .count();
        let skips = decisions
            .iter()
            .filter(|d| matches!(d, CommitDecision::Skip(..)))
            .count();
        assert!(commits > 0);
        assert!(skips > 0);
        // The total order contains every committed block's transactions in a
        // stable order across a fresh sequencer.
        let mut fresh = CommitSequencer::new(Committer::new(
            sequencer.committer().committee().clone(),
            sequencer.committer().options(),
        ));
        let again = fresh.try_commit(dag.store());
        assert_eq!(again.len(), decisions.len());
    }

    #[test]
    fn commit_sequence_is_prefix_consistent_across_views() {
        // Two sequencers over DAGs of different depth: the shorter's commit
        // sequence must be a prefix of the longer's (the safety property the
        // paper proves in Lemmas 5–7).
        let setup = TestCommittee::new(4, 13);
        let mut dag = DagBuilder::new(setup.clone());
        dag.add_full_rounds(8);

        let mut short_seq = sequencer(&setup, 5, 2);
        let short: Vec<_> = short_seq
            .try_commit(dag.store())
            .into_iter()
            .filter_map(|d| match d {
                CommitDecision::Commit(sub_dag) => Some(sub_dag.leader),
                CommitDecision::Skip(..) => None,
            })
            .collect();

        dag.add_full_rounds(4);
        let mut long_seq = sequencer(&setup, 5, 2);
        let long: Vec<_> = long_seq
            .try_commit(dag.store())
            .into_iter()
            .filter_map(|d| match d {
                CommitDecision::Commit(sub_dag) => Some(sub_dag.leader),
                CommitDecision::Skip(..) => None,
            })
            .collect();

        assert!(long.len() >= short.len());
        assert_eq!(&long[..short.len()], &short[..]);
    }

    #[test]
    fn boundary_snapshots_are_identical_across_batchings() {
        // One sequencer sees the DAG grow in four steps, the other sees it
        // all at once: the snapshots captured at each checkpoint boundary
        // must be byte-identical — the boundary is pinned to the decision
        // count, not to try_commit call batching.
        let setup = TestCommittee::new(4, 13);
        let mut incremental = sequencer(&setup, 5, 2);
        incremental.set_checkpoint_interval(3);
        let mut oneshot = sequencer(&setup, 5, 2);
        oneshot.set_checkpoint_interval(3);
        let mut dag = DagBuilder::new(setup);

        let mut stepped = Vec::new();
        for _ in 0..4 {
            dag.add_full_rounds(3);
            incremental.try_commit(dag.store());
            stepped.extend(incremental.take_boundary_snapshots());
        }
        oneshot.try_commit(dag.store());
        let all_at_once = oneshot.take_boundary_snapshots();
        assert!(!stepped.is_empty());
        assert_eq!(stepped, all_at_once);
        for (index, snapshot) in stepped.iter().enumerate() {
            assert_eq!(snapshot.position, 3 * (index as u64 + 1));
            assert_eq!(snapshot.digest(), all_at_once[index].digest());
        }
    }

    #[test]
    fn forgetting_emitted_blocks_below_the_gc_floor_changes_no_decision() {
        // Two GC'd sequencers over the same growing DAG: one forgets its
        // emitted blocks below the floor after every step, the other keeps
        // them all. Same decisions, same boundary snapshots — and the
        // forgetting one holds only the GC window.
        let setup = TestCommittee::new(4, 13);
        let depth = 4;
        let mut forgetting = sequencer(&setup, 5, 2).with_gc_depth(depth);
        forgetting.set_checkpoint_interval(3);
        let mut keeping = sequencer(&setup, 5, 2).with_gc_depth(depth);
        keeping.set_checkpoint_interval(3);
        let mut dag = DagBuilder::new(setup);
        for _ in 0..30 {
            dag.add_full_rounds(2);
            let forgot = forgetting.try_commit(dag.store());
            let kept = keeping.try_commit(dag.store());
            assert_eq!(format!("{forgot:?}"), format!("{kept:?}"));
            assert_eq!(
                forgetting.take_boundary_snapshots(),
                keeping.take_boundary_snapshots()
            );
            forgetting.forget_emitted_below(forgetting.gc_floor());
        }
        assert!(keeping.sequenced_slots() > 50, "too short to matter");
        let window = (dag.store().highest_round() + 1 - forgetting.gc_floor()) as usize * 4;
        assert!(forgetting.emitted_blocks() <= window);
        assert!(keeping.emitted_blocks() > 2 * window);
    }

    #[test]
    fn restored_sequencer_continues_the_exact_sequence() {
        let setup = TestCommittee::new(4, 13);
        let mut reference = sequencer(&setup, 5, 2);
        reference.set_checkpoint_interval(4);
        let mut dag = DagBuilder::new(setup.clone());
        dag.add_full_rounds(12);
        let full = reference.try_commit(dag.store());
        let snapshot = reference
            .take_boundary_snapshots()
            .into_iter()
            .next()
            .expect("at least one boundary");

        // A fresh sequencer restored from the snapshot must produce
        // exactly the decisions after the cut.
        let mut resumed = sequencer(&setup, 5, 2);
        resumed.restore(&snapshot).unwrap();
        let tail = resumed.try_commit(dag.store());
        let expected: Vec<_> = full
            .iter()
            .filter(|d| d.position() >= snapshot.position)
            .collect();
        assert_eq!(tail.len(), expected.len());
        for (a, b) in tail.iter().zip(expected) {
            assert_eq!(a.position(), b.position());
            match (a, b) {
                (CommitDecision::Commit(x), CommitDecision::Commit(y)) => {
                    assert_eq!(x.leader, y.leader);
                    let x_refs: Vec<BlockRef> = x.blocks.iter().map(|b| b.reference()).collect();
                    let y_refs: Vec<BlockRef> = y.blocks.iter().map(|b| b.reference()).collect();
                    assert_eq!(x_refs, y_refs, "sub-DAG diverged at {}", x.position);
                }
                (CommitDecision::Skip(_, x), CommitDecision::Skip(_, y)) => assert_eq!(x, y),
                _ => panic!("decision kind mismatch at {}", a.position()),
            }
        }
    }

    #[test]
    fn snapshot_codec_and_digest_round_trip() {
        let setup = TestCommittee::new(4, 13);
        let mut seq = sequencer(&setup, 5, 2).with_gc_depth(3);
        seq.set_checkpoint_interval(2);
        let mut dag = DagBuilder::new(setup);
        dag.add_full_rounds(10);
        seq.try_commit(dag.store());
        let snapshots = seq.take_boundary_snapshots();
        assert!(!snapshots.is_empty());
        for snapshot in snapshots {
            let bytes = snapshot.to_bytes_vec();
            assert_eq!(bytes.len(), snapshot.encoded_len());
            let decoded = SequencerSnapshot::from_bytes_exact(&bytes).unwrap();
            assert_eq!(decoded, snapshot);
            assert_eq!(decoded.digest(), snapshot.digest());
            // Emitted references are sorted and pruned to the GC floor.
            assert!(snapshot.emitted.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn high_round_positions_do_not_wrap() {
        // Regression for the cast/overflow audit: restoring near the top
        // of the u64 range must keep position accounting and the GC floor
        // exact instead of silently wrapping.
        let setup = TestCommittee::new(4, 13);
        let mut seq = sequencer(&setup, 5, 2).with_gc_depth(64);
        let snapshot = SequencerSnapshot {
            position: u64::MAX - 8,
            next_round: u64::MAX - 4,
            consumed_in_round: 1,
            emitted: Vec::new(),
        };
        seq.restore(&snapshot).unwrap();
        assert_eq!(seq.sequenced_slots(), u64::MAX - 8);
        assert_eq!(seq.gc_floor(), u64::MAX - 4 - 64);
        assert_eq!(seq.next_round(), u64::MAX - 4);
        // The snapshot of the restored state round-trips losslessly.
        assert_eq!(seq.snapshot().position, u64::MAX - 8);
        // An empty store decides nothing at astronomical rounds — but must
        // not panic or wrap while probing.
        let dag = DagBuilder::new(TestCommittee::new(4, 13));
        assert!(seq.try_commit(dag.store()).is_empty());
    }

    #[test]
    fn transactions_surface_through_sub_dags() {
        let setup = TestCommittee::new(4, 13);
        let mut sequencer = sequencer(&setup, 4, 1);
        let mut dag = DagBuilder::new(setup);
        use mahimahi_dag::BlockSpec;
        // Round 1 blocks carry distinguishable transactions.
        dag.add_round(
            (0..4)
                .map(|author| {
                    BlockSpec::new(author)
                        .with_transactions(vec![Transaction::benchmark(author as u64)])
                })
                .collect(),
        );
        dag.add_full_rounds(6);
        let decisions = sequencer.try_commit(dag.store());
        let committed_ids: HashSet<u64> = decisions
            .iter()
            .filter_map(|d| match d {
                CommitDecision::Commit(sub_dag) => Some(sub_dag),
                _ => None,
            })
            .flat_map(|sub_dag| sub_dag.transactions())
            .filter_map(Transaction::benchmark_id)
            .collect();
        assert_eq!(committed_ids, HashSet::from([0, 1, 2, 3]));
    }
}
