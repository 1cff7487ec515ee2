//! The node's write-ahead log, with an in-memory index of which records
//! are still needed.
//!
//! # The one format
//!
//! The log is a sequence of frames, each `magic ‖ length ‖ CRC-32 ‖
//! payload` ([`mahimahi_wal`]), and every payload is one [`WalRecord`]
//! encoding. A block record's payload is [`WalRecord::BLOCK_TAG`] (1)
//! followed by the block's encoding — byte for byte the block's
//! `Envelope::Block` wire frame, whose tag is also 1 — and it is appended
//! as exactly those two slices, the tag and the block's retained bytes
//! ([`Block::as_bytes`]): the block is neither re-encoded nor copied on
//! its way to the log. A payload that does not decode as a `WalRecord` is
//! kept but never replayed.
//!
//! Every record the node appends (and, once, every record recovery
//! replays) is indexed by where its frame sits and what it is. A
//! checkpoint *marks* what it makes redundant — nothing is read or written:
//!
//! - every earlier checkpoint (the newest one subsumes them),
//! - peers' blocks below its GC floor (outside every future sub-DAG), and
//! - own blocks below the floor **except the newest own block**. Recovery
//!   uses own blocks for one thing the checkpoint does not carry: the
//!   produced-round watermark, `round = max(own rounds)`, which is the
//!   equivocation guard. The newest own block alone carries that maximum,
//!   so it survives any number of compactions — even below the floor, when
//!   this node sat idle while the committee advanced.
//!
//! Evidence (convictions never expire) and records that do not decode
//! (never drop what cannot be classified) are never marked.
//!
//! The log is rewritten only when its dead bytes exceed its live bytes.
//! That ratio is a constant, not an option, because it is what makes both
//! bounds hold at once: the file is never more than twice its live records
//! (plus the record just appended), and a rewrite that copies `L` live
//! bytes retires more than `L` dead ones, so all rewrites together copy
//! fewer bytes than were ever appended. The rewrite itself is
//! [`mahimahi_wal::Wal::rewrite_atomic`]: the surviving frames are streamed verbatim —
//! latest checkpoint first, so recovery installs the cut before the blocks
//! above it, then the rest in log order — with no decode and no re-framing.

use mahimahi_core::{SequencerSnapshot, ValidatorEngine, WalRecord};
use mahimahi_types::{AuthorityIndex, Block, Decode, Encode, Round};
use mahimahi_wal::{FileWal, FrameRange, MemWal, Record, WalError};

pub(crate) enum AnyWal {
    File(FileWal),
    Memory(MemWal),
}

impl AnyWal {
    fn append_parts(&mut self, parts: &[&[u8]]) -> Result<u64, WalError> {
        match self {
            AnyWal::File(wal) => wal.append_parts(parts),
            AnyWal::Memory(wal) => wal.append_parts(parts),
        }
    }

    fn sync(&mut self) -> Result<(), WalError> {
        match self {
            AnyWal::File(wal) => wal.sync(),
            AnyWal::Memory(wal) => wal.sync(),
        }
    }

    fn records(&mut self) -> Result<Vec<Record>, WalError> {
        match self {
            AnyWal::File(wal) => wal.records(),
            AnyWal::Memory(wal) => wal.records(),
        }
    }

    fn rewrite_atomic(&mut self, keep: &[FrameRange]) -> Result<(), WalError> {
        match self {
            AnyWal::File(wal) => wal.rewrite_atomic(keep),
            AnyWal::Memory(wal) => wal.rewrite_atomic(keep),
        }
    }

    fn tail(&self) -> u64 {
        match self {
            AnyWal::File(wal) => wal.tail(),
            AnyWal::Memory(wal) => wal.tail(),
        }
    }
}

/// What a logged record is, as far as a later checkpoint's verdict on it
/// goes.
#[derive(Debug, Clone, Copy)]
enum RecordClass {
    /// A checkpoint whose cut puts the GC floor at `floor` (0 when GC is
    /// off).
    Checkpoint {
        floor: Round,
    },
    Evidence,
    OwnBlock(Round),
    PeerBlock(Round),
    /// Bytes that decode as nothing this node knows — or a checkpoint whose
    /// sequencer snapshot does not decode, which must truncate nothing.
    Unclassified,
}

/// One live record: where its frame is and what it is.
#[derive(Debug, Clone, Copy)]
struct Entry {
    frame: FrameRange,
    class: RecordClass,
}

/// Counters the node publishes as `mahimahi_wal_*` gauges.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LogStats {
    /// Length of the log file.
    pub bytes: u64,
    /// Bytes of it held by records no checkpoint has made redundant.
    pub live_bytes: u64,
    /// Rewrites completed.
    pub compactions: u64,
    /// Bytes those rewrites copied, in total.
    pub compacted_bytes: u64,
    /// Appends, syncs and rewrites that failed.
    pub errors: u64,
    /// Frame bytes appended since start-up as block records: with the two
    /// below, what the log grew by, split by what it is.
    pub block_bytes: u64,
    /// Frame bytes appended as checkpoint records (snapshots).
    pub checkpoint_bytes: u64,
    /// Frame bytes appended as evidence records.
    pub evidence_bytes: u64,
}

/// The write-ahead log plus the index that decides what a compaction keeps.
pub(crate) struct NodeLog {
    wal: AnyWal,
    authority: AuthorityIndex,
    gc_depth: Option<u64>,
    /// The live records, in log order. At most one is a checkpoint.
    live: Vec<Entry>,
    live_bytes: u64,
    /// Round of the newest own block logged so far.
    newest_own: Option<Round>,
    /// Deferred fsync: set by a durable append, cleared by [`Self::flush`].
    pending_sync: bool,
    compactions: u64,
    compacted_bytes: u64,
    errors: u64,
    /// Frame bytes appended since start-up, per record class.
    block_bytes: u64,
    checkpoint_bytes: u64,
    evidence_bytes: u64,
}

impl NodeLog {
    /// Replays every decodable record of `wal` into `engine`, in log order,
    /// and indexes the log as it goes — recovery decodes each record
    /// anyway, so the index costs nothing extra.
    ///
    /// The engine's pending buffer tolerates out-of-order blocks (e.g.
    /// after a torn tail elsewhere in the causal history); evidence records
    /// restore convictions so slashing state survives crashes; a checkpoint
    /// record jumps the execution and sequencer state to its cut, so the
    /// blocks a compacted log no longer holds are never needed again. A
    /// record that does not decode is indexed as unclassified and skipped.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures reading the log.
    pub(crate) fn recover(
        mut wal: AnyWal,
        authority: AuthorityIndex,
        gc_depth: Option<u64>,
        engine: &mut ValidatorEngine,
    ) -> Result<Self, WalError> {
        let records = wal.records()?;
        let mut log = NodeLog {
            wal,
            authority,
            gc_depth,
            live: Vec::with_capacity(records.len()),
            live_bytes: 0,
            newest_own: None,
            pending_sync: false,
            compactions: 0,
            compacted_bytes: 0,
            errors: 0,
            block_bytes: 0,
            checkpoint_bytes: 0,
            evidence_bytes: 0,
        };
        for record in records {
            let class = match WalRecord::from_bytes_exact(&record.payload) {
                Ok(decoded) => {
                    let class = log.classify(&decoded);
                    engine.restore(decoded);
                    class
                }
                Err(_) => RecordClass::Unclassified, // corrupt or foreign: skip
            };
            log.index(record.frame(), class);
        }
        Ok(log)
    }

    /// Appends `record`. A durable record ([`WalRecord::is_durable`] — the
    /// rule and its reasons live there) requests an fsync, which
    /// [`Self::flush`] performs before anything leaves the node.
    ///
    /// # Errors
    ///
    /// The append failed (and was counted). For a durable record the caller
    /// must then send nothing that depends on it — see [`Self::flush`].
    pub(crate) fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        let class = self.classify(record);
        match record {
            WalRecord::Block(block) => {
                self.append_parts(&[&[WalRecord::BLOCK_TAG], block.as_bytes()], class)?;
            }
            _ => self.append_parts(&[&record.to_bytes_vec()], class)?,
        }
        self.pending_sync |= record.is_durable(self.authority);
        Ok(())
    }

    /// Appends a record of class `class` whose encoding is the
    /// concatenation of `parts`. A failed append is counted and leaves the
    /// index as it was.
    fn append_parts(&mut self, parts: &[&[u8]], class: RecordClass) -> Result<(), WalError> {
        let offset = self
            .wal
            .append_parts(parts)
            .inspect_err(|_| self.errors += 1)?;
        let frame = FrameRange::new(offset, parts.iter().map(|part| part.len()).sum());
        match class {
            RecordClass::OwnBlock(_) | RecordClass::PeerBlock(_) => self.block_bytes += frame.len,
            RecordClass::Checkpoint { .. } => self.checkpoint_bytes += frame.len,
            RecordClass::Evidence => self.evidence_bytes += frame.len,
            RecordClass::Unclassified => {}
        }
        self.index(frame, class);
        Ok(())
    }

    /// Performs the deferred fsync, if one is pending. A failed sync stays
    /// pending: the next flush tries again.
    ///
    /// # Errors
    ///
    /// The sync failed (and was counted): a durable record is not on
    /// stable storage, so nothing may leave the node — sending anyway would
    /// void durability before dissemination, and a restart could then
    /// produce again a round it already sent.
    pub(crate) fn flush(&mut self) -> Result<(), WalError> {
        if self.pending_sync {
            self.wal.sync().inspect_err(|_| self.errors += 1)?;
            self.pending_sync = false;
        }
        Ok(())
    }

    /// Whether dead bytes outweigh live ones — the rewrite trigger. Only a
    /// checkpoint's marking can make this true.
    pub(crate) fn compaction_due(&self) -> bool {
        self.wal.tail() - self.live_bytes > self.live_bytes
    }

    /// Rewrites the log down to its live records: the checkpoint first,
    /// the rest in log order. Makes the checkpoint durable first, so
    /// nothing it subsumes is dropped before it is on disk. A failed
    /// rewrite leaves the old log open and the index describing it, counts
    /// an error, and is retried when the next checkpoint finds the log
    /// still due.
    pub(crate) fn compact(&mut self) {
        if self.flush().is_err() {
            return;
        }
        let mut kept = self.live.clone();
        let checkpoint = kept
            .iter()
            .position(|entry| matches!(entry.class, RecordClass::Checkpoint { .. }));
        if let Some(at) = checkpoint {
            // Move the checkpoint to the front; the records it passes keep
            // their order.
            kept[..=at].rotate_right(1);
        }
        let frames: Vec<FrameRange> = kept.iter().map(|entry| entry.frame).collect();
        if self.wal.rewrite_atomic(&frames).is_err() {
            self.errors += 1;
            return;
        }
        let mut offset = 0;
        for entry in &mut kept {
            entry.frame.offset = offset;
            offset += entry.frame.len;
        }
        debug_assert_eq!(offset, self.live_bytes);
        debug_assert_eq!(offset, self.wal.tail());
        self.live = kept;
        self.compactions += 1;
        self.compacted_bytes += offset;
    }

    /// The counters behind the `mahimahi_wal_*` gauges.
    pub(crate) fn stats(&self) -> LogStats {
        LogStats {
            bytes: self.wal.tail(),
            live_bytes: self.live_bytes,
            compactions: self.compactions,
            compacted_bytes: self.compacted_bytes,
            errors: self.errors,
            block_bytes: self.block_bytes,
            checkpoint_bytes: self.checkpoint_bytes,
            evidence_bytes: self.evidence_bytes,
        }
    }

    fn classify(&self, record: &WalRecord) -> RecordClass {
        match record {
            WalRecord::Block(block) => self.classify_block(block),
            WalRecord::Evidence(_) => RecordClass::Evidence,
            WalRecord::Checkpoint { resume, .. } => {
                match SequencerSnapshot::from_bytes_exact(resume) {
                    Ok(snapshot) => RecordClass::Checkpoint {
                        floor: self.gc_depth.map_or(0, |depth| snapshot.gc_floor(depth)),
                    },
                    Err(_) => RecordClass::Unclassified,
                }
            }
        }
    }

    fn classify_block(&self, block: &Block) -> RecordClass {
        if block.author() == self.authority {
            RecordClass::OwnBlock(block.round())
        } else {
            RecordClass::PeerBlock(block.round())
        }
    }

    /// Adds the record at `frame` to the index. A checkpoint first marks
    /// everything it makes redundant (see the module docs).
    fn index(&mut self, frame: FrameRange, class: RecordClass) {
        match class {
            RecordClass::OwnBlock(round) => self.newest_own = self.newest_own.max(Some(round)),
            RecordClass::Checkpoint { floor } => {
                let newest_own = self.newest_own;
                let mut dead_bytes = 0;
                self.live.retain(|entry| {
                    let live = match entry.class {
                        RecordClass::Checkpoint { .. } => false,
                        RecordClass::PeerBlock(round) => round >= floor,
                        RecordClass::OwnBlock(round) => round >= floor || Some(round) == newest_own,
                        RecordClass::Evidence | RecordClass::Unclassified => true,
                    };
                    if !live {
                        dead_bytes += entry.frame.len;
                    }
                    live
                });
                self.live_bytes -= dead_bytes;
            }
            _ => {}
        }
        self.live.push(Entry { frame, class });
        self.live_bytes += frame.len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeConfig;
    use mahimahi_core::engine::Input;
    use mahimahi_core::{BalanceLedger, CommittedSubDag, Committer, ExecutionState, Output};
    use mahimahi_dag::{BlockSpec, DagBuilder};
    use mahimahi_sim::{CpuCosts, LatencyChoice, MempoolConfig, SimConfig, Simulation};
    use mahimahi_types::{BlockBuilder, Checkpoint, EquivocationProof, TestCommittee, Transaction};
    use mahimahi_wal::{MemStorage, Wal};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    const OWN: AuthorityIndex = AuthorityIndex(0);
    const GC_DEPTH: u64 = 6;

    /// SplitMix64: the seeded source of every random choice below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound
        }
    }

    /// An engine that cuts every four decisions and never produces a block
    /// of its own: its blocks, like its peers', come from the test's DAG.
    fn fresh_engine(setup: &TestCommittee) -> ValidatorEngine {
        let mut config = NodeConfig::local(OWN.0, setup.clone());
        config.gc_depth = Some(GC_DEPTH);
        config.checkpoint_interval = 4;
        let committer = Committer::new(setup.committee().clone(), config.options);
        let mut engine_config = config.engine_config();
        engine_config.halt_from_round = Some(1);
        ValidatorEngine::honest(engine_config, Box::new(committer))
    }

    /// What a crash leaves of `storage`, as a log of its own.
    fn crash_image(storage: &MemStorage) -> MemStorage {
        let image = MemStorage::new();
        image.replace(storage.durable_snapshot());
        image
    }

    /// Recovers a fresh engine (and the log's index) from `storage`.
    fn recover(setup: &TestCommittee, storage: &MemStorage) -> (NodeLog, ValidatorEngine) {
        let mut engine = fresh_engine(setup);
        let wal = AnyWal::Memory(Wal::open(storage.clone()).unwrap());
        let log = NodeLog::recover(wal, OWN, Some(GC_DEPTH), &mut engine).unwrap();
        (log, engine)
    }

    /// The four things recovery must get right whatever was compacted away.
    fn recovered_state(
        engine: &ValidatorEngine,
    ) -> (Round, Vec<AuthorityIndex>, Option<Checkpoint>, Round) {
        (
            engine.round(),
            engine.convicted(),
            engine.latest_checkpoint().cloned(),
            engine.store().gc_cutoff(),
        )
    }

    /// `rounds` full rounds of signed blocks, by round then author.
    fn blocks_by_round(setup: &TestCommittee, rounds: usize) -> Vec<Vec<Arc<Block>>> {
        blocks_with_own_until(setup, rounds, rounds)
    }

    /// `rounds` rounds of signed blocks, by round then author; [`OWN`]
    /// produces the first `own_rounds` of them and then sits idle.
    fn blocks_with_own_until(
        setup: &TestCommittee,
        rounds: usize,
        own_rounds: usize,
    ) -> Vec<Vec<Arc<Block>>> {
        let mut dag = DagBuilder::new(setup.clone());
        for round in 0..rounds {
            // One benchmark transaction per block, the same four over and
            // over: the log fills while the ledger stays four accounts.
            let producers = u32::from(round >= own_rounds)..4;
            dag.add_round(
                producers
                    .map(|author| {
                        let payload = vec![Transaction::benchmark(u64::from(author))];
                        BlockSpec::new(author).with_transactions(payload)
                    })
                    .collect(),
            );
        }
        let mut by_round = vec![Vec::new(); rounds + 1];
        for block in dag.store().iter() {
            by_round[block.round() as usize].push(block.clone());
        }
        by_round.remove(0); // genesis is never logged
        by_round
    }

    /// A checkpoint record this node would sign for the cut "sequencing
    /// resumes at `next_round`", over a ledger that `round_blocks` was just
    /// applied to — so successive checkpoints differ and grow.
    fn checkpoint_record(
        setup: &TestCommittee,
        ledger: &mut BalanceLedger,
        position: u64,
        next_round: Round,
        round_blocks: &[Arc<Block>],
    ) -> WalRecord {
        let leader = round_blocks[0].reference();
        ledger.apply(&CommittedSubDag {
            position,
            leader,
            blocks: round_blocks.to_vec(),
        });
        let snapshot = SequencerSnapshot {
            position,
            next_round,
            consumed_in_round: 0,
            emitted: Vec::new(),
        };
        WalRecord::Checkpoint {
            checkpoint: Checkpoint::sign(
                OWN,
                position,
                leader,
                ledger.state_root(),
                snapshot.digest(),
                setup.keypair(OWN),
            ),
            execution: ledger.snapshot(),
            resume: snapshot.to_bytes_vec(),
        }
    }

    /// Asserts what every freshly rewritten log must look like: the one
    /// surviving checkpoint leads, no peer block sits below its floor, and
    /// the only own block below it is the newest one.
    fn assert_compacted_shape(storage: &MemStorage, newest_own: Option<Round>) {
        let records = Wal::open(storage.clone()).unwrap().records().unwrap();
        let decoded: Vec<WalRecord> = records
            .iter()
            .map(|record| WalRecord::from_bytes_exact(&record.payload).unwrap())
            .collect();
        let WalRecord::Checkpoint { resume, .. } = &decoded[0] else {
            panic!(
                "a rewritten log leads with its checkpoint: {:?}",
                decoded[0]
            );
        };
        let snapshot = SequencerSnapshot::from_bytes_exact(resume).unwrap();
        let floor = snapshot.next_round.saturating_sub(GC_DEPTH);
        for record in &decoded[1..] {
            match record {
                WalRecord::Checkpoint { .. } => panic!("a superseded checkpoint survived"),
                WalRecord::Block(block) if block.author() == OWN => assert!(
                    block.round() >= floor || Some(block.round()) == newest_own,
                    "own block of round {} is neither above floor {floor} nor the newest",
                    block.round()
                ),
                WalRecord::Block(block) => assert!(
                    block.round() >= floor,
                    "peer block of round {} survived below floor {floor}",
                    block.round()
                ),
                WalRecord::Evidence(_) => {}
            }
        }
    }

    /// Lets a recovered engine sequence what its log held above the cut it
    /// restored. Every cut it signs on the way must be the one `twin_cuts`
    /// holds for that position — same leader, same state root, same resume
    /// digest. Returns how many of them lie above the restored cut.
    fn replay_against_the_twin(
        engine: &mut ValidatorEngine,
        twin_cuts: &BTreeMap<u64, Checkpoint>,
    ) -> usize {
        let restored = engine.latest_checkpoint().map_or(0, Checkpoint::position);
        let mut above = 0;
        for output in engine.handle(Input::TimerFired { now: 0 }) {
            if let Output::CheckpointProduced(cut) = output {
                let twin = twin_cuts
                    .get(&cut.position())
                    .unwrap_or_else(|| panic!("the twin never crossed {}", cut.position()));
                assert!(
                    cut.attests_same(twin),
                    "replay diverged from the twin at {}: {cut:?} vs {twin:?}",
                    cut.position()
                );
                above += usize::from(cut.position() > restored);
            }
        }
        above
    }

    /// Logs `record` as one slice, its whole encoding: the reference a log
    /// written in parts must equal byte for byte.
    fn append_whole(wal: &mut mahimahi_wal::MemWal, record: &WalRecord) {
        wal.append(&record.to_bytes_vec()).unwrap();
    }

    /// One format, whichever way the bytes were written. A block record is
    /// its `Envelope::Block` frame, byte for byte, and decodes back to the
    /// same bytes — for blocks built here, decoded from a wire frame, or
    /// decoded from a sync reply — and a log written in parts (block
    /// records as tag and retained bytes) is byte-identical to one written
    /// a whole encoding at a time, for blocks, evidence and checkpoints.
    #[test]
    fn records_written_in_parts_are_the_bytes_of_their_whole_encoding() {
        use mahimahi_types::Envelope;
        let setup = TestCommittee::new(4, 17);
        let built: Vec<Arc<Block>> = blocks_by_round(&setup, 2).concat();
        let framed: Vec<Arc<Block>> = built
            .iter()
            .map(|block| {
                let frame = Envelope::Block(block.clone()).to_bytes_vec();
                match Envelope::from_bytes_exact(&frame) {
                    Ok(Envelope::Block(block)) => block,
                    other => panic!("a block frame decodes to a block: {other:?}"),
                }
            })
            .collect();
        let reply = Envelope::Response(built.clone()).to_bytes_vec();
        let Ok(Envelope::Response(replied)) = Envelope::from_bytes_exact(&reply) else {
            panic!("a sync reply decodes");
        };
        let mut records: Vec<WalRecord> = [built, framed, replied]
            .concat()
            .into_iter()
            .map(WalRecord::Block)
            .collect();
        for record in &records {
            let WalRecord::Block(block) = record else {
                unreachable!()
            };
            let bytes = record.to_bytes_vec();
            assert_eq!(bytes, Envelope::Block(block.clone()).to_bytes_vec());
            assert_eq!(bytes[1..], *block.as_bytes());
            let decoded = WalRecord::from_bytes_exact(&bytes).unwrap();
            assert_eq!(
                decoded.to_bytes_vec(),
                bytes,
                "decode then encode is the identity"
            );
        }
        let mut ledger = BalanceLedger::new();
        let round_blocks = blocks_by_round(&setup, 1).remove(0);
        records.push(WalRecord::Evidence(EquivocationProof::synthetic(
            &setup,
            AuthorityIndex(2),
        )));
        records.push(checkpoint_record(&setup, &mut ledger, 4, 2, &round_blocks));

        let parted = MemStorage::new();
        let (mut log, _) = recover(&setup, &parted);
        let whole = MemStorage::new();
        let mut plain = Wal::open(whole.clone()).unwrap();
        for record in &records {
            log.append(record).unwrap();
            append_whole(&mut plain, record);
        }
        assert_eq!(parted.snapshot(), whole.snapshot());
        assert_eq!(log.stats().bytes, whole.snapshot().len() as u64);
    }

    /// A twin engine that never crashes is fed seeded interleavings of
    /// blocks and evidence; what it asks to persist — blocks, convictions,
    /// and a checkpoint record at the cuts its log rule picks, several
    /// ordinary cuts apart — goes through the compacting log and through a
    /// plain append-only one. After every step — and between a checkpoint
    /// becoming durable and the rewrite it triggers, where a crash abandons
    /// the half-written replacement — a crash must recover the same state
    /// from both, and the engine recovered from the compacted log must
    /// replay the blocks above its record into the very cuts the twin
    /// signed: same state root at the same position. Now and then the crash
    /// is real: both sides continue from what it left.
    #[test]
    fn crash_at_any_step_recovers_the_same_state_as_the_uncompacted_log() {
        const ROUNDS: usize = 44;
        let mut rewrites = 0;
        let mut replayed_above_a_record = 0;
        for seed in 0..6u64 {
            let mut rng = Rng(seed);
            let setup = TestCommittee::new(4, 100 + seed);
            // This node stops producing at a seeded round and sits idle
            // while the committee advances.
            let last_own_round = 1 + rng.below(ROUNDS as u64);
            let rounds = blocks_with_own_until(&setup, ROUNDS, last_own_round as usize);

            let compacted = MemStorage::new();
            let (mut log, _) = recover(&setup, &compacted);
            let reference = MemStorage::new();
            let mut plain = Wal::open(reference.clone()).unwrap();
            let mut twin = fresh_engine(&setup);
            let mut twin_cuts = BTreeMap::new();
            let mut newest_own = None;
            let mut convicted = 1;
            let mut snapshots = 0;
            // Peers' blocks appended since the last sync: what a crash loses.
            let mut unsynced: Vec<WalRecord> = Vec::new();

            let check = |compacted: &MemStorage,
                         reference: &MemStorage,
                         twin_cuts: &BTreeMap<u64, Checkpoint>,
                         at: &str| {
                let (_, mut from_compacted) = recover(&setup, &crash_image(compacted));
                let (_, from_reference) = recover(&setup, &crash_image(reference));
                assert_eq!(
                    recovered_state(&from_compacted),
                    recovered_state(&from_reference),
                    "seed {seed}: recovery diverged {at}"
                );
                replay_against_the_twin(&mut from_compacted, twin_cuts)
            };

            for round_blocks in &rounds {
                let mut inputs: Vec<Input> = round_blocks
                    .iter()
                    .map(|block| Input::BlockReceived {
                        from: block.author().as_usize(),
                        block: block.clone(),
                    })
                    .collect();
                for i in (1..inputs.len()).rev() {
                    inputs.swap(i, rng.below(i as u64 + 1) as usize);
                }
                if convicted < 4 && rng.below(8) == 0 {
                    let proof = EquivocationProof::synthetic(&setup, AuthorityIndex(convicted));
                    inputs.push(Input::EvidenceReceived { from: 1, proof });
                    convicted += 1;
                }
                let mut script = Vec::new();
                for input in inputs {
                    for output in twin.handle(input) {
                        match output {
                            Output::Persist(record) => script.push(record),
                            Output::CheckpointProduced(cut) => {
                                twin_cuts.insert(cut.position(), cut);
                            }
                            _ => {}
                        }
                    }
                }
                for record in script {
                    append_whole(&mut plain, &record);
                    log.append(&record).unwrap();
                    if record.is_durable(OWN) {
                        plain.sync().unwrap();
                        unsynced.clear();
                    } else {
                        unsynced.push(record.clone());
                    }
                    log.flush().unwrap();
                    match &record {
                        WalRecord::Block(block) if block.author() == OWN => {
                            newest_own = Some(block.round());
                        }
                        WalRecord::Checkpoint { .. } => snapshots += 1,
                        _ => {}
                    }
                    if matches!(record, WalRecord::Checkpoint { .. }) && log.compaction_due() {
                        check(
                            &compacted,
                            &reference,
                            &twin_cuts,
                            "with the rewrite abandoned",
                        );
                        log.compact();
                        rewrites += 1;
                        assert_compacted_shape(&compacted, newest_own);
                    }
                    let at = format!("after {record:?}");
                    replayed_above_a_record += check(&compacted, &reference, &twin_cuts, &at);
                    if rng.below(16) == 0 {
                        compacted.replace(compacted.durable_snapshot());
                        log = recover(&setup, &compacted).0;
                        reference.replace(reference.durable_snapshot());
                        plain = Wal::open(reference.clone()).unwrap();
                        // The peers' blocks the crash tore off are fetched
                        // again, as the synchronizer would.
                        for record in &unsynced {
                            append_whole(&mut plain, record);
                            log.append(record).unwrap();
                        }
                    }
                }
            }
            assert_eq!(log.stats().errors, 0);
            // Snapshots are several cuts apart: most cuts wrote nothing.
            assert!(
                snapshots >= 3 && 2 * snapshots <= twin_cuts.len(),
                "seed {seed}: {snapshots} snapshots over {} cuts",
                twin_cuts.len()
            );
            let (_, engine) = recover(&setup, &crash_image(&compacted));
            assert_eq!(engine.round(), last_own_round, "seed {seed}");
            assert!(engine.latest_checkpoint().is_some(), "seed {seed}");
        }
        assert!(
            rewrites >= 6,
            "the schedule must exercise the rewrite: {rewrites}"
        );
        assert!(
            replayed_above_a_record >= 100,
            "recovery must replay cuts above its record: {replayed_above_a_record}"
        );
    }

    /// Over more than 10⁴ records the rewrites together copy no more than
    /// was ever appended, and the file never exceeds twice its live records
    /// plus the record just appended. Exact counts: the record sizes and
    /// classes are seeded, and nothing here depends on a clock.
    #[test]
    fn compaction_copies_less_than_was_appended_and_bounds_the_file() {
        let setup = TestCommittee::new(4, 7);
        let storage = MemStorage::new();
        let (mut log, _) = recover(&setup, &storage);
        let mut rng = Rng(42);
        let mut appended = 0;
        let mut records = 0;
        for round in 1..=2_500u64 {
            let mut step = |log: &mut NodeLog, len: u64, class: RecordClass| {
                let payload = vec![0xab; len as usize];
                log.append_parts(&[&payload], class).unwrap();
                let frame_len = FrameRange::new(0, payload.len()).len;
                appended += frame_len;
                records += 1;
                if matches!(class, RecordClass::Checkpoint { .. }) && log.compaction_due() {
                    log.compact();
                }
                let stats = log.stats();
                assert!(
                    stats.bytes <= 2 * stats.live_bytes + frame_len,
                    "round {round}: {} B on disk for {} B live",
                    stats.bytes,
                    stats.live_bytes
                );
                assert!(stats.compacted_bytes <= appended);
            };
            step(&mut log, 64 + rng.below(512), RecordClass::OwnBlock(round));
            for _ in 0..3 {
                step(&mut log, 64 + rng.below(512), RecordClass::PeerBlock(round));
            }
            if round.is_multiple_of(5) {
                // Snapshots grow with the state, as the ledger's do.
                let floor = round.saturating_sub(GC_DEPTH);
                step(&mut log, 256 + round, RecordClass::Checkpoint { floor });
            }
        }
        let stats = log.stats();
        assert!(records > 10_000);
        assert_eq!(stats.errors, 0);
        assert!(stats.compactions > 10, "{stats:?}");
        assert_eq!(stats.bytes, storage.snapshot().len() as u64);
        assert!(
            stats.compactions < 2_500 / 5,
            "most checkpoints rewrite nothing"
        );
    }

    /// A node that went idle at round 3 while the committee advanced: its
    /// newest own block falls ever further below the floor, survives every
    /// rewrite, and still restores the produced-round watermark — the older
    /// own blocks, the peers' blocks below the floor and the superseded
    /// checkpoints do not.
    #[test]
    fn the_newest_own_block_survives_every_compaction_below_the_floor() {
        let setup = TestCommittee::new(4, 11);
        let storage = MemStorage::new();
        let (mut log, _) = recover(&setup, &storage);
        let mut ledger = BalanceLedger::new();
        for (index, round_blocks) in blocks_by_round(&setup, 40).iter().enumerate() {
            let round = index as Round + 1;
            for block in round_blocks {
                if block.author() != OWN || round <= 3 {
                    log.append(&WalRecord::Block(block.clone())).unwrap();
                }
            }
            if round.is_multiple_of(4) {
                log.append(&checkpoint_record(
                    &setup,
                    &mut ledger,
                    round,
                    round,
                    round_blocks,
                ))
                .unwrap();
                if log.compaction_due() {
                    log.compact();
                    assert_compacted_shape(&storage, Some(3));
                }
            }
        }
        assert!(log.stats().compactions >= 3, "{:?}", log.stats());
        let own_rounds: Vec<Round> = Wal::open(storage.clone())
            .unwrap()
            .records()
            .unwrap()
            .iter()
            .filter_map(|r| match WalRecord::from_bytes_exact(&r.payload) {
                Ok(WalRecord::Block(block)) if block.author() == OWN => Some(block.round()),
                _ => None,
            })
            .collect();
        assert_eq!(own_rounds, [3], "only the watermark carrier is left");
        let (recovered, engine) = recover(&setup, &crash_image(&storage));
        assert_eq!(engine.round(), 3);
        assert!(engine.store().gc_cutoff() > 3);
        assert_eq!(recovered.stats().live_bytes, log.stats().live_bytes);
    }

    /// A rewrite that fails leaves the log open and the index describing
    /// it, is counted, and goes through at the next checkpoint once the
    /// obstacle is gone.
    #[test]
    fn a_failed_rewrite_is_counted_and_retried_at_the_next_checkpoint() {
        let setup = TestCommittee::new(4, 13);
        let dir = std::env::temp_dir().join(format!("mahimahi-node-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v0.wal");
        let obstacle = dir.join("v0.wal.compact");
        let mut engine = fresh_engine(&setup);
        let wal = AnyWal::File(FileWal::open_path(&path).unwrap());
        let mut log = NodeLog::recover(wal, OWN, Some(GC_DEPTH), &mut engine).unwrap();
        let mut ledger = BalanceLedger::new();

        // A directory on the replacement's path makes every rewrite fail.
        std::fs::create_dir(&obstacle).unwrap();
        let rounds = blocks_by_round(&setup, 24);
        let mut failed_at = None;
        for (index, round_blocks) in rounds.iter().enumerate() {
            let round = index as Round + 1;
            for block in round_blocks {
                log.append(&WalRecord::Block(block.clone())).unwrap();
            }
            if !round.is_multiple_of(4) {
                continue;
            }
            log.append(&checkpoint_record(
                &setup,
                &mut ledger,
                round,
                round,
                round_blocks,
            ))
            .unwrap();
            if !log.compaction_due() {
                continue;
            }
            let before = log.stats();
            log.compact();
            let after = log.stats();
            if failed_at.is_none() {
                assert_eq!(after.errors, 1);
                assert_eq!((after.bytes, after.compactions), (before.bytes, 0));
                assert_eq!(after.live_bytes, before.live_bytes);
                failed_at = Some(round);
                std::fs::remove_dir(&obstacle).unwrap();
            } else {
                assert_eq!((after.errors, after.compactions), (1, 1));
                assert_eq!(after.bytes, after.live_bytes);
                break;
            }
        }
        assert!(failed_at.is_some() && log.stats().compactions == 1);
        drop(log);
        let mut engine = fresh_engine(&setup);
        let wal = AnyWal::File(FileWal::open_path(&path).unwrap());
        let log = NodeLog::recover(wal, OWN, Some(GC_DEPTH), &mut engine).unwrap();
        assert!(engine.latest_checkpoint().is_some());
        assert_eq!(log.stats().bytes, log.stats().live_bytes);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A simulated 4-validator committee on a uniform `link` fabric with
    /// no modelled CPU and no open-loop clients.
    fn simulated(link: u64, inclusion_wait: u64) -> SimConfig {
        SimConfig {
            committee_size: 4,
            txs_per_second_per_validator: 0,
            mempool: MempoolConfig::test(10_000, 100),
            latency: LatencyChoice::Uniform {
                min: link,
                max: link,
            },
            cpu: CpuCosts {
                signature_verify: 0,
                coin_share_verify: 0,
                block_creation: 0,
                hash_per_kb: 0,
                batch_discount_percent: 50,
            },
            inclusion_wait,
            seed: 11,
            ..SimConfig::default()
        }
    }

    /// Recovers a fresh engine, configured like `config`'s validator 0,
    /// from the log `simulation` kept for it — the node's recovery path.
    fn recover_simulated(
        config: &SimConfig,
        simulation: &Simulation,
    ) -> (NodeLog, ValidatorEngine) {
        let setup = TestCommittee::new(config.committee_size, config.seed);
        let mut engine = ValidatorEngine::honest(
            config.engine_config(OWN, setup.clone()),
            config.protocol.committer(setup.committee().clone()),
        );
        let wal = AnyWal::Memory(Wal::open(simulation.validator(0).log().clone()).unwrap());
        let log = NodeLog::recover(wal, OWN, Some(16), &mut engine).unwrap();
        (log, engine)
    }

    #[test]
    fn an_idle_cluster_still_snapshots_and_its_log_compacts() {
        // No payload at all: the rule counts block bytes, and empty blocks
        // have some.
        let config = simulated(1_000, 0);
        let mut simulation = Simulation::new(config.clone());
        let snapshots = |simulation: &Simulation| {
            Wal::open(simulation.validator(0).log().clone())
                .unwrap()
                .records()
                .unwrap()
                .iter()
                .filter(|record| {
                    matches!(
                        WalRecord::from_bytes_exact(&record.payload),
                        Ok(WalRecord::Checkpoint { .. })
                    )
                })
                .count()
        };
        let mut horizon = 0;
        while snapshots(&simulation) < 3 {
            horizon += 10_000;
            assert!(horizon < 5_000_000, "an idle log never got its snapshots");
            simulation.run_until(horizon);
        }
        // Through the node's log, the newest of those records marks the
        // blocks below its floor dead, and the rewrite goes through.
        let (mut log, engine) = recover_simulated(&config, &simulation);
        assert!(log.compaction_due(), "{:?}", log.stats());
        let before = log.stats().bytes;
        log.compact();
        let after = log.stats();
        assert_eq!((after.compactions, after.errors), (1, 0));
        assert!(after.bytes < before / 2);
        assert!(engine.latest_checkpoint().is_some());
    }

    #[test]
    fn recovery_restores_no_block_that_fails_verification() {
        let setup = TestCommittee::new(4, 5);
        let valid = blocks_by_round(&setup, 1).swap_remove(0);
        let bad = BlockBuilder::failing_verification(&setup, AuthorityIndex(3));
        let storage = MemStorage::new();
        let mut wal = Wal::open(storage.clone()).unwrap();
        for block in valid.iter().chain(&bad) {
            wal.append_parts(&[&[WalRecord::BLOCK_TAG], block.as_bytes()])
                .unwrap();
        }
        assert_eq!(wal.records().unwrap().len(), valid.len() + bad.len());
        let (_, engine) = recover(&setup, &storage);
        for block in &valid {
            assert!(engine.store().contains(&block.reference()));
        }
        for block in &bad {
            assert!(!engine.store().contains(&block.reference()));
        }
        assert_eq!(engine.store().pending_count(), 0, "a bad block is buffered");
    }

    #[test]
    fn wal_recovery_reproduces_the_dag() {
        let config = simulated(30_000, 20_000);
        let mut simulation = Simulation::new(config.clone());
        simulation.run_until(1_000_000);
        let live = simulation.validator(0).engine();
        assert!(live.round() > 10);
        let (_, recovered) = recover_simulated(&config, &simulation);
        assert_eq!(recovered.round(), live.round());
        assert_eq!(
            recovered.store().highest_round(),
            live.store().highest_round()
        );
    }
}
