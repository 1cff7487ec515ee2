//! The verify stage: the one place peer input is checked, and the
//! admission pipeline that runs it in front of the sequential engine core.
//!
//! [`verify`] is the only verifier of peer input. Everything expensive
//! about admitting an input — Schnorr signature checks, coin-share DLEQ
//! proofs, structural block validation, hashing the transactions it
//! carries — is stateless: it depends only on the input and the (fixed)
//! committee. What passes comes back wrapped in a [`Verified`] witness, and
//! [`ValidatorEngine::handle_verified`] applies it without checking again.
//! Its three callers are [`ValidatorEngine::handle`] (verify, then apply),
//! the simulator (once per sent envelope, shared by every recipient) and
//! [`AdmissionPipeline`], which the TCP node runs inline on its consensus
//! thread and which can also fan submissions out to a pool of verify
//! workers and re-sequence the results, so verified inputs emerge in exact
//! submission order no matter how the workers interleave.
//!
//! The verify stage is where a transaction's bytes are first seen, so it is
//! where each transaction is hashed, once: decoding a block hashes the
//! transactions it carries, because the block's content digest is built
//! from theirs (see [`mahimahi_types::block`]), and the verify stage hashes
//! those of client batches and forwards. The digest travels with the
//! transaction ([`Transaction::digest`]), and the mempool's dedup, the
//! client ledger and execution on the consensus thread read it instead of
//! hashing the payload again.
//!
//! Invalid inputs — undecodable frames, blocks with bad signatures or coin
//! shares, unverifiable evidence — are dropped here and never reach the
//! core, so the engine's [`BlockStore`] holds only blocks that passed
//! [`verify`] (or, on recovery, the direct check of a logged block).
//!
//! # Determinism contract
//!
//! Drivers record the *verified* inputs in sequenced order; replaying such
//! a trace through plain [`ValidatorEngine::handle`] reproduces the live
//! outputs byte for byte: verification is a pure function of the input and
//! the committee, so every recorded input passes again and is applied the
//! same way.
//!
//! [`BlockStore`]: mahimahi_dag::BlockStore
//! [`ValidatorEngine::handle`]: crate::engine::ValidatorEngine::handle
//! [`Transaction::digest`]: mahimahi_types::Transaction::digest
//! [`ValidatorEngine::handle_verified`]: crate::engine::ValidatorEngine::handle_verified

use crossbeam::channel::{self, Receiver, Sender};
use mahimahi_crypto::coin::CoinShare;
use mahimahi_crypto::schnorr::{self, PublicKey, Signature};
use mahimahi_telemetry::{Stage, StageStats};
use mahimahi_types::{Block, Committee, Decode, Envelope, Transaction, Verified};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::engine::Input;

/// Configuration for the verify stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Number of verify worker threads.
    ///
    /// `0` (the default) verifies synchronously inside
    /// [`AdmissionPipeline::submit`] — no threads, same observable
    /// behavior. Deterministic harnesses use it, and so does the TCP node
    /// by default: a verdict reached on the thread that applies the input
    /// never waits for that thread to wake up and collect it.
    pub verify_workers: usize,
    /// Bound on in-flight submissions (submitted but not yet drained).
    ///
    /// The pipeline itself never blocks; callers consult
    /// [`AdmissionPipeline::has_capacity`] before submitting more work and
    /// leave the excess wherever it currently queues. For the TCP node that
    /// is the transport's inbound channel, which is unbounded: its readers
    /// never block, so the bound caps the pipeline but does not push back
    /// on the peer's connection (bounding it is ROADMAP item 2(c)).
    pub queue_bound: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            verify_workers: 0,
            queue_bound: 1024,
        }
    }
}

/// One unit of verify work.
enum Job {
    /// A raw wire frame: decoded *and* verified off the hot path.
    Frame { from: usize, bytes: Vec<u8> },
    /// An already-typed input (timers, client batches, test traffic).
    Typed(Input),
}

struct Workers {
    job_tx: Sender<(u64, Job)>,
    result_rx: Receiver<(u64, Option<Verified<Input>>)>,
    handles: Vec<JoinHandle<()>>,
}

/// The verify stage: parallel workers plus a deterministic re-sequencer.
///
/// Inputs are verified in parallel (when `verify_workers > 0`) but
/// [`AdmissionPipeline::drain_ready`] releases them strictly in submission
/// order, each wrapped in a [`Verified`] witness for
/// [`ValidatorEngine::handle_verified`](crate::engine::ValidatorEngine::handle_verified).
/// Inputs with nothing to verify (timers, client batches) never cross to a
/// worker: they are sequenced on the submitting thread.
///
/// # Example
///
/// ```
/// use mahimahi_core::admission::{AdmissionConfig, AdmissionPipeline};
/// use mahimahi_core::engine::Input;
/// use mahimahi_types::TestCommittee;
///
/// let setup = TestCommittee::new(4, 7);
/// let mut pipeline = AdmissionPipeline::new(
///     AdmissionConfig::default(),
///     setup.committee().clone(),
/// );
/// pipeline.submit(Input::TimerFired { now: 5 });
/// let ready = pipeline.drain_ready();
/// assert_eq!(ready.len(), 1);
/// assert!(matches!(*ready[0], Input::TimerFired { now: 5 }));
/// ```
pub struct AdmissionPipeline {
    committee: Arc<Committee>,
    queue_bound: usize,
    workers: Option<Workers>,
    /// Out-of-order results parked until their predecessors arrive, each
    /// with the time its verdict landed (for the resequence-wait stage).
    /// `None` marks a rejected input (counted, never released).
    resequence: BTreeMap<u64, (Option<Verified<Input>>, u64)>,
    /// Submission time per still-in-flight sequence number; the delta to
    /// the verdict time is the verify-stage latency.
    submitted_at: BTreeMap<u64, u64>,
    /// Sequence number of the next submission.
    next_seq: u64,
    /// Sequence number of the next input to release.
    next_out: u64,
    peak_depth: usize,
    verified: u64,
    rejected: u64,
    /// Per-stage histograms ([`Stage::Verified`], [`Stage::Resequenced`]);
    /// `None` skips recording entirely.
    stages: Option<StageStats>,
}

impl AdmissionPipeline {
    /// Creates the pipeline and spawns `config.verify_workers` threads
    /// (none when zero: verification then runs inline in `submit`).
    pub fn new(config: AdmissionConfig, committee: Committee) -> Self {
        let committee = Arc::new(committee);
        let workers = (config.verify_workers > 0).then(|| {
            let (job_tx, job_rx) = channel::unbounded::<(u64, Job)>();
            let (result_tx, result_rx) = channel::unbounded();
            let handles = (0..config.verify_workers)
                .map(|worker| {
                    let job_rx = job_rx.clone();
                    let result_tx = result_tx.clone();
                    let committee = committee.clone();
                    std::thread::Builder::new()
                        .name(format!("verify-{worker}"))
                        .spawn(move || {
                            while let Ok((seq, job)) = job_rx.recv() {
                                let outcome = verify_job(&committee, job);
                                if result_tx.send((seq, outcome)).is_err() {
                                    return;
                                }
                            }
                        })
                        .expect("spawn verify worker")
                })
                .collect();
            Workers {
                job_tx,
                result_rx,
                handles,
            }
        });
        AdmissionPipeline {
            committee,
            queue_bound: config.queue_bound.max(1),
            workers,
            resequence: BTreeMap::new(),
            submitted_at: BTreeMap::new(),
            next_seq: 0,
            next_out: 0,
            peak_depth: 0,
            verified: 0,
            rejected: 0,
            stages: None,
        }
    }

    /// Attaches per-stage histograms: every subsequent `*_at` call folds
    /// the verify latency and resequence wait of each input into the
    /// [`Stage::Verified`] / [`Stage::Resequenced`] histograms.
    pub fn set_stage_stats(&mut self, stages: StageStats) {
        self.stages = Some(stages);
    }

    /// Submits an already-typed input (timers, client batches).
    pub fn submit(&mut self, input: Input) {
        self.submit_at(input, 0);
    }

    /// [`AdmissionPipeline::submit`] with the driver's clock (µs), the
    /// baseline for the input's verify-stage latency.
    pub fn submit_at(&mut self, input: Input, now: u64) {
        self.enqueue(Job::Typed(input), now);
    }

    /// Submits a raw wire frame from `from`; decoding happens in the
    /// verify stage. Undecodable frames are rejected.
    pub fn submit_frame(&mut self, from: usize, bytes: Vec<u8>) {
        self.submit_frame_at(from, bytes, 0);
    }

    /// [`AdmissionPipeline::submit_frame`] with the driver's clock (µs).
    pub fn submit_frame_at(&mut self, from: usize, bytes: Vec<u8>, now: u64) {
        self.enqueue(Job::Frame { from, bytes }, now);
    }

    /// Whether another submission fits under the queue bound. Callers that
    /// get `false` should stop pulling from their source — that is the
    /// backpressure mechanism.
    pub fn has_capacity(&self) -> bool {
        self.depth() < self.queue_bound
    }

    /// Inputs submitted but not yet drained.
    pub fn depth(&self) -> usize {
        (self.next_seq - self.next_out) as usize
    }

    /// High-water mark of [`AdmissionPipeline::depth`].
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    /// Inputs that passed verification and were released.
    pub fn verified(&self) -> u64 {
        self.verified
    }

    /// Inputs dropped by the verify stage (undecodable frame, invalid
    /// signature/proof).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Releases every verified input whose predecessors have all been
    /// resolved, in submission order. Never blocks.
    pub fn drain_ready(&mut self) -> Vec<Verified<Input>> {
        self.drain_ready_at(0)
    }

    /// [`AdmissionPipeline::drain_ready`] with the driver's clock (µs):
    /// verdicts collected now close their verify-stage interval, releases
    /// close their resequence wait.
    pub fn drain_ready_at(&mut self, now: u64) -> Vec<Verified<Input>> {
        if let Some(workers) = &self.workers {
            let mut arrived = Vec::new();
            while let Ok(result) = workers.result_rx.try_recv() {
                arrived.push(result);
            }
            for (seq, outcome) in arrived {
                self.settle(seq, outcome, now);
            }
        }
        self.pop_in_order(now)
    }

    /// Blocks until every in-flight submission is resolved and returns the
    /// remaining verified inputs in submission order. Used at shutdown and
    /// by tests; the event loop uses [`AdmissionPipeline::drain_ready`].
    pub fn flush(&mut self) -> Vec<Verified<Input>> {
        self.flush_at(0)
    }

    /// [`AdmissionPipeline::flush`] with the driver's clock (µs).
    pub fn flush_at(&mut self, now: u64) -> Vec<Verified<Input>> {
        let mut ready = self.drain_ready_at(now);
        while self.next_out < self.next_seq {
            let received = match &self.workers {
                Some(workers) => workers.result_rx.recv().ok(),
                None => None,
            };
            let Some((seq, outcome)) = received else {
                break;
            };
            self.settle(seq, outcome, now);
            ready.extend(self.pop_in_order(now));
        }
        ready
    }

    fn enqueue(&mut self, job: Job, now: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let has_work = match &job {
            Job::Frame { .. } => true,
            Job::Typed(input) => carries_claims(input),
        };
        match &self.workers {
            // A worker earns its two thread switches only when there is
            // something to decode or check. The node submits a timer tick
            // every event-loop iteration: a round trip through a worker
            // would buy nothing, and because release is in submission
            // order every input behind the tick would wait until the
            // kernel had run that worker — on another core, an iteration.
            Some(workers) if has_work => {
                self.submitted_at.insert(seq, now);
                let _ = workers.job_tx.send((seq, job));
            }
            _ => {
                // Inline: the verdict lands in the same call, so the
                // verify stage records an honest zero. The resequencer
                // still holds it behind every earlier submission.
                let outcome = verify_job(&self.committee, job);
                self.settle(seq, outcome, now);
            }
        }
        self.peak_depth = self.peak_depth.max(self.depth());
    }

    /// Parks a verify verdict for resequencing, closing its verify-stage
    /// interval (submission → verdict).
    fn settle(&mut self, seq: u64, outcome: Option<Verified<Input>>, now: u64) {
        let submitted = self.submitted_at.remove(&seq).unwrap_or(now);
        if let Some(stages) = &self.stages {
            stages.record(Stage::Verified, now.saturating_sub(submitted));
        }
        self.resequence.insert(seq, (outcome, now));
    }

    fn pop_in_order(&mut self, now: u64) -> Vec<Verified<Input>> {
        let mut ready = Vec::new();
        while let Some((outcome, seen_at)) = self.resequence.remove(&self.next_out) {
            self.next_out += 1;
            match outcome {
                Some(input) => {
                    self.verified += 1;
                    if let Some(stages) = &self.stages {
                        stages.record(Stage::Resequenced, now.saturating_sub(seen_at));
                    }
                    ready.push(input);
                }
                None => self.rejected += 1,
            }
        }
        ready
    }
}

impl Drop for AdmissionPipeline {
    fn drop(&mut self) {
        if let Some(workers) = self.workers.take() {
            // Dropping the job sender disconnects the workers' recv loop.
            drop(workers.job_tx);
            drop(workers.result_rx);
            for handle in workers.handles {
                let _ = handle.join();
            }
        }
    }
}

fn verify_job(committee: &Committee, job: Job) -> Option<Verified<Input>> {
    let input = match job {
        Job::Frame { from, bytes } => {
            Input::from_envelope(from, Envelope::from_bytes_exact(&bytes).ok()?)
        }
        Job::Typed(input) => input,
    };
    verify(committee, input)
}

/// Verifies `input` against `committee`: the only verifier of peer input,
/// and the only place a [`Verified`] witness is made.
///
/// Blocks — alone, as a Tusk proposal, or in a sync reply — must pass
/// [`Block::verify`]: structure, signature, coin-share proof. A sync reply
/// keeps its valid blocks and drops the rest, and one with none left is
/// rejected. Evidence must carry two validly signed conflicting blocks.
/// Inputs that carry no cryptographic claims (timers, client transactions,
/// acks, certificates, sync requests, checkpoints, whose signatures the
/// engine checks against its own state) pass through. The transactions a
/// client batch or a forward carries are hashed here, once.
///
/// Returns `None` for an input that fails: it must not reach the engine.
///
/// # Example
///
/// ```
/// use mahimahi_core::admission::verify;
/// use mahimahi_core::engine::Input;
/// use mahimahi_types::TestCommittee;
///
/// let setup = TestCommittee::new(4, 7);
/// let tick = verify(setup.committee(), Input::TimerFired { now: 5 }).unwrap();
/// assert!(matches!(*tick, Input::TimerFired { now: 5 }));
/// ```
pub fn verify(committee: &Committee, input: Input) -> Option<Verified<Input>> {
    let input = match input {
        Input::BlockReceived { from, block } => verify_blocks(committee, vec![block])
            .pop()
            .map(|block| Input::BlockReceived { from, block })?,
        Input::ProposalReceived { from, block } => verify_blocks(committee, vec![block])
            .pop()
            .map(|block| Input::ProposalReceived { from, block })?,
        Input::SyncReply { from, blocks } => {
            let blocks = verify_blocks(committee, blocks);
            if blocks.is_empty() {
                return None;
            }
            Input::SyncReply { from, blocks }
        }
        Input::EvidenceReceived { from, proof } => {
            proof.verify(committee).ok()?;
            Input::EvidenceReceived { from, proof }
        }
        other => other,
    };
    for transaction in carried_transactions(&input) {
        transaction.digest();
    }
    Some(Verified::vouch(input))
}

/// The transactions `input` carries that nothing has hashed yet: a client
/// batch's or a forward's. A block's were hashed when it was decoded.
fn carried_transactions(input: &Input) -> &[Transaction] {
    match input {
        Input::TxBatchReceived { transactions, .. }
        | Input::TxForwardReceived { transactions, .. } => transactions,
        _ => &[],
    }
}

/// Whether [`verify`] has anything to check on `input`. The pipeline
/// settles the rest on the caller's thread; a kind missing here is still
/// verified, only without a worker.
fn carries_claims(input: &Input) -> bool {
    matches!(
        input,
        Input::BlockReceived { .. }
            | Input::ProposalReceived { .. }
            | Input::SyncReply { .. }
            | Input::EvidenceReceived { .. }
    )
}

/// Verifies a batch of blocks, returning the valid ones in input order.
///
/// Structure is checked per block; the two expensive cryptographic
/// conditions are then checked across the whole batch — Schnorr signatures
/// through the multi-scalar combined equation, coin-share proofs with the
/// per-round base derived once per round — with failures attributed to and
/// dropped from the specific offending blocks.
fn verify_blocks(committee: &Committee, blocks: Vec<Arc<Block>>) -> Vec<Arc<Block>> {
    // A lone block — every frame but a sync reply — gains nothing from the
    // combined equation, which costs one exponentiation and a transcript
    // hash more than checking the one signature.
    if let [block] = &blocks[..] {
        return match block.verify(committee) {
            Ok(()) => blocks,
            Err(_) => Vec::new(),
        };
    }
    let mut alive: Vec<bool> = blocks
        .iter()
        .map(|block| block.verify_structure(committee).is_ok())
        .collect();

    // Signatures, batched. Genesis blocks (round 0) are unsigned: the
    // structural pass fully validated them.
    let signed: Vec<usize> = blocks
        .iter()
        .enumerate()
        .filter(|(index, block)| alive[*index] && block.round() > 0)
        .map(|(index, _)| index)
        .collect();
    let messages: Vec<_> = signed.iter().map(|&i| blocks[i].signed_bytes()).collect();
    let items: Vec<(&[u8], PublicKey, Signature)> = signed
        .iter()
        .zip(&messages)
        .map(|(&i, message)| {
            let block = &blocks[i];
            let public = committee
                .public_key(block.author())
                .expect("membership checked structurally");
            (message.as_slice(), *public, block.signature())
        })
        .collect();
    if let Err(culprits) = schnorr::batch_verify_attributed(&items) {
        for culprit in culprits {
            alive[signed[culprit]] = false;
        }
    }

    // Coin-share proofs, batched per round (one base derivation per round).
    let mut by_round: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (index, block) in blocks.iter().enumerate() {
        if alive[index] && block.round() > 0 {
            by_round.entry(block.round()).or_default().push(index);
        }
    }
    for (round, indices) in by_round {
        let shares: Vec<CoinShare> = indices
            .iter()
            .map(|&i| {
                blocks[i]
                    .coin_share()
                    .expect("presence checked structurally")
            })
            .collect();
        if let Err(culprits) = committee.coin_public().verify_shares(round, &shares) {
            for culprit in culprits {
                alive[indices[culprit]] = false;
            }
        }
    }

    blocks
        .into_iter()
        .zip(alive)
        .filter_map(|(block, keep)| keep.then_some(block))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::committer::{Committer, CommitterOptions};
    use crate::engine::{EngineConfig, Output, ValidatorEngine, WalRecord};
    use mahimahi_crypto::blake2b::blake2b_256;
    use mahimahi_dag::{BlockSpec, DagBuilder};
    use mahimahi_types::{AuthorityIndex, Encode, TestCommittee};

    fn peer_blocks(setup: &TestCommittee, rounds: usize) -> Vec<Arc<Block>> {
        let mut dag = DagBuilder::new(setup.clone());
        dag.add_full_rounds(rounds);
        dag.store()
            .iter()
            .filter(|block| block.round() > 0)
            .cloned()
            .collect()
    }

    fn tamper(block: &Block) -> Arc<Block> {
        // Flip a parent-digest byte: still decodes, signature now stale.
        let mut bytes = block.to_bytes_vec();
        bytes[30] ^= 0xff;
        Block::from_bytes_exact(&bytes).unwrap().into_arc()
    }

    #[test]
    fn batched_block_verification_matches_serial() {
        let setup = TestCommittee::new(4, 11);
        let committee = setup.committee();
        let mut blocks = peer_blocks(&setup, 3);
        blocks[1] = tamper(&blocks[1]);
        blocks[5] = tamper(&blocks[5]);
        let kept = verify_blocks(committee, blocks.clone());
        let expected: Vec<Arc<Block>> = blocks
            .iter()
            .filter(|block| block.verify(committee).is_ok())
            .cloned()
            .collect();
        assert_eq!(kept.len(), blocks.len() - 2);
        assert_eq!(kept, expected);
    }

    #[test]
    fn synchronous_pipeline_preserves_submission_order_and_rejects() {
        let setup = TestCommittee::new(4, 11);
        let mut pipeline =
            AdmissionPipeline::new(AdmissionConfig::default(), setup.committee().clone());
        let blocks = peer_blocks(&setup, 2);

        pipeline.submit(Input::TimerFired { now: 1 });
        pipeline.submit(Input::BlockReceived {
            from: 1,
            block: tamper(&blocks[0]),
        });
        pipeline.submit(Input::BlockReceived {
            from: 1,
            block: blocks[0].clone(),
        });
        pipeline.submit_frame(2, b"not an envelope".to_vec());
        pipeline.submit_frame(2, Envelope::Block(blocks[1].clone()).to_bytes_vec());

        let ready = pipeline.drain_ready();
        assert_eq!(ready.len(), 3);
        assert!(matches!(*ready[0], Input::TimerFired { now: 1 }));
        assert!(matches!(&*ready[1], Input::BlockReceived { block, .. } if *block == blocks[0]));
        assert!(matches!(&*ready[2], Input::BlockReceived { block, .. } if *block == blocks[1]));
        assert_eq!(pipeline.rejected(), 2);
        assert_eq!(pipeline.verified(), 3);
        assert_eq!(pipeline.depth(), 0);
    }

    #[test]
    fn worker_pipeline_resequences_to_submission_order() {
        let setup = TestCommittee::new(4, 11);
        let committee = setup.committee().clone();
        let blocks = peer_blocks(&setup, 16);
        let tampered = |index: usize| index % 16 == 3;

        // Serial reference: the synchronous pipeline.
        let mut serial = AdmissionPipeline::new(AdmissionConfig::default(), committee.clone());
        let mut parallel = AdmissionPipeline::new(
            AdmissionConfig {
                verify_workers: 3,
                queue_bound: 4096,
            },
            committee,
        );
        for (index, block) in blocks.iter().enumerate() {
            // Wire frames, as the node submits them: decoding is the
            // workers' job too.
            let mut frame = Envelope::Block(block.clone()).to_bytes_vec();
            if tampered(index) {
                // The byte `tamper` flips, one envelope tag further in.
                frame[31] ^= 0xff;
            }
            for pipeline in [&mut serial, &mut parallel] {
                pipeline.submit(Input::TimerFired { now: index as u64 });
                pipeline.submit_frame(index % 4, frame.clone());
            }
        }
        let serial_out = serial.flush();
        let parallel_out = parallel.flush();
        assert_eq!(serial_out.len(), parallel_out.len());
        for (a, b) in serial_out.iter().zip(&parallel_out) {
            assert_eq!(format!("{:?}", **a), format!("{:?}", **b));
        }
        // The survivors are exactly the untampered blocks, in the order
        // their frames went in.
        let admitted: Vec<_> = parallel_out
            .iter()
            .filter_map(|input| match &**input {
                Input::BlockReceived { block, .. } => Some(block.digest()),
                _ => None,
            })
            .collect();
        let expected: Vec<_> = blocks
            .iter()
            .enumerate()
            .filter(|(index, _)| !tampered(*index))
            .map(|(_, block)| block.digest())
            .collect();
        assert_eq!(admitted, expected);
        let tampered_frames = (0..blocks.len()).filter(|&index| tampered(index)).count();
        assert_eq!(tampered_frames, 4);
        assert_eq!(parallel.rejected(), tampered_frames as u64);
        assert_eq!(serial.rejected(), parallel.rejected());
        assert!(parallel.peak_depth() > 0, "the depth gauge never moved");
        assert_eq!(parallel.depth(), 0);
    }

    #[test]
    fn queue_bound_signals_backpressure() {
        let setup = TestCommittee::new(4, 11);
        let mut pipeline = AdmissionPipeline::new(
            AdmissionConfig {
                // Workers that never drain fast enough to matter here: the
                // depth counts submissions until *drained*, so capacity
                // reports full until the caller drains.
                verify_workers: 1,
                queue_bound: 2,
            },
            setup.committee().clone(),
        );
        assert!(pipeline.has_capacity());
        pipeline.submit(Input::TimerFired { now: 1 });
        assert!(pipeline.has_capacity());
        pipeline.submit(Input::TimerFired { now: 2 });
        assert!(!pipeline.has_capacity(), "at the bound");
        assert!(pipeline.peak_depth() >= 2);
        let drained = pipeline.flush();
        assert_eq!(drained.len(), 2);
        assert!(pipeline.has_capacity());
    }

    #[test]
    fn sync_reply_filters_invalid_blocks_but_keeps_valid_ones() {
        let setup = TestCommittee::new(4, 11);
        let committee = setup.committee();
        let blocks = peer_blocks(&setup, 2);
        let reply = Input::SyncReply {
            from: 3,
            blocks: vec![blocks[0].clone(), tamper(&blocks[1]), blocks[2].clone()],
        };
        match verify(committee, reply).map(Verified::into_inner) {
            Some(Input::SyncReply { blocks: kept, .. }) => {
                assert_eq!(kept, vec![blocks[0].clone(), blocks[2].clone()]);
            }
            other => panic!("unexpected verify outcome: {other:?}"),
        }
        // An all-invalid reply is dropped outright.
        let reply = Input::SyncReply {
            from: 3,
            blocks: vec![tamper(&blocks[0])],
        };
        assert!(verify(committee, reply).is_none());
    }

    #[test]
    fn pass_through_inputs_are_untouched() {
        let setup = TestCommittee::new(4, 11);
        let committee = setup.committee();
        let inputs = [
            Input::TimerFired { now: 9 },
            Input::TxBatchReceived {
                from: 0,
                transactions: vec![Transaction::benchmark(2)],
            },
            Input::SyncRequest {
                from: 1,
                references: Vec::new(),
            },
            Input::AckReceived {
                from: 1,
                reference: Block::genesis(AuthorityIndex(0)).reference(),
                voter: AuthorityIndex(1),
            },
        ];
        for input in inputs {
            assert!(!carries_claims(&input));
            let rendered = format!("{input:?}");
            let out = verify(committee, input).expect("pass-through").into_inner();
            assert_eq!(format!("{out:?}"), rendered);
        }
        let block = peer_blocks(&setup, 1)[0].clone();
        assert!(carries_claims(&Input::BlockReceived { from: 1, block }));
    }

    /// Whatever way a transaction came in, and whichever copy of it a
    /// reader holds, it carries its digest, and that is the hash of the
    /// bytes it points at.
    fn assert_digest_matches_bytes(transaction: &Transaction) {
        for copy in [transaction, &transaction.clone()] {
            assert_eq!(copy.carried_digest(), Some(blake2b_256(copy.as_bytes())));
        }
    }

    fn batch(ids: std::ops::Range<u64>) -> Vec<Transaction> {
        ids.map(Transaction::benchmark).collect()
    }

    /// A full round 1 in which each block carries three transactions.
    fn round_one_with_transactions(setup: &TestCommittee) -> Vec<Arc<Block>> {
        let mut dag = DagBuilder::new(setup.clone());
        dag.add_round(
            (0..4)
                .map(|author| {
                    BlockSpec::new(author)
                        .with_transactions(batch(10 * author as u64..10 * author as u64 + 3))
                })
                .collect(),
        );
        dag.store()
            .iter()
            .filter(|block| block.round() == 1)
            .cloned()
            .collect()
    }

    /// Every transaction `input` carries, those inside its blocks included.
    fn transactions_in(input: &Input) -> Vec<&Transaction> {
        match input {
            Input::BlockReceived { block, .. } | Input::ProposalReceived { block, .. } => {
                block.transactions().iter().collect()
            }
            Input::SyncReply { blocks, .. } => blocks
                .iter()
                .flat_map(|block| block.transactions())
                .collect(),
            other => carried_transactions(other).iter().collect(),
        }
    }

    #[test]
    fn a_decoded_block_carries_every_transaction_digest() {
        // Before anything asks for one: decoding hashed each transaction
        // to build the block's digest, and left the digest on its view.
        let blocks = round_one_with_transactions(&TestCommittee::new(4, 11));
        let Ok(Envelope::Block(framed)) =
            Envelope::from_bytes_exact(&Envelope::Block(blocks[0].clone()).to_bytes_vec())
        else {
            panic!("a block frame decodes");
        };
        let Ok(Envelope::Response(replied)) =
            Envelope::from_bytes_exact(&Envelope::Response(blocks.clone()).to_bytes_vec())
        else {
            panic!("a sync reply decodes");
        };
        let Ok(WalRecord::Block(logged)) =
            WalRecord::from_bytes_exact(&WalRecord::Block(blocks[1].clone()).to_bytes_vec())
        else {
            panic!("a block record decodes");
        };
        assert_eq!(replied.len(), blocks.len());
        for decoded in [vec![framed], replied, vec![logged]].concat() {
            assert_eq!(decoded.transactions().len(), 3);
            for tx in decoded.transactions() {
                assert_eq!(tx.carried_digest(), Some(blake2b_256(tx.as_bytes())));
            }
        }
    }

    #[test]
    fn every_entry_path_carries_the_digest_of_the_bytes_it_points_at() {
        let setup = TestCommittee::new(4, 11);
        let blocks = round_one_with_transactions(&setup);

        // The wire: a client batch, a forward, a block frame and a
        // multi-block sync reply, through the verify workers.
        let mut pipeline = AdmissionPipeline::new(
            AdmissionConfig {
                verify_workers: 2,
                queue_bound: 64,
            },
            setup.committee().clone(),
        );
        for envelope in [
            Envelope::TxBatch(batch(100..103)),
            Envelope::TxForward(batch(200..202)),
            Envelope::Block(blocks[0].clone()),
            Envelope::Response(blocks[1..].to_vec()),
        ] {
            pipeline.submit_frame(1, envelope.to_bytes_vec());
        }
        let released = pipeline.flush();
        assert_eq!(released.len(), 4);
        let carried: Vec<&Transaction> = released
            .iter()
            .flat_map(|input| transactions_in(input))
            .collect();
        // Each view points at exactly the payload that was sent.
        let sent: Vec<Transaction> = [batch(100..103), batch(200..202)]
            .into_iter()
            .flatten()
            .chain(
                blocks
                    .iter()
                    .flat_map(|block| block.transactions().to_vec()),
            )
            .collect();
        assert_eq!(carried.iter().copied().cloned().collect::<Vec<_>>(), sent);
        carried.into_iter().for_each(assert_digest_matches_bytes);

        // An own block, built over a pending batch.
        let mut engine = ValidatorEngine::honest(
            EngineConfig::new(AuthorityIndex(0), setup.clone()),
            Box::new(Committer::new(
                setup.committee().clone(),
                CommitterOptions::default(),
            )),
        );
        engine.handle(Input::TxBatchReceived {
            from: 0,
            transactions: batch(300..305),
        });
        let outputs = engine.handle(Input::TimerFired { now: 1 });
        let own = outputs
            .iter()
            .find_map(|output| match output {
                Output::Broadcast(Envelope::Block(block)) => Some(block),
                _ => None,
            })
            .expect("round 1 is produced");
        assert_eq!(own.transactions(), &batch(300..305)[..]);
        own.transactions()
            .iter()
            .for_each(assert_digest_matches_bytes);
    }

    #[test]
    fn inputs_with_nothing_to_verify_never_wait_for_a_worker() {
        let setup = TestCommittee::new(4, 11);
        let mut pipeline = AdmissionPipeline::new(
            AdmissionConfig {
                verify_workers: 2,
                queue_bound: 64,
            },
            setup.committee().clone(),
        );
        // `drain_ready` never blocks: had the ticks gone to a worker, some
        // of these 100 would find their verdict still on its way back.
        for now in 0..100 {
            pipeline.submit(Input::TimerFired { now });
            let ready = pipeline.drain_ready();
            assert_eq!(ready.len(), 1, "tick {now} was handed to a worker");
            assert!(matches!(*ready[0], Input::TimerFired { now: at } if at == now));
        }
        // A tick submitted behind a frame still keeps its place.
        let block = peer_blocks(&setup, 1)[0].clone();
        pipeline.submit_frame(1, Envelope::Block(block.clone()).to_bytes_vec());
        pipeline.submit(Input::TimerFired { now: 100 });
        let ready = pipeline.flush();
        assert_eq!(ready.len(), 2);
        assert!(matches!(&*ready[0], Input::BlockReceived { block: first, .. } if *first == block));
        assert!(matches!(*ready[1], Input::TimerFired { now: 100 }));
    }
}
