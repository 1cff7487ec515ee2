//! The traced run's second half: the run's own blocks, replayed
//! single-threaded through each layer's public functions, a span around
//! every call.
//!
//! The cluster is stopped before this starts, so a span's duration is the
//! layer's own processor time on an otherwise idle machine — what the
//! layer costs, not what it cost while 40 threads shared two cores. Only
//! blocks whose commit the observer saw inside the window count toward the
//! metrics; earlier blocks are still inserted so every parent resolves.

use crate::alloc::count_allocations;
use crate::observe::Capture;
use crate::run::{value_of, RunOutcome, Value};
use crate::stats::{percentile, sort};
use mahi_mahi::core::{
    AdmissionConfig, AdmissionPipeline, BalanceLedger, CommitDecision, CommitSequencer, Committer,
    ExecutionState, LeaderStatus, Mempool, ProtocolCommitter, WalRecord,
};
use mahi_mahi::dag::{BlockStore, InsertResult};
use mahi_mahi::node::NodeConfig;
use mahi_mahi::transport::Transport;
use mahi_mahi::types::{
    AuthorityIndex, Block, BlockRef, Committee, Decode, Encode, Envelope, Round, Transaction,
};
use mahi_mahi::wal::FileWal;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this call ran inside, if any.
    pub parent: Option<usize>,
    /// The block the call worked on: the identifier spans of one block share.
    pub block: Option<BlockRef>,
    /// Transactions, frames or rounds the call covered.
    pub items: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory until the replay ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `work` as a top-level span; returns its result and the span's
    /// index.
    fn span<T>(
        &mut self,
        name: &'static str,
        block: Option<BlockRef>,
        items: u64,
        work: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start_ns = self.now_ns();
        let result = work();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            block,
            items,
        });
        (result, self.spans.len() - 1)
    }

    /// Nanoseconds spent in spans called `name` that satisfy `keep`.
    fn total_ns(&self, name: &str, keep: impl Fn(&Span) -> bool) -> u64 {
        self.spans
            .iter()
            .filter(|span| span.name == name && keep(span))
            .map(Span::ns)
            .sum()
    }
}

/// A committer that notes when each `try_decide` ran, so the sequencer's
/// span gets a real child span and its self time is measured, not inferred.
struct TimedCommitter {
    inner: Committer,
    calls: Arc<Mutex<Vec<(Instant, Instant)>>>,
}

impl ProtocolCommitter for TimedCommitter {
    fn committee(&self) -> &Committee {
        self.inner.committee()
    }

    fn name(&self) -> &'static str {
        ProtocolCommitter::name(&self.inner)
    }

    fn try_decide(&self, store: &BlockStore, from_round: Round) -> Vec<LeaderStatus> {
        let started = Instant::now();
        let statuses = self.inner.try_decide(store, from_round);
        self.calls
            .lock()
            .expect("no holder of this lock can panic")
            .push((started, Instant::now()));
        statuses
    }
}

/// What the replay produced.
pub struct Replay {
    /// Per-layer group B.
    pub metrics: Vec<Value>,
    pub spans: Vec<Span>,
    /// Replayed outputs that differ from the live run's.
    pub violations: Vec<String>,
}

/// One-way transport probes are sequential, so a few thousand frames give
/// a steady median; more would only lengthen the traced run.
const MAX_ONE_WAY_PROBES: usize = 2_000;

/// Replays `capture` through every layer. `dir` receives the replay's WAL.
///
/// # Errors
///
/// I/O failures opening the replay WAL or the probe transports.
pub fn replay(outcome: &RunOutcome, capture: &Capture, dir: &Path) -> std::io::Result<Replay> {
    let setup = &outcome.setup;
    let committee = setup.committee();
    let local = NodeConfig::local(0, setup.clone());
    let mut violations = Vec::new();
    let mut tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };

    let window_blocks: Vec<&Arc<Block>> = capture
        .blocks
        .iter()
        .filter(|(_, in_window)| *in_window)
        .map(|(block, _)| block)
        .collect();
    let window_refs: BTreeSet<BlockRef> = window_blocks.iter().map(|b| b.reference()).collect();
    let in_window = |span: &Span| span.block.is_some_and(|b| window_refs.contains(&b));
    let blocks = window_blocks.len() as f64;
    let txs: u64 = window_blocks
        .iter()
        .map(|block| block.transactions().len() as u64)
        .sum();
    let rounds = window_blocks
        .iter()
        .map(|block| block.round())
        .collect::<BTreeSet<_>>()
        .len() as f64;

    // types + crypto: the wire codec and block validation, per block.
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(window_blocks.len());
    let mut decode_allocations = 0;
    for block in &window_blocks {
        let reference = Some(block.reference());
        let items = block.transactions().len() as u64;
        let envelope = Envelope::Block(Arc::clone(block));
        let (bytes, _) = tracer.span("types.encode", reference, items, || envelope.to_bytes_vec());
        let ((decoded, allocations), _) = tracer.span("types.decode", reference, items, || {
            count_allocations(|| Envelope::from_bytes_exact(&bytes))
        });
        decode_allocations += allocations;
        if !matches!(&decoded, Ok(Envelope::Block(copy)) if copy.reference() == block.reference()) {
            violations.push(format!("{} does not survive the codec", block.reference()));
        }
        let (verdict, _) = tracer.span("crypto.block_verify", reference, 1, || {
            block.verify(committee)
        });
        if let Err(error) = verdict {
            violations.push(format!(
                "{} fails Block::verify: {error}",
                block.reference()
            ));
        }
        tracer.span("crypto.digest", reference, items, || {
            for transaction in block.transactions() {
                black_box(transaction.digest());
            }
        });
        frames.push(bytes);
    }
    let wire_bytes: usize = frames.iter().map(Vec::len).sum();

    // core.admission: the verify stage as the node configures it.
    let mut pipeline = AdmissionPipeline::new(
        AdmissionConfig {
            verify_workers: local.verify_workers,
            queue_bound: local.verify_queue_bound,
        },
        committee.clone(),
    );
    let inputs: Vec<Vec<u8>> = frames.clone();
    let (released, admission) =
        tracer.span("core.admission.pipeline", None, frames.len() as u64, || {
            let mut released = 0;
            for frame in inputs {
                while !pipeline.has_capacity() {
                    released += pipeline.drain_ready().len();
                    std::thread::yield_now();
                }
                pipeline.submit_frame(1, frame);
            }
            released + pipeline.flush().len()
        });
    if released != frames.len() || pipeline.rejected() != 0 {
        violations.push(format!(
            "admission released {released} of {} honest frames, rejected {}",
            frames.len(),
            pipeline.rejected()
        ));
    }
    drop(pipeline);

    // core.mempool: every transaction in, then out again in block payloads.
    let mut mempool = Mempool::new(local.mempool);
    let mut mempool_allocations = 0;
    for (tag, block) in window_blocks.iter().enumerate() {
        if block.transactions().is_empty() {
            continue;
        }
        let reference = Some(block.reference());
        let items = block.transactions().len() as u64;
        let owned: Vec<Transaction> = block.transactions().to_vec();
        let ((accepted, allocations), _) =
            tracer.span("core.mempool.submit", reference, items, || {
                count_allocations(|| {
                    owned
                        .into_iter()
                        .map(|transaction| mempool.submit(transaction, tag as u64, 7, tag as u64))
                        .filter(|result| result.is_accepted())
                        .count() as u64
                })
            });
        mempool_allocations += allocations;
        let ((drained, allocations), _) =
            tracer.span("core.mempool.next_payload", reference, items, || {
                count_allocations(|| {
                    let mut drained = 0;
                    loop {
                        let (payload, tags) = mempool.next_payload();
                        if payload.is_empty() {
                            return drained;
                        }
                        drained += black_box(&tags).len() as u64;
                        black_box(payload);
                    }
                })
            });
        mempool_allocations += allocations;
        if accepted != items || drained != items {
            violations.push(format!(
                "mempool accepted {accepted} and returned {drained} of {items} transactions of {}",
                block.reference()
            ));
        }
    }

    // dag + core: grow the DAG round by round from genesis and run the
    // commit rule after every block, as the engine does after every input.
    // The store seeds its own genesis blocks; the first commit linearizes
    // them, so the capture holds them too.
    let mut ordered: Vec<&Arc<Block>> = capture
        .blocks
        .iter()
        .map(|(block, _)| block)
        .filter(|block| block.round() > 0)
        .collect();
    ordered.sort_by_key(|block| (block.round(), block.author()));
    let calls = Arc::new(Mutex::new(Vec::new()));
    let mut sequencer = CommitSequencer::new(TimedCommitter {
        inner: Committer::new(committee.clone(), local.options),
        calls: Arc::clone(&calls),
    });
    if let Some(depth) = local.gc_depth {
        sequencer = sequencer.with_gc_depth(depth);
    }
    let mut store = BlockStore::new(committee.size(), committee.quorum_threshold());
    let mut ledger = BalanceLedger::new();
    let mut replayed_leaders = Vec::new();
    let (mut never_inserted, mut skips, mut commits) = (0u64, 0u64, 0u64);
    for block in &ordered {
        let reference = Some(block.reference());
        let (inserted, _) = tracer.span("dag.insert", reference, 1, || {
            store.insert(Arc::clone(block))
        });
        if !matches!(inserted, Ok(InsertResult::Inserted(_))) {
            never_inserted += 1;
        }
        let (decisions, parent) = tracer.span("core.sequencer.try_commit", reference, 1, || {
            sequencer.try_commit(&store)
        });
        let origin = tracer.origin;
        for (started, ended) in calls.lock().expect("no holder can panic").drain(..) {
            tracer.spans.push(Span {
                name: "core.committer.try_decide",
                start_ns: (started - origin).as_nanos() as u64,
                end_ns: (ended - origin).as_nanos() as u64,
                parent: Some(parent),
                block: reference,
                items: 1,
            });
        }
        let counted = window_refs.contains(&block.reference());
        for decision in decisions {
            match decision {
                CommitDecision::Skip(..) => skips += u64::from(counted),
                CommitDecision::Commit(sub_dag) => {
                    commits += u64::from(counted);
                    replayed_leaders.push((sub_dag.position, sub_dag.leader));
                    let items = sub_dag.transactions().count() as u64;
                    tracer.span("core.execution.apply", reference, items, || {
                        black_box(ledger.apply(&sub_dag));
                    });
                }
            }
        }
        // The engine's store compaction, at the engine's cadence.
        if local.gc_depth.is_some() && sequencer.gc_floor() >= store.gc_cutoff() + 64 {
            store.compact(sequencer.gc_floor());
        }
    }
    if never_inserted > 0 {
        violations.push(format!(
            "{never_inserted} committed blocks could not be inserted in round order"
        ));
    }
    let agreed = replayed_leaders
        .iter()
        .zip(&capture.leaders)
        .take_while(|(replayed, live)| replayed == live)
        .count();
    if agreed < replayed_leaders.len().min(capture.leaders.len()) {
        violations.push(format!(
            "the replayed commit sequence leaves the live one at commit {agreed}"
        ));
    }
    let applied_txs: u64 = tracer
        .spans
        .iter()
        .filter(|span| span.name == "core.execution.apply" && in_window(span))
        .map(|span| span.items)
        .sum();

    // wal: every block appended, one sync per own block, as the node does.
    let wal_path = dir.join("replay.wal");
    let mut wal =
        FileWal::open_path(&wal_path).map_err(|e| std::io::Error::other(e.to_string()))?;
    let mut sync_us = Vec::new();
    for block in &window_blocks {
        let reference = Some(block.reference());
        let record = WalRecord::Block(Arc::clone(block)).to_bytes_vec();
        let (appended, _) = tracer.span("wal.append", reference, 1, || wal.append(&record));
        if block.author() == AuthorityIndex(0) {
            let (synced, index) = tracer.span("wal.sync", reference, 1, || wal.sync());
            sync_us.push(tracer.spans[index].ns() as f64 / 1e3);
            if let Err(error) = synced {
                violations.push(format!("wal sync failed: {error}"));
            }
        }
        if let Err(error) = appended {
            violations.push(format!("wal append failed: {error}"));
        }
    }
    drop(wal);
    sort(&mut sync_us);

    // transport: loopback TCP, this process's clock on both ends.
    let (one_way_us, broadcast_mb_per_s) = transport_probes(&mut tracer, &frames)?;

    // Attribution: each layer's cost times how many validators pay it, per
    // thousand transactions. `n` validators are up; every block is encoded
    // once for the wire and once per validator for its WAL record, decoded
    // and verified by the n − 1 that receive it, inserted, logged, run
    // through the commit rule and executed by all n, and its transactions
    // pass one mempool. Syncs wait on the disk and transport sends on the
    // kernel; neither is processor time of a layer, so both stay out.
    let n = outcome.live_validators as f64;
    let ns = |name: &str| tracer.total_ns(name, in_window) as f64;
    let attributed_ns = (1.0 + n) * ns("types.encode")
        + (n - 1.0) * (ns("types.decode") + ns("crypto.block_verify"))
        + n * (ns("dag.insert")
            + ns("wal.append")
            + ns("core.sequencer.try_commit")
            + ns("core.execution.apply"))
        + ns("core.mempool.submit")
        + ns("core.mempool.next_payload");
    let attributed_ms_per_ktx = attributed_ns / 1e6 / (txs as f64 / 1000.0);
    let try_decide_ns = ns("core.committer.try_decide");

    let metrics = vec![
        ("types.encode_ns_per_block", ns("types.encode") / blocks),
        ("types.decode_ns_per_block", ns("types.decode") / blocks),
        (
            "types.decode_allocs_per_tx",
            decode_allocations as f64 / txs as f64,
        ),
        ("types.wire_bytes_per_tx", wire_bytes as f64 / txs as f64),
        (
            "crypto.block_verify_us_per_block",
            ns("crypto.block_verify") / blocks / 1e3,
        ),
        ("crypto.digest_ns_per_tx", ns("crypto.digest") / txs as f64),
        (
            "core.admission.frames_per_s",
            frames.len() as f64 / (tracer.spans[admission].ns() as f64 / 1e9),
        ),
        (
            "core.mempool.submit_ns_per_tx",
            ns("core.mempool.submit") / txs as f64,
        ),
        (
            "core.mempool.next_payload_ns_per_tx",
            ns("core.mempool.next_payload") / txs as f64,
        ),
        (
            "core.mempool.allocs_per_tx",
            mempool_allocations as f64 / txs as f64,
        ),
        ("dag.insert_ns_per_block", ns("dag.insert") / blocks),
        (
            "core.committer.try_decide_us_per_round",
            try_decide_ns / rounds / 1e3,
        ),
        (
            "core.committer.skip_share",
            skips as f64 / (skips + commits) as f64,
        ),
        (
            "core.sequencer.try_commit_us_per_round",
            (ns("core.sequencer.try_commit") - try_decide_ns) / rounds / 1e3,
        ),
        (
            "core.execution.apply_ns_per_tx",
            ns("core.execution.apply") / applied_txs as f64,
        ),
        ("wal.append_ns_per_block", ns("wal.append") / blocks),
        ("wal.sync_us_p50", percentile(&sync_us, 0.5)),
        ("transport.one_way_us_p50", one_way_us),
        ("transport.broadcast_mb_per_s", broadcast_mb_per_s),
        ("node.attributed_cpu_ms_per_ktx", attributed_ms_per_ktx),
        (
            "node.unattributed_cpu_share",
            1.0 - attributed_ms_per_ktx / value_of(&outcome.end_to_end, "cpu_ms_per_ktx"),
        ),
        ("trace.blocks_replayed", capture.blocks.len() as f64),
        ("trace.spans", tracer.spans.len() as f64),
    ];
    Ok(Replay {
        metrics,
        spans: tracer.spans,
        violations,
    })
}

/// Waits for one frame on `transport`'s incoming channel.
fn receive(transport: &Transport) -> std::io::Result<Vec<u8>> {
    transport
        .incoming()
        .recv_timeout(Duration::from_secs(10))
        .map(|(_, frame)| frame)
        .map_err(|_| std::io::Error::other("a probe frame never arrived"))
}

/// One sender, three receivers. Returns the median one-way time of the
/// captured frames sent one at a time (µs), and the rate at which the
/// whole set, broadcast back to back, reaches all three peers (MB/s of
/// distinct payload).
fn transport_probes(tracer: &mut Tracer, frames: &[Vec<u8>]) -> std::io::Result<(f64, f64)> {
    let sender = Transport::bind(0, "127.0.0.1:0")?;
    let peers: Vec<Transport> = (1..4)
        .map(|id| Transport::bind(id, "127.0.0.1:0"))
        .collect::<std::io::Result<_>>()?;
    for peer in &peers {
        sender.connect(peer.id(), peer.local_addr());
    }
    // The first frame pays for the connection; keep it out of the sample.
    sender.broadcast(vec![0]);
    for peer in &peers {
        receive(peer)?;
    }

    let mut one_way_us = Vec::new();
    for frame in frames.iter().take(MAX_ONE_WAY_PROBES) {
        let copy = frame.clone();
        let (arrived, index) = tracer.span("transport.one_way", None, 1, || {
            sender.send(1, copy);
            receive(&peers[0])
        });
        arrived?;
        one_way_us.push(tracer.spans[index].ns() as f64 / 1e3);
    }
    sort(&mut one_way_us);

    let copies: Vec<Vec<u8>> = frames.to_vec();
    let (delivered, index) = tracer.span("transport.broadcast", None, frames.len() as u64, || {
        std::thread::scope(|scope| {
            let receivers: Vec<_> = peers
                .iter()
                .map(|peer| {
                    scope.spawn(move || (0..frames.len()).try_for_each(|_| receive(peer).map(drop)))
                })
                .collect();
            for copy in copies {
                sender.broadcast(copy);
            }
            receivers
                .into_iter()
                .try_for_each(|receiver| receiver.join().expect("receiver thread panicked"))
        })
    });
    delivered?;
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let seconds = tracer.spans[index].ns() as f64 / 1e9;
    Ok((
        percentile(&one_way_us, 0.5),
        bytes as f64 / (1024.0 * 1024.0) / seconds,
    ))
}

/// Writes the spans as one JSON document. Each span carries the block it
/// worked on (`null` for whole-phase spans) and its parent's index.
///
/// # Errors
///
/// I/O failures creating or writing the file.
pub fn write_trace(path: &Path, outcome: &RunOutcome, spans: &[Span]) -> std::io::Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        file,
        "{{\"workload\":\"{}\",\"seed\":{},\"spans\":[",
        outcome.workload.name, outcome.seed
    )?;
    for (index, span) in spans.iter().enumerate() {
        let separator = if index + 1 < spans.len() { "," } else { "" };
        let parent = span.parent.map_or("null".into(), |p| p.to_string());
        let block = span.block.map_or("null".into(), |b| format!("\"{b}\""));
        writeln!(
            file,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"block\":{block},\"items\":{}}}{separator}",
            span.name, span.start_ns, span.end_ns, span.items
        )?;
    }
    writeln!(file, "]}}")?;
    file.flush()
}
