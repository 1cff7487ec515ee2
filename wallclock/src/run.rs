//! One run of one workload: several episodes, each a fresh cluster that is
//! set up, loaded, observed, checked and torn down; every metric is the
//! median of its per-episode values.
//!
//! Episodes exist because the cluster under test does not reach a steady
//! state: per-commit work grows with everything committed so far, so one
//! long window measures mostly how far that growth got, and repeats of it
//! spread three to five times wider than repeats of a short window on a
//! young cluster (README.md has the numbers).

use crate::cluster::{await_probe, Cluster};
use crate::frame::Connection;
use crate::load::{Batch, Inputs, Tracker};
use crate::observe::{observe, stream_disagreements, Capture, Observation, Shared, Window};
use crate::procfs;
use crate::spec::{
    Load, Workload, BATCH_INTERVAL_NS, CONNECTIONS, DRAIN_LIMIT_NS, END_TO_END, EPISODES,
    MAX_LATE_P99_MS, MAX_STARVED_EPISODES, WARMUP_NS,
};
use crate::stats::{median, percentile, sort};
use mahi_mahi::telemetry::{Stage, StageSnapshot};
use mahi_mahi::types::TestCommittee;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

pub struct RunOptions {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Measured seconds in total, split evenly over the episodes.
    pub seconds: u64,
    /// Keep validator 0's committed blocks of the last episode for the
    /// replay.
    pub tracing: bool,
    /// Where WAL files go; emptied of this run's files afterwards.
    pub data_dir: PathBuf,
}

/// A named measurement.
pub type Value = (&'static str, f64);

pub struct RunOutcome {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Every failed output check of every episode, discarded ones
    /// included; empty means the cluster's outputs were correct.
    pub violations: Vec<String>,
    /// Reasons the measurement itself is not to be trusted (a generator
    /// starved even after the retries): the run is invalid, not slow.
    pub warnings: Vec<String>,
    /// Transactions due (open loop) or sent (closed loop) in the windows.
    pub attempted: u64,
    /// Of those, refused at admission or not committed by the drain limit.
    pub failed: u64,
    pub end_to_end: Vec<Value>,
    /// The per-episode values the end-to-end medians were taken over.
    pub per_episode: Vec<(&'static str, Vec<f64>)>,
    /// Per-layer group A: observed from outside while the episodes ran.
    pub group_a: Vec<Value>,
    pub live_validators: usize,
    pub setup: TestCommittee,
    /// The last episode's committed blocks, when tracing.
    pub capture: Option<Capture>,
}

/// The value measured for `name`, or NaN when it was not measured.
pub fn value_of<'a>(values: impl IntoIterator<Item = &'a Value>, name: &str) -> f64 {
    values
        .into_iter()
        .find(|(metric, _)| *metric == name)
        .map_or(f64::NAN, |(_, value)| *value)
}

/// What the generator thread did and heard.
struct Generated {
    trackers: Vec<Tracker>,
    batches_sent: u64,
    error: Option<String>,
}

/// One connection's place in its schedule.
struct Lane {
    /// The number of the next batch to send.
    next: u64,
    /// Closed loop only: when each idle slot sends its next batch, earliest
    /// first. Every slot starts by thinking, so even the first batches are
    /// spread over the think interval.
    slots: BinaryHeap<Reverse<u64>>,
    /// Closed loop only: how many think times this connection has drawn.
    thinks: u64,
}

/// The load loop's state: one thread, every connection, never blocking.
struct Generator<'a> {
    connections: &'a mut [Connection],
    inputs: &'a Inputs,
    load: Load,
    window: Window,
    lanes: Vec<Lane>,
    out: Generated,
}

impl Generator<'_> {
    /// Sends what connection `index` owes and reads what it has received.
    /// Returns the nanoseconds until its next batch is due, if it knows.
    fn service(&mut self, index: usize) -> std::io::Result<Option<u64>> {
        let lane = &mut self.lanes[index];
        let mut until_due = None;
        loop {
            let now_ns = self.window.now_ns();
            let due_ns = match self.load {
                Load::Open => self.inputs.due_ns(index, lane.next),
                Load::Closed { .. } => match lane.slots.peek() {
                    Some(Reverse(due_ns)) => *due_ns,
                    None => break,
                },
            };
            if due_ns >= self.window.end_ns {
                break;
            }
            if due_ns > now_ns {
                until_due = Some(due_ns - now_ns);
                break;
            }
            lane.slots.pop();
            let frame = self.inputs.batch_frame(index, lane.next);
            let sent_ns = self.window.now_ns();
            self.connections[index].send(&frame)?;
            self.out.trackers[index].sent(due_ns, sent_ns, self.window.contains(due_ns));
            self.out.batches_sent += 1;
            lane.next += 1;
        }
        self.connections[index].flush()?;
        let (tracker, window) = (&mut self.out.trackers[index], self.window);
        let txs_per_batch = self.inputs.txs_per_batch();
        let mut resolved = 0;
        self.connections[index].poll(|receipt| {
            resolved += tracker.on_receipt(&receipt, window.now_ns(), txs_per_batch);
        })?;
        if matches!(self.load, Load::Closed { .. }) {
            // Each freed slot thinks, then sends: the classic closed-loop
            // client. The seeded think times keep the slots from marching
            // in one convoy per connection.
            let now_ns = self.window.now_ns();
            for _ in 0..resolved {
                let think_ns = self.inputs.think_ns(index, lane.thinks);
                lane.thinks += 1;
                lane.slots.push(Reverse(now_ns + think_ns));
            }
        }
        Ok(until_due)
    }

    /// Runs until every measured batch is resolved or the drain limit has
    /// passed.
    fn run(mut self) -> Generated {
        loop {
            let mut until_due = BATCH_INTERVAL_NS;
            for index in 0..self.connections.len() {
                match self.service(index) {
                    Ok(wait) => until_due = until_due.min(wait.unwrap_or(until_due)),
                    Err(error) => {
                        self.out.error = Some(format!("connection {index}: {error}"));
                        return self.out;
                    }
                }
            }
            let now_ns = self.window.now_ns();
            if now_ns >= self.window.end_ns {
                let pending: usize = self
                    .out
                    .trackers
                    .iter()
                    .map(Tracker::measured_unresolved)
                    .sum();
                if pending == 0 || now_ns >= self.window.end_ns + DRAIN_LIMIT_NS {
                    return self.out;
                }
            }
            std::thread::sleep(Duration::from_nanos(until_due.min(250_000)));
        }
    }
}

fn generate(
    connections: &mut [Connection],
    inputs: &Inputs,
    workload: &Workload,
    window: Window,
) -> Generated {
    let slots_per_lane = match workload.load {
        Load::Open => 0,
        Load::Closed { outstanding } => outstanding as u64,
    };
    Generator {
        lanes: (0..connections.len())
            .map(|lane| Lane {
                next: 0,
                slots: (0..slots_per_lane)
                    .map(|draw| Reverse(inputs.think_ns(lane, draw)))
                    .collect(),
                thinks: slots_per_lane,
            })
            .collect(),
        out: Generated {
            trackers: connections.iter().map(|_| Tracker::default()).collect(),
            batches_sent: 0,
            error: None,
        },
        connections,
        inputs,
        load: workload.load,
        window,
    }
    .run()
}

fn latencies_ms(batches: &[&Batch], from: impl Fn(&Batch) -> Option<u64>) -> Vec<f64> {
    let mut sample: Vec<f64> = batches
        .iter()
        .filter_map(|batch| Some((from(batch)? - batch.due_ns) as f64 / 1e6))
        .collect();
    sort(&mut sample);
    sample
}

/// The output checks that need no live cluster: receipts against batches,
/// committed ids against validator 0's stream, the verify stage's verdict on
/// honest peers. One message per failed check.
fn failed_output_checks(
    generated: &Generated,
    seen: &Observation,
    inputs: &Inputs,
    rejected: u64,
) -> Vec<String> {
    let mut violations: Vec<String> = generated.error.iter().cloned().collect();
    for (index, tracker) in generated.trackers.iter().enumerate() {
        violations.extend(
            tracker
                .violations
                .iter()
                .map(|problem| format!("connection {index}: {problem}")),
        );
        if tracker.unanswered() > 0 {
            violations.push(format!(
                "connection {index}: {} batches never got an Admission",
                tracker.unanswered()
            ));
        }
        let missing = tracker
            .batches
            .iter()
            .enumerate()
            .filter(|(_, batch)| batch.committed_ns.is_some() && batch.refused == 0)
            .flat_map(|(number, _)| {
                (0..inputs.txs_per_batch()).map(move |tx| inputs.ordinal(index, number as u64, tx))
            })
            .filter(|ordinal| !seen.ids.contains(*ordinal))
            .count();
        if missing > 0 {
            violations.push(format!(
                "connection {index}: {missing} transactions with a Committed notice are absent from validator 0's stream"
            ));
        }
    }
    if seen.ids.duplicates > 0 {
        violations.push(format!(
            "{} transactions appear twice in validator 0's stream",
            seen.ids.duplicates
        ));
    }
    if seen.ids.foreign > 0 {
        violations.push(format!(
            "{} committed transactions were never generated",
            seen.ids.foreign
        ));
    }
    if rejected > 0 {
        violations.push(format!(
            "verify stage rejected {rejected} inputs from honest peers"
        ));
    }
    violations
}

/// What one episode measured and found.
struct Episode {
    violations: Vec<String>,
    attempted: u64,
    failed: u64,
    /// Every end-to-end metric, then every group A metric.
    values: Vec<Value>,
    /// p99 of send − due over the measured batches: the generator's health.
    late_p99_ms: f64,
    live_validators: usize,
    setup: TestCommittee,
    capture: Option<Capture>,
}

/// One episode: a fresh cluster from key generation to teardown.
fn episode(
    options: &RunOptions,
    dir: &Path,
    window_ns: u64,
    tracing: bool,
) -> std::io::Result<Episode> {
    let workload = options.workload;
    let inputs = Inputs::new(options.seed, workload);

    // Set-up, timed from key generation to the probe batch's commit notice.
    let started = Instant::now();
    let cluster = Cluster::start(options.seed, workload.silent, dir)?;
    let mut connections = (0..CONNECTIONS)
        .map(|validator| Connection::connect(cluster.addresses[validator]))
        .collect::<std::io::Result<Vec<_>>>()?;
    await_probe(&mut connections[0], &inputs, Duration::from_secs(60))?;
    let setup_s = started.elapsed().as_secs_f64();

    let window = Window {
        origin: Instant::now(),
        start_ns: WARMUP_NS,
        end_ns: WARMUP_NS + window_ns,
    };
    let shared = Shared::default();
    let (generated, seen): (Generated, Observation) = std::thread::scope(|scope| {
        let observer = std::thread::Builder::new()
            .name("wc-observer".into())
            .spawn_scoped(scope, || {
                observe(&cluster, &inputs, window, &shared, tracing)
            })
            .expect("spawn observer thread");
        let generated = generate(&mut connections, &inputs, workload, window);
        // Receipts on connection 1 come from validator 1; give validator
        // 0's stream a moment to cover the same commits before checking
        // ids against it. One more than the batches': the set-up probe.
        let covered: u64 = generated
            .trackers
            .iter()
            .flat_map(|tracker| &tracker.batches)
            .filter(|batch| batch.committed_ns.is_some())
            .map(|batch| u64::from(batch.accepted))
            .sum();
        let deadline = Instant::now() + Duration::from_secs(2);
        while shared.committed_by_v0.load(Ordering::Relaxed) < covered + 1
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        shared.stop.store(true, Ordering::SeqCst);
        (
            generated,
            observer.join().expect("observer thread panicked"),
        )
    });

    // Gauges and files, read before the cluster goes away.
    let mut stages = StageSnapshot::default();
    let (mut verify_peak, mut rejected, mut pool_peak, mut rejected_full) = (0, 0, 0, 0);
    let mut wal_bytes_end = 0;
    for node in &cluster.nodes {
        let metrics = node.handle.metrics();
        stages.merge(&metrics.stage_snapshot());
        verify_peak = verify_peak.max(metrics.verify_peak_depth());
        rejected += metrics.rejected();
        pool_peak = pool_peak.max(metrics.peak_occupancy());
        rejected_full += metrics.rejected_full();
        wal_bytes_end += std::fs::metadata(&node.wal_path).map_or(0, |meta| meta.len());
    }
    let live_validators = cluster.nodes.len();
    drop(connections);
    let setup = cluster.setup.clone();
    let mut violations = stream_disagreements(&cluster, &seen.streams);
    cluster.stop();
    std::fs::remove_dir_all(dir)?;

    violations.extend(failed_output_checks(&generated, &seen, &inputs, rejected));

    // Measurements.
    let all: Vec<&Batch> = generated
        .trackers
        .iter()
        .flat_map(|tracker| &tracker.batches)
        .collect();
    let measured: Vec<&Batch> = all.iter().copied().filter(|batch| batch.measured).collect();
    let attempted = measured.len() as u64 * inputs.txs_per_batch() as u64;
    let succeeded: u64 = measured
        .iter()
        .filter(|batch| batch.committed_ns.is_some())
        .map(|batch| u64::from(batch.accepted))
        .sum();
    let failed = attempted - succeeded;
    let committed_in_window: u64 = all
        .iter()
        .filter(|batch| batch.committed_ns.is_some_and(|at| window.contains(at)))
        .map(|batch| u64::from(batch.accepted))
        .sum();
    let ktx = committed_in_window as f64 / 1000.0;
    let late_p99_ms = percentile(&latencies_ms(&measured, |batch| Some(batch.sent_ns)), 0.99);
    let commit_ms = latencies_ms(&measured, |batch| batch.committed_ns);
    let admission_ms = latencies_ms(&measured, |batch| batch.admitted_ns);
    let third = window_ns / 3;
    let third_p50 = |from_ns: u64| {
        let part: Vec<&Batch> = measured
            .iter()
            .copied()
            .filter(|batch| (from_ns..from_ns + third).contains(&batch.due_ns))
            .collect();
        percentile(&latencies_ms(&part, |batch| batch.committed_ns), 0.5)
    };
    let cpu = seen.at_end.cpu.since(seen.at_start.cpu);
    let observed_s = (seen.at_end.at_ns - seen.at_start.at_ns) as f64 / 1e9;
    let rounds_of =
        |snapshot: &crate::observe::Snapshot| snapshot.rounds.first().copied().unwrap_or(0) as f64;
    let rounds_per_s = (rounds_of(&seen.at_end) - rounds_of(&seen.at_start)) / observed_s;
    let p50_ms = percentile(&commit_ms, 0.5);
    let harness_cpu: f64 = seen
        .at_end
        .threads
        .iter()
        .filter(|thread| {
            thread.name == "wc-observer" || thread.tid == u64::from(std::process::id())
        })
        .filter_map(|later| {
            let earlier = seen.at_start.threads.iter().find(|t| t.tid == later.tid)?;
            Some(later.cpu.since(earlier.cpu).total())
        })
        .sum();
    let stage_p50_ms = |stage| stages.stage(stage).p50_s() * 1000.0;
    let in_window = seen.in_window;

    let values = vec![
        (
            "committed_tps",
            committed_in_window as f64 / window.seconds(),
        ),
        ("commit_latency_p50_ms", p50_ms),
        ("commit_latency_p95_ms", percentile(&commit_ms, 0.95)),
        ("cpu_ms_per_ktx", cpu.total() / ktx),
        ("peak_rss_mb", seen.peak_rss_mb),
        ("setup_s", setup_s),
        ("node.rounds_per_s", rounds_per_s),
        ("node.commit_latency_rounds", p50_ms / 1000.0 * rounds_per_s),
        ("node.admission_rtt_p50_ms", percentile(&admission_ms, 0.5)),
        (
            "node.txs_per_block",
            in_window.transactions as f64 / in_window.blocks as f64,
        ),
        (
            "node.blocks_per_commit",
            in_window.blocks as f64 / in_window.commits as f64,
        ),
        (
            "node.leaders_per_s",
            in_window.commits as f64 / window.seconds(),
        ),
        (
            "node.latency_drift_ratio",
            third_p50(window.start_ns + 2 * third) / third_p50(window.start_ns),
        ),
        ("node.commit_latency_p99_ms", percentile(&commit_ms, 0.99)),
        ("node.cpu_sys_share", cpu.system / cpu.total()),
        ("node.threads", seen.at_end.threads.len() as f64),
        (
            "node.ctx_switches_per_ktx",
            procfs::context_switches_between(&seen.at_start.threads, &seen.at_end.threads) as f64
                / ktx,
        ),
        ("core.admission.verify_peak_depth", verify_peak as f64),
        ("core.admission.rejected", rejected as f64),
        ("core.mempool.peak_occupancy", pool_peak as f64),
        ("core.mempool.rejected_full", rejected_full as f64),
        (
            "telemetry.stage.verified_p50_ms",
            stage_p50_ms(Stage::Verified),
        ),
        (
            "telemetry.stage.resequenced_p50_ms",
            stage_p50_ms(Stage::Resequenced),
        ),
        (
            "telemetry.stage.sequenced_p50_ms",
            stage_p50_ms(Stage::Sequenced),
        ),
        ("wal.file_mb_end", wal_bytes_end as f64 / (1024.0 * 1024.0)),
        (
            "wal.bytes_per_tx",
            seen.wal_appended_bytes as f64 / committed_in_window as f64,
        ),
        ("gen.late_p99_ms", late_p99_ms),
        ("gen.batches_sent", generated.batches_sent as f64),
        ("gen.cpu_share", harness_cpu / cpu.total()),
        ("gen.failed_share", failed as f64 / attempted as f64),
        (
            "gen.host_steal_share",
            (seen.at_end.host_steal_ms - seen.at_start.host_steal_ms) / (observed_s * 1000.0),
        ),
    ];
    Ok(Episode {
        violations,
        attempted,
        failed,
        values,
        late_p99_ms,
        live_validators,
        setup,
        capture: seen.capture,
    })
}

/// Runs the workload: episodes until `EPISODES` of them were measured with
/// a generator that kept its schedule, medians across those.
///
/// # Errors
///
/// I/O failures while setting a cluster up. Anything that goes wrong once
/// load is on is a violation in the outcome instead.
pub fn run(options: &RunOptions) -> std::io::Result<RunOutcome> {
    let run_dir = options
        .data_dir
        .join(format!("{}-{}", options.workload.name, options.seed));
    if run_dir.exists() {
        std::fs::remove_dir_all(&run_dir)?;
    }
    let window_ns = options.seconds * 1_000_000_000 / EPISODES as u64;
    // A stall of the host starves the generator along with the cluster; an
    // episode measured through one says how the host was, not how the
    // cluster is. Such episodes are run again, a bounded number of times;
    // lateness that outlasts the retries is the cluster's doing and stays in.
    let (mut kept, mut discarded): (Vec<Episode>, Vec<Episode>) = (Vec::new(), Vec::new());
    while kept.len() < EPISODES {
        let tracing = options.tracing && kept.len() + 1 == EPISODES;
        let dir = run_dir.join(format!("episode-{}", kept.len() + discarded.len()));
        let mut episode = episode(options, &dir, window_ns, tracing)?;
        if episode.late_p99_ms > MAX_LATE_P99_MS && discarded.len() < MAX_STARVED_EPISODES {
            episode.capture = None; // a traced retry captures afresh
            discarded.push(episode);
        } else {
            kept.push(episode);
        }
    }
    std::fs::remove_dir_all(&run_dir)?;
    let all = || kept.iter().chain(&discarded);
    let violations: Vec<String> = all().flat_map(|e| &e.violations).cloned().collect();
    let (attempted, failed) = (
        all().map(|e| e.attempted).sum(),
        all().map(|e| e.failed).sum(),
    );
    let still_late = kept
        .iter()
        .filter(|episode| episode.late_p99_ms > MAX_LATE_P99_MS)
        .count();
    let warnings = (still_late > 0)
        .then(|| {
            format!(
                "the generator ran late (p99 of send − due above {MAX_LATE_P99_MS} ms) in {still_late} of the {EPISODES} measured episodes, after {} were discarded and run again",
                discarded.len()
            )
        })
        .into_iter()
        .collect();
    let discarded = discarded.len();

    let per_episode: Vec<(&'static str, Vec<f64>)> = kept[0]
        .values
        .iter()
        .enumerate()
        .map(|(index, (name, _))| (*name, kept.iter().map(|e| e.values[index].1).collect()))
        .collect();
    let mut medians: Vec<Value> = per_episode
        .iter()
        .map(|(name, values)| (*name, median(values)))
        .collect();
    assert!(
        medians
            .iter()
            .zip(&END_TO_END)
            .all(|((name, _), metric)| *name == metric.name),
        "an episode lists the end-to-end metrics first, in the spec's order"
    );
    let mut group_a = medians.split_off(END_TO_END.len());
    group_a.push(("gen.episodes_discarded", discarded as f64));
    let last = kept.pop().expect("EPISODES is at least one");
    Ok(RunOutcome {
        workload: options.workload,
        seed: options.seed,
        warnings,
        violations,
        attempted,
        failed,
        end_to_end: medians,
        per_episode: per_episode.into_iter().take(END_TO_END.len()).collect(),
        group_a,
        live_validators: last.live_validators,
        setup: last.setup,
        capture: last.capture,
    })
}
