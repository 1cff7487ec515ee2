//! Simulation configuration.

use mahimahi_baselines::{CordialMinersCommitter, CordialMinersOptions, TuskCommitter};
use mahimahi_core::{
    Committer, CommitterOptions, EngineConfig, IngressConfig, MempoolConfig, ProtocolCommitter,
};
use mahimahi_net::time::{self, Time};
use mahimahi_types::{AuthorityIndex, Committee, Round, TestCommittee};

/// Which consensus protocol a run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolChoice {
    /// Mahi-Mahi with 5-round waves.
    MahiMahi5 {
        /// Leader slots per round (the paper evaluates 1–3, default 2).
        leaders: usize,
    },
    /// Mahi-Mahi with 4-round waves.
    MahiMahi4 {
        /// Leader slots per round.
        leaders: usize,
    },
    /// Cordial Miners (5-round non-overlapping waves, one leader).
    CordialMiners,
    /// Tusk over a certified DAG (3 certified rounds per wave).
    Tusk,
}

impl ProtocolChoice {
    /// Instantiates the committer for `committee`.
    pub fn committer(&self, committee: Committee) -> Box<dyn ProtocolCommitter> {
        match *self {
            ProtocolChoice::MahiMahi5 { leaders } => Box::new(Committer::new(
                committee,
                CommitterOptions::mahi_mahi_5(leaders),
            )),
            ProtocolChoice::MahiMahi4 { leaders } => Box::new(Committer::new(
                committee,
                CommitterOptions::mahi_mahi_4(leaders),
            )),
            ProtocolChoice::CordialMiners => Box::new(CordialMinersCommitter::new(
                committee,
                CordialMinersOptions::default(),
            )),
            ProtocolChoice::Tusk => Box::new(TuskCommitter::new(committee)),
        }
    }

    /// Whether blocks must be certified (consistent broadcast) before
    /// entering the DAG.
    pub fn certified(&self) -> bool {
        matches!(self, ProtocolChoice::Tusk)
    }

    /// The protocol's leader-slot timetable, used by attack strategies that
    /// target elected leaders (the coin is deterministic per round, so an
    /// omniscient attacker can precompute every election).
    pub fn leader_schedule(&self) -> LeaderSchedule {
        match *self {
            ProtocolChoice::MahiMahi5 { leaders } => LeaderSchedule {
                wave_length: 5,
                leaders,
                overlapping: true,
            },
            ProtocolChoice::MahiMahi4 { leaders } => LeaderSchedule {
                wave_length: 4,
                leaders,
                overlapping: true,
            },
            ProtocolChoice::CordialMiners => LeaderSchedule {
                wave_length: 5,
                leaders: 1,
                overlapping: false,
            },
            ProtocolChoice::Tusk => LeaderSchedule {
                wave_length: 3,
                leaders: 1,
                overlapping: false,
            },
        }
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> String {
        match self {
            ProtocolChoice::MahiMahi5 { leaders } => format!("Mahi-Mahi-5 ({leaders}L)"),
            ProtocolChoice::MahiMahi4 { leaders } => format!("Mahi-Mahi-4 ({leaders}L)"),
            ProtocolChoice::CordialMiners => "Cordial-Miners".to_string(),
            ProtocolChoice::Tusk => "Tusk".to_string(),
        }
    }
}

/// When each protocol opens leader slots, for attacks that target them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaderSchedule {
    /// Rounds per wave (the coin for a propose round opens `wave_length - 1`
    /// rounds later).
    pub wave_length: u64,
    /// Leader slots per propose round.
    pub leaders: usize,
    /// Whether every round proposes (Mahi-Mahi's overlapping waves) or only
    /// the first round of each wave (Cordial Miners, Tusk).
    pub overlapping: bool,
}

impl LeaderSchedule {
    /// Whether `round` opens leader slots under this schedule.
    pub fn is_propose_round(&self, round: Round) -> bool {
        round >= 1 && (self.overlapping || (round - 1).is_multiple_of(self.wave_length))
    }

    /// The round whose coin elects `propose_round`'s leaders.
    pub fn certify_round(&self, propose_round: Round) -> Round {
        propose_round + self.wave_length - 1
    }
}

/// Validator behavior, assigned per authority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Behavior {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Stops participating entirely at the given round (0 = never starts;
    /// the paper's crash-fault experiments use 0).
    Crashed {
        /// First round at which the validator is silent.
        from_round: Round,
    },
    /// Down for a window of simulated time (messages in the window are
    /// lost), then restarts and catches up through the synchronizer.
    Offline {
        /// Outage start.
        from: Time,
        /// Restart time.
        until: Time,
    },
    /// Produces two equivocating blocks per round, sending one variant to
    /// each half of the committee (disallowed under Tusk's certified DAG).
    Equivocator,
    /// Produces blocks but never sends them (its slots appear empty).
    Mute,
    /// Leader-slot withholding: precomputes the coin elections and, in any
    /// round where it owns a leader slot, discloses its block (or, under a
    /// certified DAG, its certificate) to only `f` peers — strictly fewer
    /// than the `f + 1` validity threshold — so no honest quorum can ever
    /// certify the slot. Off-slot rounds behave honestly, which makes the
    /// attack invisible to simple round-level accounting.
    WithholdingLeader,
    /// Coordinated split-brain equivocation: produces two variants per round
    /// and routes them along a partition boundary (peers below `minority`
    /// get one variant, the rest the other), so each side observes an
    /// internally consistent but globally conflicting chain. Pair with
    /// [`AdversaryChoice::Partition`] using the same `minority` to keep the
    /// halves from comparing notes until the partition heals.
    SplitBrainEquivocator {
        /// Number of nodes on the small side of the split (same value as the
        /// partition adversary's `minority`).
        minority: usize,
    },
    /// Lazy-proposer pacing attack: builds every block on time (so its own
    /// chain stays valid) but releases it to the network `delay` late,
    /// pressuring honest inclusion waits and round pacing.
    SlowProposer {
        /// How long each produced block is held back before dissemination.
        delay: Time,
    },
    /// DAG-fork spam: produces `forks` equivocating variants per round and
    /// sprays them round-robin across peers, maximizing store churn and
    /// synchronizer traffic (disallowed under Tusk's certified DAG).
    ForkSpammer {
        /// Number of conflicting variants per round (clamped to ≥ 2).
        forks: usize,
    },
    /// Adaptive attacker: instead of following a static schedule, it reads
    /// its own live DAG every propose round and picks victims from what it
    /// sees. On rounds where it owns a leader slot it withholds its block,
    /// disclosing it to only `f` peers — preferring the *laggards* (peers
    /// whose previous-round block has not arrived), the peers least able
    /// to relay the disclosure onward. On every other round it equivocates
    /// and routes the conflicting variant at those same laggards, who
    /// cannot immediately cross-check it against what the caught-up
    /// majority holds. Degrades to honest behavior under Tusk's certified
    /// DAG (consistent broadcast makes both halves of the attack moot).
    Adaptive,
}

impl Behavior {
    /// Whether the validator follows the protocol faithfully enough to be
    /// held to the agreement invariant: honest validators, validators that
    /// only pace their own blocks late, and validators that are temporarily
    /// down but never lie. Byzantine senders and (fully) crashed or mute
    /// validators are excluded.
    pub fn is_correct(&self) -> bool {
        matches!(
            self,
            Behavior::Honest | Behavior::Offline { .. } | Behavior::SlowProposer { .. }
        )
    }

    /// Whether the behavior actively deviates (sends conflicting or
    /// selectively withheld messages), as opposed to merely being slow,
    /// silent, or down. Mute is *not* Byzantine under this definition: a
    /// validator that never sends can cost liveness but cannot contradict
    /// itself.
    pub fn is_byzantine(&self) -> bool {
        matches!(
            self,
            Behavior::Equivocator
                | Behavior::WithholdingLeader
                | Behavior::SplitBrainEquivocator { .. }
                | Behavior::ForkSpammer { .. }
                | Behavior::Adaptive
        )
    }

    /// Whether the behavior signs conflicting blocks for the same slot —
    /// the misbehavior an `EquivocationProof` attributes. A strict subset
    /// of [`Behavior::is_byzantine`]: a withholding leader deviates but
    /// never contradicts itself, so no evidence can (or should) ever name
    /// it.
    pub fn equivocates(&self) -> bool {
        matches!(
            self,
            Behavior::Equivocator
                | Behavior::SplitBrainEquivocator { .. }
                | Behavior::ForkSpammer { .. }
                | Behavior::Adaptive
        )
    }

    /// Short machine-readable label for reports and scenario names.
    pub fn label(&self) -> &'static str {
        match self {
            Behavior::Honest => "honest",
            Behavior::Crashed { .. } => "crashed",
            Behavior::Offline { .. } => "offline",
            Behavior::Equivocator => "equivocator",
            Behavior::Mute => "mute",
            Behavior::WithholdingLeader => "withholding-leader",
            Behavior::SplitBrainEquivocator { .. } => "split-brain",
            Behavior::SlowProposer { .. } => "slow-proposer",
            Behavior::ForkSpammer { .. } => "fork-spammer",
            Behavior::Adaptive => "adaptive",
        }
    }
}

/// Network delay model selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyChoice {
    /// The paper's five-region AWS WAN (Ohio / Oregon / Cape Town /
    /// Hong Kong / Milan, real inter-region RTT matrix, validators
    /// assigned round-robin), with tunable per-link jitter.
    AwsWan {
        /// Multiplicative per-link jitter half-width in percent
        /// (5 → each sample scaled by a uniform factor in ±5%).
        jitter_percent: u64,
        /// Mean of the additive exponential-tail jitter (occasional slow
        /// packets; keeps the delay distribution right-skewed like a real
        /// WAN).
        tail_mean: Time,
    },
    /// Uniform delay in `[min, max]` (unit tests, controlled experiments).
    Uniform {
        /// Minimum one-way delay.
        min: Time,
        /// Maximum one-way delay.
        max: Time,
    },
}

impl LatencyChoice {
    /// The paper's WAN with its default jitter (±5% multiplicative, 2 ms
    /// exponential tail).
    pub fn aws_wan() -> Self {
        LatencyChoice::AwsWan {
            jitter_percent: 5,
            tail_mean: time::from_millis(2),
        }
    }
}

/// Delivery-schedule adversary selection (see `mahimahi-net`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryChoice {
    /// Benign network.
    None,
    /// The random network model: every validator advances with a uniformly
    /// random `2f + 1` subset each round.
    RandomSubset {
        /// Extra hold applied to non-subset blocks.
        hold: Time,
    },
    /// Continuously active asynchronous adversary delaying rotating targets.
    RotatingDelay {
        /// Number of simultaneously targeted authorities.
        targets: usize,
        /// Rounds between target rotations.
        period: u64,
        /// Extra delay applied to targeted blocks.
        extra: Time,
    },
    /// Network partition healing at the given time.
    Partition {
        /// Number of nodes split from the rest.
        minority: usize,
        /// Healing time.
        heals_at: Time,
    },
}

/// CPU cost model (microseconds). The paper attributes Tusk's overhead to
/// certificate verification; these knobs reproduce that effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuCosts {
    /// One signature verification.
    pub signature_verify: Time,
    /// One coin-share (DLEQ) verification.
    pub coin_share_verify: Time,
    /// Producing (hashing + signing) one block.
    pub block_creation: Time,
    /// Per-kilobyte hashing cost while verifying a block.
    pub hash_per_kb: Time,
    /// Batch-verification discount applied to certificate signature checks
    /// (1.0 = none, 0.5 = batching halves the cost). Expressed in percent to
    /// stay integer-typed.
    pub batch_discount_percent: u64,
}

impl Default for CpuCosts {
    fn default() -> Self {
        CpuCosts {
            signature_verify: 30,
            coin_share_verify: 60,
            block_creation: 50,
            hash_per_kb: 1,
            batch_discount_percent: 50,
        }
    }
}

impl CpuCosts {
    /// Cost of verifying an uncertified block of `size` bytes.
    pub fn block_verify(&self, size: usize) -> Time {
        self.signature_verify + self.coin_share_verify + self.hash_per_kb * (size as Time / 1024)
    }

    /// Cost of verifying a certificate carrying `signatures` signatures.
    pub fn certificate_verify(&self, signatures: usize) -> Time {
        self.signature_verify * signatures as Time * self.batch_discount_percent / 100
    }

    /// Cost of verifying `blocks` uncertified blocks totalling
    /// `total_bytes` together, through the admission pipeline's batched
    /// crypto path: the first block pays full price, every further block
    /// pays the batch-discounted signature and coin-share cost (the
    /// multi-scalar Schnorr combination and the shared per-round coin
    /// base), and hashing remains proportional to the bytes.
    pub fn block_verify_batched(&self, total_bytes: usize, blocks: usize) -> Time {
        if blocks == 0 {
            return 0;
        }
        let per_block_crypto = self.signature_verify + self.coin_share_verify;
        let discounted = per_block_crypto * self.batch_discount_percent / 100;
        per_block_crypto
            + discounted * (blocks as Time - 1)
            + self.hash_per_kb * (total_bytes as Time / 1024)
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The protocol under test.
    pub protocol: ProtocolChoice,
    /// Committee size `n` (the paper uses 10 and 50).
    pub committee_size: usize,
    /// Per-validator behavior overrides (`(authority, behavior)`);
    /// unlisted authorities are honest.
    pub behaviors: Vec<(usize, Behavior)>,
    /// Simulated run duration.
    pub duration: Time,
    /// Open-loop client load per validator (transactions per second).
    pub txs_per_second_per_validator: u64,
    /// Wire size of one transaction (the paper uses 512 bytes).
    pub tx_wire_size: usize,
    /// Mempool bounds and per-block payload budget applied at every
    /// validator: pool capacity in transactions and bytes, plus the
    /// `max_block_txs`/`max_block_bytes` drained into each produced block.
    pub mempool: MempoolConfig,
    /// Client-ingress policy applied at every validator: per-client token
    /// buckets and age-based mempool forwarding. The default is fully
    /// permissive (no rate limit, no forwarding), matching the paper's
    /// open-loop load experiments.
    pub ingress: IngressConfig,
    /// Delay model.
    pub latency: LatencyChoice,
    /// Adversary model.
    pub adversary: AdversaryChoice,
    /// CPU cost model.
    pub cpu: CpuCosts,
    /// How long validators keep collecting previous-round blocks after the
    /// quorum arrived before advancing (round pacing; see
    /// `SimValidator`). 0 disables the wait.
    pub inclusion_wait: Time,
    /// Seed controlling all randomness in the run.
    pub seed: u64,
    /// Ignore transactions submitted before this fraction of the run when
    /// computing latency statistics (warm-up).
    pub warmup_fraction: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            protocol: ProtocolChoice::MahiMahi5 { leaders: 2 },
            committee_size: 4,
            behaviors: Vec::new(),
            duration: time::from_secs(10),
            txs_per_second_per_validator: 100,
            tx_wire_size: 512,
            mempool: MempoolConfig::default(),
            ingress: IngressConfig::default(),
            latency: LatencyChoice::aws_wan(),
            adversary: AdversaryChoice::None,
            cpu: CpuCosts::default(),
            inclusion_wait: time::from_millis(50),
            seed: 42,
            warmup_fraction: 0.2,
        }
    }
}

impl SimConfig {
    /// The engine configuration of `authority` under this run's protocol,
    /// mempool, ingress and pacing parameters — the simulator's
    /// counterpart of `NodeConfig::engine_config`.
    pub fn engine_config(&self, authority: AuthorityIndex, setup: TestCommittee) -> EngineConfig {
        let mut config = EngineConfig::new(authority, setup);
        config.certified = self.protocol.certified();
        config.mempool = self.mempool;
        config.ingress = self.ingress;
        config.inclusion_wait = self.inclusion_wait;
        config
    }

    /// The behavior of `authority`.
    pub fn behavior_of(&self, authority: usize) -> Behavior {
        self.behaviors
            .iter()
            .find(|(a, _)| *a == authority)
            .map(|(_, b)| *b)
            .unwrap_or_default()
    }

    /// Marks the last `count` authorities as crashed from the start (the
    /// paper's fault experiments crash the maximum `f`).
    pub fn with_crashed(mut self, count: usize) -> Self {
        for authority in self.committee_size.saturating_sub(count)..self.committee_size {
            self.behaviors
                .push((authority, Behavior::Crashed { from_round: 0 }));
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_block_verify_discounts_every_block_after_the_first() {
        let cpu = CpuCosts::default();
        // One block batched costs exactly one serial verification.
        assert_eq!(cpu.block_verify_batched(2048, 1), cpu.block_verify(2048));
        // Empty batches are free; the zero cost model stays zero.
        assert_eq!(cpu.block_verify_batched(4096, 0), 0);
        let free = CpuCosts {
            signature_verify: 0,
            coin_share_verify: 0,
            block_creation: 0,
            hash_per_kb: 0,
            batch_discount_percent: 50,
        };
        assert_eq!(free.block_verify_batched(10_000, 8), 0);
        // Eight blocks: first at full price, seven discounted — strictly
        // cheaper than eight serial verifications, hashing unchanged.
        let serial: Time = (0..8).map(|_| cpu.block_verify(1024)).sum();
        let batched = cpu.block_verify_batched(8 * 1024, 8);
        assert!(batched < serial, "{batched} vs {serial}");
        let crypto = cpu.signature_verify + cpu.coin_share_verify;
        assert_eq!(
            batched,
            crypto + crypto * cpu.batch_discount_percent / 100 * 7 + cpu.hash_per_kb * 8
        );
    }

    #[test]
    fn protocol_names_and_certification() {
        assert!(ProtocolChoice::Tusk.certified());
        assert!(!ProtocolChoice::MahiMahi5 { leaders: 2 }.certified());
        assert!(ProtocolChoice::MahiMahi4 { leaders: 3 }
            .name()
            .contains("Mahi-Mahi-4"));
    }

    #[test]
    fn committers_instantiate() {
        let setup = TestCommittee::new(4, 1);
        for protocol in [
            ProtocolChoice::MahiMahi5 { leaders: 2 },
            ProtocolChoice::MahiMahi4 { leaders: 1 },
            ProtocolChoice::CordialMiners,
            ProtocolChoice::Tusk,
        ] {
            let committer = protocol.committer(setup.committee().clone());
            assert_eq!(committer.committee().size(), 4);
        }
    }

    #[test]
    fn with_crashed_marks_the_tail() {
        let config = SimConfig {
            committee_size: 10,
            ..SimConfig::default()
        }
        .with_crashed(3);
        assert_eq!(config.behavior_of(0), Behavior::Honest);
        assert_eq!(config.behavior_of(7), Behavior::Crashed { from_round: 0 });
        assert_eq!(config.behavior_of(9), Behavior::Crashed { from_round: 0 });
    }

    #[test]
    fn leader_schedules_match_the_protocols() {
        let mahi = ProtocolChoice::MahiMahi5 { leaders: 2 }.leader_schedule();
        assert!(mahi.overlapping);
        assert!(mahi.is_propose_round(1) && mahi.is_propose_round(2));
        assert!(!mahi.is_propose_round(0));
        assert_eq!(mahi.certify_round(3), 7);

        let cordial = ProtocolChoice::CordialMiners.leader_schedule();
        assert!(!cordial.overlapping);
        assert!(cordial.is_propose_round(1) && cordial.is_propose_round(6));
        assert!(!cordial.is_propose_round(2));

        let tusk = ProtocolChoice::Tusk.leader_schedule();
        assert_eq!(tusk.wave_length, 3);
        assert!(tusk.is_propose_round(4));
        assert!(!tusk.is_propose_round(5));
    }

    #[test]
    fn behavior_classification() {
        assert!(Behavior::Honest.is_correct());
        assert!(Behavior::SlowProposer { delay: 1 }.is_correct());
        assert!(Behavior::Offline { from: 0, until: 1 }.is_correct());
        assert!(!Behavior::Crashed { from_round: 0 }.is_correct());
        assert!(!Behavior::WithholdingLeader.is_correct());
        assert!(Behavior::ForkSpammer { forks: 3 }.is_byzantine());
        assert!(Behavior::SplitBrainEquivocator { minority: 1 }.is_byzantine());
        assert!(!Behavior::SlowProposer { delay: 1 }.is_byzantine());
        assert!(!Behavior::Mute.is_byzantine(), "silent, not contradictory");
        assert_eq!(Behavior::WithholdingLeader.label(), "withholding-leader");
    }

    #[test]
    fn cpu_costs_scale() {
        let cpu = CpuCosts::default();
        assert!(cpu.block_verify(10_240) > cpu.block_verify(1_024));
        assert_eq!(cpu.certificate_verify(7), 30 * 7 / 2);
    }
}
