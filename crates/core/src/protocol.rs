//! The committer abstraction shared by Mahi-Mahi and the baseline
//! protocols (Cordial Miners, Tusk).
//!
//! All three protocols in the paper's evaluation are *committers over a
//! DAG*: a pure function classifying leader slots as commit/skip/undecided,
//! plus the common DagRider-style linearization. Factoring the interface
//! here lets the simulator and the sequencer treat them uniformly.

use mahimahi_dag::BlockStore;
use mahimahi_types::{Committee, Round};

use crate::committer::Committer;
use crate::status::LeaderStatus;

/// A consensus commit rule over a shared [`BlockStore`]. A committer
/// belongs to the one thread that sequences, so its memos need no lock.
pub trait ProtocolCommitter: Send {
    /// The committee decided for.
    fn committee(&self) -> &Committee;

    /// A short human-readable protocol name (for experiment output).
    fn name(&self) -> &'static str;

    /// Classifies every leader slot with Propose round in
    /// `from_round ..= highest decidable`, ascending by `(round, offset)`.
    ///
    /// Must be idempotent and *stable*: a slot reported `Commit` or `Skip`
    /// keeps that classification in every later call (monotonicity of the
    /// decision rules over a growing causally-complete DAG).
    fn try_decide(&self, store: &BlockStore, from_round: Round) -> Vec<LeaderStatus>;

    /// How many message delays one DAG round costs on the wire. Uncertified
    /// DAGs (Mahi-Mahi, Cordial Miners) disseminate each block once (1);
    /// certified DAGs (Tusk) pay consistent broadcast (3). The simulator
    /// uses this to model round pacing.
    fn delays_per_round(&self) -> u64 {
        1
    }
}

impl ProtocolCommitter for Committer {
    fn committee(&self) -> &Committee {
        Committer::committee(self)
    }

    fn name(&self) -> &'static str {
        match self.options().wave_length {
            4 => "Mahi-Mahi-4",
            5 => "Mahi-Mahi-5",
            _ => "Mahi-Mahi",
        }
    }

    fn try_decide(&self, store: &BlockStore, from_round: Round) -> Vec<LeaderStatus> {
        Committer::try_decide(self, store, from_round)
    }
}

impl<T: ProtocolCommitter + ?Sized> ProtocolCommitter for Box<T> {
    fn committee(&self) -> &Committee {
        (**self).committee()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn try_decide(&self, store: &BlockStore, from_round: Round) -> Vec<LeaderStatus> {
        (**self).try_decide(store, from_round)
    }
    fn delays_per_round(&self) -> u64 {
        (**self).delays_per_round()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::committer::CommitterOptions;
    use mahimahi_dag::DagBuilder;
    use mahimahi_types::TestCommittee;

    #[test]
    fn committer_implements_the_trait() {
        let setup = TestCommittee::new(4, 1);
        let committer: Box<dyn ProtocolCommitter> = Box::new(Committer::new(
            setup.committee().clone(),
            CommitterOptions::mahi_mahi_4(2),
        ));
        assert_eq!(committer.name(), "Mahi-Mahi-4");
        assert_eq!(committer.delays_per_round(), 1);
        let mut dag = DagBuilder::new(setup);
        dag.add_full_rounds(6);
        let statuses = committer.try_decide(dag.store(), 1);
        assert!(!statuses.is_empty());
    }
}
