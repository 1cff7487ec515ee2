//! Checkpoint certification and the state-sync material behind it.
//!
//! [`CheckpointBook`] owns what a validator knows about execution
//! checkpoints: the cuts it archived (its own, adopted, or restored from
//! its log) with the snapshots they attest, the attestations collected per
//! position, and the latest position a quorum certified. It signs, counts
//! and validates; it never touches the execution state or the sequencer —
//! the engine installs a cut only after [`CheckpointBook::verify_cut`]
//! accepted it.

use mahimahi_crypto::blake2b::blake2b_256;
use mahimahi_crypto::Keypair;
use mahimahi_types::{
    AuthorityIndex, AuthoritySet, BlockRef, Checkpoint, Committee, CommitteeMap, Decode, Envelope,
    StateRoot,
};
use std::collections::BTreeMap;

use crate::sequencer::SequencerSnapshot;

/// How many checkpoint positions the book retains attestations and
/// snapshots for. Old entries can never certify once a newer one has, so
/// a small window bounds memory without losing safety.
const CHECKPOINT_RETENTION: usize = 8;

/// The checkpoint ledger of one validator.
pub struct CheckpointBook {
    committee: Committee,
    /// The last committed leader (the all-zero default before the first
    /// commit) — recorded in every checkpoint as the commit frontier.
    frontier: BlockRef,
    /// Own (or adopted) checkpoints with the execution and sequencer
    /// snapshots they attest, keyed by position: the material served to
    /// state-syncing peers.
    archive: BTreeMap<u64, (Checkpoint, Vec<u8>, Vec<u8>)>,
    /// Verified attestations collected per position per authority (own
    /// included), committee-dense per position. Iteration is in authority
    /// order by construction. Pruned alongside the archive.
    attestations: BTreeMap<u64, CommitteeMap<Checkpoint>>,
    /// Highest position with a quorum of matching attestations *and* an
    /// archived snapshot — what `CheckpointRequest` is answered with.
    latest_certified: Option<u64>,
}

impl CheckpointBook {
    /// An empty book for `committee`.
    pub fn new(committee: Committee) -> Self {
        CheckpointBook {
            committee,
            frontier: BlockRef::default(),
            archive: BTreeMap::new(),
            attestations: BTreeMap::new(),
            latest_certified: None,
        }
    }

    /// Moves the commit frontier the next signed checkpoint records.
    pub fn set_frontier(&mut self, leader: BlockRef) {
        self.frontier = leader;
    }

    /// The newest archived checkpoint, if any.
    pub fn latest(&self) -> Option<&Checkpoint> {
        self.archive
            .last_key_value()
            .map(|(_, (checkpoint, _, _))| checkpoint)
    }

    /// Signs the checkpoint for the boundary at `position` over the given
    /// snapshot encodings, counts it as this validator's attestation and
    /// archives it. One encoding serves both the record and the root
    /// (`state_root() == H(snapshot())` by the `ExecutionState` contract).
    pub fn sign_own(
        &mut self,
        authority: AuthorityIndex,
        keypair: &Keypair,
        position: u64,
        execution: &[u8],
        resume: &[u8],
    ) -> Checkpoint {
        let checkpoint = Checkpoint::sign(
            authority,
            position,
            self.frontier,
            StateRoot(blake2b_256(execution)),
            blake2b_256(resume),
            keypair,
        );
        self.attest(checkpoint.clone());
        self.archive(checkpoint.clone(), execution.to_vec(), resume.to_vec());
        checkpoint
    }

    /// Collects a peer attestation from the wire and re-checks
    /// certification. Invalid signatures are dropped, and so are positions
    /// already pruned (older than anything retained): they are not worth
    /// collecting for.
    pub fn ingest(&mut self, checkpoint: Checkpoint) {
        let oldest = self.archive.keys().next();
        if oldest.is_some_and(|&oldest| checkpoint.position() < oldest)
            || checkpoint.verify(&self.committee).is_err()
        {
            return;
        }
        self.attest(checkpoint);
        self.refresh();
    }

    /// First-write-wins collection of an attestation whose signature the
    /// caller already checked: the first checkpoint an authority signs for
    /// a position is the one counted. A second (conflicting) one is ignored
    /// — that keeps quorum counting per-authority, and `f` double-signers
    /// can never complete two conflicting quorums.
    pub fn attest(&mut self, checkpoint: Checkpoint) {
        let committee_size = self.committee.size();
        let votes = self
            .attestations
            .entry(checkpoint.position())
            .or_insert_with(|| CommitteeMap::new(committee_size));
        let authority = checkpoint.authority();
        if !votes.contains_key(authority) {
            votes.insert(authority, checkpoint);
        }
    }

    /// Archives a cut this validator now stands on — signed, adopted, or
    /// restored — moves the frontier to its leader, and re-checks
    /// certification and retention.
    pub fn archive(&mut self, checkpoint: Checkpoint, execution: Vec<u8>, resume: Vec<u8>) {
        self.frontier = checkpoint.leader();
        self.archive
            .insert(checkpoint.position(), (checkpoint, execution, resume));
        self.refresh();
    }

    /// Recomputes the latest certified position — the highest archived
    /// position where a quorum of distinct authorities attests the same
    /// `(state_root, resume_digest)` as the archived checkpoint — then
    /// bounds memory. Positions below the certified one go at once:
    /// state-sync serves the latest certified cut only, and a lower
    /// position certifying late cannot raise it — and each archived entry
    /// holds a full execution snapshot. From there up, keep the certified
    /// position and the newest, [`CHECKPOINT_RETENTION`] in all.
    fn refresh(&mut self) {
        let quorum = self.committee.quorum_threshold();
        let certified = self
            .archive
            .iter()
            .rev()
            .find(|(position, (own, _, _))| self.matching(**position, own).count() >= quorum)
            .map(|(&position, _)| position);
        // `None` orders below every position: this only ever raises it.
        self.latest_certified = self.latest_certified.max(certified);
        if let Some(certified) = self.latest_certified {
            self.archive = self.archive.split_off(&certified);
        }
        while self.archive.len() > CHECKPOINT_RETENTION {
            let uncertified = |position: &u64| Some(*position) != self.latest_certified;
            let Some(oldest) = self.archive.keys().copied().find(uncertified) else {
                break;
            };
            self.archive.remove(&oldest);
        }
        let floor = self.archive.first_key_value().map_or(0, |(&p, _)| p);
        self.attestations = self.attestations.split_off(&floor);
    }

    /// The attestations at `position` matching `own`, in authority order
    /// (deterministic).
    fn matching<'a>(
        &'a self,
        position: u64,
        own: &'a Checkpoint,
    ) -> impl Iterator<Item = &'a Checkpoint> {
        self.attestations
            .get(&position)
            .into_iter()
            .flat_map(CommitteeMap::values)
            .filter(move |vote| vote.attests_same(own))
    }

    /// The state-sync payload for the latest certified checkpoint: the
    /// matching attestations plus the archived snapshots.
    pub fn response(&self) -> Option<Envelope> {
        let position = self.latest_certified?;
        let (own, execution, resume) = self.archive.get(&position)?;
        let checkpoints: Vec<Checkpoint> = self.matching(position, own).cloned().collect();
        (checkpoints.len() >= self.committee.quorum_threshold()).then(|| {
            Envelope::CheckpointResponse {
                checkpoints,
                execution: execution.clone(),
                resume: resume.clone(),
            }
        })
    }

    /// Whether `checkpoints` is a quorum certificate: non-empty, all
    /// attesting the same cut, every signature valid, from a quorum of
    /// distinct authorities. Returns the cut they attest.
    pub fn verify_quorum<'a>(&self, checkpoints: &'a [Checkpoint]) -> Option<&'a Checkpoint> {
        let first = checkpoints.first()?;
        let authorities: AuthoritySet = checkpoints.iter().map(Checkpoint::authority).collect();
        (authorities.len() >= self.committee.quorum_threshold()
            && checkpoints.iter().all(|c| c.attests_same(first))
            && checkpoints
                .iter()
                .all(|c| c.verify(&self.committee).is_ok()))
        .then_some(first)
    }

    /// Validates the snapshots of a cut against the roots `checkpoint`
    /// signs — the one check both state-sync adoption and WAL restore run
    /// before touching any state: both encodings hash to the signed roots,
    /// the sequencer snapshot decodes, and it sits at the checkpoint's
    /// position. Returns the decoded snapshot to resume from.
    pub fn verify_cut(
        checkpoint: &Checkpoint,
        execution: &[u8],
        resume: &[u8],
    ) -> Option<SequencerSnapshot> {
        if blake2b_256(execution) != checkpoint.state_root().digest()
            || blake2b_256(resume) != checkpoint.resume_digest()
        {
            return None;
        }
        let snapshot = SequencerSnapshot::from_bytes_exact(resume).ok()?;
        (snapshot.position == checkpoint.position()).then_some(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahimahi_types::{Encode, TestCommittee};

    impl CheckpointBook {
        /// The highest position with both a quorum of matching
        /// attestations and archived snapshots.
        pub(crate) fn latest_certified(&self) -> Option<u64> {
            self.latest_certified
        }

        /// The archived positions, oldest first.
        pub(crate) fn archived(&self) -> Vec<u64> {
            self.archive.keys().copied().collect()
        }
    }

    const LEADER: BlockRef = BlockRef {
        round: 3,
        author: AuthorityIndex(1),
        digest: mahimahi_crypto::Digest::ZERO,
    };

    /// The snapshot encodings of the cut at `position`; `state` varies the
    /// execution bytes (and so the state root).
    fn snapshots(position: u64, state: u8) -> (Vec<u8>, Vec<u8>) {
        let resume = SequencerSnapshot {
            position,
            next_round: position + 1,
            consumed_in_round: 0,
            emitted: Vec::new(),
        };
        (vec![state; 16], resume.to_bytes_vec())
    }

    /// `authority`'s attestation of the cut at `position` over `state`.
    fn attestation(setup: &TestCommittee, authority: u32, position: u64, state: u8) -> Checkpoint {
        let (execution, resume) = snapshots(position, state);
        Checkpoint::sign(
            AuthorityIndex(authority),
            position,
            LEADER,
            StateRoot(blake2b_256(&execution)),
            blake2b_256(&resume),
            setup.keypair(AuthorityIndex(authority)),
        )
    }

    /// A book of authority 0 that archived (and attested) its own cut at
    /// each of `positions`, over state 7.
    fn book_with(setup: &TestCommittee, positions: &[u64]) -> CheckpointBook {
        let mut book = CheckpointBook::new(setup.committee().clone());
        book.set_frontier(LEADER);
        for &position in positions {
            let (execution, resume) = snapshots(position, 7);
            let own = book.sign_own(
                AuthorityIndex(0),
                setup.keypair(AuthorityIndex(0)),
                position,
                &execution,
                &resume,
            );
            assert!(own.attests_same(&attestation(setup, 0, position, 7)));
        }
        book
    }

    #[test]
    fn the_first_attestation_of_an_authority_is_the_one_counted() {
        let setup = TestCommittee::new(4, 7);
        let mut book = book_with(&setup, &[4]);
        // Authority 1 double-signs: a conflicting root first, then the
        // matching one. Only the first counts, so with authority 2 the
        // matching tally is {0, 2} — short of the quorum of 3.
        book.ingest(attestation(&setup, 1, 4, 9));
        book.ingest(attestation(&setup, 1, 4, 7));
        book.ingest(attestation(&setup, 2, 4, 7));
        assert_eq!(book.latest_certified(), None);
        assert!(book.response().is_none());
        // A repeat from authority 2 adds nothing; authority 3 completes it.
        book.ingest(attestation(&setup, 2, 4, 7));
        assert_eq!(book.latest_certified(), None);
        book.ingest(attestation(&setup, 3, 4, 7));
        assert_eq!(book.latest_certified(), Some(4));
    }

    #[test]
    fn a_quorum_counts_only_attestations_matching_the_archived_roots() {
        let setup = TestCommittee::new(4, 7);
        let mut book = book_with(&setup, &[4]);
        // Three peers agree with each other — but not with what is
        // archived here: nothing this book could serve is certified.
        for authority in 1..4 {
            book.ingest(attestation(&setup, authority, 4, 9));
        }
        assert_eq!(book.latest_certified(), None);
        // A forged signature is not an attestation at all.
        let mut honest = book_with(&setup, &[4]);
        honest.ingest(attestation(&setup, 1, 4, 7));
        let forged = Checkpoint::sign(
            AuthorityIndex(2),
            4,
            LEADER,
            attestation(&setup, 2, 4, 7).state_root(),
            attestation(&setup, 2, 4, 7).resume_digest(),
            setup.keypair(AuthorityIndex(3)),
        );
        honest.ingest(forged);
        assert_eq!(honest.latest_certified(), None);
        honest.ingest(attestation(&setup, 2, 4, 7));
        assert_eq!(honest.latest_certified(), Some(4));
        // The payload served carries exactly the matching quorum, in
        // authority order, with the archived snapshots.
        let Some(Envelope::CheckpointResponse {
            checkpoints,
            execution,
            resume,
        }) = honest.response()
        else {
            panic!("a certified book answers state-sync");
        };
        let signers: Vec<u32> = checkpoints.iter().map(|c| c.authority().0).collect();
        assert_eq!(signers, [0, 1, 2]);
        assert_eq!((execution, resume), snapshots(4, 7));
        assert!(honest.verify_quorum(&checkpoints).is_some());
        assert!(honest.verify_quorum(&checkpoints[..2]).is_none());
    }

    #[test]
    fn positions_below_the_certified_one_go_at_once_and_retention_bounds_the_rest() {
        let setup = TestCommittee::new(4, 7);
        let mut book = book_with(&setup, &[4, 8, 12, 16]);
        assert_eq!(book.archived(), [4, 8, 12, 16]);
        for authority in 1..3 {
            book.ingest(attestation(&setup, authority, 12, 7));
        }
        assert_eq!(book.latest_certified(), Some(12));
        assert_eq!(book.archived(), [12, 16], "4 and 8 serve nothing now");
        // Attestations for a pruned position are not collected again, and
        // a lower position certifying late cannot lower the certified one.
        for authority in 1..4 {
            book.ingest(attestation(&setup, authority, 8, 7));
        }
        assert_eq!(book.latest_certified(), Some(12));
        assert!(!book.attestations.contains_key(&8));
        // Certification stalls while this validator keeps checkpointing:
        // the certified cut stays, the newest fill the rest of the window.
        for position in (20..=120).step_by(4) {
            let (execution, resume) = snapshots(position, 7);
            let keypair = setup.keypair(AuthorityIndex(0));
            book.sign_own(AuthorityIndex(0), keypair, position, &execution, &resume);
            assert!(book.archived().len() <= CHECKPOINT_RETENTION);
        }
        let archived = book.archived();
        assert_eq!(archived.len(), CHECKPOINT_RETENTION);
        assert_eq!(archived[0], 12);
        assert_eq!(archived[1..], [96, 100, 104, 108, 112, 116, 120]);
        assert_eq!(book.latest().map(Checkpoint::position), Some(120));
    }

    #[test]
    fn verify_cut_rejects_each_tamper_on_its_own() {
        let setup = TestCommittee::new(4, 7);
        let checkpoint = attestation(&setup, 0, 8, 7);
        let (execution, resume) = snapshots(8, 7);
        let snapshot = CheckpointBook::verify_cut(&checkpoint, &execution, &resume)
            .expect("the untampered cut verifies");
        assert_eq!((snapshot.position, snapshot.next_round), (8, 9));

        // Wrong execution hash.
        let mut bad = execution.clone();
        bad[0] ^= 0xff;
        assert!(CheckpointBook::verify_cut(&checkpoint, &bad, &resume).is_none());
        // Wrong resume hash.
        let mut bad = resume.clone();
        bad[0] ^= 0xff;
        assert!(CheckpointBook::verify_cut(&checkpoint, &execution, &bad).is_none());

        // The next two sign the tampered bytes, so both hashes match and
        // only the check under test can fail.
        let sign_over = |position: u64, resume: &[u8]| {
            Checkpoint::sign(
                AuthorityIndex(0),
                position,
                LEADER,
                StateRoot(blake2b_256(&execution)),
                blake2b_256(resume),
                setup.keypair(AuthorityIndex(0)),
            )
        };
        // Position mismatch: a valid snapshot of position 8 under a
        // checkpoint claiming 12.
        let mismatched = sign_over(12, &resume);
        assert!(CheckpointBook::verify_cut(&mismatched, &execution, &resume).is_none());
        // Undecodable snapshot: truncated, and with trailing bytes.
        let truncated = &resume[..resume.len() - 1];
        let over_truncated = sign_over(8, truncated);
        assert!(CheckpointBook::verify_cut(&over_truncated, &execution, truncated).is_none());
        let mut padded = resume.clone();
        padded.push(0);
        let over_padded = sign_over(8, &padded);
        assert!(CheckpointBook::verify_cut(&over_padded, &execution, &padded).is_none());
    }
}
