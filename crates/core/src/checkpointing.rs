//! Checkpoint certification and the state-sync material behind it.
//!
//! Every `checkpoint_interval` sequencing decisions a validator signs a
//! *cut*: position, commit frontier, execution root, sequencer resume
//! digest — a few hundred bytes, broadcast and counted toward a quorum.
//! [`CheckpointBook`] owns what a validator knows about cuts: the newest
//! one it stands on (signed, adopted, or restored from its log), the
//! attestations collected per position inside a fixed window, and the
//! latest position a quorum certified.
//!
//! A cut is not a snapshot. The state behind a cut is encoded only when
//! someone needs it: the engine's log (see `engine.rs`), or a committee
//! member that asked for state-sync. The book remembers who asked; the
//! *next* cut's snapshot is archived here, and the response leaves when
//! that cut has its quorum — so a joiner is served a cut taken after its
//! request, not one that may already sit below the responders' GC window.
//! While a snapshot waits for its quorum no other is taken, so requesters
//! cost at most one snapshot per cut — what every cut used to cost unasked
//! — however many requests arrive and from however many members.
//!
//! The book signs, counts and validates; it never touches the execution
//! state or the sequencer — the engine installs a cut only after
//! [`CheckpointBook::verify_cut`] accepted it.

use mahimahi_crypto::blake2b::blake2b_256;
use mahimahi_crypto::{Digest, Keypair};
use mahimahi_types::{
    AuthorityIndex, AuthoritySet, BlockRef, Checkpoint, Committee, CommitteeMap, Decode, Envelope,
    StateRoot,
};
use std::collections::BTreeMap;

use crate::sequencer::SequencerSnapshot;

/// How many cuts on either side of this validator's newest one the book
/// collects attestations for: its own last eight (an older cut that has not
/// certified by then never will be asked about) and the next eight (a peer
/// further ahead than that is re-counted from its later attestations once
/// this validator catches up). The bound it buys: at most sixteen positions
/// × one attestation per committee member are ever held, whatever a
/// Byzantine member signs.
const CHECKPOINT_RETENTION: u64 = 8;

/// The checkpoint ledger of one validator.
pub struct CheckpointBook {
    committee: Committee,
    authority: AuthorityIndex,
    /// Decisions between cuts; 0 when checkpointing is off.
    interval: u64,
    /// The last committed leader (the all-zero default before the first
    /// commit) — recorded in every checkpoint as the commit frontier.
    frontier: BlockRef,
    /// The newest cut this validator stands on: signed, adopted or
    /// restored.
    latest: Option<Checkpoint>,
    /// Verified attestations per position per authority (own included),
    /// committee-dense per position, for the positions inside the window
    /// (see [`Self::window`]). Iteration is in authority order by
    /// construction.
    attestations: BTreeMap<u64, CommitteeMap<Checkpoint>>,
    /// Highest position a quorum is known to attest as this validator
    /// does.
    latest_certified: Option<u64>,
    /// Committee members owed a state-sync response.
    requesters: AuthoritySet,
    /// The one snapshot held: position, execution and sequencer encodings
    /// of the newest cut taken for the requesters, until it has its quorum
    /// and leaves.
    archive: Option<(u64, Vec<u8>, Vec<u8>)>,
}

impl CheckpointBook {
    /// An empty book for `authority`, cutting every `interval` decisions.
    pub fn new(committee: Committee, authority: AuthorityIndex, interval: u64) -> Self {
        CheckpointBook {
            committee,
            authority,
            interval,
            frontier: BlockRef::default(),
            latest: None,
            attestations: BTreeMap::new(),
            latest_certified: None,
            requesters: AuthoritySet::new(),
            archive: None,
        }
    }

    /// Moves the commit frontier the next signed checkpoint records.
    pub fn set_frontier(&mut self, leader: BlockRef) {
        self.frontier = leader;
    }

    /// The newest cut this validator stands on, if any.
    pub fn latest(&self) -> Option<&Checkpoint> {
        self.latest.as_ref()
    }

    /// Signs the cut at `position` over the two roots and counts it as this
    /// validator's attestation. No snapshot is read: the roots are all a
    /// cut signs.
    pub fn sign_own(
        &mut self,
        keypair: &Keypair,
        position: u64,
        state_root: StateRoot,
        resume_digest: Digest,
    ) -> Checkpoint {
        let checkpoint = Checkpoint::sign(
            self.authority,
            position,
            self.frontier,
            state_root,
            resume_digest,
            keypair,
        );
        self.latest = Some(checkpoint.clone());
        self.attest(checkpoint.clone());
        self.refresh();
        checkpoint
    }

    /// Collects a peer attestation from the wire and re-checks
    /// certification. Dropped before its signature is looked at: anything
    /// outside the window — a position that is no multiple of the interval,
    /// one already certified or too old to matter, one further ahead than
    /// this validator will count. Dropped after: an invalid signature.
    pub fn ingest(&mut self, checkpoint: Checkpoint) {
        let position = checkpoint.position();
        if self.interval == 0
            || position == 0
            || !position.is_multiple_of(self.interval)
            || !self.window().contains(&position)
            || checkpoint.verify(&self.committee).is_err()
        {
            return;
        }
        self.attest(checkpoint);
        self.refresh();
    }

    /// The positions attestations are held for: from the latest certified
    /// cut, or [`CHECKPOINT_RETENTION`] own cuts back, up to as many cuts
    /// ahead of this validator's newest.
    fn window(&self) -> std::ops::RangeInclusive<u64> {
        let newest = self.latest.as_ref().map_or(0, Checkpoint::position);
        let oldest_own =
            newest.saturating_sub((CHECKPOINT_RETENTION - 1).saturating_mul(self.interval));
        let furthest = newest.saturating_add(CHECKPOINT_RETENTION.saturating_mul(self.interval));
        self.latest_certified.unwrap_or(0).max(oldest_own)..=furthest
    }

    /// First-write-wins collection of an attestation whose signature the
    /// caller already checked: the first checkpoint an authority signs for
    /// a position is the one counted. A second (conflicting) one is ignored
    /// — that keeps quorum counting per-authority, and `f` double-signers
    /// can never complete two conflicting quorums.
    fn attest(&mut self, checkpoint: Checkpoint) {
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

    /// Moves this validator onto a cut it did not sign — adopted from a
    /// quorum (`certified`), or restored from its own log — and with it the
    /// frontier and the window.
    pub fn stand_on(&mut self, checkpoint: Checkpoint, certified: bool) {
        self.frontier = checkpoint.leader();
        if certified {
            self.latest_certified = self.latest_certified.max(Some(checkpoint.position()));
        }
        self.latest = Some(checkpoint);
        self.refresh();
    }

    /// Recomputes the latest certified position — the highest one where a
    /// quorum of distinct authorities attests the same cut as this
    /// validator's own attestation — then drops what fell out of the
    /// window: positions below the certified one at once (a lower position
    /// certifying late cannot raise it), own cuts more than
    /// [`CHECKPOINT_RETENTION`] back, and with them a snapshot archived for
    /// a cut that can no longer get its quorum (the requesters stay, so the
    /// next cut takes a fresh one).
    fn refresh(&mut self) {
        let quorum = self.committee.quorum_threshold();
        let certified = self
            .attestations
            .iter()
            .rev()
            .find(|(_, votes)| Self::matching(votes, self.authority).count() >= quorum)
            .map(|(&position, _)| position);
        // `None` orders below every position: this only ever raises it.
        self.latest_certified = self.latest_certified.max(certified);
        let floor = *self.window().start();
        self.attestations = self.attestations.split_off(&floor);
        if self.archive.as_ref().is_some_and(|(at, ..)| *at < floor) {
            self.archive = None;
        }
    }

    /// The attestations among `votes` that attest the same cut as
    /// `authority`'s own does, in authority order (deterministic). Empty
    /// while `authority` has not attested.
    fn matching(
        votes: &CommitteeMap<Checkpoint>,
        authority: AuthorityIndex,
    ) -> impl Iterator<Item = &Checkpoint> {
        let own = votes.get(authority);
        votes
            .values()
            .filter(move |vote| own.is_some_and(|own| vote.attests_same(own)))
    }

    /// Remembers that `peer` asked for state-sync. Only committee members
    /// are remembered — a set the committee bounds; any other id (a client
    /// connection) is ignored.
    pub fn request(&mut self, peer: usize) {
        if peer < self.committee.size() {
            self.requesters.insert(AuthorityIndex::from(peer));
        }
    }

    /// Whether the cut being signed should carry a snapshot for
    /// [`Self::archive`]: somebody is owed a response, and no snapshot
    /// taken for it still waits for its quorum.
    pub fn snapshot_wanted(&self) -> bool {
        !self.requesters.is_empty() && self.archive.is_none()
    }

    /// Holds the snapshot of the cut just signed at `position` for the
    /// requesters.
    pub fn archive(&mut self, position: u64, execution: Vec<u8>, resume: Vec<u8>) {
        self.archive = Some((position, execution, resume));
    }

    /// The state-sync payload, once the archived cut has its quorum: who is
    /// owed it, and the matching attestations plus the snapshots. Taking it
    /// empties the archive and the requester set.
    pub fn take_response(&mut self) -> Option<(AuthoritySet, Envelope)> {
        let position = self.archive.as_ref().map(|(position, ..)| *position)?;
        if self.latest_certified != Some(position) {
            return None;
        }
        let votes = self.attestations.get(&position)?;
        let checkpoints: Vec<Checkpoint> = Self::matching(votes, self.authority).cloned().collect();
        let (_, execution, resume) = self.archive.take()?;
        let response = Envelope::CheckpointResponse {
            checkpoints,
            execution,
            resume,
        };
        Some((std::mem::take(&mut self.requesters), response))
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

    /// Validates a cut's material against the roots `checkpoint` signs —
    /// the one check both state-sync adoption and WAL restore run before
    /// the live state is replaced: `execution_root`, the root of the state
    /// rebuilt from the execution snapshot, is the signed one; the
    /// sequencer encoding hashes to the signed digest, decodes, and sits at
    /// the checkpoint's position. Returns the decoded snapshot to resume
    /// from.
    pub fn verify_cut(
        checkpoint: &Checkpoint,
        execution_root: StateRoot,
        resume: &[u8],
    ) -> Option<SequencerSnapshot> {
        if execution_root != checkpoint.state_root()
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
        /// The highest position a quorum attests as this validator does.
        pub(crate) fn latest_certified(&self) -> Option<u64> {
            self.latest_certified
        }

        /// The positions attestations are held for, oldest first.
        pub(crate) fn collected(&self) -> Vec<u64> {
            self.attestations.keys().copied().collect()
        }

        /// The position of the archived snapshot, if one is held.
        pub(crate) fn archived(&self) -> Option<u64> {
            self.archive.as_ref().map(|(position, ..)| *position)
        }
    }

    const INTERVAL: u64 = 4;

    const LEADER: BlockRef = BlockRef {
        round: 3,
        author: AuthorityIndex(1),
        digest: mahimahi_crypto::Digest::ZERO,
    };

    /// The roots and the sequencer encoding of the cut at `position`;
    /// `state` varies the state root.
    fn cut(position: u64, state: u8) -> (StateRoot, Vec<u8>) {
        let resume = SequencerSnapshot {
            position,
            next_round: position + 1,
            consumed_in_round: 0,
            emitted: Vec::new(),
        };
        (StateRoot(blake2b_256(&[state; 16])), resume.to_bytes_vec())
    }

    /// `authority`'s attestation of the cut at `position` over `state`.
    fn attestation(setup: &TestCommittee, authority: u32, position: u64, state: u8) -> Checkpoint {
        let (root, resume) = cut(position, state);
        Checkpoint::sign(
            AuthorityIndex(authority),
            position,
            LEADER,
            root,
            blake2b_256(&resume),
            setup.keypair(AuthorityIndex(authority)),
        )
    }

    /// Authority 0 signs its own cut at `position`, over state 7.
    fn sign(book: &mut CheckpointBook, setup: &TestCommittee, position: u64) {
        let (root, resume) = cut(position, 7);
        let keypair = setup.keypair(AuthorityIndex(0));
        let own = book.sign_own(keypair, position, root, blake2b_256(&resume));
        assert!(own.attests_same(&attestation(setup, 0, position, 7)));
    }

    /// A book of authority 0 that signed its own cut at each of
    /// `positions`, over state 7.
    fn book_with(setup: &TestCommittee, positions: &[u64]) -> CheckpointBook {
        let mut book = CheckpointBook::new(setup.committee().clone(), AuthorityIndex(0), INTERVAL);
        book.set_frontier(LEADER);
        for &position in positions {
            sign(&mut book, setup, position);
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
        // A repeat from authority 2 adds nothing; authority 3 completes it.
        book.ingest(attestation(&setup, 2, 4, 7));
        assert_eq!(book.latest_certified(), None);
        book.ingest(attestation(&setup, 3, 4, 7));
        assert_eq!(book.latest_certified(), Some(4));
    }

    #[test]
    fn a_quorum_counts_only_attestations_matching_the_own_cut() {
        let setup = TestCommittee::new(4, 7);
        let mut book = book_with(&setup, &[4]);
        // Three peers agree with each other — but not with what this
        // validator signed: nothing it could serve is certified.
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
        // Certified, but nobody asked and no snapshot was taken.
        assert!(honest.take_response().is_none());
    }

    #[test]
    fn a_request_is_answered_from_the_next_cut_once_it_has_its_quorum() {
        let setup = TestCommittee::new(4, 7);
        let mut book = book_with(&setup, &[4]);
        for authority in 1..3 {
            book.ingest(attestation(&setup, authority, 4, 7));
        }
        assert_eq!(book.latest_certified(), Some(4));
        assert!(!book.snapshot_wanted());
        // Ids outside the committee are not remembered; members are, once.
        book.request(4);
        book.request(usize::MAX);
        assert!(!book.snapshot_wanted());
        book.request(3);
        book.request(3);
        book.request(2);
        assert!(book.snapshot_wanted());
        // The certified cut behind the request carries no snapshot: nothing
        // leaves until the next cut is taken and certified.
        assert!(book.take_response().is_none());
        sign(&mut book, &setup, 8);
        let (_, resume) = cut(8, 7);
        book.archive(8, vec![7; 16], resume.clone());
        assert!(book.take_response().is_none(), "no quorum yet");
        book.ingest(attestation(&setup, 3, 8, 9)); // disagrees: not counted
        book.ingest(attestation(&setup, 1, 8, 7));
        assert!(book.take_response().is_none());
        book.ingest(attestation(&setup, 2, 8, 7));
        let Some((requesters, response)) = book.take_response() else {
            panic!("the archived cut has its quorum");
        };
        let owed: Vec<u32> = requesters.iter().map(|authority| authority.0).collect();
        assert_eq!(owed, [2, 3]);
        // The payload carries exactly the matching quorum, in authority
        // order, with the archived snapshots.
        let Envelope::CheckpointResponse {
            checkpoints,
            execution,
            resume: served,
        } = response
        else {
            panic!("a checkpoint response");
        };
        let signers: Vec<u32> = checkpoints.iter().map(|c| c.authority().0).collect();
        assert_eq!(signers, [0, 1, 2]);
        assert_eq!((execution, served), (vec![7; 16], resume));
        assert!(book.verify_quorum(&checkpoints).is_some());
        assert!(book.verify_quorum(&checkpoints[..2]).is_none());
        // Served: the snapshot and the debt are gone.
        assert_eq!(book.archived(), None);
        assert!(!book.snapshot_wanted());
        assert!(book.take_response().is_none());
    }

    #[test]
    fn attestations_are_held_for_a_fixed_window_whatever_is_signed() {
        let setup = TestCommittee::new(4, 7);
        let mut book = book_with(&setup, &[4, 8, 12, 16]);
        assert_eq!(book.collected(), [4, 8, 12, 16]);
        for authority in 1..3 {
            book.ingest(attestation(&setup, authority, 12, 7));
        }
        assert_eq!(book.latest_certified(), Some(12));
        assert_eq!(book.collected(), [12, 16], "4 and 8 can tell nothing now");
        // Attestations for a pruned position are not collected again, and
        // a lower position certifying late cannot lower the certified one.
        for authority in 1..4 {
            book.ingest(attestation(&setup, authority, 8, 7));
        }
        assert_eq!(book.latest_certified(), Some(12));
        assert_eq!(book.collected(), [12, 16]);

        // One Byzantine member signs 10,000 distinct positions ahead: the
        // map stops at its bound — the multiples of the interval within
        // eight cuts of the newest own one.
        let ahead = |position| attestation(&setup, 3, position, 7);
        for position in 17..10_017 {
            book.ingest(ahead(position));
        }
        let window: Vec<u64> = (12..=16 + 8 * INTERVAL)
            .step_by(INTERVAL as usize)
            .collect();
        assert_eq!(book.collected(), window);
        assert_eq!(window.len(), 2 + CHECKPOINT_RETENTION as usize);

        // Certification stalls while this validator keeps cutting: the
        // window slides with its newest cut, never wider than sixteen.
        for position in (20..=120).step_by(INTERVAL as usize) {
            sign(&mut book, &setup, position);
            book.ingest(ahead(position + 9 * INTERVAL)); // beyond: dropped
            assert!(book.collected().len() <= 2 * CHECKPOINT_RETENTION as usize);
        }
        let collected = book.collected();
        assert_eq!(collected.first(), Some(&(120 - 7 * INTERVAL)));
        assert!(collected.last() <= Some(&(120 + 8 * INTERVAL)));
        assert_eq!(book.latest().map(Checkpoint::position), Some(120));
    }

    #[test]
    fn a_peer_two_cuts_ahead_is_counted_when_this_validator_gets_there() {
        let setup = TestCommittee::new(4, 7);
        let mut book = book_with(&setup, &[4]);
        // Peers 1 and 2 already attest position 12; this validator is at 4.
        for authority in 1..3 {
            book.ingest(attestation(&setup, authority, 12, 7));
        }
        assert_eq!(book.latest_certified(), None);
        sign(&mut book, &setup, 8);
        assert_eq!(book.latest_certified(), None);
        sign(&mut book, &setup, 12);
        assert_eq!(book.latest_certified(), Some(12));
    }

    #[test]
    fn a_snapshot_whose_cut_cannot_certify_any_more_is_dropped() {
        let setup = TestCommittee::new(4, 7);
        let mut book = book_with(&setup, &[4]);
        book.request(1);
        sign(&mut book, &setup, 8);
        book.archive(8, vec![7; 16], cut(8, 7).1);
        // A later cut certifies first: position 8 falls out of the window
        // and its snapshot with it; the requester is still owed one.
        sign(&mut book, &setup, 12);
        for authority in 2..4 {
            book.ingest(attestation(&setup, authority, 12, 7));
        }
        assert_eq!(book.latest_certified(), Some(12));
        assert_eq!(book.archived(), None);
        assert!(book.snapshot_wanted());
        assert!(book.take_response().is_none());
    }

    #[test]
    fn verify_cut_rejects_each_tamper_on_its_own() {
        let setup = TestCommittee::new(4, 7);
        let checkpoint = attestation(&setup, 0, 8, 7);
        let (root, resume) = cut(8, 7);
        let snapshot = CheckpointBook::verify_cut(&checkpoint, root, &resume)
            .expect("the untampered cut verifies");
        assert_eq!((snapshot.position, snapshot.next_round), (8, 9));

        // Wrong execution root.
        assert!(CheckpointBook::verify_cut(&checkpoint, cut(8, 9).0, &resume).is_none());
        // Wrong resume hash.
        let mut bad = resume.clone();
        bad[0] ^= 0xff;
        assert!(CheckpointBook::verify_cut(&checkpoint, root, &bad).is_none());

        // The next two sign the tampered bytes, so both roots match and
        // only the check under test can fail.
        let sign_over = |position: u64, resume: &[u8]| {
            Checkpoint::sign(
                AuthorityIndex(0),
                position,
                LEADER,
                root,
                blake2b_256(resume),
                setup.keypair(AuthorityIndex(0)),
            )
        };
        // Position mismatch: a valid snapshot of position 8 under a
        // checkpoint claiming 12.
        let mismatched = sign_over(12, &resume);
        assert!(CheckpointBook::verify_cut(&mismatched, root, &resume).is_none());
        // Undecodable snapshot: truncated, and with trailing bytes.
        let truncated = &resume[..resume.len() - 1];
        let over_truncated = sign_over(8, truncated);
        assert!(CheckpointBook::verify_cut(&over_truncated, root, truncated).is_none());
        let mut padded = resume.clone();
        padded.push(0);
        let over_padded = sign_over(8, &padded);
        assert!(CheckpointBook::verify_cut(&over_padded, root, &padded).is_none());
    }
}
