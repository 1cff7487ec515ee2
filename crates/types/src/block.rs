//! Blocks: the single message type of the protocol.
//!
//! Section 2.3 of the paper specifies that a block carries (1) the author
//! and a signature, (2) a round number, (3) transactions, (4) at least
//! `2f + 1` distinct hashes of valid blocks from the previous round (plus
//! possibly older ones), and (5) a share of the global perfect coin.
//!
//! Parents are ordered and the order is protocol-relevant: the vote
//! interpretation (`IsVote`, Algorithm 3) performs a depth-first traversal
//! following the reference order, starting from the author's own previous
//! block.
//!
//! # A block keeps the bytes it arrived in
//!
//! A [`Block`] holds one shared buffer with exactly its canonical encoding.
//! Its transactions are views into that buffer and its parents are read
//! from it ([`Block::parents`]), so the decoded form repeats none of the
//! variable-length parts of the bytes. Each block's bytes are written or
//! copied once:
//!
//! - a decoded block copies exactly its own span out of whatever it is
//!   decoded from (a wire frame, a sync reply, a log record), so no block
//!   pins bytes that are not its own and the frame is freed at once. The
//!   copy runs at memory speed; keeping a single-block frame itself would
//!   leave long-lived buffers among the transport readers' short-lived
//!   ones, which costs more resident memory than the copy costs time;
//! - a block built here ([`BlockBuilder`]) is encoded once and its
//!   transactions re-pointed into that buffer, keeping the digests they
//!   carried.
//!
//! Encoding writes the retained bytes verbatim, so the wire frame and the
//! log record are the same bytes.
//!
//! # The content digest hashes each payload byte once
//!
//! A block's digest is BLAKE2b-256 of
//!
//! ```text
//! "mahimahi-block-v2" ‖ author ‖ round ‖ parents ‖ tx count
//!     ‖ digest(tx₁) ‖ … ‖ digest(txₖ) ‖ coin share
//! ```
//!
//! where each field but the transactions is its encoding as it lies in the
//! block's bytes, and `digest(tx)` is the transaction's own digest
//! ([`Transaction::digest`]). Every validator needs each transaction's
//! digest anyway (mempool dedup, receipts, execution), so the block digest
//! costs 32 bytes of hashing per transaction on top of that instead of a
//! second pass over the payload: decoding a block hashes each transaction
//! as it walks the list and leaves the digest on the view, and building
//! one reads the digests its transactions already carry. The signature
//! covers this digest, so it binds every payload byte and every boundary
//! between transactions.
//!
//! This is a whole-committee (flag-day) change from `mahimahi-block-v1`,
//! which hashed the encoding up to the signature: the encodings are
//! byte-identical but every digest differs, so every [`BlockRef`] and every
//! signature does too. A v1 and a v2 validator cannot share a DAG — each
//! finds the other's blocks badly signed — and a log written by a v1
//! validator restores none of its blocks.

use mahimahi_crypto::blake2b::Blake2b;
use mahimahi_crypto::coin::{CoinSecret, CoinShare};
use mahimahi_crypto::schnorr::{Keypair, Signature};
use mahimahi_crypto::Digest;
use std::error::Error as StdError;
use std::fmt;
use std::sync::Arc;

use crate::codec::{CodecError, Decode, Decoder, Encode, Encoder};
use crate::committee::Committee;
use crate::ids::{AuthorityIndex, Round, Slot};
use crate::transaction::Transaction;

const DIGEST_DOMAIN: &[u8] = b"mahimahi-block-v2";
/// Bytes an author signs: the domain separator, then the content digest.
const SIGNED_BYTES: usize = DIGEST_DOMAIN.len() + Digest::LENGTH;

/// Bytes of one encoded [`BlockRef`]: round, author, digest.
const BLOCK_REF_BYTES: usize = 8 + 4 + Digest::LENGTH;
/// Where a block's encoding counts its parents: after author and round.
/// The parents follow the count.
const PARENT_COUNT_AT: usize = 4 + 8;

/// A hash reference to a block: `(author, round, digest)`.
///
/// The DAG is connected exclusively through these references.
///
/// # Example
///
/// ```
/// use mahimahi_types::{Block, AuthorityIndex};
///
/// let genesis = Block::genesis(AuthorityIndex(0));
/// let reference = genesis.reference();
/// assert_eq!(reference.round, 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockRef {
    /// The round of the referenced block.
    pub round: Round,
    /// The author of the referenced block.
    pub author: AuthorityIndex,
    /// The content digest of the referenced block.
    pub digest: Digest,
}

impl BlockRef {
    /// The slot this reference occupies.
    pub fn slot(&self) -> Slot {
        Slot::new(self.round, self.author)
    }
}

impl fmt::Display for BlockRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex = self.digest.to_string();
        write!(f, "B({},{},{})", self.author, self.round, &hex[..8])
    }
}

impl fmt::Debug for BlockRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl Encode for BlockRef {
    fn encode(&self, encoder: &mut Encoder) {
        encoder.put_u64(self.round);
        encoder.put_u32(self.author.0);
        encoder.put_bytes(self.digest.as_bytes());
    }
    fn encoded_len(&self) -> usize {
        8 + 4 + Digest::LENGTH
    }
}

impl Decode for BlockRef {
    fn decode(decoder: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let round = decoder.get_u64()?;
        let author = AuthorityIndex(decoder.get_u32()?);
        let digest = Digest::new(decoder.get_array::<32>()?);
        Ok(BlockRef {
            round,
            author,
            digest,
        })
    }
}

/// A block's parent references in order, read from its encoding (see
/// [`Block::parents`]).
#[derive(Clone, Debug)]
pub struct Parents<'a>(std::slice::ChunksExact<'a, u8>);

impl Iterator for Parents<'_> {
    type Item = BlockRef;

    fn next(&mut self) -> Option<BlockRef> {
        self.0.next().map(|bytes| {
            BlockRef::from_bytes_exact(bytes).expect("parents are checked when a block is parsed")
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for Parents<'_> {}

/// A signed DAG vertex.
///
/// Blocks are immutable once constructed; they are shared widely through
/// [`Arc`] (see [`Block::into_arc`]). The content digest is computed at
/// construction and cached in [`Block::reference`]. The block's encoding is
/// retained (see the [module docs](self)); two blocks are equal when their
/// encodings are.
#[derive(Clone)]
pub struct Block {
    /// Cached `(round, author, digest)`; the digest is computed over
    /// `bytes`.
    reference: BlockRef,
    /// Views into `bytes`.
    transactions: Box<[Transaction]>,
    /// Exactly this block's encoding. The parents, the coin share and the
    /// signature are read from it.
    bytes: Arc<Vec<u8>>,
    /// Where the coin share's presence byte sits in `bytes`.
    coin_share_at: u32,
}

impl Block {
    /// The deterministic genesis block of `authority` (round 0).
    ///
    /// Genesis blocks carry no transactions, no parents, and no coin share;
    /// they bootstrap parent quorums for round 1.
    pub fn genesis(authority: AuthorityIndex) -> Block {
        // Genesis is unsigned (its bytes are fixed by convention and
        // validated structurally); a fixed dummy signature keeps the type
        // uniform.
        let signature = Keypair::from_seed(u64::MAX).sign(b"mahimahi-genesis");
        Block::assemble(authority, 0, &[], &[], None, |_| signature)
    }

    /// All genesis blocks for a committee of `committee_size`.
    pub fn all_genesis(committee_size: usize) -> Vec<Block> {
        (0..committee_size)
            .map(|index| Block::genesis(AuthorityIndex::from(index)))
            .collect()
    }

    /// The block author.
    pub fn author(&self) -> AuthorityIndex {
        self.reference.author
    }

    /// The block round.
    pub fn round(&self) -> Round {
        self.reference.round
    }

    /// The slot `(round, author)` this block occupies.
    pub fn slot(&self) -> Slot {
        self.reference.slot()
    }

    /// Ordered parent references (own previous block first), read from the
    /// block's encoding.
    pub fn parents(&self) -> Parents<'_> {
        let count = &self.bytes[PARENT_COUNT_AT..PARENT_COUNT_AT + 4];
        let count = u32::from_le_bytes(count.try_into().expect("4 bytes")) as usize;
        let start = PARENT_COUNT_AT + 4;
        Parents(self.bytes[start..start + count * BLOCK_REF_BYTES].chunks_exact(BLOCK_REF_BYTES))
    }

    /// The transactions carried by this block.
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// The coin share for this block's round (absent only in genesis),
    /// read from the block's encoding.
    pub fn coin_share(&self) -> Option<CoinShare> {
        let at = self.coin_share_at as usize;
        (self.bytes[at] == 1).then(|| {
            let share = &self.bytes[at + 1..at + 1 + CoinShare::LENGTH];
            CoinShare::from_bytes(share.try_into().expect("32 bytes"))
                .expect("the coin share is checked when a block is parsed")
        })
    }

    /// The author's signature over the content digest: the last bytes of
    /// the block's encoding.
    pub fn signature(&self) -> Signature {
        let signature = &self.bytes[self.bytes.len() - Signature::LENGTH..];
        Signature::from_bytes(signature.try_into().expect("16 bytes"))
            .expect("the signature is checked when a block is parsed")
    }

    /// The cached `(round, author, digest)` reference.
    pub fn reference(&self) -> BlockRef {
        self.reference
    }

    /// The content digest.
    pub fn digest(&self) -> Digest {
        self.reference.digest
    }

    /// Wraps the block for cheap sharing.
    pub fn into_arc(self) -> Arc<Block> {
        Arc::new(self)
    }

    /// The block's canonical encoding — the bytes it arrived in, or was
    /// built as. [`Encode`] writes exactly these.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Parses `bytes`, exactly one block's encoding, into a block that
    /// keeps them: its transactions become views into `bytes`.
    fn parse(bytes: Arc<Vec<u8>>) -> Result<Block, CodecError> {
        let mut decoder = Decoder::new(&bytes);
        let author = AuthorityIndex(decoder.get_u32()?);
        let round = decoder.get_u64()?;
        for _ in 0..decoder.get_u32()? {
            decoder.get_array::<BLOCK_REF_BYTES>()?;
        }
        let tx_count = decoder.get_u32()? as usize;
        let first_tx = decoder.position();
        // Every transaction takes at least its length prefix: a count the
        // input cannot hold never reserves more than the input's size.
        let mut transactions = Vec::with_capacity(tx_count.min(decoder.remaining() / 4));
        for _ in 0..tx_count {
            let len = decoder.get_var_bytes()?.len();
            transactions.push(Transaction::view(&bytes, decoder.position() - len, len));
        }
        let coin_share_at = decoder.position();
        match decoder.get_u8()? {
            0 => {}
            1 => {
                CoinShare::from_bytes(&decoder.get_array::<32>()?)
                    .ok_or(CodecError::InvalidValue("coin share"))?;
            }
            _ => return Err(CodecError::InvalidValue("coin share discriminant")),
        }
        // Hashes each transaction where it lies and leaves the digest on
        // its view.
        let digest = content_digest(
            &bytes[..first_tx],
            &transactions,
            &bytes[coin_share_at..decoder.position()],
        );
        Signature::from_bytes(&decoder.get_array::<16>()?)
            .ok_or(CodecError::InvalidValue("signature"))?;
        decoder.finish()?;
        Ok(Block {
            reference: BlockRef {
                round,
                author,
                digest,
            },
            transactions: transactions.into_boxed_slice(),
            coin_share_at: u32::try_from(coin_share_at).expect("block encodings are below 4 GiB"),
            bytes,
        })
    }

    /// Writes a block's encoding into a buffer of its own — once — with
    /// the signature `sign` makes over its content digest, and re-points
    /// `transactions` into it. The digest reads the digests `transactions`
    /// carry (hashing any that carry none), and they go along.
    fn assemble(
        author: AuthorityIndex,
        round: Round,
        parents: &[BlockRef],
        transactions: &[Transaction],
        coin_share: Option<CoinShare>,
        sign: impl FnOnce(&Digest) -> Signature,
    ) -> Block {
        let first_tx = PARENT_COUNT_AT + 4 + parents.len() * BLOCK_REF_BYTES + 4;
        let len = first_tx
            + transactions.iter().map(|tx| 4 + tx.len()).sum::<usize>()
            + 1
            + coin_share.map_or(0, |_| CoinShare::LENGTH)
            + Signature::LENGTH;
        let mut encoder = Encoder::with_capacity(len);
        encoder.put_u32(author.0);
        encoder.put_u64(round);
        encoder.put_u32(u32::try_from(parents.len()).expect("parent count fits u32"));
        for parent in parents {
            parent.encode(&mut encoder);
        }
        encoder.put_u32(u32::try_from(transactions.len()).expect("tx count fits u32"));
        for tx in transactions {
            encoder.put_var_bytes(tx.as_bytes());
        }
        let coin_share_at = encoder.len();
        match &coin_share {
            None => encoder.put_u8(0),
            Some(share) => {
                encoder.put_u8(1);
                encoder.put_bytes(&share.to_bytes());
            }
        }
        let encoded = encoder.as_bytes();
        let digest = content_digest(
            &encoded[..first_tx],
            transactions,
            &encoded[coin_share_at..],
        );
        let signature = sign(&digest);
        encoder.put_bytes(&signature.to_bytes());
        debug_assert_eq!(encoder.len(), len);
        let bytes = Arc::new(encoder.into_bytes());
        let mut offset = first_tx;
        let transactions = transactions
            .iter()
            .map(|tx| {
                let moved = tx.moved_to(&bytes, offset + 4);
                offset += 4 + tx.len();
                moved
            })
            .collect();
        Block {
            reference: BlockRef {
                round,
                author,
                digest,
            },
            transactions,
            bytes,
            coin_share_at: u32::try_from(coin_share_at).expect("block encodings are below 4 GiB"),
        }
    }

    fn signing_message(digest: &Digest) -> [u8; SIGNED_BYTES] {
        let mut message = [0; SIGNED_BYTES];
        let (domain, digest_bytes) = message.split_at_mut(DIGEST_DOMAIN.len());
        domain.copy_from_slice(DIGEST_DOMAIN);
        digest_bytes.copy_from_slice(digest.as_bytes());
        message
    }

    /// The exact bytes the author signed: domain separator ‖ content
    /// digest. Batch verifiers pair this with [`Block::signature`] and the
    /// author's public key.
    pub fn signed_bytes(&self) -> [u8; SIGNED_BYTES] {
        Self::signing_message(&self.reference.digest)
    }

    /// Validates the block against the committee (Section 2.3's validity
    /// conditions, minus causal-history availability, which is the DAG
    /// store's responsibility).
    ///
    /// # Errors
    ///
    /// Returns the first violated condition as a [`ValidationError`].
    pub fn verify(&self, committee: &Committee) -> Result<(), ValidationError> {
        if self.verify_prelude(committee)? {
            return Ok(()); // genesis: fixed by convention, nothing signed
        }

        let public_key = committee
            .public_key(self.author())
            .expect("author existence checked in the prelude");
        let message = Self::signing_message(&self.reference.digest);
        if public_key.verify(&message, &self.signature()).is_err() {
            return Err(ValidationError::InvalidSignature);
        }

        self.verify_parents(committee)?;

        // Coin share: present, owned by the author, valid for this round.
        let share = self.coin_share_checked()?;
        if committee
            .coin_public()
            .verify_share(self.round(), &share)
            .is_err()
        {
            return Err(ValidationError::InvalidCoinShare);
        }
        Ok(())
    }

    /// The cheap, structural subset of [`Block::verify`]: committee
    /// membership, the genesis convention, parent rules, and coin-share
    /// presence/ownership — everything except the signature and the
    /// coin-share proof.
    ///
    /// The admission pipeline runs this per block and then checks the two
    /// expensive cryptographic conditions across a whole batch at once
    /// (`schnorr::batch_verify_attributed`, `CoinPublic::verify_shares`);
    /// a block passing both this and the batched checks satisfies exactly
    /// the conditions of [`Block::verify`].
    ///
    /// # Errors
    ///
    /// Returns the first violated structural condition.
    pub fn verify_structure(&self, committee: &Committee) -> Result<(), ValidationError> {
        if self.verify_prelude(committee)? {
            return Ok(());
        }
        self.verify_parents(committee)?;
        self.coin_share_checked()?;
        Ok(())
    }

    /// Membership and genesis checks; `Ok(true)` means the block is a
    /// (valid) genesis block with nothing further to verify.
    fn verify_prelude(&self, committee: &Committee) -> Result<bool, ValidationError> {
        if !committee.exists(self.author()) {
            return Err(ValidationError::UnknownAuthority(self.author()));
        }
        if self.round() == 0 {
            // Genesis blocks are fixed by convention.
            if *self != Block::genesis(self.author()) {
                return Err(ValidationError::MalformedGenesis);
            }
            return Ok(true);
        }
        Ok(false)
    }

    /// Parent structure: own previous block first, no duplicates, all
    /// older than this block, quorum of distinct authors at round - 1.
    fn verify_parents(&self, committee: &Committee) -> Result<(), ValidationError> {
        let (author, round) = (self.author(), self.round());
        let parents = self.parents();
        let Some(first) = parents.clone().next() else {
            return Err(ValidationError::MissingParents);
        };
        if first.author != author || first.round != round - 1 {
            return Err(ValidationError::FirstParentNotOwn);
        }
        let mut seen = std::collections::HashSet::with_capacity(parents.len());
        let mut previous_round_authors = std::collections::HashSet::new();
        for parent in parents {
            if parent.round >= round {
                return Err(ValidationError::ParentNotOlder(parent));
            }
            if !committee.exists(parent.author) {
                return Err(ValidationError::UnknownAuthority(parent.author));
            }
            if !seen.insert(parent) {
                return Err(ValidationError::DuplicateParent(parent));
            }
            if parent.round == round - 1 {
                previous_round_authors.insert(parent.author);
            }
        }
        if previous_round_authors.len() < committee.quorum_threshold() {
            return Err(ValidationError::InsufficientParentQuorum {
                got: previous_round_authors.len(),
                needed: committee.quorum_threshold(),
            });
        }
        Ok(())
    }

    /// Coin-share presence and ownership (not the proof).
    fn coin_share_checked(&self) -> Result<CoinShare, ValidationError> {
        let Some(share) = self.coin_share() else {
            return Err(ValidationError::MissingCoinShare);
        };
        if share.index() != self.author().as_u64() {
            return Err(ValidationError::ForeignCoinShare);
        }
        Ok(share)
    }

    /// Total serialized size in bytes (used by the bandwidth model).
    pub fn serialized_size(&self) -> usize {
        self.encoded_len()
    }
}

/// The content digest (see the [module docs](self)): the domain separator,
/// the encoding from the author up to the transaction count (`head`), each
/// transaction's digest — computed here where a view carries none, and
/// left on it — and the coin share's encoding (`coin_share`).
fn content_digest(head: &[u8], transactions: &[Transaction], coin_share: &[u8]) -> Digest {
    let mut hasher = Blake2b::new(Digest::LENGTH);
    hasher.update(DIGEST_DOMAIN);
    hasher.update(head);
    for tx in transactions {
        hasher.update(tx.digest().as_bytes());
    }
    hasher.update(coin_share);
    hasher.finalize_digest()
}

/// Moves `decoder` past one block encoding, checking only that the lengths
/// fit — so a block inside a larger frame can be copied out as exactly its
/// own bytes before it is parsed.
fn skip_encoding(decoder: &mut Decoder<'_>) -> Result<(), CodecError> {
    decoder.get_u32()?;
    decoder.get_u64()?;
    for _ in 0..decoder.get_u32()? {
        decoder.get_array::<BLOCK_REF_BYTES>()?;
    }
    for _ in 0..decoder.get_u32()? {
        decoder.get_var_bytes()?;
    }
    match decoder.get_u8()? {
        0 => {}
        1 => {
            decoder.get_array::<{ CoinShare::LENGTH }>()?;
        }
        _ => return Err(CodecError::InvalidValue("coin share discriminant")),
    }
    decoder.get_array::<{ Signature::LENGTH }>()?;
    Ok(())
}

impl PartialEq for Block {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Block {}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.reference)
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{{parents: {:?}, txs: {}}}",
            self.reference,
            self.parents().collect::<Vec<_>>(),
            self.transactions.len()
        )
    }
}

impl Encode for Block {
    fn encode(&self, encoder: &mut Encoder) {
        encoder.put_bytes(self.as_bytes());
    }

    fn encoded_len(&self) -> usize {
        self.as_bytes().len()
    }
}

/// Decoding copies exactly the block's own span into a buffer of its own,
/// which the block then keeps (see the [module docs](self)).
impl Decode for Block {
    fn decode(decoder: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let start = decoder.position();
        let mut probe = decoder.clone();
        skip_encoding(&mut probe)?;
        let block = Block::parse(Arc::new(probe.consumed_since(start).to_vec()))?;
        *decoder = probe;
        Ok(block)
    }
}

/// Builder assembling and signing a [`Block`].
///
/// # Example
///
/// ```
/// use mahimahi_types::{Block, BlockBuilder, TestCommittee, AuthorityIndex, Transaction};
///
/// let setup = TestCommittee::new(4, 1);
/// let genesis = Block::all_genesis(4);
/// let parents = genesis.iter().map(|b| b.reference()).collect::<Vec<_>>();
/// // Own previous block must come first.
/// let mut ordered = vec![parents[2]];
/// ordered.extend(parents.iter().copied().filter(|p| p.author != AuthorityIndex(2)));
///
/// let block = BlockBuilder::new(AuthorityIndex(2), 1)
///     .parents(ordered)
///     .transaction(Transaction::benchmark(0))
///     .build(&setup);
/// assert!(block.verify(setup.committee()).is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct BlockBuilder {
    author: AuthorityIndex,
    round: Round,
    parents: Vec<BlockRef>,
    transactions: Vec<Transaction>,
    coin_share_override: Option<CoinShare>,
}

impl BlockBuilder {
    /// Starts a block for `author` at `round`.
    pub fn new(author: AuthorityIndex, round: Round) -> Self {
        BlockBuilder {
            author,
            round,
            parents: Vec::new(),
            transactions: Vec::new(),
            coin_share_override: None,
        }
    }

    /// Sets the ordered parent references.
    pub fn parents(mut self, parents: Vec<BlockRef>) -> Self {
        self.parents = parents;
        self
    }

    /// Appends one parent reference.
    pub fn parent(mut self, parent: BlockRef) -> Self {
        self.parents.push(parent);
        self
    }

    /// Appends a transaction.
    pub fn transaction(mut self, transaction: Transaction) -> Self {
        self.transactions.push(transaction);
        self
    }

    /// Appends many transactions.
    pub fn transactions<I: IntoIterator<Item = Transaction>>(mut self, iter: I) -> Self {
        self.transactions.extend(iter);
        self
    }

    /// Overrides the coin share embedded in the block (instead of deriving
    /// it from the author's coin secret). The block is still signed over the
    /// resulting digest, producing a *signature-valid* block whose coin
    /// share may be garbage — exactly the Byzantine input that
    /// share-handling code must survive. Test and adversary use.
    pub fn coin_share(mut self, share: CoinShare) -> Self {
        self.coin_share_override = Some(share);
        self
    }

    /// Signs and assembles the block using the authority's secrets from a
    /// [`TestCommittee`].
    ///
    /// [`TestCommittee`]: crate::committee::TestCommittee
    pub fn build(self, setup: &crate::committee::TestCommittee) -> Block {
        let keypair = setup.keypair(self.author).clone();
        let coin_secret = setup.coin_secret(self.author).clone();
        self.build_with(&keypair, &coin_secret)
    }

    /// Signs and assembles the block from explicit secrets.
    pub fn build_with(self, keypair: &Keypair, coin_secret: &CoinSecret) -> Block {
        let coin_share = self
            .coin_share_override
            .unwrap_or_else(|| coin_secret.share_for_round(self.round));
        Block::assemble(
            self.author,
            self.round,
            &self.parents,
            &self.transactions,
            Some(coin_share),
            |digest| keypair.sign(&Block::signing_message(digest)),
        )
    }

    /// Test support: two round-1 blocks by `author` over `setup`'s genesis
    /// that [`Block::verify`] rejects — one whose signature is stale (a
    /// parent-digest byte flipped after signing: it still decodes) and one
    /// validly signed whose coin share fails its proof (dealt by a
    /// committee of another seed). The workspace's test suites use them to
    /// show that no path inserts a block that fails verification.
    #[doc(hidden)]
    pub fn failing_verification(
        setup: &crate::committee::TestCommittee,
        author: AuthorityIndex,
    ) -> [Arc<Block>; 2] {
        let size = setup.committee().size();
        let genesis = Block::all_genesis(size);
        let mut parents = vec![genesis[author.as_usize()].reference()];
        parents.extend(
            genesis
                .iter()
                .map(Block::reference)
                .filter(|r| r.author != author),
        );
        let signed = |coin_secret: &CoinSecret| {
            BlockBuilder::new(author, 1)
                .parents(parents.clone())
                .build_with(setup.keypair(author), coin_secret)
        };
        let mut stale = signed(setup.coin_secret(author)).to_bytes_vec();
        stale[30] ^= 0xff;
        let stranger = crate::committee::TestCommittee::new(size, 0x0bad_5eed);
        let blocks = [
            Block::from_bytes_exact(&stale).expect("still decodes"),
            signed(stranger.coin_secret(author)),
        ];
        assert!(blocks.iter().all(|b| b.verify(setup.committee()).is_err()));
        blocks.map(Block::into_arc)
    }
}

/// Reasons a block fails validation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ValidationError {
    /// The author (or a parent's author) is not a committee member.
    UnknownAuthority(AuthorityIndex),
    /// The signature does not verify against the author's key.
    InvalidSignature,
    /// A round-0 block differs from the conventional genesis block.
    MalformedGenesis,
    /// A non-genesis block carries no parents.
    MissingParents,
    /// The first parent is not the author's own block at the previous round.
    FirstParentNotOwn,
    /// A parent reference is not strictly older than the block.
    ParentNotOlder(BlockRef),
    /// The same parent appears twice.
    DuplicateParent(BlockRef),
    /// Fewer than `2f + 1` distinct authors among previous-round parents.
    InsufficientParentQuorum {
        /// Distinct previous-round parent authors found.
        got: usize,
        /// The quorum threshold `2f + 1`.
        needed: usize,
    },
    /// A non-genesis block carries no coin share.
    MissingCoinShare,
    /// The coin share belongs to a different authority.
    ForeignCoinShare,
    /// The coin share's validity proof fails for this round.
    InvalidCoinShare,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::UnknownAuthority(authority) => {
                write!(f, "unknown authority {authority}")
            }
            ValidationError::InvalidSignature => write!(f, "invalid block signature"),
            ValidationError::MalformedGenesis => write!(f, "malformed genesis block"),
            ValidationError::MissingParents => write!(f, "block has no parents"),
            ValidationError::FirstParentNotOwn => {
                write!(f, "first parent is not the author's previous block")
            }
            ValidationError::ParentNotOlder(parent) => {
                write!(f, "parent {parent} is not older than the block")
            }
            ValidationError::DuplicateParent(parent) => {
                write!(f, "duplicate parent {parent}")
            }
            ValidationError::InsufficientParentQuorum { got, needed } => {
                write!(f, "only {got} previous-round parents, need {needed}")
            }
            ValidationError::MissingCoinShare => write!(f, "missing coin share"),
            ValidationError::ForeignCoinShare => {
                write!(f, "coin share authored by a different validator")
            }
            ValidationError::InvalidCoinShare => write!(f, "invalid coin share"),
        }
    }
}

impl StdError for ValidationError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::committee::TestCommittee;
    use crate::envelope::Envelope;
    use mahimahi_crypto::blake2b::blake2b_256;

    fn setup() -> TestCommittee {
        TestCommittee::new(4, 42)
    }

    /// The content digest by its definition (see the module docs): every
    /// field re-encoded into a fresh buffer, each transaction replaced by
    /// the hash of its payload, then hashed. Decoded and built blocks hash
    /// their retained bytes and carried digests instead and must agree
    /// with it.
    fn reencoded_digest(block: &Block) -> Digest {
        let mut encoder = Encoder::new();
        encoder.put_bytes(DIGEST_DOMAIN);
        encoder.put_u32(block.author().0);
        encoder.put_u64(block.round());
        block.parents().collect::<Vec<_>>().encode(&mut encoder);
        encoder.put_u32(block.transactions.len() as u32);
        for tx in block.transactions() {
            encoder.put_bytes(blake2b_256(tx.as_bytes()).as_bytes());
        }
        match block.coin_share() {
            None => encoder.put_u8(0),
            Some(share) => {
                encoder.put_u8(1);
                encoder.put_bytes(&share.to_bytes());
            }
        }
        blake2b_256(&encoder.into_bytes())
    }

    /// `block`'s fields with `edit` applied, re-encoded under `signature`
    /// (or the original one): the shape of a tampered block.
    fn reassemble(
        block: &Block,
        edit: impl FnOnce(&mut Vec<Transaction>, &mut Option<CoinShare>),
        signature: impl FnOnce(&Digest) -> Signature,
    ) -> Block {
        let mut transactions = block.transactions.to_vec();
        let mut coin_share = block.coin_share();
        edit(&mut transactions, &mut coin_share);
        Block::assemble(
            block.author(),
            block.round(),
            &block.parents().collect::<Vec<_>>(),
            &transactions,
            coin_share,
            signature,
        )
    }

    fn genesis_parents(author: AuthorityIndex) -> Vec<BlockRef> {
        let genesis = Block::all_genesis(4);
        let mut parents = vec![genesis[author.as_usize()].reference()];
        parents.extend(
            genesis
                .iter()
                .map(Block::reference)
                .filter(|reference| reference.author != author),
        );
        parents
    }

    fn valid_block(setup: &TestCommittee, author: u32) -> Block {
        BlockBuilder::new(AuthorityIndex(author), 1)
            .parents(genesis_parents(AuthorityIndex(author)))
            .transaction(Transaction::benchmark(1))
            .build(setup)
    }

    #[test]
    fn valid_block_verifies() {
        let setup = setup();
        let block = valid_block(&setup, 0);
        assert_eq!(block.verify(setup.committee()), Ok(()));
    }

    #[test]
    fn genesis_blocks_verify_and_are_deterministic() {
        let setup = setup();
        for authority in setup.committee().authorities() {
            let genesis = Block::genesis(authority);
            assert_eq!(genesis.verify(setup.committee()), Ok(()));
            assert_eq!(genesis, Block::genesis(authority));
        }
    }

    #[test]
    fn unknown_author_rejected() {
        let setup = setup();
        let bogus = Block::genesis(AuthorityIndex(17));
        assert_eq!(
            bogus.verify(setup.committee()),
            Err(ValidationError::UnknownAuthority(AuthorityIndex(17)))
        );
    }

    #[test]
    fn tampered_genesis_rejected() {
        let setup = setup();
        let genesis = Block::genesis(AuthorityIndex(0));
        let signature = genesis.signature();
        let genesis = reassemble(
            &genesis,
            |transactions, _| transactions.push(Transaction::benchmark(0)),
            |_| signature,
        );
        assert_eq!(
            genesis.verify(setup.committee()),
            Err(ValidationError::MalformedGenesis)
        );
    }

    #[test]
    fn signature_covers_content() {
        let setup = setup();
        let block = valid_block(&setup, 0);
        let signature = block.signature();
        let block = reassemble(
            &block,
            |transactions, _| transactions.push(Transaction::benchmark(7)),
            |_| signature,
        );
        assert_eq!(
            block.verify(setup.committee()),
            Err(ValidationError::InvalidSignature)
        );
    }

    #[test]
    fn wrong_keypair_rejected() {
        let setup = setup();
        // Author 0's block signed with authority 1's key.
        let block = BlockBuilder::new(AuthorityIndex(0), 1)
            .parents(genesis_parents(AuthorityIndex(0)))
            .build_with(
                setup.keypair(AuthorityIndex(1)),
                setup.coin_secret(AuthorityIndex(0)),
            );
        assert_eq!(
            block.verify(setup.committee()),
            Err(ValidationError::InvalidSignature)
        );
    }

    #[test]
    fn missing_parents_rejected() {
        let setup = setup();
        let block = BlockBuilder::new(AuthorityIndex(0), 1)
            .parents(Vec::new())
            .build(&setup);
        assert_eq!(
            block.verify(setup.committee()),
            Err(ValidationError::MissingParents)
        );
    }

    #[test]
    fn first_parent_must_be_own_previous_block() {
        let setup = setup();
        let genesis = Block::all_genesis(4);
        // Parents start with someone else's block.
        let parents: Vec<BlockRef> = genesis.iter().map(Block::reference).collect();
        let block = BlockBuilder::new(AuthorityIndex(2), 1)
            .parents(parents)
            .build(&setup);
        assert_eq!(
            block.verify(setup.committee()),
            Err(ValidationError::FirstParentNotOwn)
        );
    }

    #[test]
    fn parent_from_same_round_rejected() {
        let setup = setup();
        let mut parents = genesis_parents(AuthorityIndex(0));
        let sibling = valid_block(&setup, 1);
        parents.push(sibling.reference());
        let block = BlockBuilder::new(AuthorityIndex(0), 1)
            .parents(parents)
            .build(&setup);
        assert_eq!(
            block.verify(setup.committee()),
            Err(ValidationError::ParentNotOlder(sibling.reference()))
        );
    }

    #[test]
    fn duplicate_parent_rejected() {
        let setup = setup();
        let mut parents = genesis_parents(AuthorityIndex(0));
        parents.push(parents[1]);
        let block = BlockBuilder::new(AuthorityIndex(0), 1)
            .parents(parents)
            .build(&setup);
        assert!(matches!(
            block.verify(setup.committee()),
            Err(ValidationError::DuplicateParent(_))
        ));
    }

    #[test]
    fn insufficient_quorum_rejected() {
        let setup = setup();
        // Only two previous-round parents (own + one) — below 2f+1 = 3.
        let parents = genesis_parents(AuthorityIndex(0))[..2].to_vec();
        let block = BlockBuilder::new(AuthorityIndex(0), 1)
            .parents(parents)
            .build(&setup);
        assert_eq!(
            block.verify(setup.committee()),
            Err(ValidationError::InsufficientParentQuorum { got: 2, needed: 3 })
        );
    }

    #[test]
    fn foreign_coin_share_rejected() {
        let setup = setup();
        let block = BlockBuilder::new(AuthorityIndex(0), 1)
            .parents(genesis_parents(AuthorityIndex(0)))
            .build_with(
                setup.keypair(AuthorityIndex(0)),
                setup.coin_secret(AuthorityIndex(1)),
            );
        assert_eq!(
            block.verify(setup.committee()),
            Err(ValidationError::ForeignCoinShare)
        );
    }

    #[test]
    fn missing_coin_share_rejected() {
        let setup = setup();
        let block = reassemble(
            &valid_block(&setup, 0),
            |_, coin_share| *coin_share = None,
            |digest| {
                setup
                    .keypair(AuthorityIndex(0))
                    .sign(&Block::signing_message(digest))
            },
        );
        assert_eq!(
            block.verify(setup.committee()),
            Err(ValidationError::MissingCoinShare)
        );
    }

    #[test]
    fn block_round_trips_through_codec() {
        let setup = setup();
        let block = valid_block(&setup, 3);
        let bytes = block.to_bytes_vec();
        assert_eq!(bytes.len(), block.encoded_len());
        let decoded = Block::from_bytes_exact(&bytes).unwrap();
        assert_eq!(decoded, block);
        assert_eq!(decoded.reference(), block.reference());
        assert_eq!(decoded.verify(setup.committee()), Ok(()));
    }

    /// What every block must satisfy however it came to be: its bytes are
    /// its encoding and its wire frame's body, decoding them gives it back
    /// with the same bytes, and its digest is the re-encoding digest.
    fn assert_retained_bytes_are_canonical(block: &Block) {
        let bytes = block.to_bytes_vec();
        assert_eq!(bytes, block.as_bytes());
        assert_eq!(block.encoded_len(), bytes.len());
        let frame = Envelope::Block(Arc::new(block.clone())).to_bytes_vec();
        assert_eq!(frame[1..], bytes[..]);
        let decoded = Block::from_bytes_exact(&bytes).unwrap();
        assert_eq!(decoded.to_bytes_vec(), bytes);
        assert_eq!(decoded, *block);
        assert_eq!(block.digest(), reencoded_digest(block));
        assert_eq!(decoded.digest(), reencoded_digest(block));
        assert!(decoded.parents().eq(block.parents()));
        assert_eq!(decoded.parents().len(), block.parents().count());
        for tx in block.transactions() {
            assert_eq!(tx.digest(), blake2b_256(tx.as_bytes()));
        }
    }

    #[test]
    fn decoded_digest_matches_reencoded_digest() {
        // Built blocks hash the buffer they are encoded into once; decoded
        // ones hash the span they arrived in. Both are pinned to the
        // re-encoding digest — for the no-tx / no-coin-share genesis
        // layout, a one- and a many-transaction block — whichever way the
        // bytes came: built, a single-block wire frame, a multi-block
        // reply. Each decoded block holds a copy of exactly its own bytes.
        let setup = setup();
        let built = [
            Block::genesis(AuthorityIndex(1)),
            valid_block(&setup, 2),
            BlockBuilder::new(AuthorityIndex(0), 1)
                .parents(genesis_parents(AuthorityIndex(0)))
                .transactions((0..5).map(Transaction::benchmark))
                .build(&setup),
        ];
        let reply = Envelope::Response(built.iter().cloned().map(Arc::new).collect());
        let Ok(Envelope::Response(replied)) = Envelope::from_bytes_exact(&reply.to_bytes_vec())
        else {
            panic!("a sync reply decodes");
        };
        for (block, replied) in built.iter().zip(replied) {
            assert_retained_bytes_are_canonical(block);
            let frame = Envelope::Block(Arc::new(block.clone())).to_bytes_vec();
            let Ok(Envelope::Block(framed)) = Envelope::from_bytes_exact(&frame) else {
                panic!("a block frame decodes");
            };
            for decoded in [framed, replied] {
                assert_eq!(decoded.bytes.len(), block.encoded_len(), "its own bytes");
                assert_retained_bytes_are_canonical(&decoded);
            }
        }
    }

    #[test]
    fn parents_are_read_from_the_encoding_in_order() {
        let setup = setup();
        let parents = genesis_parents(AuthorityIndex(3));
        let block = BlockBuilder::new(AuthorityIndex(3), 1)
            .parents(parents.clone())
            .build(&setup);
        let decoded = Block::from_bytes_exact(&block.to_bytes_vec()).unwrap();
        for block in [&block, &decoded] {
            assert_eq!(block.parents().collect::<Vec<_>>(), parents);
            assert_eq!(block.parents().len(), parents.len());
        }
        assert_eq!(Block::genesis(AuthorityIndex(0)).parents().len(), 0);
        assert_eq!(decoded.coin_share(), block.coin_share());
        assert_eq!(decoded.signature(), block.signature());
        assert_eq!(Block::genesis(AuthorityIndex(0)).coin_share(), None);
    }

    #[test]
    fn a_block_holds_its_reference_its_views_and_its_bytes() {
        // Everything else is read from the bytes: a block pays for its
        // retained encoding by repeating none of it.
        assert!(std::mem::size_of::<Block>() <= 80);
    }

    #[test]
    fn a_built_block_keeps_the_digests_its_transactions_carried() {
        let setup = setup();
        let transactions: Vec<Transaction> = (0..3).map(Transaction::benchmark).collect();
        let carried: Vec<Digest> = transactions.iter().map(Transaction::digest).collect();
        let block = BlockBuilder::new(AuthorityIndex(0), 1)
            .parents(genesis_parents(AuthorityIndex(0)))
            .transactions(transactions)
            .build(&setup);
        for (tx, digest) in block.transactions().iter().zip(&carried) {
            assert_eq!(
                tx.carried_digest(),
                Some(*digest),
                "carried, not recomputed"
            );
            assert_eq!(*digest, blake2b_256(tx.as_bytes()), "and still right");
        }
        // The views point into the block's own buffer.
        let base = block.bytes.as_ptr() as usize;
        for tx in block.transactions() {
            let at = tx.as_bytes().as_ptr() as usize;
            assert!(base <= at && at + tx.len() <= base + block.bytes.len());
        }
    }

    #[test]
    fn malformed_encodings_are_errors() {
        let setup = setup();
        let bytes = valid_block(&setup, 1).to_bytes_vec();
        for cut in 0..bytes.len() {
            assert!(Block::from_bytes_exact(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(
            Block::from_bytes_exact(&longer).unwrap_err(),
            CodecError::TrailingBytes(1)
        );
        // A block inside a longer input takes only its own span.
        let mut decoder = Decoder::new(&longer);
        let block = Block::decode(&mut decoder).unwrap();
        assert_eq!(block.as_bytes(), &bytes[..]);
        assert_eq!(decoder.remaining(), 1);
    }

    #[test]
    fn decode_rejects_garbage_signature() {
        let setup = setup();
        let block = valid_block(&setup, 0);
        let mut bytes = block.to_bytes_vec();
        let len = bytes.len();
        // Corrupt the signature's response scalar to an out-of-range value.
        bytes[len - 8..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Block::from_bytes_exact(&bytes).is_err());
    }

    #[test]
    fn the_digest_binds_every_transaction_byte_and_boundary() {
        // Each edit keeps the author's signature: a validator must see a
        // different digest and reject the block. The re-split moves a
        // boundary and keeps the concatenated payload.
        let setup = setup();
        let payloads: [&[u8]; 3] = [b"ab", b"c", b"defg"];
        let block = BlockBuilder::new(AuthorityIndex(0), 1)
            .parents(genesis_parents(AuthorityIndex(0)))
            .transactions(payloads.map(|payload| Transaction::new(payload.to_vec())))
            .build(&setup);
        assert_eq!(block.verify(setup.committee()), Ok(()));
        let signature = block.signature();
        let tampered = |edit: &dyn Fn(&mut Vec<Transaction>)| {
            reassemble(&block, |transactions, _| edit(transactions), |_| signature)
        };
        let mut edited: Vec<(String, Block)> = (0..payloads.len())
            .map(|index| {
                let flipped = tampered(&|transactions| {
                    let mut payload = transactions[index].as_bytes().to_vec();
                    payload[0] ^= 1;
                    transactions[index] = Transaction::new(payload);
                });
                (format!("a byte of transaction {index} flipped"), flipped)
            })
            .collect();
        edited.push((
            "two transactions swapped".into(),
            tampered(&|transactions| transactions.swap(0, 1)),
        ));
        edited.push((
            "a transaction dropped".into(),
            tampered(&|transactions| {
                transactions.remove(1);
            }),
        ));
        edited.push((
            "[ab, c] re-split as [a, bc]".into(),
            tampered(&|transactions| {
                transactions[0] = Transaction::new(b"a".to_vec());
                transactions[1] = Transaction::new(b"bc".to_vec());
            }),
        ));
        for (edit, edited) in edited {
            assert_ne!(edited.digest(), block.digest(), "{edit}");
            assert_eq!(edited.digest(), reencoded_digest(&edited), "{edit}");
            assert_eq!(
                edited.verify(setup.committee()),
                Err(ValidationError::InvalidSignature),
                "{edit}"
            );
        }
    }

    #[test]
    fn digest_changes_with_content() {
        let setup = setup();
        let base = BlockBuilder::new(AuthorityIndex(0), 1)
            .parents(genesis_parents(AuthorityIndex(0)))
            .build(&setup);
        let with_tx = BlockBuilder::new(AuthorityIndex(0), 1)
            .parents(genesis_parents(AuthorityIndex(0)))
            .transaction(Transaction::benchmark(1))
            .build(&setup);
        assert_ne!(base.digest(), with_tx.digest());
    }

    #[test]
    fn equivocating_blocks_share_slot_but_not_digest() {
        let setup = setup();
        let one = BlockBuilder::new(AuthorityIndex(1), 1)
            .parents(genesis_parents(AuthorityIndex(1)))
            .transaction(Transaction::benchmark(1))
            .build(&setup);
        let two = BlockBuilder::new(AuthorityIndex(1), 1)
            .parents(genesis_parents(AuthorityIndex(1)))
            .transaction(Transaction::benchmark(2))
            .build(&setup);
        assert_eq!(one.slot(), two.slot());
        assert_ne!(one.digest(), two.digest());
        // Both individually valid: equivocation is handled by the commit
        // rule, not block validity (the point of an uncertified DAG).
        assert_eq!(one.verify(setup.committee()), Ok(()));
        assert_eq!(two.verify(setup.committee()), Ok(()));
    }

    #[test]
    fn serialized_size_tracks_payload() {
        let setup = setup();
        let small = valid_block(&setup, 0);
        let big = BlockBuilder::new(AuthorityIndex(0), 1)
            .parents(genesis_parents(AuthorityIndex(0)))
            .transactions((0..10).map(Transaction::benchmark))
            .build(&setup);
        assert!(big.serialized_size() > small.serialized_size() + 9 * 512);
    }

    #[test]
    fn display_formats() {
        let block = Block::genesis(AuthorityIndex(2));
        let shown = block.to_string();
        assert!(shown.starts_with("B(v2,0,"));
    }
}
