//! Decoding a block allocates a constant number of times, whatever it
//! carries: the transactions are views into the block's bytes, not a heap
//! block each. Counted with a per-thread counting global allocator, so the
//! test harness's own threads do not disturb the counts.

use mahimahi_types::{
    AuthorityIndex, Block, BlockBuilder, BlockRef, Decode, Encode, Envelope, TestCommittee,
    Transaction,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn note_allocation() {
    // `try_with`: the allocator also runs while a thread's locals are being
    // torn down.
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`; the
// counting touches only const-initialised thread locals without
// destructors, which never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` came from `System` with `layout`; passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocator calls `work` makes on this thread.
fn allocations<T>(work: impl FnOnce() -> T) -> u64 {
    ALLOCATIONS.with(|count| count.set(0));
    COUNTING.with(|counting| counting.set(true));
    let result = work();
    COUNTING.with(|counting| counting.set(false));
    drop(result);
    ALLOCATIONS.with(Cell::get)
}

/// A signed round-1 block by `author` carrying `txs` transactions.
fn block(setup: &TestCommittee, author: u32, txs: u64) -> Arc<Block> {
    let genesis: Vec<BlockRef> = Block::all_genesis(4).iter().map(Block::reference).collect();
    let mut parents = vec![genesis[author as usize]];
    parents.extend(genesis.iter().filter(|parent| parent.author.0 != author));
    BlockBuilder::new(AuthorityIndex(author), 1)
        .parents(parents)
        .transactions((0..txs).map(Transaction::benchmark))
        .build(setup)
        .into_arc()
}

const SIZES: [u64; 3] = [1, 83, 1_000];

/// What decoding a block costs whatever it carries: the copy of its bytes
/// and the `Arc` around them, its transaction views in one slice, and the
/// `Arc` around the block.
const PER_BLOCK: u64 = 4;

#[test]
fn decoding_a_block_frame_allocates_the_same_few_times_at_any_size() {
    let setup = TestCommittee::new(4, 3);
    let counts: Vec<u64> = SIZES
        .iter()
        .map(|&txs| {
            let frame = Envelope::Block(block(&setup, 0, txs)).to_bytes_vec();
            allocations(|| {
                let decoded = Envelope::from_bytes_exact(&frame);
                assert!(matches!(&decoded, Ok(Envelope::Block(b)) if b.transactions().len() as u64 == txs));
                decoded
            })
        })
        .collect();
    assert_eq!(
        counts, [PER_BLOCK; 3],
        "allocations per decode of {SIZES:?}-transaction blocks"
    );
}

#[test]
fn decoding_a_sync_reply_allocates_per_block_not_per_transaction() {
    let setup = TestCommittee::new(4, 3);
    for txs in SIZES {
        let blocks: Vec<Arc<Block>> = (0..4).map(|author| block(&setup, author, txs)).collect();
        let frame = Envelope::Response(blocks).to_bytes_vec();
        let count = allocations(|| Envelope::from_bytes_exact(&frame).unwrap());
        // One more for the reply's list of blocks.
        assert_eq!(count, 4 * PER_BLOCK + 1, "{txs} transactions per block");
    }
}
