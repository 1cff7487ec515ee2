//! Direct-commit probability: analytic formulas (Lemmas 13, 16, 17) versus
//! Monte-Carlo measurement on simulated random-network DAGs.
//!
//! Two comparisons:
//!
//! 1. the hypergeometric slot-election formulas themselves, cross-checked
//!    by uniform sampling;
//! 2. the *implementation*: DAGs built under the random network model
//!    (every block references its own previous block plus a uniformly
//!    random quorum), decided by the real coin and the real decision rules;
//!    the measured per-round direct-commit rate must dominate the analytic
//!    lower bound.

use mahimahi_analysis as analysis;
use mahimahi_crypto::coin::CoinShare;
use mahimahi_dag::{BlockSpec, DagBuilder};
use mahimahi_types::{AuthorityIndex, Slot, TestCommittee};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let trials = if quick { 200 } else { 2_000 };

    println!("\n=== Lemma 13/16 closed forms vs uniform sampling ===");
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    for f in [1u64, 3] {
        let n = 3 * f + 1;
        for leaders in 1..=(f + 1) {
            let analytic = analysis::direct_commit_probability_w5(f, leaders);
            // Sample: 2f+1 committable blocks out of n; ℓ uniform slots.
            let mut hits = 0usize;
            for _ in 0..trials * 10 {
                let mut indexes: Vec<u64> = (0..n).collect();
                indexes.shuffle(&mut rng);
                let committable: Vec<u64> = indexes[..(2 * f + 1) as usize].to_vec();
                let mut slots: Vec<u64> = (0..n).collect();
                slots.shuffle(&mut rng);
                if slots[..leaders as usize]
                    .iter()
                    .any(|slot| committable.contains(slot))
                {
                    hits += 1;
                }
            }
            let measured = hits as f64 / (trials * 10) as f64;
            println!(
                "w=5 f={f} ℓ={leaders}: analytic={analytic:.4} sampled={measured:.4} (Δ={:+.4})",
                measured - analytic
            );
            assert!((measured - analytic).abs() < 0.03, "formula mismatch");
        }
    }

    println!("\n=== Implementation under the random network model ===");
    for (wave_length, label) in [(5u64, "w=5"), (4, "w=4")] {
        for committee_size in [4usize, 10] {
            let f = (committee_size - 1) / 3;
            let quorum = 2 * f + 1;
            let setup = TestCommittee::new(committee_size, 7 + wave_length);
            let committee = setup.committee().clone();
            let mut dag = DagBuilder::new(setup);
            let rounds = if quick { 60 } else { 200 };
            let mut rng = ChaCha8Rng::seed_from_u64(wave_length ^ committee_size as u64);
            for _ in 0..rounds {
                let specs = (0..committee_size as u32)
                    .map(|author| {
                        // Random network model: own block + a uniformly
                        // random 2f quorum of the others.
                        let mut others: Vec<u32> = (0..committee_size as u32)
                            .filter(|&a| a != author)
                            .collect();
                        others.shuffle(&mut rng);
                        others.truncate(quorum - 1);
                        BlockSpec::new(author).with_parent_authors(others.to_vec())
                    })
                    .collect();
                dag.add_round(specs);
            }
            let store = dag.store();

            // For every decidable propose round, elect ℓ = 2 slots with the
            // real coin and test the direct-commit rule.
            let leaders = 2usize;
            let mut rounds_with_direct = 0usize;
            let mut slots_direct = 0usize;
            let mut total_rounds = 0usize;
            for propose in 1..=(rounds as u64 - (wave_length - 1)) {
                let certify = propose + wave_length - 1;
                let mut shares: Vec<CoinShare> = Vec::new();
                let mut seen = std::collections::HashSet::new();
                for block in store.blocks_at_round(certify) {
                    if let Some(share) = block.coin_share() {
                        if seen.insert(share.index()) {
                            shares.push(share);
                        }
                    }
                }
                let Ok(coin) = committee.coin_public().combine(certify, &shares) else {
                    continue;
                };
                total_rounds += 1;
                let mut any = false;
                for offset in 0..leaders {
                    let authority = AuthorityIndex(coin.leader_slot(offset, committee_size) as u32);
                    let slot = Slot::new(propose, authority);
                    let direct = store.blocks_in_slot(slot).iter().any(|candidate| {
                        store
                            .authorities_with(certify, |block| store.is_cert(block, candidate))
                            .len()
                            >= quorum
                    });
                    if direct {
                        slots_direct += 1;
                        any = true;
                    }
                }
                if any {
                    rounds_with_direct += 1;
                }
            }
            let measured = rounds_with_direct as f64 / total_rounds as f64;
            let bound = if wave_length == 5 {
                analysis::direct_commit_probability_w5(f as u64, leaders as u64)
            } else {
                analysis::direct_commit_probability_w4_async(f as u64, leaders as u64)
            };
            println!(
                "{label} n={committee_size}: measured round-rate={measured:.3} \
                 (slot-rate={:.3}) ≥ analytic bound {bound:.3}  [Lemma 17 bound: {:.2e}]",
                slots_direct as f64 / (total_rounds * leaders) as f64,
                analysis::w4_random_unreachable_bound(f as u64),
            );
            assert!(
                measured + 0.02 >= bound,
                "{label} n={committee_size}: measured {measured} below bound {bound}"
            );
        }
    }
    println!("\nAll analytic bounds hold. ✔");
    // Keep rng used under --quick paths.
    let _: u8 = ChaCha8Rng::seed_from_u64(0).gen();
}
