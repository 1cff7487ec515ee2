//! Conformance test for the Appendix B walkthrough (Figure 2 of the paper).
//!
//! The paper walks a validator through deciding the example DAG of Figure 2:
//! four validators, wave length 5, two leader slots per round, featuring
//! every case of the decision rules:
//!
//! - `L6b` — **direct commit** from `2f + 1` certificates;
//! - `L6a` — **direct skip** from `2f + 1` non-votes;
//! - `L5b` / `L5b′` — an **equivocation** where the first block gathers only
//!   one vote and is skipped while the second is certified and committed;
//! - `L1a` — directly undecidable (exactly one certificate, only one
//!   non-vote) and resolved by the **indirect rule** through its anchor
//!   `L6b`, whose causal history contains the certificate;
//! - every other slot — plain direct commits.
//!
//! The expected leader sequence is the paper's:
//! `[L1a, L1b, L2a, L2b, L3a, L3b, L4a, L4b, L5a, L5b′, (skip L6a), L6b]`.
//!
//! Leader elections are pinned with `FixedElector` (the paper's figure fixes
//! them implicitly); the DAG is built edge-by-edge so that every vote,
//! certificate, and omission matches the walkthrough.

use mahimahi_core::{
    CommitDecision, CommitSequencer, Committer, CommitterOptions, FixedElector, LeaderStatus,
};
use mahimahi_dag::{BlockSpec, DagBuilder};
use mahimahi_types::{AuthorityIndex, BlockRef, Slot, TestCommittee};

/// Block references for the handcrafted DAG, indexed `[round][position]`.
struct FigureTwo {
    dag: DagBuilder,
    /// `rounds[r]` holds the refs produced at round `r + 1`, in spec order.
    rounds: Vec<Vec<BlockRef>>,
}

/// Builds the Figure 2 DAG up to `max_round` (1..=10). Round indices are
/// shifted: the paper's `R` is round 1 here (round 0 is genesis).
fn build_figure_two(max_round: u64) -> FigureTwo {
    let setup = TestCommittee::new(4, 2024);
    let mut dag = DagBuilder::new(setup);
    let mut rounds: Vec<Vec<BlockRef>> = Vec::new();

    // Round 1 (paper's R): all four validators, full references to genesis.
    rounds.push(dag.add_full_round());

    // Rounds 2–3 (R+1, R+2): v1, v2, v3 build a v0-free sub-DAG; v0 extends
    // its own chain referencing {v0, v1, v2}.
    for _ in 0..2 {
        if dag.current_round() >= max_round {
            return FigureTwo { dag, rounds };
        }
        rounds.push(dag.add_round(vec![
            BlockSpec::new(0).with_parent_authors(vec![1, 2]),
            BlockSpec::new(1).with_parent_authors(vec![2, 3]),
            BlockSpec::new(2).with_parent_authors(vec![1, 3]),
            BlockSpec::new(3).with_parent_authors(vec![1, 2]),
        ]));
    }

    // Round 4 (R+3, the Vote round of wave R): v2 and v3 re-join v0's chain,
    // v1 stays v0-free. Votes for L1a = v0@1: {v0, v2, v3}; non-vote: {v1}.
    if dag.current_round() >= max_round {
        return FigureTwo { dag, rounds };
    }
    rounds.push(dag.add_round(vec![
        BlockSpec::new(0).with_parent_authors(vec![1, 2]),
        BlockSpec::new(1).with_parent_authors(vec![2, 3]),
        BlockSpec::new(2).with_parent_authors(vec![1, 3, 0]),
        BlockSpec::new(3).with_parent_authors(vec![1, 2, 0]),
    ]));

    // Round 5 (R+4, the Certify round of wave R): exactly one certificate
    // for L1a (v3@5 references all three voters); v1 equivocates with
    // B1 = L5b and B2 = L5b′.
    if dag.current_round() >= max_round {
        return FigureTwo { dag, rounds };
    }
    rounds.push(dag.add_round(vec![
        BlockSpec::new(0).with_parent_authors(vec![1, 2]),
        BlockSpec::new(1).with_parent_authors(vec![0, 2]).with_tag(1), // B1 = L5b
        BlockSpec::new(1).with_parent_authors(vec![2, 3]).with_tag(2), // B2 = L5b′
        BlockSpec::new(2).with_parent_authors(vec![1, 0]),
        BlockSpec::new(3).with_parent_authors(vec![0, 2]), // the unique L1a certificate
    ]));

    // Round 6 (R+5): v0 references B1 (it will vote L5b); v1 extends B2 and
    // references v3@5 (putting the L1a certificate in L6b's history);
    // v2, v3 reference B2. From here on v1, v2, v3 exclude v0's chain so
    // that L6a = v0@6 gathers 2f + 1 non-votes.
    if dag.current_round() >= max_round {
        return FigureTwo { dag, rounds };
    }
    let r5 = rounds[4].clone();
    let (v0_5, b1, b2, v2_5, v3_5) = (r5[0], r5[1], r5[2], r5[3], r5[4]);
    rounds.push(dag.add_round(vec![
        BlockSpec::new(0).with_explicit_parents(vec![v0_5, b1, v2_5, v3_5]),
        BlockSpec::new(1).with_explicit_parents(vec![b2, v2_5, v3_5]),
        BlockSpec::new(2).with_explicit_parents(vec![v2_5, b2, v3_5]),
        BlockSpec::new(3).with_explicit_parents(vec![v3_5, b2, v2_5]),
    ]));

    // Rounds 7–8 (R+6, R+7): v1, v2, v3 keep excluding v0; v0 references
    // {v1, v2}. Round 8 is the Vote round for the round-5 slots (L5a, L5b)
    // and carries the 2f + 1 non-votes for L6a.
    for _ in 0..2 {
        if dag.current_round() >= max_round {
            return FigureTwo { dag, rounds };
        }
        rounds.push(dag.add_round(vec![
            BlockSpec::new(0).with_parent_authors(vec![1, 2]),
            BlockSpec::new(1).with_parent_authors(vec![2, 3]),
            BlockSpec::new(2).with_parent_authors(vec![1, 3]),
            BlockSpec::new(3).with_parent_authors(vec![1, 2]),
        ]));
    }

    // Round 9 (R+8): Certify round for the round-5 slots — every block is a
    // certificate for L5b′ — and Vote round for the round-6 slots.
    if dag.current_round() >= max_round {
        return FigureTwo { dag, rounds };
    }
    rounds.push(dag.add_round(vec![
        BlockSpec::new(0).with_parent_authors(vec![1, 2, 3]),
        BlockSpec::new(1).with_parent_authors(vec![2, 3]),
        BlockSpec::new(2).with_parent_authors(vec![1, 3]),
        BlockSpec::new(3).with_parent_authors(vec![1, 2]),
    ]));

    // Round 10 (R+9): Certify round for the round-6 slots — certificates
    // for L6b from v0, v1, v2 (and v3).
    if dag.current_round() >= max_round {
        return FigureTwo { dag, rounds };
    }
    rounds.push(dag.add_round(vec![
        BlockSpec::new(0).with_parent_authors(vec![1, 2]),
        BlockSpec::new(1).with_parent_authors(vec![2, 3]),
        BlockSpec::new(2).with_parent_authors(vec![1, 3]),
        BlockSpec::new(3).with_parent_authors(vec![1, 2]),
    ]));

    FigureTwo { dag, rounds }
}

/// The paper's (implicit) leader elections: two slots per round.
fn elector() -> Box<FixedElector> {
    Box::new(
        FixedElector::new()
            .assign(1, 0, 0) // L1a = v0@1
            .assign(1, 1, 1) // L1b = v1@1
            .assign(2, 0, 2) // L2a = v2@2
            .assign(2, 1, 3) // L2b = v3@2
            .assign(3, 0, 0) // L3a = v0@3
            .assign(3, 1, 1) // L3b = v1@3
            .assign(4, 0, 3) // L4a = v3@4
            .assign(4, 1, 0) // L4b = v0@4
            .assign(5, 0, 2) // L5a = v2@5
            .assign(5, 1, 1) // L5b / L5b′ = v1@5 (equivocating)
            .assign(6, 0, 0) // L6a = v0@6 (skipped)
            .assign(6, 1, 1), // L6b = v1@6 (anchor for L1a)
    )
}

fn committer(figure: &FigureTwo) -> Committer {
    Committer::with_elector(
        figure.dag.setup().committee().clone(),
        CommitterOptions {
            wave_length: 5,
            leaders_per_round: 2,
        },
        elector(),
    )
}

#[test]
fn appendix_b_slot_classification() {
    let figure = build_figure_two(10);
    let committer = committer(&figure);
    let statuses = committer.try_decide(figure.dag.store(), 1);
    assert_eq!(statuses.len(), 12, "rounds 1..=6, two slots each");

    let rounds = &figure.rounds;
    let b2 = rounds[4][2]; // L5b′
    let expected: Vec<(&str, Option<BlockRef>)> = vec![
        ("commit", Some(rounds[0][0])), // L1a = v0@1 (indirect)
        ("commit", Some(rounds[0][1])), // L1b = v1@1
        ("commit", Some(rounds[1][2])), // L2a = v2@2
        ("commit", Some(rounds[1][3])), // L2b = v3@2
        ("commit", Some(rounds[2][0])), // L3a = v0@3
        ("commit", Some(rounds[2][1])), // L3b = v1@3
        ("commit", Some(rounds[3][3])), // L4a = v3@4
        ("commit", Some(rounds[3][0])), // L4b = v0@4
        ("commit", Some(rounds[4][3])), // L5a = v2@5
        ("commit", Some(b2)),           // L5b′ — the certified equivocation
        ("skip", None),                 // L6a
        ("commit", Some(rounds[5][1])), // L6b = v1@6
    ];
    for (status, (kind, reference)) in statuses.iter().zip(&expected) {
        match (status, kind) {
            (LeaderStatus::Commit(block), &"commit") => {
                assert_eq!(Some(block.reference()), *reference, "wrong block: {status}");
            }
            (LeaderStatus::Skip(slot), &"skip") => {
                assert_eq!(
                    *slot,
                    Slot::new(6, AuthorityIndex(0)),
                    "wrong skip: {status}"
                );
            }
            _ => panic!("unexpected status {status}, expected {kind}"),
        }
    }
}

#[test]
fn appendix_b_equivocation_only_certified_block_commits() {
    let figure = build_figure_two(10);
    let committer = committer(&figure);
    let statuses = committer.try_decide(figure.dag.store(), 1);
    // Slot (5, offset 1) holds both equivocations; the committed one must be
    // B2 (= L5b′), never B1 (= L5b, which has 2f + 1 non-votes).
    let status = &statuses[9];
    let LeaderStatus::Commit(block) = status else {
        panic!("L5b slot must commit, got {status}");
    };
    assert_eq!(block.reference(), figure.rounds[4][2]);
    assert_ne!(block.reference(), figure.rounds[4][1]);
}

#[test]
fn appendix_b_l1a_is_undecided_without_its_anchor() {
    // With the DAG cut at round 9 the anchor slots of round 6 (certify round
    // 10) are undecided, so the indirect rule cannot resolve L1a: the
    // sequencer must not commit anything (ExtendCommitSequence stops at the
    // first undecided slot).
    let figure = build_figure_two(9);
    let committer = committer(&figure);
    let statuses = committer.try_decide(figure.dag.store(), 1);
    assert!(matches!(
        statuses[0],
        LeaderStatus::Undecided {
            round: 1,
            offset: 0
        }
    ));
    // L1b is still directly committed...
    assert!(matches!(&statuses[1], LeaderStatus::Commit(block)
        if block.reference() == figure.rounds[0][1]));
    // ...but the sequencer stops before it.
    let mut sequencer = CommitSequencer::new(committer);
    assert!(sequencer.try_commit(figure.dag.store()).is_empty());
}

#[test]
fn appendix_b_commit_sequence_matches_paper() {
    let figure = build_figure_two(10);
    let mut sequencer = CommitSequencer::new(committer(&figure));
    let decisions = sequencer.try_commit(figure.dag.store());
    assert_eq!(decisions.len(), 12);

    // Leader sequence: the paper's order with L6a skipped.
    let leaders: Vec<Option<BlockRef>> = decisions
        .iter()
        .map(|decision| match decision {
            CommitDecision::Commit(sub_dag) => Some(sub_dag.leader),
            CommitDecision::Skip(..) => None,
        })
        .collect();
    let rounds = &figure.rounds;
    assert_eq!(
        leaders,
        vec![
            Some(rounds[0][0]), // L1a
            Some(rounds[0][1]), // L1b
            Some(rounds[1][2]), // L2a
            Some(rounds[1][3]), // L2b
            Some(rounds[2][0]), // L3a
            Some(rounds[2][1]), // L3b
            Some(rounds[3][3]), // L4a
            Some(rounds[3][0]), // L4b
            Some(rounds[4][3]), // L5a
            Some(rounds[4][2]), // L5b′
            None,               // L6a skipped
            Some(rounds[5][1]), // L6b
        ]
    );

    // Total order sanity: every block at most once, causal order respected
    // (no block appears before one of its ancestors... i.e. parents first).
    let mut seen = std::collections::HashSet::new();
    let store = figure.dag.store();
    for decision in &decisions {
        let CommitDecision::Commit(sub_dag) = decision else {
            continue;
        };
        for block in &sub_dag.blocks {
            for parent in block.parents() {
                assert!(
                    seen.contains(&parent),
                    "{} sequenced before its parent {parent}",
                    block.reference()
                );
            }
            assert!(seen.insert(block.reference()));
        }
        // The committed leader closes its own sub-DAG.
        assert_eq!(
            sub_dag.blocks.last().map(|b| b.reference()),
            Some(sub_dag.leader)
        );
    }
    // The skipped equivocation L5b is never linearized: it is in no
    // committed leader's causal history.
    assert!(!seen.contains(&rounds[4][1]));
    let _ = store;
}
