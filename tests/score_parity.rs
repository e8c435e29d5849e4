//! Parity suite for the batched evaluation scoring path.
//!
//! The evaluation protocol scores candidates through
//! [`EmbeddingScorer::score_into`] — fused SIMD kernels
//! (`score_candidates_dot` / `score_candidates_neg_sq_dist`); behind the
//! `parallel` feature the protocol runs large case blocks as tasks on the
//! persistent worker pool, each task one `score_into` call. These
//! properties pin the batched path to the scalar [`EmbeddingScorer::pair_score`]
//! reference within `1e-5` for both [`ScoreKind`]s, including empty item
//! lists and single-row tables. The same file runs under
//! `--no-default-features`, so the serial fallback is held to the identical
//! contract.

use cdrib::data::{Direction, DomainId};
use cdrib::eval::{ColdStartScorer, EmbeddingScorer, ScoreKind};
use cdrib::tensor::Tensor;
use proptest::prelude::*;

/// A random embedding table: `rows x cols` with bounded entries.
fn table(rows: core::ops::Range<usize>, cols: usize) -> impl Strategy<Value = Tensor> {
    rows.prop_flat_map(move |r| {
        proptest::collection::vec(-8.0f32..8.0, r * cols)
            .prop_map(move |v| Tensor::from_vec(r, cols, v).expect("consistent shape"))
    })
}

/// A full scorer plus a candidate list over the Y item table.
fn scorer_and_items(
    kind: ScoreKind,
    item_rows: core::ops::Range<usize>,
) -> impl Strategy<Value = (EmbeddingScorer, Vec<u32>)> {
    (1usize..40, item_rows, 1usize..33).prop_flat_map(move |(users, items, cols)| {
        (
            table(users..users + 1, cols),
            table(2..4, cols),
            table(1..3, cols),
            table(items..items + 1, cols),
            proptest::collection::vec(0u32..items as u32, 0..70),
        )
            .prop_map(move |(xu, xi, yu, yi, cand)| {
                (
                    EmbeddingScorer {
                        x_users: xu,
                        x_items: xi,
                        y_users: yu,
                        y_items: yi,
                        kind,
                    },
                    cand,
                )
            })
    })
}

fn assert_parity(scorer: &EmbeddingScorer, user: u32, items: &[u32]) {
    // Batched bulk path (kernel-backed, the protocol's route).
    let mut batched = vec![f32::NAN; items.len()];
    scorer.score_into(Direction::X_TO_Y, user, items, &mut batched);
    // Allocating wrapper must agree exactly with the bulk path.
    let wrapped = scorer.score_items(Direction::X_TO_Y, user, items);
    assert_eq!(batched, wrapped);
    // Scalar per-pair reference.
    let u_row = scorer.x_users.row(user as usize);
    for (k, &item) in items.iter().enumerate() {
        let reference = scorer.pair_score(u_row, scorer.y_items.row(item as usize));
        let scale = 1.0f32.max(reference.abs()).max(batched[k].abs());
        assert!(
            (batched[k] - reference).abs() <= 1e-5 * scale,
            "candidate {k}: batched {} vs scalar {reference}",
            batched[k]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_dot_matches_scalar_reference((scorer, items) in scorer_and_items(ScoreKind::Dot, 1usize..50)) {
        let user = (items.iter().copied().max().unwrap_or(0) as usize % scorer.x_users.rows()) as u32;
        assert_parity(&scorer, user, &items);
    }

    #[test]
    fn batched_neg_distance_matches_scalar_reference(
        (scorer, items) in scorer_and_items(ScoreKind::NegativeDistance, 1usize..50)
    ) {
        let user = (items.len() % scorer.x_users.rows()) as u32;
        assert_parity(&scorer, user, &items);
    }

    #[test]
    fn single_row_tables_and_empty_lists((scorer, _) in scorer_and_items(ScoreKind::Dot, 1usize..2)) {
        // Item table has exactly one row; candidate lists of length 0 and a
        // long repeated list both must work.
        assert_parity(&scorer, 0, &[]);
        let repeated = vec![0u32; 37];
        assert_parity(&scorer, 0, &repeated);
    }

    #[test]
    fn score_cross_supports_both_domains((scorer, items) in scorer_and_items(ScoreKind::NegativeDistance, 2usize..20)) {
        // The in-domain bulk route (used by baselines) matches pair_score too.
        let row = scorer.y_users.row(0);
        let scores = scorer.score_cross(DomainId::Y, 0, DomainId::Y, &items[..items.len().min(scorer.y_items.rows())]);
        for (k, &item) in items.iter().take(scores.len()).enumerate() {
            let reference = scorer.pair_score(row, scorer.y_items.row(item as usize));
            prop_assert!((scores[k] - reference).abs() <= 1e-5 * 1.0f32.max(reference.abs()));
        }
    }
}
