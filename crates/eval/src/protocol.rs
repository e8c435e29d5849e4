//! The leave-one-out cold-start evaluation protocol (§IV-B1).
//!
//! For every held-out ground-truth interaction `(u, v)` in the target domain
//! we sample 999 items the user never interacted with, score the 1000
//! candidates with the model under test, and record the rank of the
//! positive. MRR / NDCG / HR are averaged over all cases.

use crate::metrics::{rank_of_positive, MetricsAccumulator, RankingMetrics};
use cdrib_data::{CdrScenario, DataError, Direction, EvalCase, NegativeSampler, Result};
use cdrib_tensor::rng::component_rng;
use cdrib_tensor::{kernels, pool};
use serde::{Deserialize, Serialize};

/// Which held-out split to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvalSplit {
    /// The validation users (used for model selection / early stopping).
    Validation,
    /// The test users (reported in the tables).
    Test,
}

/// Configuration of the ranking protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalConfig {
    /// Number of sampled negative items per case (paper: 999).
    pub n_negatives: usize,
    /// Seed of the negative sampler (kept fixed across methods so every
    /// model ranks against the same candidate lists).
    pub seed: u64,
    /// Optional cap on the number of evaluated cases (useful for quick
    /// sweeps); `None` evaluates every case.
    pub max_cases: Option<usize>,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            n_negatives: 999,
            seed: 7,
            max_cases: None,
        }
    }
}

/// A model that can score target-domain items for cold-start users.
///
/// `user` is an index in the shared overlap prefix (the user exists in both
/// domains); `items` are item indices of the *target* domain of `direction`.
/// Implementations produce one score per item, higher = more relevant.
///
/// The required method is the bulk [`ColdStartScorer::score_into`], which
/// writes into caller-provided storage so the protocol can score whole
/// candidate blocks through pooled buffers (and, behind the `parallel`
/// feature, across threads — hence the `Sync` bound).
pub trait ColdStartScorer: Sync {
    /// Scores the candidate items for the cold-start user into `out`
    /// (`out.len() == items.len()`).
    fn score_into(&self, direction: Direction, user: u32, items: &[u32], out: &mut [f32]);

    /// Multiply-adds one score costs; sizes the work measure that decides
    /// whether a block of cases fans out to the worker pool. Defaults to 1,
    /// the least any scorer does, so an opaque scorer fans out only for
    /// blocks that would pay off even at that cost.
    fn flops_per_score(&self) -> usize {
        1
    }

    /// Allocating convenience wrapper around [`ColdStartScorer::score_into`].
    fn score_items(&self, direction: Direction, user: u32, items: &[u32]) -> Vec<f32> {
        let mut out = vec![0.0; items.len()];
        self.score_into(direction, user, items, &mut out);
        out
    }
}

impl<F> ColdStartScorer for F
where
    F: Fn(Direction, u32, &[u32]) -> Vec<f32> + Sync,
{
    fn score_into(&self, direction: Direction, user: u32, items: &[u32], out: &mut [f32]) {
        let scores = self(direction, user, items);
        debug_assert_eq!(scores.len(), out.len());
        out.copy_from_slice(&scores);
    }

    fn score_items(&self, direction: Direction, user: u32, items: &[u32]) -> Vec<f32> {
        self(direction, user, items)
    }
}

/// The outcome of one evaluation case.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CaseResult {
    /// The evaluated cold-start user.
    pub user: u32,
    /// The ground-truth item.
    pub item: u32,
    /// 1-based rank of the ground-truth item among the candidates.
    pub rank: usize,
}

/// Aggregated outcome of an evaluation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalOutcome {
    /// The evaluated direction.
    pub direction: Direction,
    /// Averaged metrics over all cases.
    pub metrics: RankingMetrics,
    /// Per-case results (used by the Table IX grouping analysis).
    pub cases: Vec<CaseResult>,
}

impl EvalOutcome {
    /// Number of evaluated cases.
    pub fn n_cases(&self) -> usize {
        self.cases.len()
    }
}

fn cases_of(scenario: &CdrScenario, direction: Direction, split: EvalSplit) -> &[EvalCase] {
    let set = scenario.cold_start(direction);
    match split {
        EvalSplit::Validation => &set.validation,
        EvalSplit::Test => &set.test,
    }
}

/// Number of evaluation cases whose candidate lists are sampled into the
/// pooled block buffers before one bulk scoring pass. At the paper's 999
/// negatives a block holds ~128k candidate ids / scores (~1 MB), enough to
/// keep every scoring thread busy while staying cache-friendly.
const BLOCK_CASES: usize = 128;

/// Scores one block of cases. Candidate lists live back-to-back in
/// `candidates` with case `ci` spanning `offsets[ci]..offsets[ci + 1]`;
/// scores land at the same positions in `scores`. Once the block's
/// multiply-adds (scores x [`ColdStartScorer::flops_per_score`]) reach
/// [`PAR_MIN_FLOPS`](cdrib_tensor::kernels::PAR_MIN_FLOPS), the cases are
/// scored as tasks on the persistent worker [`pool`] (score ranges are
/// disjoint, so no synchronisation is needed); below it they run inline.
/// Results are identical either way because per-case scoring is
/// independent.
fn score_block<S: ColdStartScorer + ?Sized>(
    scorer: &S,
    direction: Direction,
    cases: &[EvalCase],
    offsets: &[usize],
    candidates: &[u32],
    scores: &mut [f32],
) {
    debug_assert_eq!(offsets.len(), cases.len() + 1);
    debug_assert_eq!(scores.len(), candidates.len());
    let score = |ci: usize, out: &mut [f32]| {
        scorer.score_into(
            direction,
            cases[ci].user,
            &candidates[offsets[ci]..offsets[ci + 1]],
            out,
        );
    };
    if scores.len() * scorer.flops_per_score() < kernels::PAR_MIN_FLOPS {
        for ci in 0..cases.len() {
            score(ci, &mut scores[offsets[ci]..offsets[ci + 1]]);
        }
        return;
    }
    pool::for_each(pool::Ranges::new(scores, offsets), score);
}

/// Runs the ranking protocol for one direction and split.
///
/// Candidate lists are pre-sampled per block into pooled buffers (negative
/// sampling stays sequential in case order, so candidate lists are
/// reproducible regardless of thread count), each block is scored in one
/// bulk [`ColdStartScorer::score_into`] pass, and ranks are reduced from the
/// block's score buffer. A non-finite score for a ground-truth item aborts
/// the run with [`DataError::NonFiniteScore`]; NaN negatives are counted
/// above the positive by [`rank_of_positive`].
pub fn evaluate_cold_start<S: ColdStartScorer + ?Sized>(
    scorer: &S,
    scenario: &CdrScenario,
    direction: Direction,
    split: EvalSplit,
    config: &EvalConfig,
) -> Result<EvalOutcome> {
    let cases = cases_of(scenario, direction, split);
    if cases.is_empty() {
        return Err(DataError::EmptyDataset {
            stage: "evaluation cases",
        });
    }
    let target = scenario.domain(direction.target);
    let n_items = target.n_items;
    if n_items <= config.n_negatives {
        return Err(DataError::InvalidConfig {
            field: "n_negatives",
            detail: format!(
                "cannot sample {} negatives from a catalogue of {} items",
                config.n_negatives, n_items
            ),
        });
    }
    // Negatives are sampled against the *full* graph so other held-out
    // positives are never used as negatives; dense users fall back to
    // exhaustive enumeration inside the shared sampler.
    let sampler = NegativeSampler::with_items(n_items);
    let mut rng = component_rng(config.seed, "eval-negatives");
    let n_eval = cases.len().min(config.max_cases.unwrap_or(usize::MAX));
    let mut acc = MetricsAccumulator::new();
    let mut results = Vec::with_capacity(n_eval);
    // Pooled block buffers, reused across blocks.
    let mut candidates: Vec<u32> = Vec::new();
    let mut offsets: Vec<usize> = Vec::new();
    let mut scores: Vec<f32> = Vec::new();

    for chunk in cases[..n_eval].chunks(BLOCK_CASES) {
        candidates.clear();
        offsets.clear();
        offsets.push(0);
        for case in chunk {
            candidates.push(case.item);
            sampler.sample_up_to(
                &target.full,
                case.user as usize,
                config.n_negatives,
                Some(case.item),
                &mut rng,
                &mut candidates,
            );
            offsets.push(candidates.len());
        }
        if scores.len() < candidates.len() {
            scores.resize(candidates.len(), 0.0);
        }
        let block_scores = &mut scores[..candidates.len()];
        score_block(scorer, direction, chunk, &offsets, &candidates, block_scores);
        for (ci, case) in chunk.iter().enumerate() {
            let case_scores = &block_scores[offsets[ci]..offsets[ci + 1]];
            // Any non-finite ground-truth score is a divergence signal: an
            // overflowing model typically hits +inf before NaN, and an
            // infinite positive would otherwise rank #1 and report perfect
            // metrics.
            if !case_scores[0].is_finite() {
                return Err(DataError::NonFiniteScore {
                    user: case.user,
                    item: case.item,
                });
            }
            let rank = rank_of_positive(case_scores[0], &case_scores[1..]);
            acc.push_rank(rank);
            results.push(CaseResult {
                user: case.user,
                item: case.item,
                rank,
            });
        }
    }

    Ok(EvalOutcome {
        direction,
        metrics: acc.mean().expect("at least one case was evaluated"),
        cases: results,
    })
}

/// Convenience: evaluates both directions and returns `(X -> Y, Y -> X)`.
pub fn evaluate_both_directions<S: ColdStartScorer + ?Sized>(
    scorer: &S,
    scenario: &CdrScenario,
    split: EvalSplit,
    config: &EvalConfig,
) -> Result<(EvalOutcome, EvalOutcome)> {
    let x2y = evaluate_cold_start(scorer, scenario, Direction::X_TO_Y, split, config)?;
    let y2x = evaluate_cold_start(scorer, scenario, Direction::Y_TO_X, split, config)?;
    Ok((x2y, y2x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrib_data::{build_preset, Scale, ScenarioKind};

    fn tiny_scenario() -> CdrScenario {
        build_preset(ScenarioKind::GameVideo, Scale::Tiny, 11).unwrap()
    }

    #[test]
    fn random_scorer_is_near_chance() {
        let scenario = tiny_scenario();
        let cfg = EvalConfig {
            n_negatives: 50,
            seed: 1,
            max_cases: None,
        };
        // A scorer that ignores the user: pseudo-random but deterministic per item.
        let scorer = |_d: Direction, _u: u32, items: &[u32]| -> Vec<f32> {
            items.iter().map(|&i| (i as f32 * 37.13).sin()).collect()
        };
        let out = evaluate_cold_start(&scorer, &scenario, Direction::X_TO_Y, EvalSplit::Test, &cfg).unwrap();
        // Chance MRR with 51 candidates is ~ H(51)/51 ≈ 0.089.
        assert!(out.metrics.mrr < 0.2, "random scorer MRR {}", out.metrics.mrr);
        assert!(out.metrics.hr10 < 0.45);
        assert_eq!(out.n_cases(), scenario.cold_x_to_y.test.len());
    }

    #[test]
    fn oracle_scorer_is_perfect() {
        let scenario = tiny_scenario();
        let cfg = EvalConfig {
            n_negatives: 50,
            seed: 2,
            max_cases: Some(200),
        };
        // An oracle that peeks at the full target graph.
        let full_y = scenario.y.full.clone();
        let full_x = scenario.x.full.clone();
        let scorer = move |d: Direction, u: u32, items: &[u32]| -> Vec<f32> {
            let g = if d.target == cdrib_data::DomainId::Y {
                &full_y
            } else {
                &full_x
            };
            items
                .iter()
                .map(|&i| if g.has_edge(u as usize, i as usize) { 1.0 } else { 0.0 })
                .collect()
        };
        let (x2y, y2x) = evaluate_both_directions(&scorer, &scenario, EvalSplit::Test, &cfg).unwrap();
        assert!(x2y.metrics.mrr > 0.95, "oracle MRR {}", x2y.metrics.mrr);
        assert!(y2x.metrics.hr1 > 0.9);
        assert!(x2y.metrics.is_normalized());
    }

    #[test]
    fn negatives_are_reproducible_across_methods() {
        // Two different scorers must see identical candidate lists (same seed),
        // so a constant scorer always produces the same mean rank.
        let scenario = tiny_scenario();
        let cfg = EvalConfig {
            n_negatives: 50,
            seed: 5,
            max_cases: Some(50),
        };
        let const_scorer = |_d: Direction, _u: u32, items: &[u32]| vec![0.0; items.len()];
        let a = evaluate_cold_start(&const_scorer, &scenario, Direction::X_TO_Y, EvalSplit::Validation, &cfg).unwrap();
        let b = evaluate_cold_start(&const_scorer, &scenario, Direction::X_TO_Y, EvalSplit::Validation, &cfg).unwrap();
        assert_eq!(a.metrics, b.metrics);
        // With all-equal scores every case lands at rank 1 + 50/2 = 26.
        assert!((a.metrics.mrr - 1.0 / 26.0).abs() < 1e-9);
    }

    #[test]
    fn heavy_users_fall_back_to_exhaustive_negatives() {
        // When a user has interacted with almost the whole catalogue, fewer
        // than `n_negatives` candidates exist; the protocol must terminate
        // and rank against every remaining item instead of looping forever.
        let scenario = tiny_scenario();
        let n_items = scenario.y.n_items;
        let cfg = EvalConfig {
            n_negatives: n_items - 1, // more than any user has available
            seed: 9,
            max_cases: Some(20),
        };
        let scorer = |_d: Direction, _u: u32, items: &[u32]| vec![0.5; items.len()];
        let out = evaluate_cold_start(&scorer, &scenario, Direction::X_TO_Y, EvalSplit::Test, &cfg).unwrap();
        assert!(out.n_cases() > 0);
        for case in &out.cases {
            assert!(case.rank <= n_items);
        }
    }

    #[test]
    fn nan_positive_scores_are_a_protocol_error() {
        // Regression: a diverging model whose scores go NaN used to rank its
        // positive at #1 (every `NaN > NaN` compare is false) and report
        // MRR = 1. The protocol must refuse to produce metrics instead.
        let scenario = tiny_scenario();
        let cfg = EvalConfig {
            n_negatives: 30,
            seed: 4,
            max_cases: Some(20),
        };
        let nan_scorer = |_d: Direction, _u: u32, items: &[u32]| vec![f32::NAN; items.len()];
        let err = evaluate_cold_start(&nan_scorer, &scenario, Direction::X_TO_Y, EvalSplit::Test, &cfg);
        assert!(
            matches!(err, Err(cdrib_data::DataError::NonFiniteScore { .. })),
            "{err:?}"
        );
        // Overflow usually hits +inf before NaN; an infinite positive would
        // rank #1 with finite negatives, so it must error just the same.
        let inf_scorer = |_d: Direction, _u: u32, items: &[u32]| -> Vec<f32> {
            let mut s = vec![0.0; items.len()];
            s[0] = f32::INFINITY;
            s
        };
        let err = evaluate_cold_start(&inf_scorer, &scenario, Direction::X_TO_Y, EvalSplit::Test, &cfg);
        assert!(
            matches!(err, Err(cdrib_data::DataError::NonFiniteScore { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn nan_negatives_rank_above_the_positive() {
        // A scorer with a finite positive but NaN negatives must report
        // worst-case metrics, never MRR ~ 1. The positive is always
        // candidate 0 of each case's list.
        let scenario = tiny_scenario();
        let cfg = EvalConfig {
            n_negatives: 30,
            seed: 4,
            max_cases: Some(20),
        };
        let scorer = |_d: Direction, _u: u32, items: &[u32]| -> Vec<f32> {
            let mut s = vec![f32::NAN; items.len()];
            s[0] = 1.0;
            s
        };
        let out = evaluate_cold_start(&scorer, &scenario, Direction::X_TO_Y, EvalSplit::Test, &cfg).unwrap();
        assert!(
            out.metrics.mrr < 0.1,
            "NaN negatives must push the positive to the bottom: MRR {}",
            out.metrics.mrr
        );
        assert_eq!(out.metrics.hr10, 0.0);
        for case in &out.cases {
            assert_eq!(case.rank, 31, "all 30 NaN negatives must rank above");
        }
    }

    #[test]
    fn batched_blocks_match_per_case_scoring() {
        // The block pipeline (pooled buffers + bulk score_into, possibly
        // threaded) must produce exactly the metrics of naive per-case
        // scoring. The closure scorer exercises the default score_into
        // adapter; more cases than BLOCK_CASES forces multiple blocks.
        let scenario = tiny_scenario();
        let cfg = EvalConfig {
            n_negatives: 40,
            seed: 11,
            max_cases: None,
        };
        let scorer = |_d: Direction, u: u32, items: &[u32]| -> Vec<f32> {
            items
                .iter()
                .map(|&i| ((i as f32 * 12.9898 + u as f32 * 78.233).sin() * 43758.547).fract())
                .collect()
        };
        let out = evaluate_cold_start(&scorer, &scenario, Direction::X_TO_Y, EvalSplit::Test, &cfg).unwrap();
        // Reference: same candidates (same seed), one case at a time.
        let mut acc = MetricsAccumulator::new();
        let sampler = NegativeSampler::with_items(scenario.y.n_items);
        let mut rng = component_rng(cfg.seed, "eval-negatives");
        for case in &scenario.cold_x_to_y.test {
            let mut candidates = vec![case.item];
            sampler.sample_up_to(
                &scenario.y.full,
                case.user as usize,
                cfg.n_negatives,
                Some(case.item),
                &mut rng,
                &mut candidates,
            );
            let scores = scorer(Direction::X_TO_Y, case.user, &candidates);
            acc.push_rank(rank_of_positive(scores[0], &scores[1..]));
        }
        let reference = acc.mean().unwrap();
        assert_eq!(out.metrics, reference);
    }

    /// A scorer whose reported cost puts every block above the fan-out
    /// gate, so the protocol scores its cases as pool tasks.
    struct Heavy<F>(F);

    impl<F: Fn(Direction, u32, &[u32]) -> Vec<f32> + Sync> ColdStartScorer for Heavy<F> {
        fn score_into(&self, direction: Direction, user: u32, items: &[u32], out: &mut [f32]) {
            out.copy_from_slice(&(self.0)(direction, user, items));
        }

        fn flops_per_score(&self) -> usize {
            kernels::PAR_MIN_FLOPS
        }
    }

    #[test]
    fn fanned_out_blocks_match_inline_blocks() {
        let scenario = tiny_scenario();
        let cfg = EvalConfig {
            n_negatives: 40,
            seed: 5,
            max_cases: None,
        };
        let scorer = |_d: Direction, u: u32, items: &[u32]| -> Vec<f32> {
            items.iter().map(|&i| ((i * 31 + u * 17) % 101) as f32).collect()
        };
        let jobs = cdrib_tensor::pool::fanned_out_jobs();
        let inline = evaluate_cold_start(&scorer, &scenario, Direction::Y_TO_X, EvalSplit::Test, &cfg).unwrap();
        let pooled = evaluate_cold_start(&Heavy(scorer), &scenario, Direction::Y_TO_X, EvalSplit::Test, &cfg).unwrap();
        assert_eq!(inline.cases, pooled.cases);
        assert_eq!(inline.metrics, pooled.metrics);
        if cdrib_tensor::kernels::parallelism() > 1 {
            assert!(
                cdrib_tensor::pool::fanned_out_jobs() > jobs,
                "heavy blocks must fan out"
            );
        }
    }

    #[test]
    fn max_cases_and_config_validation() {
        let scenario = tiny_scenario();
        let scorer = |_d: Direction, _u: u32, items: &[u32]| vec![1.0; items.len()];
        let cfg = EvalConfig {
            n_negatives: 20,
            seed: 0,
            max_cases: Some(3),
        };
        let out = evaluate_cold_start(&scorer, &scenario, Direction::Y_TO_X, EvalSplit::Test, &cfg).unwrap();
        assert_eq!(out.n_cases(), 3);
        // Asking for more negatives than the catalogue has must fail.
        let bad = EvalConfig {
            n_negatives: 10_000_000,
            seed: 0,
            max_cases: None,
        };
        assert!(evaluate_cold_start(&scorer, &scenario, Direction::X_TO_Y, EvalSplit::Test, &bad).is_err());
    }
}
