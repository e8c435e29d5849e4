//! Training-step performance and allocation benchmark.
//!
//! Measures epoch wall time of the CDRIB training step on a synthetic preset
//! scenario in two modes over otherwise identical work:
//!
//! * **fresh** — a new [`Tape`] per step (the pre-pooling behaviour: every
//!   node value and gradient buffer is a heap allocation);
//! * **pooled** — one persistent tape per run with [`Tape::reset`] between
//!   steps (the production path in `cdrib-core`): warm steps draw all tensor
//!   storage from the tape's [`BufferPool`](cdrib_tensor::BufferPool).
//!
//! The binary installs the counting global allocator from
//! `cdrib_tensor::alloc_track`, so it also reports allocator requests per
//! epoch for both modes, plus the steady-state allocation count of a small
//! toy training loop whose entire step (forward, backward, Adam) runs on the
//! pooled stack — that count must be zero, and the `alloc_regression`
//! integration test enforces it.
//!
//! Results are written to `BENCH_step.json` (override with `--out`). Usage:
//!
//! ```text
//! step_perf [--scale tiny|small] [--epochs N] [--warmup N] [--quick] [--out PATH]
//! ```

use cdrib_bench::{Args, RunStamp};
use cdrib_core::{CdribConfig, CdribModel};
use cdrib_data::{build_preset, Direction, EpochBatches, Scale, ScenarioKind};
use cdrib_eval::{evaluate_both_directions, EvalConfig, EvalSplit};
use cdrib_tensor::alloc_track::{allocation_count, CountingAlloc};
use cdrib_tensor::rng::component_rng;
use cdrib_tensor::{kernels, Adam, Optimizer, ParamSet, Tape, Tensor};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Wall time and allocator traffic of one measured mode.
struct ModeResult {
    epoch_ms_median: f64,
    allocs_per_epoch: u64,
}

fn run_mode(
    pooled: bool,
    scenario: &cdrib_data::CdrScenario,
    config: &CdribConfig,
    epochs: usize,
    warmup: usize,
) -> ModeResult {
    let mut model = CdribModel::new(config, scenario).expect("model construction");
    let mut opt = Adam::new(config.learning_rate, 0.9, 0.999, 1e-8, config.l2_weight);
    let mut rng = component_rng(config.seed, "step-perf");
    let mut tape = Tape::new();
    let (mut x_epoch, mut y_epoch) = (EpochBatches::new(), EpochBatches::new());

    let mut run_epoch = |tape: &mut Tape, model: &mut CdribModel| {
        // Pooled mode is the production path: batch storage is refilled in
        // place. Fresh mode discards the storage first, so every batch Vec
        // is reallocated — the pre-pooling behaviour, with identical
        // sampling work either way.
        if !pooled {
            x_epoch = EpochBatches::new();
            y_epoch = EpochBatches::new();
        }
        model
            .make_batches_into(scenario, &mut rng, &mut x_epoch, &mut y_epoch)
            .expect("batches");
        for (xb, yb) in x_epoch.iter().zip(y_epoch.iter()) {
            model.params_mut().zero_grad();
            if pooled {
                tape.reset();
            } else {
                *tape = Tape::new();
            }
            let (loss, _) = model.loss(tape, xb, yb, &mut rng).expect("loss");
            let value = tape.backward(loss, model.params_mut()).expect("backward");
            assert!(value.is_finite(), "loss diverged during the benchmark");
            model.params_mut().clip_grad_norm(20.0);
            opt.step(model.params_mut()).expect("optimizer step");
        }
    };

    for _ in 0..warmup {
        run_epoch(&mut tape, &mut model);
    }
    let allocs_before = allocation_count();
    let mut times = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let started = Instant::now();
        run_epoch(&mut tape, &mut model);
        times.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let allocs = allocation_count() - allocs_before;
    // Median per-epoch time: robust against the frequency spikes of shared
    // CI boxes, and the same statistic for both modes.
    times.sort_by(f64::total_cmp);
    ModeResult {
        epoch_ms_median: times[times.len() / 2],
        allocs_per_epoch: allocs / epochs as u64,
    }
}

/// A dense toy training loop whose steady state must be allocation-free:
/// constants, matmul, LeakyReLU, row-wise dot, BCE, L2 — backward — Adam.
/// Returns allocator requests per epoch after a 2-epoch warm-up.
fn toy_steady_state_allocs(epochs: usize) -> u64 {
    let mut rng = component_rng(11, "toy-alloc");
    let x = cdrib_tensor::rng::normal_tensor(&mut rng, 32, 16, 1.0);
    let targets = {
        let mut t = Tensor::zeros(32, 1);
        for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
            *v = (i % 2) as f32;
        }
        t
    };
    let mut params = ParamSet::new();
    let w1 = params
        .add("w1", cdrib_tensor::rng::normal_tensor(&mut rng, 16, 8, 0.3))
        .expect("fresh set");
    let b = params
        .add("b", cdrib_tensor::rng::normal_tensor(&mut rng, 1, 8, 0.3))
        .expect("fresh set");
    let mut opt = Adam::new(0.01, 0.9, 0.999, 1e-8, 0.001);
    let mut tape = Tape::new();
    let steps_per_epoch = 4;

    let mut run_epoch = |tape: &mut Tape, params: &mut ParamSet| {
        for _ in 0..steps_per_epoch {
            params.zero_grad();
            tape.reset();
            let xv = tape.constant_copy(&x);
            let w1v = tape.param(params, w1);
            let bv = tape.param(params, b);
            let h = tape.matmul(xv, w1v).expect("matmul");
            let h = tape.add_row_broadcast(h, bv).expect("bias");
            let h = tape.leaky_relu(h, 0.1).expect("leaky");
            let dots = tape.rowwise_dot(h, h).expect("dots");
            let rec = tape.bce_with_logits_copy(dots, &targets).expect("bce");
            let reg = tape.sum_squares(w1v).expect("reg");
            let reg = tape.scale(reg, 0.01).expect("scale");
            let loss = tape.add(rec, reg).expect("add");
            tape.backward(loss, params).expect("backward");
            params.clip_grad_norm(20.0);
            opt.step(params).expect("adam");
        }
    };

    for _ in 0..2 {
        run_epoch(&mut tape, &mut params);
    }
    let before = allocation_count();
    for _ in 0..epochs {
        run_epoch(&mut tape, &mut params);
    }
    (allocation_count() - before) / epochs as u64
}

/// Throughput of the leave-one-out evaluation hot path.
struct EvalPerf {
    n_negatives: usize,
    cases: usize,
    cases_per_sec: f64,
    scalar_cases_per_sec: f64,
    speedup: f64,
    scoring_speedup: f64,
}

/// The pre-PR evaluation loop, reproduced verbatim as the baseline: per-case
/// rejection sampling with a fresh `HashSet` (which degenerates towards a
/// coupon-collector loop whenever `n_negatives` approaches the number of
/// non-interacted items), per-item `has_edge` binary searches in the
/// exhaustive branch, and an allocating scalar per-pair scoring loop.
fn legacy_eval(
    scorer: &cdrib_eval::EmbeddingScorer,
    scenario: &cdrib_data::CdrScenario,
    direction: Direction,
    config: &EvalConfig,
) -> usize {
    use cdrib_eval::rank_of_positive;
    use rand::Rng;
    let cases = &scenario.cold_start(direction).test;
    let target = scenario.domain(direction.target);
    let n_items = target.n_items;
    let mut rng = cdrib_tensor::rng::component_rng(config.seed, "eval-negatives");
    let mut n_cases = 0usize;
    let mut candidates: Vec<u32> = Vec::with_capacity(config.n_negatives + 1);
    let mut scores: Vec<f32> = Vec::new();
    let mut rank_sink = 0usize;
    for case in cases.iter() {
        candidates.clear();
        candidates.push(case.item);
        let available = n_items - target.full.user_degree(case.user as usize);
        if available <= config.n_negatives {
            for cand in 0..n_items as u32 {
                if cand != case.item && !target.full.has_edge(case.user as usize, cand as usize) {
                    candidates.push(cand);
                }
            }
        } else {
            let mut seen = std::collections::HashSet::with_capacity(config.n_negatives + 1);
            seen.insert(case.item);
            while candidates.len() < config.n_negatives + 1 {
                let cand = rng.gen_range(0..n_items) as u32;
                if seen.contains(&cand) || target.full.has_edge(case.user as usize, cand as usize) {
                    continue;
                }
                seen.insert(cand);
                candidates.push(cand);
            }
        }
        scores.resize(candidates.len(), 0.0);
        scorer.score_items_scalar_into(direction, case.user, &candidates, &mut scores[..candidates.len()]);
        rank_sink += rank_of_positive(scores[0], &scores[1..candidates.len()]);
        n_cases += 1;
    }
    std::hint::black_box(rank_sink);
    n_cases
}

/// Times the full two-direction cold-start evaluation three ways: the
/// batched kernel-backed pipeline, the faithful pre-PR loop ([`legacy_eval`];
/// this is the "scalar path" baseline), and the new pipeline driven by an
/// allocating scalar closure scorer (isolating the scoring speedup from the
/// sampling fixes). Reports cases/s and ratios; `repeats` medians out CI-box
/// noise.
fn run_eval_perf(scenario: &cdrib_data::CdrScenario, config: &CdribConfig, repeats: usize) -> EvalPerf {
    let model = CdribModel::new(config, scenario).expect("model construction");
    let scorer = model.infer_embeddings().expect("embeddings").into_scorer();
    // The paper's 999 negatives when the catalogue allows it, capped so both
    // directions stay valid on the preset scales.
    let min_items = scenario.x.n_items.min(scenario.y.n_items);
    let eval_cfg = EvalConfig {
        n_negatives: 999.min(min_items - 1),
        seed: 17,
        max_cases: None,
    };

    // Scalar closure scorer over the same tables (the pre-batching scoring
    // loop), run through the new sampling pipeline.
    let scalar_scorer = |d: Direction, u: u32, items: &[u32]| -> Vec<f32> { scorer.score_items_scalar(d, u, items) };

    let mut cases = 0usize;
    let (mut batched_times, mut legacy_times, mut scalar_times) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..repeats.max(1) {
        let started = Instant::now();
        let (x2y, y2x) = evaluate_both_directions(&scorer, scenario, EvalSplit::Test, &eval_cfg).expect("batched eval");
        batched_times.push(started.elapsed().as_secs_f64());
        cases = x2y.n_cases() + y2x.n_cases();

        let started = Instant::now();
        let n = legacy_eval(&scorer, scenario, Direction::X_TO_Y, &eval_cfg)
            + legacy_eval(&scorer, scenario, Direction::Y_TO_X, &eval_cfg);
        legacy_times.push(started.elapsed().as_secs_f64());
        assert_eq!(n, cases, "legacy path must evaluate the same cases");

        let started = Instant::now();
        let _ = evaluate_both_directions(&scalar_scorer, scenario, EvalSplit::Test, &eval_cfg).expect("scalar eval");
        scalar_times.push(started.elapsed().as_secs_f64());
    }
    batched_times.sort_by(f64::total_cmp);
    legacy_times.sort_by(f64::total_cmp);
    scalar_times.sort_by(f64::total_cmp);
    let batched = batched_times[batched_times.len() / 2];
    let legacy = legacy_times[legacy_times.len() / 2];
    let scalar = scalar_times[scalar_times.len() / 2];
    EvalPerf {
        n_negatives: eval_cfg.n_negatives,
        cases,
        cases_per_sec: cases as f64 / batched,
        scalar_cases_per_sec: cases as f64 / legacy,
        speedup: legacy / batched,
        scoring_speedup: scalar / batched,
    }
}

fn main() {
    let args = Args::from_env();
    let quick = args.get("quick").is_some();
    let scale = match args.get("scale").unwrap_or("tiny") {
        "small" => Scale::Small,
        "full" => Scale::Full,
        _ => Scale::Tiny,
    };
    // Echo the *normalized* scale so BENCH_step.json can never claim a
    // scale that was not actually run (an unknown value falls back to tiny).
    let scale_name = match scale {
        Scale::Small => "small",
        Scale::Full => "full",
        _ => "tiny",
    };
    let epochs: usize = args.get_or("epochs", if quick { 6 } else { 20 });
    let warmup: usize = args.get_or("warmup", 2);
    let out_path = args.get("out").unwrap_or("BENCH_step.json").to_string();
    let seed: u64 = args.get_or("seed", 42);

    let scenario = build_preset(ScenarioKind::GameVideo, scale, seed).expect("preset scenario");
    let config = CdribConfig {
        dim: 32,
        layers: 2,
        batches_per_epoch: 2,
        eval_every: 0,
        patience: 0,
        seed,
        ..CdribConfig::default()
    };

    eprintln!(
        "step_perf: scenario game_video/{scale_name}, {} + {} edges, dim {}, {} epochs (+{} warm-up), isa {}, {} thread(s)",
        scenario.x.train.n_edges(),
        scenario.y.train.n_edges(),
        config.dim,
        epochs,
        warmup,
        kernels::active_isa(),
        kernels::parallelism(),
    );

    let fresh = run_mode(false, &scenario, &config, epochs, warmup);
    let pooled = run_mode(true, &scenario, &config, epochs, warmup);
    let speedup = fresh.epoch_ms_median / pooled.epoch_ms_median;
    let toy_allocs = toy_steady_state_allocs(3);
    let eval = run_eval_perf(&scenario, &config, if quick { 2 } else { 5 });

    eprintln!(
        "fresh tape : {:8.2} ms/epoch, {:6} allocs/epoch",
        fresh.epoch_ms_median, fresh.allocs_per_epoch
    );
    eprintln!(
        "pooled tape: {:8.2} ms/epoch, {:6} allocs/epoch  ({speedup:.2}x)",
        pooled.epoch_ms_median, pooled.allocs_per_epoch
    );
    eprintln!("toy loop   : {toy_allocs} steady-state allocs/epoch");
    eprintln!(
        "evaluation : {:8.0} cases/s batched vs {:.0} cases/s pre-PR scalar path ({:.2}x; scoring alone {:.2}x; {} cases x {} negatives)",
        eval.cases_per_sec, eval.scalar_cases_per_sec, eval.speedup, eval.scoring_speedup, eval.cases, eval.n_negatives
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"step_perf\",\n",
            "  \"scenario\": \"game_video\",\n",
            "  \"scale\": \"{scale}\",\n",
            "  \"dim\": {dim},\n",
            "  \"layers\": {layers},\n",
            "  \"batches_per_epoch\": {bpe},\n",
            "  \"edges\": {edges},\n",
            "  \"warmup_epochs\": {warmup},\n",
            "  \"measured_epochs\": {epochs},\n",
            "  \"isa\": \"{isa}\",\n",
            "  \"threads\": {threads},\n",
            "{stamp}",
            "  \"fresh_tape\": {{ \"epoch_ms_median\": {fresh_ms:.3}, \"allocs_per_epoch\": {fresh_allocs} }},\n",
            "  \"pooled_tape\": {{ \"epoch_ms_median\": {pooled_ms:.3}, \"allocs_per_epoch\": {pooled_allocs} }},\n",
            "  \"speedup_pooled_vs_fresh\": {speedup:.3},\n",
            "  \"toy_loop_steady_state_allocs_per_epoch\": {toy_allocs},\n",
            "  \"eval_cases\": {eval_cases},\n",
            "  \"eval_negatives\": {eval_negatives},\n",
            "  \"eval_cases_per_sec\": {eval_cps:.1},\n",
            "  \"eval_scalar_cases_per_sec\": {eval_scalar_cps:.1},\n",
            "  \"eval_speedup_batched_vs_scalar\": {eval_speedup:.3},\n",
            "  \"eval_scoring_speedup\": {eval_scoring_speedup:.3}\n",
            "}}\n"
        ),
        scale = scale_name,
        dim = config.dim,
        layers = config.layers,
        bpe = config.batches_per_epoch,
        edges = scenario.x.train.n_edges() + scenario.y.train.n_edges(),
        warmup = warmup,
        epochs = epochs,
        isa = kernels::active_isa(),
        threads = kernels::parallelism(),
        stamp = RunStamp::capture().json_fields(),
        fresh_ms = fresh.epoch_ms_median,
        fresh_allocs = fresh.allocs_per_epoch,
        pooled_ms = pooled.epoch_ms_median,
        pooled_allocs = pooled.allocs_per_epoch,
        speedup = speedup,
        toy_allocs = toy_allocs,
        eval_cases = eval.cases,
        eval_negatives = eval.n_negatives,
        eval_cps = eval.cases_per_sec,
        eval_scalar_cps = eval.scalar_cases_per_sec,
        eval_speedup = eval.speedup,
        eval_scoring_speedup = eval.scoring_speedup,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_step.json");
    eprintln!("wrote {out_path}");
}
