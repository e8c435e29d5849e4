//! Allocation-regression tests with the kernels fanned out: warm work that
//! crosses `PAR_MIN_FLOPS` and runs on the worker pool must be
//! allocation-free too, not only the single-threaded configuration that
//! `tests/alloc_regression.rs` pins.
//!
//! `CDRIB_NUM_THREADS=4` is set before the first dispatch (this file is its
//! own test binary because `parallelism()` caches the thread count), and
//! the counting global allocator from `cdrib_tensor::alloc_track` counts
//! every allocator request in the process, pool workers included. Each
//! check also asserts that its work really fanned out
//! (`pool::fanned_out_jobs` grew), so a change to the gate cannot quietly
//! turn this into an inline-only test.
//!
//! The checks run serially in one `#[test]` so no concurrent test thread
//! can allocate while a steady-state window is being measured.
#![cfg(feature = "parallel")]

use cdrib_core::{CdribConfig, CdribModel};
use cdrib_data::{build_preset, Direction, EpochBatches, Scale, ScenarioKind};
use cdrib_serve::{Recommender, Request};
use cdrib_tensor::alloc_track::{allocation_count, CountingAlloc};
use cdrib_tensor::kernels::{self, PAR_MIN_FLOPS};
use cdrib_tensor::rng::component_rng;
use cdrib_tensor::{pool, Adam, CsrMatrix, Optimizer, Tape};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Measures the allocator requests and fanned-out jobs of `window` up to
/// three times and returns the smallest allocation count with the jobs of
/// that window. A stray allocation from the libtest harness thread can land
/// inside one window; a real regression allocates in every window.
fn min_allocs_over_windows(mut window: impl FnMut()) -> (u64, u64) {
    let mut best = (u64::MAX, 0);
    for _ in 0..3 {
        let (a0, j0) = (allocation_count(), pool::fanned_out_jobs());
        window();
        let allocs = allocation_count() - a0;
        if allocs < best.0 {
            best = (allocs, pool::fanned_out_jobs() - j0);
        }
        if best.0 == 0 {
            break;
        }
    }
    best
}

fn pseudo(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u32 << 24) as f32) - 0.5
        })
        .collect()
}

/// `matmul`, `spmm`, `spmm_transpose` and `axpy`, each above the gate.
fn fanned_out_kernels() {
    let (m, k, n) = (257, 96, 97);
    assert!(m * k * n >= PAR_MIN_FLOPS);
    let (a, b) = (pseudo(1, m * k), pseudo(2, k * n));
    let mut product = vec![0.0; m * n];

    let (rows, cols, width) = (1031, 157, 192);
    let mut state = 99u64;
    let triplets: Vec<(usize, usize, f32)> = (0..rows * 12)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize % rows, (state >> 12) as usize % cols, 0.25)
        })
        .collect();
    let csr = CsrMatrix::from_triplets(rows, cols, &triplets).unwrap();
    assert!(csr.nnz() * width >= PAR_MIN_FLOPS);
    let dense = pseudo(3, cols * width);
    let dense_t = pseudo(4, rows * width);
    let (mut spmm_out, mut spmm_t_out) = (vec![0.0; rows * width], vec![0.0; cols * width]);

    let len = PAR_MIN_FLOPS + 3;
    let (mut dst, src) = (pseudo(5, len), pseudo(6, len));

    let mut round = || {
        kernels::matmul(m, k, n, &a, &b, &mut product);
        kernels::spmm(csr.view(), width, &dense, &mut spmm_out);
        spmm_t_out.fill(0.0);
        kernels::spmm_transpose(csr.view(), width, &dense_t, &mut spmm_t_out);
        kernels::axpy(0.5, &mut dst, &src);
    };
    round();
    let (allocs, jobs) = min_allocs_over_windows(&mut round);
    assert_eq!(jobs, 4, "each of the four kernels must fan out");
    assert_eq!(allocs, 0, "warm fanned-out kernels must not touch the allocator");
}

/// Full-model epochs on a preset whose products cross the gate.
fn fanned_out_training_epochs() {
    let scenario = build_preset(ScenarioKind::MusicMovie, Scale::Small, 42).expect("preset");
    let config = CdribConfig {
        dim: 32,
        layers: 2,
        eval_every: 0,
        patience: 0,
        seed: 42,
        ..CdribConfig::default()
    };
    let mut model = CdribModel::new(&config, &scenario).expect("model");
    let mut opt = Adam::new(config.learning_rate, 0.9, 0.999, 1e-8, config.l2_weight);
    let mut rng = component_rng(config.seed, "alloc-parallel-epoch");
    let mut tape = Tape::new();
    let (mut x_epoch, mut y_epoch) = (EpochBatches::new(), EpochBatches::new());
    let mut run_epoch = || {
        model
            .make_batches_into(&scenario, &mut rng, &mut x_epoch, &mut y_epoch)
            .expect("batches");
        for (xb, yb) in x_epoch.iter().zip(y_epoch.iter()) {
            model.params_mut().zero_grad();
            tape.reset();
            let (loss, _) = model.loss(&mut tape, xb, yb, &mut rng).expect("loss");
            assert!(tape.backward(loss, model.params_mut()).expect("backward").is_finite());
            model.params_mut().clip_grad_norm(20.0);
            opt.step(model.params_mut()).expect("adam");
        }
    };
    // Warm-up fills the tape's buffer pool across several shuffles.
    for _ in 0..4 {
        run_epoch();
    }
    let (allocs, jobs) = min_allocs_over_windows(&mut run_epoch);
    assert!(jobs > 0, "the epoch's large products must fan out");
    assert_eq!(allocs, 0, "warm fanned-out epochs must not touch the allocator");
}

/// A coalesced serve batch of `requests x candidates x dim` above the gate.
fn fanned_out_serve_batch() {
    let scenario = build_preset(ScenarioKind::GameVideo, Scale::Small, 42).expect("preset");
    let config = CdribConfig {
        dim: 32,
        layers: 2,
        eval_every: 0,
        patience: 0,
        seed: 42,
        ..CdribConfig::default()
    };
    let model = CdribModel::new(&config, &scenario).expect("model");
    let embeddings = model.infer_embeddings().expect("embeddings");
    let mut recommender = Recommender::from_embeddings(embeddings, &scenario).expect("recommender");
    let requests: Vec<Request> = (0..256u32)
        .map(|i| {
            let direction = if i % 2 == 0 {
                Direction::X_TO_Y
            } else {
                Direction::Y_TO_X
            };
            let users = scenario.domain(direction.source).n_users as u32;
            Request {
                direction,
                user: (i * 7) % users,
                k: 10,
            }
        })
        .collect();
    let flops: usize = requests
        .iter()
        .map(|r| recommender.catalogue_size(r.direction.target) * config.dim)
        .sum();
    assert!(flops >= PAR_MIN_FLOPS);
    let (mut responses, mut outcomes) = (Vec::new(), Vec::new());
    let mut batch = || {
        recommender.recommend_batch_outcomes(&requests, &mut responses, &mut outcomes, kernels::parallelism());
    };
    batch();
    let (allocs, jobs) = min_allocs_over_windows(&mut batch);
    assert_eq!(jobs, 1, "the batch must fan out");
    assert_eq!(allocs, 0, "a warm fanned-out batch must not touch the allocator");
    assert!(outcomes.iter().all(|o| o.is_ok()));
    assert!(responses.iter().all(|r| r.len() == 10));
}

#[test]
fn warm_fanned_out_work_is_allocation_free() {
    std::env::set_var("CDRIB_NUM_THREADS", "4");
    assert_eq!(kernels::parallelism(), 4);
    fanned_out_kernels();
    fanned_out_training_epochs();
    fanned_out_serve_batch();
}
