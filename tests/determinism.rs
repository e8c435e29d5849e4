//! End-to-end determinism: with a fixed seed, an experiment is a pure
//! function of its configuration — two training runs produce identical
//! per-epoch losses and identical embeddings, with the parallel kernel
//! subsystem enabled or not, and at every thread count.

use cdrib::prelude::*;
use std::process::Command;

fn run_once(seed: u64) -> (Vec<f32>, f32) {
    run_with(seed, CdribConfig::fast_test())
}

fn run_with(seed: u64, mut config: CdribConfig) -> (Vec<f32>, f32) {
    let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, seed).unwrap();
    config.epochs = 4;
    config.seed = seed;
    let trained = train(&config, &scenario).unwrap();
    let losses: Vec<f32> = trained.report.epochs.iter().map(|e| e.loss).collect();
    let fingerprint = trained.embeddings.x_users.sum() + trained.embeddings.y_users.sum();
    (losses, fingerprint)
}

#[test]
fn same_seed_produces_identical_losses() {
    let (losses_a, fp_a) = run_once(11);
    let (losses_b, fp_b) = run_once(11);
    assert!(!losses_a.is_empty());
    // Bitwise equality, not tolerance: the kernels guarantee a fixed
    // accumulation order per element on a given machine.
    assert_eq!(losses_a, losses_b, "per-epoch losses must match bit-for-bit");
    assert_eq!(fp_a.to_bits(), fp_b.to_bits(), "embedding fingerprints must match");
}

#[test]
fn different_seeds_produce_different_trajectories() {
    let (losses_a, _) = run_once(11);
    let (losses_c, _) = run_once(12);
    assert_ne!(losses_a, losses_c, "distinct seeds should not collide");
}

/// The thread-count check's child: prints the bits of a 4-epoch tiny run
/// whose products cross `PAR_MIN_FLOPS` (dim 96), and how many jobs fanned
/// out. Run only as a child process of
/// `same_losses_at_every_thread_count`, which sets `CDRIB_NUM_THREADS`.
#[test]
#[ignore = "child process of same_losses_at_every_thread_count"]
fn thread_count_child() {
    let config = CdribConfig {
        dim: 96,
        ..CdribConfig::fast_test()
    };
    let (losses, fingerprint) = run_with(11, config);
    let bits: Vec<u32> = losses.iter().map(|l| l.to_bits()).collect();
    println!("losses {bits:?}");
    println!("fingerprint {}", fingerprint.to_bits());
    println!("fanned_out {}", cdrib::tensor::pool::fanned_out_jobs());
}

#[test]
fn same_losses_at_every_thread_count() {
    // `parallelism()` is fixed per process, so each thread count trains in
    // its own child process running `thread_count_child`.
    let run = |threads: &str| -> Vec<String> {
        let out = Command::new(std::env::current_exe().unwrap())
            .args([
                "thread_count_child",
                "--exact",
                "--ignored",
                "--nocapture",
                "--test-threads=1",
            ])
            .env("CDRIB_NUM_THREADS", threads)
            .output()
            .expect("spawn child");
        assert!(out.status.success(), "child at {threads} thread(s) failed");
        let stdout = String::from_utf8(out.stdout).unwrap();
        // libtest may print the test name on the first line's front.
        ["losses ", "fingerprint ", "fanned_out "]
            .iter()
            .map(|key| {
                let line = stdout.lines().find_map(|l| l.find(key).map(|at| &l[at..]));
                line.unwrap_or_else(|| panic!("no {key:?} in child output: {stdout}"))
                    .to_string()
            })
            .collect()
    };
    let (one, three) = (run("1"), run("3"));
    assert_eq!(
        one[0], three[0],
        "per-epoch losses must match bit-for-bit at 1 and 3 threads"
    );
    assert_eq!(one[1], three[1], "embedding fingerprints must match at 1 and 3 threads");
    assert_eq!(one[2], "fanned_out 0");
    #[cfg(feature = "parallel")]
    assert_ne!(three[2], "fanned_out 0", "the 3-thread run must fan out");
}
