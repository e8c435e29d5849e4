//! Contract tests of the persistent worker pool (`cdrib_tensor::pool`).
//!
//! `CDRIB_NUM_THREADS=4` is set before the first dispatch, so the pool runs
//! three workers whatever the machine's core count. This file is its own
//! test binary because `parallelism()` caches the thread count on first
//! use. Without the `parallel` feature the same contracts hold for the
//! inline loop.

use cdrib::tensor::kernels;
use cdrib::tensor::pool::{self, Chunks, Ranges};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;

fn force_threads() {
    std::env::set_var("CDRIB_NUM_THREADS", "4");
}

/// Runs a `tasks`-task job and returns how often each index ran.
fn run_counts(tasks: usize) -> Vec<usize> {
    let counts: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
    pool::run(tasks, |i| {
        counts[i].fetch_add(1, Ordering::Relaxed);
    });
    counts.into_iter().map(AtomicUsize::into_inner).collect()
}

/// A per-element value with enough float work that chunk placement would
/// show up if it changed any rounding.
fn value(i: usize) -> f32 {
    (0..64).fold(i as f32 * 0.37, |acc, j| (acc * 1.0001 + j as f32).sin() * 3.0)
}

#[test]
fn every_task_runs_exactly_once() {
    force_threads();
    #[cfg(feature = "parallel")]
    assert_eq!(kernels::parallelism(), 4);
    for tasks in 0..=17 {
        assert_eq!(run_counts(tasks), vec![1; tasks], "{tasks} tasks");
    }
}

#[test]
fn zero_length_and_one_chunk_jobs() {
    force_threads();
    pool::run(0, |_| panic!("a zero-task job runs nothing"));
    let caller = std::thread::current().id();
    let ran_on = Mutex::new(Vec::new());
    pool::run(1, |i| ran_on.lock().unwrap().push((i, std::thread::current().id())));
    assert_eq!(
        *ran_on.lock().unwrap(),
        vec![(0, caller)],
        "a one-task job runs on the caller"
    );

    let mut empty: [f32; 0] = [];
    pool::for_each(Chunks::new(&mut empty, 4), |_, _| panic!("no chunks in an empty slice"));
    pool::for_each(Ranges::new(&mut empty, &[0]), |_, _| panic!("one bound is no range"));

    let mut data = vec![0u32; 5];
    let calls = AtomicUsize::new(0);
    pool::for_each(Chunks::new(&mut data, 8), |ci, chunk| {
        calls.fetch_add(1, Ordering::Relaxed);
        assert_eq!((ci, chunk.len()), (0, 5));
        chunk.fill(7);
    });
    assert_eq!(calls.into_inner(), 1);
    assert_eq!(data, vec![7; 5]);
}

#[test]
fn more_threads_than_chunks() {
    force_threads();
    // Four threads, two or three chunks: the surplus worker finds nothing
    // to claim and must neither run a chunk twice nor hold the caller.
    for tasks in [2, 3] {
        for _ in 0..200 {
            assert_eq!(run_counts(tasks), vec![1; tasks]);
        }
    }
    let mut data = vec![0usize; 3];
    pool::for_each(Chunks::new(&mut data, 1), |ci, chunk| chunk[0] = ci + 1);
    assert_eq!(data, vec![1, 2, 3]);
}

#[test]
fn uneven_chunks_and_ranges_cover_the_slice() {
    force_threads();
    let mut data = vec![usize::MAX; 103];
    pool::for_each(Chunks::new(&mut data, 10), |ci, chunk| {
        for (k, v) in chunk.iter_mut().enumerate() {
            *v = ci * 10 + k;
        }
    });
    assert_eq!(data, (0..103).collect::<Vec<_>>());

    let bounds = [0, 0, 4, 4, 9, 20];
    let mut data = vec![0usize; 20];
    pool::for_each(Ranges::new(&mut data, &bounds), |ri, range| range.fill(ri + 1));
    let expected: Vec<usize> = (0..20)
        .map(|k| bounds.windows(2).position(|w| w[0] <= k && k < w[1]).unwrap() + 1)
        .collect();
    assert_eq!(data, expected);

    // A triple yields as many parts as its shortest member.
    let (mut a, mut b, mut c) = (vec![0u8; 7], vec![0u16; 7], vec![0u32; 2]);
    let parts = (Chunks::new(&mut a, 3), Chunks::new(&mut b, 3), Chunks::new(&mut c, 1));
    pool::for_each(parts, |ci, (x, y, z)| {
        x.fill(ci as u8 + 1);
        y.fill(ci as u16 * 10 + 1);
        z[0] = ci as u32 + 1;
    });
    assert_eq!(a, vec![1, 1, 1, 2, 2, 2, 0]);
    assert_eq!(b, vec![1, 1, 1, 11, 11, 11, 0]);
    assert_eq!(c, vec![1, 2]);
}

#[test]
fn panicking_task_reaches_caller_and_pool_keeps_working() {
    force_threads();
    for bad in [0, 5] {
        let ran = AtomicUsize::new(0);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool::run(8, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == bad {
                    panic!("task {i} failed");
                }
            })
        }))
        .expect_err("the panic must reach the caller");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, format!("task {bad} failed"));
        // The caller returns only after the job is over: no task of it
        // starts later.
        let at_return = ran.load(Ordering::SeqCst);
        assert!((1..=8).contains(&at_return));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(ran.into_inner(), at_return);
    }
    for tasks in [2, 4, 9] {
        assert_eq!(run_counts(tasks), vec![1; tasks], "pool after a panic");
    }
}

#[test]
fn nested_dispatch_runs_inline() {
    force_threads();
    let outer_tasks = 4;
    let seen: Mutex<Vec<(usize, ThreadId, Vec<ThreadId>)>> = Mutex::new(Vec::new());
    pool::run(outer_tasks, |i| {
        let inner = Mutex::new(Vec::new());
        pool::run(6, |_| inner.lock().unwrap().push(std::thread::current().id()));
        seen.lock()
            .unwrap()
            .push((i, std::thread::current().id(), inner.into_inner().unwrap()));
    });
    let seen = seen.into_inner().unwrap();
    assert_eq!(seen.len(), outer_tasks);
    for (i, outer, inner) in seen {
        assert_eq!(inner.len(), 6, "task {i}: every nested task ran");
        assert!(
            inner.iter().all(|&t| t == outer),
            "task {i}: nested tasks ran off the outer task's thread"
        );
    }
}

#[test]
fn concurrent_callers_match_serial_bitwise() {
    force_threads();
    const LEN: usize = 4099;
    let serial: Vec<f32> = (0..LEN).map(value).collect();
    // A fanned-out kernel call's reference, taken while the pool is idle.
    let (m, k, n) = (257, 96, 97);
    assert!(m * k * n >= kernels::PAR_MIN_FLOPS);
    let a: Vec<f32> = (0..m * k).map(|i| value(i) * 0.1).collect();
    let b: Vec<f32> = (0..k * n).map(|i| value(i + 7) * 0.1).collect();
    let mut product = vec![0.0; m * n];
    kernels::matmul(m, k, n, &a, &b, &mut product);

    std::thread::scope(|scope| {
        for t in 0..8 {
            let (serial, a, b, product) = (&serial, &a, &b, &product);
            scope.spawn(move || {
                for round in 0..20 {
                    let mut out = vec![0.0f32; LEN];
                    let chunk = 1 + (t * 131 + round * 17) % 700;
                    pool::for_each(Chunks::new(&mut out, chunk), |ci, part| {
                        for (j, v) in part.iter_mut().enumerate() {
                            *v = value(ci * chunk + j);
                        }
                    });
                    assert!(
                        out.iter().zip(serial).all(|(x, y)| x.to_bits() == y.to_bits()),
                        "caller {t} round {round}: pooled values differ from serial"
                    );
                    let mut c = vec![0.0; m * n];
                    kernels::matmul(m, k, n, a, b, &mut c);
                    assert!(
                        c.iter().zip(product).all(|(x, y)| x.to_bits() == y.to_bits()),
                        "caller {t} round {round}: concurrent matmul differs"
                    );
                }
            });
        }
    });
}
