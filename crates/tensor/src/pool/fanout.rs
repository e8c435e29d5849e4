//! The persistent worker pool behind every parallel fan-out.
//!
//! Kernels, evaluation scoring and coalesced serving all split work the same
//! way: cut the output into disjoint chunks, run every chunk, return once the
//! last one has finished. This module runs those chunks on
//! [`parallelism()`](crate::kernels::parallelism)` - 1` named worker threads
//! started once, on first use, instead of spawning OS threads per call.
//!
//! - The calling thread runs chunk 0 itself and then claims further chunks
//!   alongside the workers, so a worker that wakes late costs at most one
//!   chunk of waiting, never the whole job.
//! - Idle workers park on a condition variable; they never spin.
//! - Dispatch does not allocate. A job is a type-erased reference to the
//!   caller's closure plus atomic counters, and the caller returns only
//!   after every chunk has finished, so the borrow outlives every use.
//! - A panicking chunk is caught and re-raised on the caller once the job
//!   is over; the pool keeps working.
//! - The pool runs one job at a time. A dispatch made while a job is in
//!   flight — from inside a chunk (nested), or from another thread — runs
//!   its chunks inline on its own thread instead of waiting, so nothing can
//!   deadlock.
//!
//! Which chunk ran on which thread never changes a result: callers cut
//! chunks by a fixed rule and every chunk writes only its own output.
//!
//! Without the `parallel` feature [`run`] is a plain loop.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Jobs run on the pool workers (a statistic; publishes nothing).
static FANNED_OUT: AtomicU64 = AtomicU64::new(0);

/// Runs `task(i)` for every `i` in `0..tasks` and returns once all have
/// finished. A panic in a task is re-raised here once no task of the job
/// is still running; tasks not yet started by then may be skipped.
pub fn run<F: Fn(usize) + Sync>(tasks: usize, task: F) {
    #[cfg(feature = "parallel")]
    if tasks > 1 {
        if let Some(pool) = workers::pool() {
            if pool.try_dispatch(tasks, &task) {
                return;
            }
        }
    }
    for i in 0..tasks {
        task(i);
    }
}

/// Number of jobs this process has fanned out to the pool workers so far;
/// jobs that ran inline are not counted. Always 0 without the `parallel`
/// feature. Lets tests and benchmarks check which side of the gate a call
/// fell on.
pub fn fanned_out_jobs() -> u64 {
    FANNED_OUT.load(Ordering::Relaxed)
}

/// Mutable data cut into disjoint parts, one per task of a [`for_each`] job.
///
/// # Safety
///
/// For `i != j`, both below [`count`](Split::count), `part(i)` and
/// `part(j)` must not overlap.
pub unsafe trait Split<'a>: Sync {
    /// What one task receives.
    type Part;

    /// Number of parts.
    fn count(&self) -> usize;

    /// Part `i`.
    ///
    /// # Safety
    ///
    /// `i < self.count()`, and each index is taken at most once.
    unsafe fn part(&self, i: usize) -> Self::Part;
}

/// Runs `task(i, part_i)` for every part of `parts` on the pool.
pub fn for_each<'a, S: Split<'a>>(parts: S, task: impl Fn(usize, S::Part) + Sync) {
    // SAFETY: `run` calls each index below `count()` exactly once.
    run(parts.count(), |i| task(i, unsafe { parts.part(i) }));
}

/// A mutable slice cut into consecutive chunks of `size` elements (the last
/// one may be shorter).
pub struct Chunks<'a, T> {
    ptr: *mut T,
    len: usize,
    size: usize,
    _borrow: PhantomData<&'a mut [T]>,
}

impl<'a, T> Chunks<'a, T> {
    /// Cuts `data` into chunks of `size` elements; `size` must be non-zero
    /// unless `data` is empty.
    pub fn new(data: &'a mut [T], size: usize) -> Self {
        assert!(size > 0 || data.is_empty(), "zero chunk size");
        Chunks {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            size: size.max(1),
            _borrow: PhantomData,
        }
    }
}

// SAFETY: a `Chunks` only hands out disjoint `&mut [T]`s, one per task, so
// sharing it across threads is sending those parts.
unsafe impl<T: Send> Sync for Chunks<'_, T> {}

// SAFETY: chunk `i` is `[i * size, min((i + 1) * size, len))`, disjoint
// from every other chunk.
unsafe impl<'a, T: Send> Split<'a> for Chunks<'a, T> {
    type Part = &'a mut [T];

    fn count(&self) -> usize {
        self.len.div_ceil(self.size)
    }

    unsafe fn part(&self, i: usize) -> &'a mut [T] {
        let start = i * self.size;
        let end = (start + self.size).min(self.len);
        debug_assert!(start < end);
        std::slice::from_raw_parts_mut(self.ptr.add(start), end - start)
    }
}

/// A mutable slice cut at ascending `bounds`: part `i` is
/// `data[bounds[i]..bounds[i + 1]]`.
pub struct Ranges<'a, T> {
    ptr: *mut T,
    bounds: &'a [usize],
    _borrow: PhantomData<&'a mut [T]>,
}

impl<'a, T> Ranges<'a, T> {
    /// Cuts `data` at `bounds`, which must be ascending and end within
    /// `data`.
    pub fn new(data: &'a mut [T], bounds: &'a [usize]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] <= w[1]) && bounds.last().is_none_or(|&b| b <= data.len()),
            "range bounds must ascend within the slice"
        );
        Ranges {
            ptr: data.as_mut_ptr(),
            bounds,
            _borrow: PhantomData,
        }
    }
}

// SAFETY: as for `Chunks`.
unsafe impl<T: Send> Sync for Ranges<'_, T> {}

// SAFETY: ascending bounds (checked in `new`) make the ranges disjoint.
unsafe impl<'a, T: Send> Split<'a> for Ranges<'a, T> {
    type Part = &'a mut [T];

    fn count(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    unsafe fn part(&self, i: usize) -> &'a mut [T] {
        let (start, end) = (self.bounds[i], self.bounds[i + 1]);
        std::slice::from_raw_parts_mut(self.ptr.add(start), end - start)
    }
}

// SAFETY: part `i` of a triple is part `i` of each member; members are
// disjoint from each other (separate borrows) and each is a `Split`.
unsafe impl<'a, A: Split<'a>, B: Split<'a>, C: Split<'a>> Split<'a> for (A, B, C) {
    type Part = (A::Part, B::Part, C::Part);

    fn count(&self) -> usize {
        self.0.count().min(self.1.count()).min(self.2.count())
    }

    unsafe fn part(&self, i: usize) -> Self::Part {
        (self.0.part(i), self.1.part(i), self.2.part(i))
    }
}

#[cfg(feature = "parallel")]
mod workers {
    use super::FANNED_OUT;
    use std::any::Any;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
    use std::time::{Duration, Instant};

    /// How long the caller polls for the workers' last chunks before it
    /// blocks. Chunks are cut evenly, so the workers usually finish within
    /// a few microseconds of the caller; blocking would add a futex wake
    /// to every such job.
    const FINISH_SPIN: Duration = Duration::from_micros(20);

    type Task = dyn Fn(usize) + Sync;

    /// The posted job: the caller's closure and its task count.
    #[derive(Clone, Copy)]
    struct Job {
        task: &'static Task,
        tasks: usize,
    }

    struct Slot {
        /// Bumped per job, so a worker joins each job at most once.
        generation: u64,
        /// The job workers may join; withdrawn before the caller waits.
        job: Option<Job>,
    }

    pub(super) struct Pool {
        workers: usize,
        slot: Mutex<Slot>,
        /// Workers wait here for a job.
        wake: Condvar,
        /// The caller waits here for `active` to reach zero.
        idle: Condvar,
        /// Set while a caller owns the pool. The owner's `Release` store of
        /// `false` pairs with the next owner's `Acquire` exchange, which so
        /// sees the previous job fully torn down.
        busy: AtomicBool,
        /// Next unclaimed task index of the current job. `Relaxed`: it only
        /// hands out indices; the job it indexes is published by `slot`'s
        /// lock, which the caller takes after resetting it.
        next: AtomicUsize,
        /// Workers inside the current job. Each worker's `Release`
        /// decrement pairs with the caller's `Acquire` load that reads 0,
        /// so every task's writes are visible when the caller returns.
        active: AtomicUsize,
        /// The first panic of the current job.
        panic: Mutex<Option<Box<dyn Any + Send>>>,
    }

    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        // Tasks run outside every pool lock, so a poisoned lock only means
        // a panic between two plain field updates; the state is intact.
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The process-wide pool, started on first use; `None` when
    /// `parallelism()` is 1.
    pub(super) fn pool() -> Option<&'static Pool> {
        static POOL: OnceLock<Pool> = OnceLock::new();
        if let Some(pool) = POOL.get() {
            return Some(pool);
        }
        let workers = crate::kernels::parallelism() - 1;
        if workers == 0 {
            return None;
        }
        let mut started = false;
        let pool = POOL.get_or_init(|| {
            started = true;
            Pool {
                workers,
                slot: Mutex::new(Slot {
                    generation: 0,
                    job: None,
                }),
                wake: Condvar::new(),
                idle: Condvar::new(),
                busy: AtomicBool::new(false),
                next: AtomicUsize::new(0),
                active: AtomicUsize::new(0),
                panic: Mutex::new(None),
            }
        });
        if started {
            // Workers live as long as the process and are never joined:
            // a task's panic is caught and re-raised on its caller, and the
            // loop itself holds no lock across anything that can panic.
            for w in 0..workers {
                // A worker that fails to start only leaves more chunks to
                // the callers, which claim every unclaimed task themselves.
                let _ = std::thread::Builder::new()
                    .name(format!("cdrib-pool-{w}"))
                    .spawn(move || pool.work_loop());
            }
        }
        Some(pool)
    }

    impl Pool {
        /// Runs the job on the pool; `false` (nothing run) when another
        /// job is in flight, nested or not.
        pub(super) fn try_dispatch(&self, tasks: usize, task: &(dyn Fn(usize) + Sync + '_)) -> bool {
            if self
                .busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                return false;
            }
            // SAFETY: the job is withdrawn and every worker has left it
            // (`active == 0`) before this function returns, so no worker
            // touches `task` after its borrow ends.
            let task: &'static Task =
                unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync + '_), &'static Task>(task) };
            FANNED_OUT.fetch_add(1, Ordering::Relaxed);
            // Chunk 0 is the caller's.
            self.next.store(1, Ordering::Relaxed);
            {
                let mut slot = lock(&self.slot);
                slot.generation = slot.generation.wrapping_add(1);
                slot.job = Some(Job { task, tasks });
            }
            let wanted = (tasks - 1).min(self.workers);
            if wanted == self.workers {
                self.wake.notify_all();
            } else {
                for _ in 0..wanted {
                    self.wake.notify_one();
                }
            }
            self.run_tasks(task, tasks, 0);
            lock(&self.slot).job = None;
            self.wait_idle();
            let panic = lock(&self.panic).take();
            self.busy.store(false, Ordering::Release);
            if let Some(payload) = panic {
                resume_unwind(payload);
            }
            true
        }

        /// Runs task `first`, then claims and runs tasks until none are
        /// left.
        fn run_tasks(&self, task: &Task, tasks: usize, first: usize) {
            let mut i = first;
            while i < tasks {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
                    lock(&self.panic).get_or_insert(payload);
                }
                i = self.next.fetch_add(1, Ordering::Relaxed);
            }
        }

        /// Waits until no worker is inside the (withdrawn) job.
        fn wait_idle(&self) {
            let started = Instant::now();
            while self.active.load(Ordering::Acquire) != 0 {
                if started.elapsed() >= FINISH_SPIN {
                    let mut slot = lock(&self.slot);
                    while self.active.load(Ordering::Acquire) != 0 {
                        slot = self.idle.wait(slot).unwrap_or_else(PoisonError::into_inner);
                    }
                    return;
                }
                std::hint::spin_loop();
            }
        }

        fn work_loop(&self) {
            let mut seen = 0u64;
            loop {
                let job = {
                    let mut slot = lock(&self.slot);
                    loop {
                        if let Some(job) = slot.job.filter(|_| slot.generation != seen) {
                            seen = slot.generation;
                            // Joined under the lock the caller withdraws
                            // the job under, so the caller counts us.
                            self.active.fetch_add(1, Ordering::Relaxed);
                            break job;
                        }
                        slot = self.wake.wait(slot).unwrap_or_else(PoisonError::into_inner);
                    }
                };
                let first = self.next.fetch_add(1, Ordering::Relaxed);
                self.run_tasks(job.task, job.tasks, first);
                if self.active.fetch_sub(1, Ordering::Release) == 1 {
                    // Notify under the lock the caller checks `active`
                    // under, so the wake-up cannot fall between its check
                    // and its wait.
                    let _slot = lock(&self.slot);
                    self.idle.notify_one();
                }
            }
        }
    }
}
