//! One process-wide pool of simulation workers.
//!
//! A campaign's virtual timeline never reads a packet simulation's
//! result, so the controller hands simulations to this pool and runs
//! ahead (see `Controller::execute_campaign`). The pool is
//! `available_parallelism()` std threads, started on first use and kept
//! for the life of the process. Jobs run in submission order.
//!
//! A [`Job`] is the submitter's handle. Dropping it before a worker
//! picks the job up skips the job; a job that panics re-raises the panic
//! in [`Job::wait`], so a waiting caller fails instead of hanging. The
//! workers are never joined: a job's panic is caught and handed to its
//! waiter, so none goes unseen. If no worker thread can be started, jobs
//! run inline at submission.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;

type Task = Box<dyn FnOnce() + Send>;

/// The shared task queue the workers drain.
struct Queue {
    tasks: Mutex<VecDeque<Task>>,
    ready: Condvar,
}

/// Locks a pool mutex. Jobs run outside every lock and no lock holder
/// can panic, so a poisoned lock is a bug in this module.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("no pool lock holder panics")
}

/// The pool's queue, starting its workers on first use; `None` when not
/// one worker thread could be started.
fn queue() -> Option<&'static Queue> {
    static QUEUE: OnceLock<Option<&'static Queue>> = OnceLock::new();
    *QUEUE.get_or_init(|| {
        share_one_malloc_arena();
        let queue: &'static Queue = Box::leak(Box::new(Queue {
            tasks: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }));
        let started = (0..workers())
            .filter(|i| {
                thread::Builder::new()
                    .name(format!("pos-sim-{i}"))
                    .spawn(move || work(queue))
                    .is_ok()
            })
            .count();
        (started > 0).then_some(queue)
    })
}

/// Makes every thread allocate from glibc's main arena, with large
/// blocks always mapped on their own.
///
/// By default glibc gives each new thread an arena of its own. Memory a
/// finished simulation freed in a worker's arena then serves neither the
/// controller nor the other worker, so each worker would hold its
/// largest simulation resident for good; with one arena, two
/// simulations cost about what they hold at once. A fixed mmap threshold
/// (glibc's own initial 128 KiB) keeps large buffers such as latency
/// samples out of that shared heap: they grow by remapping and are
/// unmapped when freed, instead of leaving holes the heap keeps
/// resident. Allocation-free per-packet paths see no lock.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn share_one_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only adjusts allocator parameters, and takes the
    // allocator's own lock to do so; both settings are valid at any time.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

/// Other allocators manage their own arenas.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn share_one_malloc_arena() {}

/// Worker loop: run tasks in queue order, forever.
fn work(queue: &Queue) {
    loop {
        let task = {
            let mut tasks = lock(&queue.tasks);
            loop {
                match tasks.pop_front() {
                    Some(task) => break task,
                    None => tasks = queue.ready.wait(tasks).expect("no pool lock holder panics"),
                }
            }
        };
        task();
    }
}

/// Worker threads in the pool: the machine's available parallelism.
pub fn workers() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

enum State<T> {
    Queued,
    Running,
    Dropped,
    Done(thread::Result<T>),
}

struct Shared<T> {
    state: Mutex<State<T>>,
    done: Condvar,
}

/// The submitter's handle on a job: [`Job::wait`] for its value, or drop
/// it to skip the job if no worker has started it yet.
pub struct Job<T> {
    shared: Arc<Shared<T>>,
}

/// Queues `f` on the pool.
pub fn submit<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Job<T> {
    let shared = Arc::new(Shared {
        state: Mutex::new(State::Queued),
        done: Condvar::new(),
    });
    let job = shared.clone();
    let task: Task = Box::new(move || {
        {
            let mut state = lock(&job.state);
            if matches!(*state, State::Dropped) {
                return;
            }
            *state = State::Running;
        }
        let value = panic::catch_unwind(AssertUnwindSafe(f));
        *lock(&job.state) = State::Done(value);
        job.done.notify_all();
    });
    match queue() {
        Some(queue) => {
            lock(&queue.tasks).push_back(task);
            queue.ready.notify_one();
        }
        None => task(),
    }
    Job { shared }
}

impl<T> Job<T> {
    /// Blocks until the job has run and returns its value; re-raises the
    /// job's panic on this thread.
    pub fn wait(self) -> T {
        let mut state = lock(&self.shared.state);
        loop {
            match std::mem::replace(&mut *state, State::Dropped) {
                State::Done(Ok(value)) => return value,
                State::Done(Err(payload)) => {
                    drop(state);
                    panic::resume_unwind(payload)
                }
                other => {
                    *state = other;
                    state = self
                        .shared
                        .done
                        .wait(state)
                        .expect("no pool lock holder panics");
                }
            }
        }
    }
}

impl<T> Drop for Job<T> {
    fn drop(&mut self) {
        let mut state = lock(&self.shared.state);
        if matches!(*state, State::Queued) {
            *state = State::Dropped;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;

    #[test]
    fn jobs_return_their_values() {
        let jobs: Vec<Job<u64>> = (0..16u64).map(|i| submit(move || i * i)).collect();
        let values: Vec<u64> = jobs.into_iter().map(Job::wait).collect();
        assert_eq!(values, (0..16u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_job_fails_its_waiter_and_spares_the_pool() {
        let job = submit(|| -> u32 { panic!("simulation blew up") });
        let err = panic::catch_unwind(AssertUnwindSafe(|| job.wait())).expect_err("re-raised");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"simulation blew up"));
        // Every worker still runs jobs afterwards.
        let jobs: Vec<Job<usize>> = (0..2 * workers()).map(|i| submit(move || i)).collect();
        assert_eq!(jobs.into_iter().map(Job::wait).sum::<usize>(), {
            let n = 2 * workers();
            n * (n - 1) / 2
        });
    }

    #[test]
    fn a_job_dropped_before_it_starts_is_skipped() {
        // Occupy every worker until released, so the next job stays queued.
        let (releases, blockers): (Vec<_>, Vec<Job<()>>) = (0..workers())
            .map(|_| {
                let (release, wait) = mpsc::channel::<()>();
                let blocker = submit(move || {
                    // Returns once the test drops the sender.
                    let _ = wait.recv();
                });
                (release, blocker)
            })
            .unzip();
        let ran = Arc::new(AtomicBool::new(false));
        let flag = ran.clone();
        drop(submit(move || flag.store(true, Ordering::SeqCst)));
        drop(releases);
        blockers.into_iter().for_each(Job::wait);
        // Jobs queued behind the dropped one have run once these return.
        (0..workers()).map(|_| submit(|| ())).for_each(Job::wait);
        assert!(!ran.load(Ordering::SeqCst), "a dropped job must not run");
    }
}
