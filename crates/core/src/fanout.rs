//! The one compute pool: every fan-out on the compute path.
//!
//! The paper's `c` cores are a property of the *design*: `c` row
//! partitions, a local top-`k` each, one HBM channel each, bound to
//! their channel for the collection's lifetime. How many OS threads walk
//! those partitions is a property of the *host*. This module keeps the
//! two apart: [`fork_join`] runs `tasks` independent pieces of work on a
//! number of **participants** the caller sizes to the machine
//! ([`host_parallelism`]) or to an explicit request, and hands the
//! results back in task order so the answer cannot depend on which
//! participant ran what.
//!
//! The participants are the calling thread plus helpers of one
//! process-wide pool. The pool starts on the first fan-out that wants a
//! second participant, with `host_parallelism() − 1` resident helpers,
//! and grows only when a caller asks for more participants than that;
//! a fan-out in steady state starts no thread, and a helper, once
//! started, stays for the life of the process. A call queues one ticket
//! per helper it wants and walks tasks itself. When no task is left it
//! withdraws its tickets no helper has taken, and while the taken ones
//! are still out it runs queued tickets of its own call tree — the
//! fan-outs nested in the tasks of the outermost call it belongs to —
//! instead of blocking. It never runs an unrelated call's ticket, so its
//! return waits only for its own work. Nested fan-outs therefore share
//! one set of threads: a served batch's shard tasks and each shard's
//! partition tasks run on the same `host_parallelism()` threads, and no
//! thread idles while a task of the batch is unclaimed.
//!
//! A resident helper cannot borrow the caller's stack (the workspace
//! forbids `unsafe`), so a job owns what it touches: `init` and `body`
//! are `'static`, and callers hand their inputs over through `Arc`.
//! Per-participant scratch that should outlive a call lives in the
//! caller's own per-thread storage (the engine keeps one warm
//! `BatchScratch` per thread).
//!
//! The accelerator engine (tasks = partitions), the pruned tier's
//! low-bit scoring pass, the CPU baseline (tasks = row ranges) and the
//! serving batcher (tasks = shards) all fan out through here. Every
//! other module of the compute crates forbids `clippy::disallowed_methods`
//! (the thread starts the root `clippy.toml` names), so a thread start
//! there fails clippy even with an `#[expect]`; in this file only the
//! pool's `start` carries one, and CI's lib-only clippy step rejects
//! any other.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// The host's available parallelism, read once per process.
///
/// `std::thread::available_parallelism` re-reads the cgroup quota files
/// on every call, which is too slow for a per-query path; the value is
/// cached on first use. `1` when the host cannot tell.
pub fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `body(state, task)` for every `task` in `0..tasks` on at most
/// `participants` threads and returns the results **in task order**,
/// plus each participant's final state (participant 0 — the caller —
/// first).
///
/// The calling thread is participant 0; the other `participants − 1`
/// are helpers of the resident compute pool (none when `participants`
/// is 1 or there is a single task, so that shape never leaves the
/// calling thread). `participants` is clamped to `1..=tasks`. Every
/// participant builds one worker state with `init` and claims task
/// indices from one shared counter until none are left, so a
/// participant that draws short tasks simply takes more of them; a
/// participant no helper reached before the tasks ran out hands back a
/// fresh `init()` state. A `fork_join` inside a task is a fan-out of its
/// own on the same pool.
///
/// Asking for more participants than the pool holds starts the missing
/// helpers, and they stay resident for the life of the process: size
/// `participants` to [`host_parallelism`] unless more threads are
/// really wanted.
///
/// A panic in `init` or `body` is re-raised on the calling thread with
/// its original payload once every participant has finished; the
/// other participants finish the remaining tasks first. The pool's
/// threads survive it.
// alloc-ok(fn): per-call result assembly — the task-ordered output and
// the states; the per-task work and its reusable buffers live in the
// caller's `init`/`body`.
pub fn fork_join<W, R>(
    tasks: usize,
    participants: usize,
    init: impl Fn() -> W + Send + Sync + 'static,
    body: impl Fn(&mut W, usize) -> R + Send + Sync + 'static,
) -> (Vec<R>, Vec<W>)
where
    W: Send + 'static,
    R: Send + 'static,
{
    let participants = participants.clamp(1, tasks.max(1));
    if participants == 1 {
        let mut state = init();
        let results = (0..tasks).map(|task| body(&mut state, task)).collect();
        return (results, vec![state]);
    }
    let helpers = participants - 1;
    run_on(Pool::get(helpers), tasks, helpers, init, body)
}

/// [`fork_join`] for two or more participants on `pool`.
// alloc-ok(fn): per-call result assembly — the job, one claim list per
// participant and the task-ordered output; the per-task work and its
// reusable buffers live in the caller's `init`/`body`.
fn run_on<W, R>(
    pool: &'static Pool,
    tasks: usize,
    helpers: usize,
    init: impl Fn() -> W + Send + Sync + 'static,
    body: impl Fn(&mut W, usize) -> R + Send + Sync + 'static,
) -> (Vec<R>, Vec<W>)
where
    W: Send + 'static,
    R: Send + 'static,
{
    static JOBS: AtomicU64 = AtomicU64::new(1);
    // ordering: the counter only deals out distinct ids and publishes
    // nothing.
    let id = JOBS.fetch_add(1, Ordering::Relaxed);
    let job = Arc::new(Job {
        pool,
        id,
        root: match ROOT.get() {
            0 => id,
            outer => outer,
        },
        init,
        body,
        tasks,
        next: AtomicUsize::new(0),
        out: AtomicUsize::new(helpers),
        filed: Mutex::new(Filed {
            states: Vec::with_capacity(helpers),
            results: Vec::with_capacity(tasks),
            panic: None,
        }),
    });
    pool.enqueue(&job, helpers);
    let own = job.walk();
    // Every task is claimed once the caller's walk ends without a
    // panic, so a ticket still queued would only walk nothing. After a
    // panic the tickets stay, to finish the remaining tasks.
    let withdrawn = if own.is_ok() {
        pool.withdraw(id, &job.out)
    } else {
        0
    };
    pool.help_until_filed(job.root, &job.out);

    let filed = std::mem::replace(
        &mut *lock(&job.filed),
        Filed {
            states: Vec::new(),
            results: Vec::new(),
            panic: None,
        },
    );
    // Every participant has filed by now, so the payload can leave
    // exactly as the task raised it.
    let (state, mut results) = own.unwrap_or_else(|payload| resume_unwind(payload));
    if let Some(payload) = filed.panic {
        resume_unwind(payload);
    }
    results.extend(filed.results);
    results.sort_unstable_by_key(|&(task, _)| task);
    debug_assert!(results.iter().map(|&(task, _)| task).eq(0..tasks));
    let mut states = Vec::with_capacity(helpers + 1);
    states.push(state);
    states.extend(filed.states);
    states.extend((0..withdrawn).map(|_| (job.init)()));
    (results.into_iter().map(|(_, r)| r).collect(), states)
}

/// Locks a pool mutex. The pool never runs a task while holding one, so
/// a poisoned guard still holds consistent data.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A panic payload, as `catch_unwind` hands it over.
type Payload = Box<dyn Any + Send>;

thread_local! {
    /// The id of the outermost call whose tasks this thread is walking,
    /// `0` outside any: a fan-out started inside a task joins that call
    /// tree.
    static ROOT: Cell<u64> = const { Cell::new(0) };
}

/// One helper's share of a fan-out, as the pool queues it.
trait Ticket: Send + Sync {
    /// Walks tasks of the job until none are left, then files what it
    /// walked with the job and wakes whoever waits on it.
    fn participate(&self);
}

/// What the helpers of one fan-out have handed back so far.
struct Filed<W, R> {
    states: Vec<W>,
    results: Vec<(usize, R)>,
    /// The first panic a helper caught, re-raised by the caller.
    panic: Option<Payload>,
}

/// One [`fork_join`] call, shared by its participants.
struct Job<W, R, I, B> {
    pool: &'static Pool,
    /// This call's id, distinct within the process.
    id: u64,
    /// The id of the outermost call this one is nested in (its own id
    /// when it is not nested).
    root: u64,
    init: I,
    body: B,
    tasks: usize,
    /// The next unclaimed task index.
    next: AtomicUsize,
    /// Helper tickets that have not filed yet.
    out: AtomicUsize,
    filed: Mutex<Filed<W, R>>,
}

impl<W, R, I, B> Job<W, R, I, B>
where
    I: Fn() -> W,
    B: Fn(&mut W, usize) -> R,
{
    /// One participant's walk: a fresh state, then tasks until none are
    /// left. A panic ends the walk and comes back as the error.
    // alloc-ok(fn): the participant's claim list, one per walk, sized
    // for every task: the caller merges the others' claims into its own
    // in place, and a call allocates the same however the claims fall.
    fn walk(&self) -> Result<(W, Vec<(usize, R)>), Payload> {
        let outer = ROOT.replace(self.root);
        let walked = catch_unwind(AssertUnwindSafe(|| {
            let mut state = (self.init)();
            let mut claimed = Vec::with_capacity(self.tasks);
            loop {
                // ordering: the counter only deals out distinct indices
                // and publishes nothing — task inputs are owned by the
                // job, and results travel back through `filed`, whose
                // mutex synchronises.
                let task = self.next.fetch_add(1, Ordering::Relaxed);
                if task >= self.tasks {
                    break (state, claimed);
                }
                claimed.push((task, (self.body)(&mut state, task)));
            }
        }));
        ROOT.set(outer);
        walked
    }
}

impl<W, R, I, B> Ticket for Job<W, R, I, B>
where
    W: Send,
    R: Send,
    I: Fn() -> W + Send + Sync,
    B: Fn(&mut W, usize) -> R + Send + Sync,
{
    fn participate(&self) {
        let walked = self.walk();
        {
            let mut filed = lock(&self.filed);
            match walked {
                Ok((state, claimed)) => {
                    filed.states.push(state);
                    filed.results.extend(claimed);
                }
                Err(payload) => {
                    if filed.panic.is_none() {
                        filed.panic = Some(payload);
                    }
                }
            }
        }
        // ordering: Release publishes the filing above to the caller's
        // Acquire load in `help_until_filed`.
        self.out.fetch_sub(1, Ordering::Release);
        self.pool.wake_callers();
    }
}

/// A queued ticket with the ids the pool sorts it by.
struct Queued {
    /// The [`Job::id`] of the call the ticket belongs to.
    job: u64,
    /// The [`Job::root`] of that call.
    root: u64,
    ticket: Arc<dyn Ticket>,
}

/// The queue the pool's threads serve, behind `Pool::tickets`.
struct Queue {
    tickets: VecDeque<Queued>,
    /// Resident helpers started so far; the pool never stops one.
    helpers: usize,
}

/// A compute pool: the process has one ([`Pool::get`]).
struct Pool {
    tickets: Mutex<Queue>,
    /// Idle helpers wait here for a ticket.
    queued: Condvar,
    /// Callers waiting on their tickets wait here, for a filing or for
    /// a ticket of their call tree they can run meanwhile.
    filed: Condvar,
}

impl Pool {
    /// An empty pool: no ticket, no helper.
    // alloc-ok(fn): an empty deque holds no buffer; it is built once,
    // in a static.
    const fn new() -> Pool {
        Pool {
            tickets: Mutex::new(Queue {
                tickets: VecDeque::new(),
                helpers: 0,
            }),
            queued: Condvar::new(),
            filed: Condvar::new(),
        }
    }

    /// The process's pool, holding at least `host_parallelism() − 1`
    /// and at least `helpers` resident helpers.
    fn get(helpers: usize) -> &'static Pool {
        static POOL: Pool = Pool::new();
        let wanted = helpers.max(host_parallelism() - 1);
        // Count the new helpers in under the lock, start them outside
        // it; a ticket queued meanwhile waits for them or runs on its
        // own caller.
        let new = {
            let mut queue = lock(&POOL.tickets);
            let started = queue.helpers;
            queue.helpers = started.max(wanted);
            started..queue.helpers
        };
        for index in new {
            start(&POOL, index);
        }
        &POOL
    }

    /// Queues `helpers` tickets for `job` and wakes the pool.
    // alloc-ok(fn): the queue keeps its capacity, so it grows only
    // until it has held the deepest nesting of fan-outs once.
    fn enqueue<W, R, I, B>(&self, job: &Arc<Job<W, R, I, B>>, helpers: usize)
    where
        Job<W, R, I, B>: Ticket + 'static,
    {
        let ticket: Arc<dyn Ticket> = Arc::<Job<W, R, I, B>>::clone(job);
        let mut queue = lock(&self.tickets);
        for _ in 0..helpers {
            queue.tickets.push_back(Queued {
                job: job.id,
                root: job.root,
                ticket: Arc::clone(&ticket),
            });
        }
        drop(queue);
        for _ in 0..helpers {
            self.queued.notify_one();
        }
        self.filed.notify_all();
    }

    /// Takes job `job`'s tickets that are still queued off the queue
    /// and off its count `out`; returns how many there were.
    fn withdraw(&self, job: u64, out: &AtomicUsize) -> usize {
        let mut queue = lock(&self.tickets);
        let queued = queue.tickets.len();
        queue.tickets.retain(|q| q.job != job);
        let withdrawn = queued - queue.tickets.len();
        // ordering: only the job's caller waits on `out`, and it is the
        // one decrementing here; the filings it waits for publish
        // through their own Release decrements.
        out.fetch_sub(withdrawn, Ordering::Relaxed);
        withdrawn
    }

    /// Wakes the callers waiting on their tickets after a filing.
    fn wake_callers(&self) {
        let _queue = lock(&self.tickets);
        self.filed.notify_all();
    }

    /// Returns once `out` (a job's count of unfiled tickets) reads
    /// zero, running queued tickets of call tree `root` meanwhile.
    fn help_until_filed(&self, root: u64, out: &AtomicUsize) {
        loop {
            let ticket = {
                let mut queue = lock(&self.tickets);
                loop {
                    // ordering: Acquire pairs with the Release decrement
                    // in `participate`, so a caller that reads 0 sees
                    // every filing.
                    if out.load(Ordering::Acquire) == 0 {
                        return;
                    }
                    let mine = queue.tickets.iter().position(|q| q.root == root);
                    if let Some(queued) = mine.and_then(|at| queue.tickets.remove(at)) {
                        break queued.ticket;
                    }
                    queue = self
                        .filed
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            ticket.participate();
        }
    }

    /// A helper's life: run queued tickets, oldest first, and sleep
    /// while there are none.
    fn helper_loop(&self) {
        loop {
            let ticket = {
                let mut queue = lock(&self.tickets);
                loop {
                    if let Some(queued) = queue.tickets.pop_front() {
                        break queued.ticket;
                    }
                    queue = self
                        .queued
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            ticket.participate();
        }
    }
}

/// Starts resident helper number `index` — the one place in the compute
/// crates where a thread starts. Helpers live as long as the process:
/// nothing joins them, and no task panic can end one (`participate`
/// catches it for the caller).
// alloc-ok(fn): once per helper per process.
fn start(pool: &'static Pool, index: usize) {
    #[expect(
        clippy::disallowed_methods,
        clippy::expect_used,
        reason = "long-lived: the compute pool's resident helpers, host_parallelism() − 1 per \
                  process; invariant: spawn fails only on OS thread exhaustion, and a fan-out that \
                  asked for this participant cannot run without it"
    )]
    std::thread::Builder::new()
        .name(format!("tkspmv-compute-{index}"))
        .spawn(move || pool.helper_loop())
        .expect("start a compute pool helper");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    #[test]
    fn results_come_back_in_task_order_for_many_more_tasks_than_participants() {
        for participants in [1, 2, 3, 7] {
            let (results, states) = fork_join(
                1_000,
                participants,
                || 0usize,
                |walked, task| {
                    *walked += 1;
                    task * task
                },
            );
            let want: Vec<usize> = (0..1_000).map(|t| t * t).collect();
            assert_eq!(results, want, "participants = {participants}");
            // Each participant's state saw exactly the tasks it walked.
            assert_eq!(states.len(), participants);
            assert_eq!(states.iter().sum::<usize>(), 1_000);
        }
    }

    #[test]
    fn no_more_threads_than_participants_or_tasks_ever_run_a_task() {
        for (tasks, participants) in [(64, 3), (2, 8), (5, 5), (0, 4)] {
            let (ids, states) =
                fork_join(tasks, participants, || (), |(), _| thread::current().id());
            let distinct: HashSet<ThreadId> = ids.into_iter().collect();
            let bound = participants.min(tasks);
            assert!(distinct.len() <= bound, "{tasks} tasks, {participants}");
            assert_eq!(states.len(), bound.max(1));
        }
    }

    #[test]
    fn every_requested_participant_really_runs() {
        // One task per participant, each blocking until all have
        // arrived: completes only if three threads walk concurrently.
        let barrier = Arc::new(Barrier::new(3));
        let (ids, states) = fork_join(
            3,
            3,
            || (),
            move |(), _| {
                barrier.wait();
                thread::current().id()
            },
        );
        assert_eq!(ids.into_iter().collect::<HashSet<_>>().len(), 3);
        assert_eq!(states.len(), 3);
    }

    #[test]
    fn one_participant_or_one_task_stays_on_the_calling_thread() {
        let me = thread::current().id();
        for (tasks, participants) in [(40, 1), (1, 6)] {
            let (ids, states) = fork_join(
                tasks,
                participants,
                || thread::current().id(),
                |_, _| thread::current().id(),
            );
            assert_eq!(ids, vec![me; tasks]);
            assert_eq!(states, vec![me]);
        }
    }

    #[test]
    fn a_panicking_task_is_re_raised_with_its_payload_after_the_rest_finished() {
        for participants in [2, 4] {
            let finished = Arc::new(AtomicUsize::new(0));
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let finished = Arc::clone(&finished);
                fork_join(
                    16,
                    participants,
                    || (),
                    move |(), task| {
                        if task == 5 {
                            panic!("task {task} went wrong");
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    },
                )
            }));
            let payload = outcome.expect_err("the task's panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("task 5 went wrong")
            );
            // The surviving participants were joined, not abandoned:
            // all fifteen other tasks ran to completion before the
            // panic resumed.
            assert_eq!(finished.load(Ordering::SeqCst), 15);
        }
    }

    #[test]
    fn a_nested_fork_join_returns_its_results_in_task_order() {
        let (outer, _) = fork_join(
            6,
            3,
            || (),
            |(), task| fork_join(task * 10, 3, || (), move |(), inner| task * 1_000 + inner).0,
        );
        for (task, inner) in outer.iter().enumerate() {
            let want: Vec<usize> = (0..task * 10).map(|i| task * 1_000 + i).collect();
            assert_eq!(*inner, want, "outer task {task}");
        }
    }

    #[test]
    fn concurrent_callers_each_get_their_own_answers() {
        // Both callers enter the pool at once, so their tickets share
        // the queue and the same helpers serve both.
        let barrier = Barrier::new(2);
        let run = |offset: usize| {
            barrier.wait();
            (0..50)
                .map(|round| {
                    let base = offset + round;
                    fork_join(64, 3, || (), move |(), t| base * 100 + t).0
                })
                .collect::<Vec<_>>()
        };
        let (a, b) = thread::scope(|s| {
            let a = s.spawn(|| run(0));
            let b = s.spawn(|| run(10_000));
            (a.join().unwrap(), b.join().unwrap())
        });
        for (offset, rounds) in [(0, a), (10_000, b)] {
            for (round, got) in rounds.into_iter().enumerate() {
                let want: Vec<usize> = (0..64).map(|t| (offset + round) * 100 + t).collect();
                assert_eq!(got, want, "caller {offset}, round {round}");
            }
        }
    }

    #[test]
    fn a_nested_panic_reaches_the_outermost_caller_and_the_pool_keeps_answering() {
        let outcome = catch_unwind(|| {
            fork_join(
                4,
                3,
                || (),
                |(), task| {
                    fork_join(
                        8,
                        3,
                        || (),
                        move |(), inner| {
                            if task == 2 && inner == 5 {
                                panic!("inner task {task}.{inner} went wrong");
                            }
                            inner
                        },
                    )
                    .0
                },
            )
        });
        let payload = outcome.expect_err("the nested panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("inner task 2.5 went wrong")
        );
        let (results, states) = fork_join(32, 3, || (), |(), task| task + 1);
        assert_eq!(results, (1..=32).collect::<Vec<_>>());
        assert_eq!(states.len(), 3);
    }

    #[test]
    fn a_warm_pool_starts_no_thread() {
        // More participants than any other test asks for, so a
        // concurrently running test cannot grow the pool after this.
        let _ = fork_join(8, 8, || (), |(), task| task);
        let pool = Pool::get(0);
        let started = lock(&pool.tickets).helpers;
        assert!(started >= 7, "{started} helpers");
        for call in 0..1_000 {
            let (results, _) = fork_join(16, 1 + call % 8, || (), |(), task| task);
            assert_eq!(results.len(), 16);
        }
        assert_eq!(lock(&pool.tickets).helpers, started);
    }

    #[test]
    fn a_waiting_caller_never_runs_another_callers_tasks() {
        // A pool without helpers: a ticket stays queued until a caller
        // takes it. The slow call's second ticket sits in front of the
        // quick call's, and its tasks block until the quick call is
        // back — or, if the quick call ran one, for two seconds.
        static LONE: Pool = Pool::new();
        let released = Arc::new((Mutex::new(false), Condvar::new()));
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let (walking, walks) = std::sync::mpsc::channel();
        thread::scope(|s| {
            let slow = {
                let released = Arc::clone(&released);
                let ran_on = Arc::clone(&ran_on);
                s.spawn(move || {
                    run_on(
                        &LONE,
                        2,
                        1,
                        || (),
                        move |(), task| {
                            lock(&ran_on).push(thread::current().id());
                            let _ = walking.send(task);
                            let (flag, cv) = &*released;
                            let wait = Duration::from_secs(2);
                            drop(cv.wait_timeout_while(lock(flag), wait, |done| !*done));
                            task
                        },
                    )
                    .0
                })
            };
            assert_eq!(walks.recv().ok(), Some(0));

            let (results, states) = run_on(&LONE, 8, 1, || (), |(), task| task * 2);
            assert_eq!(results, (0..8).map(|t| t * 2).collect::<Vec<_>>());
            assert_eq!(states.len(), 2);
            assert!(!lock(&ran_on).contains(&thread::current().id()));

            *lock(&released.0) = true;
            released.1.notify_all();
            assert_eq!(slow.join().unwrap(), vec![0, 1]);
        });
        assert!(lock(&LONE.tickets).tickets.is_empty());
    }
}
