//! The one compute pool: every fan-out on the compute path.
//!
//! The paper's `c` cores are a property of the *design*: `c` row
//! partitions, a local top-`k` each, one HBM channel each, bound to
//! their channel for the collection's lifetime. How many OS threads walk
//! those partitions is a property of the *host*. This module keeps the
//! two apart: [`fork_join`] runs `tasks` independent pieces of work on at
//! most [`host_parallelism`] **participants** and hands the results back
//! in task order, so the answer cannot depend on which participant ran
//! what.
//!
//! The participants are the calling thread plus helpers of one
//! process-wide pool of fixed size: `host_parallelism() − 1` resident
//! helpers, started by the first fan-out that wants a second participant
//! and never joined, so a fan-out in steady state starts no thread. A
//! call queues one ticket per helper it wants and walks tasks itself.
//! When no task is left it withdraws the tickets no helper has taken and
//! waits for the taken ones to file. It never runs a queued ticket, so
//! it waits only on threads that are walking its own tasks. The
//! library's fan-outs are flat — no task fans out again — as the paper's
//! host makes one pass over the per-core lists; a `fork_join` inside a
//! task is still correct, a fan-out of its own on the same pool.
//!
//! A resident helper cannot borrow the caller's stack (the workspace
//! forbids `unsafe`), so a job owns what it touches: `init` and `body`
//! are `'static`, and callers hand their inputs over through `Arc`.
//! Per-participant scratch that should outlive a call lives in the
//! caller's own per-thread storage (the engine keeps one warm
//! `BatchScratch` per thread).
//!
//! The accelerator engine (tasks = partitions), the pruned tier's
//! low-bit scoring pass and the CPU baseline (tasks = row ranges) fan
//! out through here. Every other module of the compute crates forbids
//! `clippy::disallowed_methods` (the thread starts the root
//! `clippy.toml` names), so a thread start there fails clippy even with
//! an `#[expect]`; in this file only the pool's `start` carries one, and
//! CI's lib-only clippy step rejects any other.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};

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
/// calling thread). `participants` is clamped to
/// `1..=min(tasks, host_parallelism())`. Every participant builds one
/// worker state with `init` and claims task indices from one shared
/// counter until none are left, so a participant that draws short tasks
/// simply takes more of them; a participant no helper reached before the
/// tasks ran out hands back a fresh `init()` state.
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
    let participants = participants.clamp(1, tasks.min(host_parallelism()).max(1));
    if participants == 1 {
        let mut state = init();
        let results = (0..tasks).map(|task| body(&mut state, task)).collect();
        return (results, vec![state]);
    }
    run_on(Pool::get(), tasks, participants - 1, init, body)
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
    let job = Arc::new(Job {
        pool,
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
    let ticket: Arc<dyn Ticket> = Arc::<Job<_, _, _, _>>::clone(&job);
    pool.enqueue(&ticket, helpers);
    let own = job.walk();
    // A ticket still queued would walk no task once the caller's walk
    // ends, so the caller takes it back and waits only on the helpers
    // that are walking. A panic ends a walk early: the caller then
    // walks once in place of each ticket it took back, so the remaining
    // tasks still run.
    let withdrawn = pool.withdraw(&ticket, &job.out);
    if own.is_err() {
        for _ in 0..withdrawn {
            let _ = job.walk();
        }
    }
    pool.wait_until_filed(&job.out);

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
        catch_unwind(AssertUnwindSafe(|| {
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
        }))
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
        // Acquire load in `wait_until_filed`.
        self.out.fetch_sub(1, Ordering::Release);
        self.pool.wake_callers();
    }
}

/// A compute pool: the process has one ([`Pool::get`]).
struct Pool {
    /// Queued tickets, oldest first.
    tickets: Mutex<VecDeque<Arc<dyn Ticket>>>,
    /// Idle helpers wait here for a ticket.
    queued: Condvar,
    /// Callers wait here for their taken tickets to file.
    filed: Condvar,
}

impl Pool {
    /// An empty pool: no ticket, no helper.
    // alloc-ok(fn): an empty deque holds no buffer; it is built once,
    // in a static.
    const fn new() -> Pool {
        Pool {
            tickets: Mutex::new(VecDeque::new()),
            queued: Condvar::new(),
            filed: Condvar::new(),
        }
    }

    /// The process's pool. The first call starts its
    /// `host_parallelism() − 1` helpers; no later call starts one.
    fn get() -> &'static Pool {
        static POOL: Pool = Pool::new();
        static STARTED: Once = Once::new();
        STARTED.call_once(|| {
            for index in 0..host_parallelism() - 1 {
                start(&POOL, index);
            }
        });
        &POOL
    }

    /// Queues `helpers` copies of `ticket` and wakes as many helpers.
    // alloc-ok(fn): the queue keeps its capacity, so it grows only
    // until it has held the most tickets queued at once.
    fn enqueue(&self, ticket: &Arc<dyn Ticket>, helpers: usize) {
        let mut queue = lock(&self.tickets);
        for _ in 0..helpers {
            queue.push_back(Arc::clone(ticket));
        }
        drop(queue);
        for _ in 0..helpers {
            self.queued.notify_one();
        }
    }

    /// Takes the copies of `ticket` that are still queued off the queue
    /// and off its job's count `out`; returns how many there were.
    fn withdraw(&self, ticket: &Arc<dyn Ticket>, out: &AtomicUsize) -> usize {
        let mut queue = lock(&self.tickets);
        let queued = queue.len();
        queue.retain(|q| !Arc::ptr_eq(q, ticket));
        let withdrawn = queued - queue.len();
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

    /// Returns once `out` (a job's count of unfiled tickets) reads zero.
    fn wait_until_filed(&self, out: &AtomicUsize) {
        let queue = lock(&self.tickets);
        // ordering: Acquire pairs with the Release decrement in
        // `participate`, so a caller that reads 0 sees every filing.
        let waited = self
            .filed
            .wait_while(queue, |_| out.load(Ordering::Acquire) != 0);
        drop(waited.unwrap_or_else(PoisonError::into_inner));
    }

    /// A helper's life: run queued tickets, oldest first, and sleep
    /// while there are none.
    fn helper_loop(&self) {
        loop {
            let ticket = {
                let mut queue = lock(&self.tickets);
                loop {
                    if let Some(ticket) = queue.pop_front() {
                        break ticket;
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
            assert_eq!(states.len(), participants.min(host_parallelism()));
            assert_eq!(states.iter().sum::<usize>(), 1_000);
        }
    }

    #[test]
    fn no_more_threads_than_participants_or_tasks_ever_run_a_task() {
        for (tasks, participants) in [(64, 3), (2, 8), (5, 5), (0, 4)] {
            let (ids, states) =
                fork_join(tasks, participants, || (), |(), _| thread::current().id());
            let distinct: HashSet<ThreadId> = ids.into_iter().collect();
            let bound = participants.min(tasks).min(host_parallelism());
            assert!(distinct.len() <= bound, "{tasks} tasks, {participants}");
            assert_eq!(states.len(), bound.max(1));
        }
    }

    #[test]
    fn every_requested_participant_really_runs() {
        // One task per participant, each blocking until all have
        // arrived: completes only if as many threads as the host has
        // walk concurrently.
        let host = host_parallelism();
        let barrier = Arc::new(Barrier::new(host));
        let (ids, states) = fork_join(
            host,
            host,
            || (),
            move |(), _| {
                barrier.wait();
                thread::current().id()
            },
        );
        assert_eq!(ids.into_iter().collect::<HashSet<_>>().len(), host);
        assert_eq!(states.len(), host);
    }

    #[test]
    fn asking_for_more_participants_than_the_host_has_runs_on_the_host_threads() {
        let host = host_parallelism();
        let (ids, states) = fork_join(1_000, host + 3, || (), |(), _| thread::current().id());
        let distinct: HashSet<ThreadId> = ids.into_iter().collect();
        assert!(distinct.len() <= host, "{} threads", distinct.len());
        assert_eq!(states.len(), host);
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
            // panic resumed. A caller alone (a one-CPU host) has no
            // other participant, and the panic leaves after tasks 0..5.
            let want = if host_parallelism() > 1 { 15 } else { 5 };
            assert_eq!(finished.load(Ordering::SeqCst), want);
        }
    }

    #[test]
    fn a_caller_whose_walk_panics_walks_in_place_of_its_untaken_tickets() {
        // A pool without helpers: nobody takes the ticket, so the tasks
        // after the panic run only if the caller walks them itself.
        static LONE: Pool = Pool::new();
        let finished = Arc::new(AtomicUsize::new(0));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let finished = Arc::clone(&finished);
            run_on(
                &LONE,
                16,
                1,
                || (),
                move |(), task| {
                    if task == 5 {
                        panic!("task {task} went wrong");
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                },
            )
        }));
        assert!(outcome.is_err());
        assert_eq!(finished.load(Ordering::SeqCst), 15);
        assert!(lock(&LONE.tickets).is_empty());
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
        assert_eq!(states.len(), 3.min(host_parallelism()));
    }

    /// The pool's helpers alive in this process, by the thread names the
    /// kernel lists (`comm` holds the first 15 bytes of a name).
    #[cfg(target_os = "linux")]
    fn live_helpers() -> usize {
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|name| name.starts_with("tkspmv-compute"))
            .count()
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn a_warm_pool_starts_no_thread() {
        let host = host_parallelism();
        let _ = fork_join(2, 2, || (), |(), task| task);
        assert_eq!(live_helpers(), host - 1);
        for call in 0..1_000 {
            let (results, _) = fork_join(16, 1 + call % (host + 3), || (), |(), task| task);
            assert_eq!(results.len(), 16);
        }
        assert_eq!(live_helpers(), host - 1);
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
        assert!(lock(&LONE.tickets).is_empty());
    }
}
