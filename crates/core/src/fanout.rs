//! The one fork-join on the compute path.
//!
//! The paper's `c` cores are a property of the *design*: `c` row
//! partitions, a local top-`k` each, one HBM channel each. How many OS
//! threads walk those partitions is a property of the *host*. This
//! module keeps the two apart: [`fork_join`] runs `tasks` independent
//! pieces of work on a number of **participants** the caller sizes to
//! the machine ([`host_parallelism`]) or to an explicit request, and
//! hands the results back in task order so the answer cannot depend on
//! which participant ran what.
//!
//! The accelerator engine (tasks = partitions), the pruned tier's
//! low-bit scoring pass and the CPU baseline (tasks = row ranges) all
//! fan out through here; `tkspmv_check --spawns` rejects a thread spawn
//! anywhere else in the compute crates.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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
/// The calling thread is participant 0; `participants − 1` scoped
/// helpers are spawned beside it (none when `participants` is 1 or
/// there is a single task, so that shape never leaves the calling
/// thread). `participants` is clamped to `1..=tasks`. Every participant
/// builds one worker state with `init` — the place for scratch buffers
/// that should be reused across the tasks it walks — and claims task
/// indices from one shared counter until none are left, so a
/// participant that draws short tasks simply takes more of them.
///
/// A panic in `init` or `body` is re-raised on the calling thread with
/// its original payload once every participant has been joined; the
/// other participants finish the remaining tasks first.
// alloc-ok(fn): per-call result assembly — one claim list per
// participant and the task-ordered output; the per-task work and its
// reusable buffers live in the caller's `init`/`body`.
pub fn fork_join<W, R>(
    tasks: usize,
    participants: usize,
    init: impl Fn() -> W + Sync,
    body: impl Fn(&mut W, usize) -> R + Sync,
) -> (Vec<R>, Vec<W>)
where
    W: Send,
    R: Send,
{
    let participants = participants.clamp(1, tasks.max(1));
    let next = AtomicUsize::new(0);
    let participate = || {
        let mut state = init();
        let mut claimed = Vec::new();
        loop {
            // ordering: the counter only deals out distinct indices and
            // publishes nothing — task inputs are borrowed from before
            // the scope opened, and results travel back through the
            // join, which synchronises.
            let task = next.fetch_add(1, Ordering::Relaxed);
            if task >= tasks {
                break (state, claimed);
            }
            claimed.push((task, body(&mut state, task)));
        }
    };

    let joined = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..participants)
            .map(|_| scope.spawn(participate))
            .collect();
        let own = participate();
        let mut joined = Vec::with_capacity(participants);
        joined.push(Ok(own));
        joined.extend(helpers.into_iter().map(|helper| helper.join()));
        joined
    });

    let mut results = Vec::with_capacity(tasks);
    let mut states = Vec::with_capacity(participants);
    for outcome in joined {
        match outcome {
            Ok((state, claimed)) => {
                states.push(state);
                results.extend(claimed);
            }
            // Every helper has been joined by now, so the payload can
            // leave exactly as the task raised it.
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    results.sort_unstable_by_key(|&(task, _)| task);
    debug_assert!(results.iter().map(|&(task, _)| task).eq(0..tasks));
    (results.into_iter().map(|(_, r)| r).collect(), states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};

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
        let barrier = Barrier::new(3);
        let (ids, states) = fork_join(
            3,
            3,
            || (),
            |(), _| {
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
            let finished = AtomicUsize::new(0);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                fork_join(
                    16,
                    participants,
                    || (),
                    |(), task| {
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
}
