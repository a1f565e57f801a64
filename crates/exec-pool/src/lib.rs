//! Shared worker pool for test-level fan-out.
//!
//! The differential litmus harness (`crates/harness`: a corpus batch, or
//! one campaign chunk) distributes *indexed tasks* over a fixed set of
//! worker threads pulling from a shared queue: an idle worker takes the
//! next index the moment it frees up, so long-tail tasks never serialize
//! the batch. Each task is one whole test; the model search and the
//! simulator runs inside it stay on that task's thread.
//!
//! Two properties the callers rely on:
//!
//! * **Stable worker ids.** Each worker is handed a dense id `0..workers`
//!   at spawn and reports it with every result, so per-task attribution
//!   (e.g. the harness JSON report's per-test `worker` field) does not
//!   depend on OS scheduling or spawn order.
//! * **Crash isolation.** Each task runs under [`catch_unwind`]: a
//!   panicking task comes back as a [`TaskPanic`], its worker keeps
//!   pulling tasks, and every other result survives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A task that panicked inside [`run_all_catching`]: which worker it died
/// on and the rendered panic payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Dense id of the worker the task panicked on (the worker itself
    /// survives and keeps pulling tasks).
    pub worker: usize,
    /// The panic payload, rendered to a string (`&str` and `String`
    /// payloads verbatim; anything else a placeholder).
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "task panicked on worker {}: {}",
            self.worker, self.message
        )
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f(worker_id, task_index)` for every `task_index in 0..tasks` on
/// `workers` threads, returning each task's result or [`TaskPanic`] **in
/// task order**.
///
/// * Tasks are pulled from a shared counter, so workers load-balance
///   automatically; `worker_id` is the dense, stable id (`0..workers`) of
///   the thread that executed the task.
/// * `workers` is clamped to `1..=tasks`; a one-worker pool runs inline on
///   the calling thread (no spawn), so sequential callers cost nothing.
/// * A panicking task is caught and reported; the worker that caught it
///   is reused for the next task.
///
/// The closure must not hold state it expects to be consistent after a
/// panic (the pool asserts unwind safety on the caller's behalf —
/// callers fold per-task results, they do not share mutable state across
/// tasks). Panics still print through the process panic hook, so a
/// crashing task is loud in logs even though it no longer kills the run.
pub fn run_all_catching<T, F>(workers: usize, tasks: usize, f: F) -> Vec<Result<T, TaskPanic>>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let run = |worker: usize, idx: usize| {
        catch_unwind(AssertUnwindSafe(|| f(worker, idx))).map_err(|payload| TaskPanic {
            worker,
            message: panic_message(payload),
        })
    };
    let workers = workers.clamp(1, tasks.max(1));
    if workers == 1 {
        return (0..tasks).map(|idx| run(0, idx)).collect();
    }

    // The counter only hands out indices; results reach this thread
    // through `join`, which orders every worker's writes before it.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<T, TaskPanic>>> = (0..tasks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let (next, run) = (&next, &run);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= tasks {
                            return done;
                        }
                        done.push((idx, run(worker, idx)));
                    }
                })
            })
            .collect();
        for handle in handles {
            let done = handle
                .join()
                .expect("tasks are caught, workers never unwind");
            for (idx, result) in done {
                slots[idx] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every task ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_all<T: Send>(
        workers: usize,
        tasks: usize,
        f: impl Fn(usize, usize) -> T + Sync,
    ) -> Vec<T> {
        run_all_catching(workers, tasks, f)
            .into_iter()
            .map(|r| r.expect("no task panics"))
            .collect()
    }

    #[test]
    fn results_come_back_in_task_order() {
        let out = run_all(4, 32, |_, idx| idx * 10);
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn worker_ids_are_dense_and_stable() {
        let ids = run_all(3, 64, |worker, _| worker);
        // Which worker wins each index is up to the OS scheduler; the ids
        // themselves must stay in range.
        assert!(ids.iter().all(|&w| w < 3));
    }

    #[test]
    fn one_worker_runs_inline_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let out = run_all(1, 4, |worker, idx| {
            assert_eq!(worker, 0);
            assert_eq!(std::thread::current().id(), caller);
            idx
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn zero_tasks_and_zero_workers_are_fine() {
        let out: Vec<usize> = run_all(0, 0, |_, i| i);
        assert!(out.is_empty());
        let out = run_all(0, 2, |_, i| i);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn a_panicking_task_is_isolated_and_the_pool_survives() {
        // Task 3 panics; every other task must still produce its result,
        // on both the inline path and the threaded pool.
        for workers in [1, 4] {
            let out = run_all_catching(workers, 8, |_, idx| {
                assert!(idx != 3 || panic!("injected panic for task 3"));
                idx * 2
            });
            assert_eq!(out.len(), 8);
            for (idx, res) in out.iter().enumerate() {
                if idx == 3 {
                    let err = res.as_ref().expect_err("task 3 panicked");
                    assert_eq!(err.message, "injected panic for task 3");
                    assert!(err.worker < workers.max(1));
                } else {
                    assert_eq!(*res, Ok(idx * 2), "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn workers_are_reused_after_catching_a_panic() {
        // One worker, first task panics: the same (only) worker must run
        // every later task, proving catch_unwind keeps it alive.
        let out = run_all_catching(1, 5, |worker, idx| {
            assert_eq!(worker, 0);
            if idx == 0 {
                panic!("first task dies");
            }
            idx
        });
        assert!(out[0].is_err());
        for (idx, res) in out.iter().enumerate().skip(1) {
            assert_eq!(*res, Ok(idx));
        }
    }

    #[test]
    fn string_and_str_panic_payloads_are_rendered() {
        let out = run_all_catching(1, 2, |_, idx| {
            if idx == 0 {
                panic!("{}", String::from("formatted payload"));
            }
            std::panic::panic_any(42u32);
        });
        assert_eq!(out[0].as_ref().unwrap_err().message, "formatted payload");
        assert_eq!(
            out[1].as_ref().unwrap_err().message,
            "non-string panic payload"
        );
    }
}
