//! The global task queue (§3.2.2).
//!
//! The plan is divided into pipelines at pipeline breakers (hash-join
//! builds, aggregations, sorts, limits, distinct, exchanges) by
//! [`crate::physical::compile`]. Each pipeline's source is cut into
//! morsels, and each morsel becomes a task in a global queue drained by
//! idle CPU worker threads, which launch the actual GPU kernels — the
//! execution model the paper shares with DuckDB, Hyper, and Velox. The
//! thread that dispatches a wave is one of those workers
//! ([`TaskQueue::run_all`]): it runs the wave's first task itself and
//! queues only the rest, so a one-task wave never touches the queue.

use crate::{Result, SiriusError};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

type Task = Box<dyn FnOnce() + Send>;

struct QueueInner {
    tasks: Mutex<VecDeque<Task>>,
    available: Condvar,
    shutdown: AtomicBool,
}

/// The global task queue: idle CPU threads pull pipeline tasks and execute
/// them (launching GPU kernels). Blocking on a sub-task *helps* — the
/// waiter drains other queued tasks inline — so arbitrarily nested plans
/// can never deadlock the pool.
pub struct TaskQueue {
    inner: Arc<QueueInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl TaskQueue {
    /// Start a queue drained by `workers` CPU threads.
    pub fn new(workers: usize) -> Self {
        let inner = Arc::new(QueueInner {
            tasks: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || loop {
                    let task = {
                        let mut q = inner.tasks.lock();
                        loop {
                            if let Some(t) = q.pop_front() {
                                break Some(t);
                            }
                            if inner.shutdown.load(Ordering::Acquire) {
                                break None;
                            }
                            inner.available.wait(&mut q);
                        }
                    };
                    match task {
                        Some(t) => t(),
                        None => return,
                    }
                })
            })
            .collect();
        Self {
            inner,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Enqueue a task (fire and forget).
    fn submit(&self, task: Task) {
        self.inner.tasks.lock().push_back(task);
        self.inner.available.notify_one();
    }

    /// Run a batch of tasks and wait for all results, in submission order.
    /// The caller is a worker: it queues tasks `1..n` for the pool and runs
    /// task 0 itself — a one-task batch never touches the queue — then
    /// helps drain the queue (these tasks or anyone else's) and blocks on
    /// the result channel only when the queue is empty. This is the one
    /// fan-out primitive: one call per morsel wave (one task per morsel),
    /// per out-of-core leaf batch and per partitioner pass. A task that
    /// panics fills its own slot with [`SiriusError::Kernel`] (`task
    /// panicked: …`); the other tasks' results stand and no worker thread
    /// is lost.
    pub fn run_all<R: Send + 'static>(
        &self,
        fs: Vec<impl FnOnce() -> R + Send + 'static>,
    ) -> Vec<Result<R>> {
        let n = fs.len();
        let mut fs = fs.into_iter();
        let Some(first) = fs.next() else {
            return Vec::new();
        };
        let (tx, rx) = std::sync::mpsc::channel();
        for (i, f) in fs.enumerate() {
            let tx = tx.clone();
            self.submit(Box::new(move || {
                let _ = tx.send((i + 1, caught(f)));
            }));
        }
        drop(tx);
        let mut out: Vec<Option<Result<R>>> = (0..n).map(|_| None).collect();
        out[0] = Some(caught(first));
        let mut got = 1;
        while got < n {
            while let Ok((i, r)) = rx.try_recv() {
                out[i] = Some(r);
                got += 1;
            }
            if got == n {
                break;
            }
            let stolen = self.inner.tasks.lock().pop_front();
            match stolen {
                Some(t) => t(),
                None => match rx.recv() {
                    Ok((i, r)) => {
                        out[i] = Some(r);
                        got += 1;
                    }
                    // Every sender is gone: the missing slots say so below.
                    Err(_) => break,
                },
            }
        }
        let dropped = || SiriusError::Kernel("queued task dropped unexecuted".into());
        out.into_iter()
            .map(|o| o.unwrap_or_else(|| Err(dropped())))
            .collect()
    }
}

/// Run one task, its panic caught as the task's error.
fn caught<R>(f: impl FnOnce() -> R) -> Result<R> {
    Ok(sirius_cudf::catch_panic(f)?)
}

impl Drop for TaskQueue {
    fn drop(&mut self) {
        // Set under the queue lock: a worker between its shutdown check and
        // its wait would otherwise miss this only wakeup and `join` hangs.
        {
            let _queue = self.inner.tasks.lock();
            self.inner.shutdown.store(true, Ordering::Release);
        }
        self.inner.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{compile, PhysOp, Pipeline, Sink, StreamOp};
    use sirius_columnar::{DataType, Field, Schema};
    use sirius_plan::builder::PlanBuilder;
    use sirius_plan::expr::{col, gt, lit_i64, AggExpr};
    use sirius_plan::{AggFunc, JoinKind};

    fn scan() -> PlanBuilder {
        PlanBuilder::scan("t", Schema::new(vec![Field::new("k", DataType::Int64)]))
    }

    fn pipelines(plan: PlanBuilder) -> Vec<Pipeline> {
        compile(&plan.build()).unwrap().pipelines
    }

    #[test]
    fn scan_filter_is_one_pipeline() {
        let p = pipelines(scan().filter(gt(col(0), lit_i64(0))));
        assert_eq!(p.len(), 1);
        // The filter's pass doubles as the scan's read.
        assert!(matches!(
            p[0].ops[..],
            [PhysOp::Plain(StreamOp::Filter { .. })]
        ));
        assert!(matches!(p[0].sink, Sink::Result));
    }

    #[test]
    fn join_splits_build_and_probe() {
        let p = pipelines(scan().join(scan(), JoinKind::Inner, vec![col(0)], vec![col(0)], None));
        assert_eq!(p.len(), 2);
        assert!(matches!(p[0].sink, Sink::JoinBuild { .. }));
        assert!(matches!(p[1].sink, Sink::Result));
        assert_eq!(p[1].deps, vec![0]);
    }

    #[test]
    fn aggregate_and_sort_break() {
        let p = pipelines(
            scan()
                .aggregate(
                    vec![col(0)],
                    vec![AggExpr {
                        func: AggFunc::CountStar,
                        input: None,
                        name: "n".into(),
                    }],
                )
                .sort(vec![sirius_plan::expr::SortExpr {
                    expr: col(0),
                    ascending: true,
                }]),
        );
        // scan→agg | agg-out→sort | sort-out→result
        assert_eq!(p.len(), 3);
        assert!(matches!(p[0].sink, Sink::Aggregate(_)));
        assert!(matches!(p[1].sink, Sink::Sort { .. }));
        assert!(matches!(p[2].sink, Sink::Result));
    }

    type Boxed<R> = Box<dyn FnOnce() -> R + Send>;

    fn boxed<R>(f: impl FnOnce() -> R + Send + 'static) -> Boxed<R> {
        Box::new(f)
    }

    /// Every slot of a batch none of whose tasks panicked.
    fn ok<R>(batch: Vec<Result<R>>) -> Vec<R> {
        batch.into_iter().map(|r| r.unwrap()).collect()
    }

    #[test]
    fn queue_executes_tasks() {
        let q = TaskQueue::new(2);
        let out: Vec<i64> = ok(q.run_all((0..64).map(|i| boxed(move || i)).collect()));
        assert_eq!(out.iter().sum::<i64>(), (0..64).sum::<i64>());
        assert!(q.run_all(Vec::<Boxed<i64>>::new()).is_empty());
    }

    #[test]
    fn nested_runs_do_not_deadlock() {
        // Every level queues the task that nests (task 0 runs on the
        // caller): depth greater than the worker count forces waiters to help.
        let q = Arc::new(TaskQueue::new(1));
        fn nest(q: &Arc<TaskQueue>, depth: usize) -> usize {
            if depth == 0 {
                return 0;
            }
            let q2 = Arc::clone(q);
            let deeper = boxed(move || 1 + nest(&q2, depth - 1));
            ok(q.run_all(vec![boxed(|| 0), deeper])).into_iter().sum()
        }
        assert_eq!(nest(&q, 8), 8);
    }

    #[test]
    fn run_all_preserves_submission_order() {
        let q = TaskQueue::new(3);
        let out = ok(q.run_all((0..100).map(|i| boxed(move || i * i)).collect()));
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_all_nested_inside_tasks() {
        // A queued task that itself fans out a batch must not deadlock even
        // with a single worker: waiters help drain the queue.
        let q = Arc::new(TaskQueue::new(1));
        let q2 = Arc::clone(&q);
        let fan_out = boxed(move || {
            let batch = ok(q2.run_all((0..16u64).map(|i| boxed(move || i)).collect()));
            batch.into_iter().sum::<u64>()
        });
        let totals = ok(q.run_all(vec![boxed(|| 0), fan_out]));
        assert_eq!(totals, vec![0, (0..16).sum::<u64>()]);
    }

    #[test]
    fn parallel_throughput() {
        let q = TaskQueue::new(4);
        // A little CPU work per task.
        let work = |i: u64| boxed(move || (0..1000).fold(i, |a, b| a.wrapping_add(b)));
        let results: Vec<u64> = ok(q.run_all((0..32u64).map(work).collect()));
        assert_eq!(results.len(), 32);
    }

    /// A panicking task fills its own slot with a typed error, every other
    /// task's result stands, and no worker is lost: the next batch needs
    /// the caller and both workers running at once, and gets them.
    #[test]
    fn a_panicking_task_is_its_slots_error_and_the_pool_survives() {
        let q = TaskQueue::new(2);
        // Whichever thread runs task 3 — a worker, or the caller helping —
        // catches its panic and goes on.
        let batch = (0..6).map(|i| {
            boxed(move || match i {
                3 => panic!("morsel {i} fell over"),
                _ => i * 10,
            })
        });
        let out = q.run_all(batch.collect());
        assert_eq!(out.len(), 6);
        for (i, slot) in out.iter().enumerate() {
            match slot {
                Err(SiriusError::Kernel(m)) if i == 3 => {
                    assert_eq!(m, "task panicked: morsel 3 fell over")
                }
                Ok(v) => assert_eq!(*v, i * 10),
                other => panic!("slot {i}: {other:?}"),
            }
        }
        // Three tasks that each wait until all three are running: only a
        // caller plus two live workers can finish them before the deadline.
        let started = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let rendezvous = (0..3).map(|_| {
            let started = Arc::clone(&started);
            boxed(move || {
                started.fetch_add(1, Ordering::SeqCst);
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while started.load(Ordering::SeqCst) < 3 {
                    if std::time::Instant::now() > deadline {
                        return false;
                    }
                    std::thread::yield_now();
                }
                true
            })
        });
        assert_eq!(ok(q.run_all(rendezvous.collect())), vec![true; 3]);
    }
}
