//! Deterministic parallel sweeps over scenarios.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use crate::scenario::Scenario;
use crate::stepper::Stepper;

/// Fans a batch of independent jobs across `std::thread::scope` workers.
///
/// Results are collected by input index, so the output order — and
/// therefore every downstream report — is bit-for-bit identical whether
/// the sweep runs on one worker or sixteen. Work is claimed from a
/// shared atomic cursor, so slow jobs never leave workers idle behind a
/// static partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepRunner {
    workers: usize,
}

impl SweepRunner {
    /// A runner with a fixed worker count (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// A runner sized to the machine's available parallelism.
    pub fn auto() -> Self {
        Self::new(thread::available_parallelism().map_or(1, usize::from))
    }

    /// The worker count this runner will use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item, in parallel, returning results in
    /// input order. `f` receives each item's input index alongside the
    /// item so labelling never depends on completion order.
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.workers.min(n);
        if workers == 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }

        let jobs: Vec<Mutex<Option<T>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();

        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut produced = Vec::new();
                        loop {
                            let idx = cursor.fetch_add(1, Ordering::Relaxed);
                            if idx >= n {
                                break;
                            }
                            let item = jobs[idx]
                                .lock()
                                .expect("job mutex poisoned")
                                .take()
                                .expect("each job is claimed exactly once");
                            produced.push((idx, f(idx, item)));
                        }
                        produced
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(produced) => {
                        for (idx, result) in produced {
                            slots[idx] = Some(result);
                        }
                    }
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
        });

        slots
            .into_iter()
            .map(|r| r.expect("every claimed index produced a result"))
            .collect()
    }

    /// Runs every scenario to completion, returning `(label, result)`
    /// pairs in input order.
    pub fn sweep<'a, S>(
        &self,
        scenarios: Vec<Scenario<'a, S>>,
    ) -> Vec<(String, Result<S, S::Error>)>
    where
        S: Stepper + Send,
        S::Error: Send,
    {
        self.run(scenarios, |_, scenario| {
            (scenario.label().to_owned(), scenario.run())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for workers in [1, 2, 7] {
            let out = SweepRunner::new(workers).run(items.clone(), |i, x| {
                assert_eq!(i, x);
                x * x
            });
            let expect: Vec<usize> = (0..100).map(|x| x * x).collect();
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn worker_count_is_clamped_and_empty_input_is_fine() {
        assert_eq!(SweepRunner::new(0).workers(), 1);
        assert!(SweepRunner::auto().workers() >= 1);
        let out: Vec<u8> = SweepRunner::new(4).run(Vec::<u8>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    /// Folds one shard item by item, as a per-item caller of
    /// [`SweepRunner::run_shards`] does: `f` sees each item's global
    /// index and the item reports merge in item order.
    fn fold_items<T, R, F>(base: usize, shard: Vec<T>, f: F) -> R
    where
        R: crate::merge::Mergeable,
        F: Fn(usize, T) -> R,
    {
        shard
            .into_iter()
            .enumerate()
            .map(|(offset, item)| f(base + offset, item))
            .reduce(|mut acc, r| {
                acc.merge(r);
                acc
            })
            .expect("shards are non-empty by construction")
    }

    /// A per-item fold through `run_shards` is identical at any worker
    /// count and shard size, including shards larger than the input.
    #[test]
    fn run_merged_is_shard_and_worker_invariant() {
        let items: Vec<u32> = (0..97).collect();
        let reference: Vec<u32> = items.iter().map(|x| x * 3).collect();
        for workers in [1, 2, 5, 16] {
            for shard_size in [1, 7, 32, 1000] {
                let merged = SweepRunner::new(workers)
                    .run_shards(items.clone(), shard_size, |base, shard| {
                        fold_items(base, shard, |i, x| {
                            assert_eq!(i as u32, x);
                            vec![x * 3]
                        })
                    })
                    .expect("non-zero shard size")
                    .expect("non-empty input");
                assert_eq!(merged, reference, "workers={workers} shard={shard_size}");
            }
        }
    }

    #[test]
    fn run_merged_empty_input_is_none() {
        let out: Option<Vec<u8>> = SweepRunner::new(4)
            .run_shards(Vec::<u8>::new(), 8, |base, shard| {
                fold_items(base, shard, |_, x| vec![x])
            })
            .expect("non-zero shard size");
        assert!(out.is_none());
    }

    /// Regression: a zero shard size used to be silently clamped to 1,
    /// degenerating the requested grouping without telling the caller.
    /// It is a typed error for a per-item fold too, even for empty input.
    #[test]
    fn run_merged_zero_shard_size_is_a_typed_error() {
        let err = SweepRunner::new(4)
            .run_shards((0..10).collect::<Vec<u32>>(), 0, |base, shard| {
                fold_items(base, shard, |_, x| vec![x])
            })
            .unwrap_err();
        assert_eq!(
            err,
            crate::error::SimError::InvalidParameter {
                name: "shard_size",
                value: 0.0
            }
        );
        let err = SweepRunner::new(1)
            .run_shards(Vec::<u32>::new(), 0, |base, shard| {
                fold_items(base, shard, |_, x| vec![x])
            })
            .unwrap_err();
        assert!(matches!(
            err,
            crate::error::SimError::InvalidParameter {
                name: "shard_size",
                ..
            }
        ));
    }

    #[test]
    fn uneven_job_costs_still_collect_in_order() {
        let items: Vec<u64> = (0..32).collect();
        let out = SweepRunner::new(4).run(items, |_, x| {
            // Make early jobs the slow ones to stress out-of-order finish.
            let spin = (32 - x) * 10_000;
            let mut acc = 0u64;
            for i in 0..spin {
                acc = acc.wrapping_add(i ^ x);
            }
            (x, acc & 1)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }
}
