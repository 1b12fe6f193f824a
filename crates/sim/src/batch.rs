//! Shard-at-once parallel fold: the one way work is sharded and merged.
//!
//! [`SweepRunner::run_shards`] chunks the items into contiguous batches
//! of `shard_size`, hands each worker `(first_global_index, shard)`
//! pairs, and folds the shard reports **in shard index order**. Because
//! the shard boundaries and the fold order are fixed by the input —
//! never by the scheduler — the merged result is bit-for-bit identical
//! at any worker count. The worker closure receives the whole shard, so
//! it may fold item by item or lay the shard out as struct-of-arrays
//! lanes and sweep it with one inner loop.

use crate::error::SimError;
use crate::merge::Mergeable;
use crate::sweep::SweepRunner;

/// Chunks `items` into `(first_global_index, shard_items)` pairs of at
/// most `shard_size` items each. `shard_size` must be non-zero (callers
/// validate; this is an internal helper).
fn chunk_shards<T>(items: Vec<T>, shard_size: usize) -> Vec<(usize, Vec<T>)> {
    debug_assert!(shard_size > 0, "shard_size validated by callers");
    let mut shards: Vec<(usize, Vec<T>)> = Vec::with_capacity(items.len().div_ceil(shard_size));
    for (i, item) in items.into_iter().enumerate() {
        match shards.last_mut() {
            Some((_, shard)) if shard.len() < shard_size => shard.push(item),
            _ => shards.push((i, {
                let mut shard = Vec::with_capacity(shard_size);
                shard.push(item);
                shard
            })),
        }
    }
    shards
}

impl SweepRunner {
    /// Applies `f` to every contiguous shard of at most `shard_size`
    /// items — `f(first_global_index, shard_items)` — in parallel, and
    /// folds the shard reports in shard index order. Returns `Ok(None)`
    /// for empty input.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] when `shard_size` is zero,
    /// even for empty input: a zero shard cannot make progress, and
    /// silently clamping it would hide the caller's bug *and* change
    /// the shard grouping that float-fold results (merged metrics) are
    /// identified by.
    pub fn run_shards<T, R, F>(
        &self,
        items: Vec<T>,
        shard_size: usize,
        f: F,
    ) -> Result<Option<R>, SimError>
    where
        T: Send,
        R: Mergeable + Send,
        F: Fn(usize, Vec<T>) -> R + Sync,
    {
        if shard_size == 0 {
            return Err(SimError::InvalidParameter {
                name: "shard_size",
                value: 0.0,
            });
        }
        let shards = chunk_shards(items, shard_size);
        let shard_reports = self.run(shards, |_, (base, shard)| f(base, shard));
        Ok(shard_reports.into_iter().reduce(|mut acc, r| {
            acc.merge(r);
            acc
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A zero shard size is a typed error, raised even for empty input.
    #[test]
    fn zero_shard_size_is_a_typed_error() {
        let err = SweepRunner::new(4)
            .run_shards((0..10).collect::<Vec<u32>>(), 0, |_, shard| shard)
            .unwrap_err();
        assert_eq!(
            err,
            SimError::InvalidParameter {
                name: "shard_size",
                value: 0.0
            }
        );
        let err = SweepRunner::new(1)
            .run_shards(Vec::<u32>::new(), 0, |_, shard| shard)
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidParameter {
                name: "shard_size",
                ..
            }
        ));
    }

    #[test]
    fn shards_are_contiguous_with_correct_bases() {
        let shards = chunk_shards((0..10).collect::<Vec<_>>(), 4);
        assert_eq!(
            shards,
            vec![
                (0, vec![0, 1, 2, 3]),
                (4, vec![4, 5, 6, 7]),
                (8, vec![8, 9]),
            ]
        );
    }

    /// Shard bases are global indices, shards cover the input in order,
    /// and the fold is identical at any worker count and shard size —
    /// including shards larger than the input.
    #[test]
    fn run_shards_is_worker_and_shard_invariant() {
        let items: Vec<u32> = (0..97).collect();
        let reference: Vec<u32> = items.iter().map(|x| x * 3).collect();
        for workers in [1, 2, 5, 16] {
            for shard_size in [1, 7, 32, 257] {
                let merged = SweepRunner::new(workers)
                    .run_shards(items.clone(), shard_size, |base, shard| {
                        assert!(shard.len() <= shard_size);
                        shard
                            .into_iter()
                            .enumerate()
                            .map(|(offset, x)| {
                                assert_eq!((base + offset) as u32, x);
                                x * 3
                            })
                            .collect::<Vec<_>>()
                    })
                    .expect("non-zero shard size")
                    .expect("non-empty input");
                assert_eq!(merged, reference, "workers={workers} shard={shard_size}");
            }
        }
    }

    #[test]
    fn run_shards_empty_input_is_none() {
        let out: Option<Vec<u8>> = SweepRunner::new(4)
            .run_shards(Vec::<u8>::new(), 8, |_, shard| shard)
            .expect("non-zero shard size");
        assert!(out.is_none());
    }
}
