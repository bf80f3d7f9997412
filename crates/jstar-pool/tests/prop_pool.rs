//! Property-based tests for the fork/join pool: the parallel shapes the
//! engine builds on [`parallel_tasks`] — a map with one task per item,
//! tasks over `adaptive_chunk` slices, and a reduction folding their
//! partials — and [`parallel_for`] must agree with their sequential
//! counterparts for arbitrary inputs, chunkings and thread counts.

use jstar_pool::{adaptive_chunk, parallel_for, parallel_tasks, ThreadPool};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// `data` cut into slices of `chunk` items (`adaptive_chunk` for 0).
fn slices<'a, T>(pool: &ThreadPool, data: &'a [T], chunk: usize) -> std::slice::Chunks<'a, T> {
    let chunk = if chunk == 0 {
        adaptive_chunk(pool, data.len())
    } else {
        chunk
    };
    data.chunks(chunk)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_reduce_matches_fold(
        data in prop::collection::vec(any::<i32>(), 0..2000),
        chunk in 0usize..100,
        threads in 1usize..6,
    ) {
        let pool = ThreadPool::new(threads);
        let want: i64 = data.iter().map(|&v| v as i64).sum();
        let tasks: Vec<_> = slices(&pool, &data, chunk)
            .map(|c| move || c.iter().map(|&v| v as i64).sum::<i64>())
            .collect();
        let got: i64 = parallel_tasks(&pool, tasks).into_iter().sum();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn parallel_map_preserves_order(
        n in 0usize..500,
        threads in 1usize..6,
    ) {
        let pool = ThreadPool::new(threads);
        let tasks: Vec<_> = (0..n).map(|i| move || i * 3 + 1).collect();
        let got = parallel_tasks(&pool, tasks);
        let want: Vec<usize> = (0..n).map(|i| i * 3 + 1).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn parallel_for_visits_each_index_once(
        n in 0usize..800,
        chunk in 0usize..64,
        threads in 1usize..6,
    ) {
        let pool = ThreadPool::new(threads);
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for(&pool, 0..n, chunk, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_chunks_concatenate_to_input(
        data in prop::collection::vec(any::<u16>(), 0..600),
        chunk in 0usize..64,
    ) {
        let pool = ThreadPool::new(4);
        let tasks: Vec<_> = slices(&pool, &data, chunk).map(|c| move || c.to_vec()).collect();
        let flat: Vec<u16> = parallel_tasks(&pool, tasks).into_iter().flatten().collect();
        prop_assert_eq!(flat, data);
    }
}
