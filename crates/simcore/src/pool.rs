//! Fixed-size worker pool: order-preserving parallel map shared by every
//! layer that fans deterministic work across OS threads.
//!
//! The experiments crate re-exports it from `memento-experiments::runner`
//! behind the `--jobs`/`MEMENTO_JOBS` knob. The determinism contract:
//! [`map_ordered`] returns results in input order no matter how many
//! workers run or how the OS schedules them — workers pull work from a
//! shared index and send `(index, result)` back, and results are slotted
//! by index. A parallel sweep is byte-identical to a serial one.
//!
//! [`with_helpers`] is the other shape: one caller-driven computation
//! with scoped helper threads that work ahead of it. The caller decides
//! every result's order; the helpers only change when a result is ready.
//! [`with_producer`] is its bounded pipeline: one helper fills recycled
//! blocks in order while the caller consumes them.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread;

/// Environment variable overriding the worker count (`--jobs` equivalent
/// for code paths without a CLI).
pub const JOBS_ENV: &str = "MEMENTO_JOBS";

/// Resolves the worker count: an explicit request wins, then `MEMENTO_JOBS`,
/// then the machine's available parallelism, then 1.
pub fn effective_jobs(requested: Option<usize>) -> usize {
    requested
        .or_else(|| {
            std::env::var(JOBS_ENV)
                .ok()
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or_else(|| {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1)
}

/// Maps `f` over `items` on a pool of `jobs` threads, returning results in
/// input order. `jobs <= 1` (or a single item) runs inline on the caller's
/// thread — the serial reference the parallel path must match.
#[expect(
    clippy::disallowed_methods,
    reason = "the pool's workers; results are slotted by input index"
)]
pub fn map_ordered<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len());
    if jobs <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    thread::scope(|s| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            s.spawn(move || loop {
                // Relaxed: a pure claim counter; results ride the channel.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every index is computed exactly once"))
            .collect()
    })
}

/// Runs `main` on the calling thread while `helpers` scoped threads each
/// run `helper`. When `main` returns or unwinds, `stop` runs so the
/// helpers can return; every helper is joined before this returns, so
/// none outlives the call. A helper's panic is re-raised here, ahead of
/// a panic of `main` (which the helper's failure may have caused).
/// `helpers == 0` runs `main` alone and starts no thread.
#[expect(
    clippy::disallowed_methods,
    reason = "the pool's helpers; the caller decides every result's order"
)]
pub fn with_helpers<R>(
    helpers: usize,
    helper: impl Fn() + Sync,
    stop: impl FnOnce(),
    main: impl FnOnce() -> R,
) -> R {
    if helpers == 0 {
        return main();
    }
    thread::scope(|s| {
        let handles: Vec<_> = (0..helpers).map(|_| s.spawn(&helper)).collect();
        let out = panic::catch_unwind(AssertUnwindSafe(main));
        stop();
        for h in handles {
            if let Err(p) = h.join() {
                panic::resume_unwind(p);
            }
        }
        out.unwrap_or_else(|p| panic::resume_unwind(p))
    })
}

/// The blocks a [`with_producer`] helper fills ahead of the caller,
/// handed over in the order they were filled.
pub struct Filled<B> {
    full: mpsc::Receiver<B>,
    empty: mpsc::SyncSender<B>,
}

impl<B> Filled<B> {
    /// The next filled block, waiting while the producer is behind.
    /// Panics when the producer stopped first, which it does only by
    /// panicking; [`with_producer`] re-raises that panic ahead of this one.
    pub fn next(&self) -> B {
        self.full
            .recv()
            .expect("the block producer stopped before its consumer")
    }

    /// Hands a consumed block back for the producer to refill.
    pub fn recycle(&self, block: B) {
        // The channel has room for every block, so this never waits; it
        // fails only once the producer is gone, which `next` reports.
        let _ = self.empty.send(block);
    }
}

/// Runs `main` on the calling thread while one scoped helper thread
/// fills `blocks` with `fill`, one block after another, for as long as
/// `main` recycles them. `main` takes each block from its [`Filled`] in
/// fill order, so a sequential `fill` yields one stream however far
/// ahead the helper runs. No block is made beyond `blocks`, so the
/// helper allocates none. When `main` returns or unwinds, its
/// [`Filled`] is dropped, which stops the helper; the helper is joined
/// before this returns and its panic is re-raised here (through
/// [`with_helpers`]). `blocks` must not be empty.
pub fn with_producer<B: Send, R>(
    blocks: Vec<B>,
    fill: impl FnMut(&mut B) + Send,
    main: impl FnOnce(&Filled<B>) -> R,
) -> R {
    assert!(!blocks.is_empty(), "a producer needs a block to fill");
    let (empty, to_fill) = mpsc::sync_channel(blocks.len());
    let (filled, full) = mpsc::sync_channel(blocks.len());
    for block in blocks {
        empty.send(block).expect("the channel holds every block");
    }
    let producer = Mutex::new(Some((fill, to_fill, filled)));
    with_helpers(
        1,
        || {
            let (mut fill, to_fill, filled) = producer
                .lock()
                .expect("producer lock")
                .take()
                .expect("one helper takes the producer");
            // Either channel closes when `main`'s `Filled` is dropped.
            while let Ok(mut block) = to_fill.recv() {
                fill(&mut block);
                if filled.send(block).is_err() {
                    break;
                }
            }
        },
        || {},
        move || main(&Filled { full, empty }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Condvar;

    /// A stop flag the helpers of a test wait on.
    struct Gate {
        stopped: Mutex<bool>,
        cv: Condvar,
    }

    impl Gate {
        fn new() -> Self {
            Gate {
                stopped: Mutex::new(false),
                cv: Condvar::new(),
            }
        }

        fn wait(&self) {
            let mut stopped = self.stopped.lock().expect("gate lock");
            while !*stopped {
                stopped = self.cv.wait(stopped).expect("gate lock");
            }
        }

        fn stop(&self) {
            *self.stopped.lock().expect("gate lock") = true;
            self.cv.notify_all();
        }
    }

    #[test]
    fn with_helpers_joins_every_helper_after_stop() {
        let gate = Gate::new();
        let ran = AtomicUsize::new(0);
        let out = with_helpers(
            3,
            || {
                gate.wait();
                ran.fetch_add(1, Ordering::SeqCst);
            },
            || gate.stop(),
            || 7,
        );
        assert_eq!(out, 7);
        assert_eq!(
            ran.load(Ordering::SeqCst),
            3,
            "every helper ran and was joined"
        );
        // No helper: `main` runs alone and `stop` is never needed.
        assert_eq!(
            with_helpers(0, || panic!("no helper starts"), || {}, || 8),
            8
        );
    }

    #[test]
    fn with_helpers_reraises_a_panic_from_either_side() {
        let gate = Gate::new();
        let main_panic = panic::catch_unwind(AssertUnwindSafe(|| {
            with_helpers(1, || gate.wait(), || gate.stop(), || panic!("main failed"))
        }))
        .expect_err("a panic of main reaches the caller");
        assert_eq!(main_panic.downcast_ref::<&str>(), Some(&"main failed"));
        let helper_panic = panic::catch_unwind(AssertUnwindSafe(|| {
            with_helpers(1, || panic!("helper failed"), || {}, || 9)
        }))
        .expect_err("a helper's panic reaches the caller");
        assert_eq!(helper_panic.downcast_ref::<&str>(), Some(&"helper failed"));
    }

    #[test]
    fn with_producer_hands_blocks_over_in_fill_order() {
        // Three blocks recycled over and over carry one counting stream.
        let mut next = 0u64;
        let fill = |block: &mut Vec<u64>| {
            for v in block.iter_mut() {
                *v = next;
                next += 1;
            }
        };
        let blocks = vec![vec![0; 5]; 3];
        let read = with_producer(blocks, fill, |filled| {
            let mut read = Vec::new();
            for _ in 0..20 {
                let block = filled.next();
                read.extend_from_slice(&block);
                filled.recycle(block);
            }
            read
        });
        assert_eq!(read, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn with_producer_stops_the_helper_when_main_is_done() {
        // `main` returns holding a block and with the helper blocked on a
        // full channel; returning still stops and joins it.
        let filled_blocks = AtomicUsize::new(0);
        let fill = |_: &mut u8| {
            filled_blocks.fetch_add(1, Ordering::SeqCst);
        };
        let out = with_producer(vec![0u8; 2], fill, |filled| filled.next() + 7);
        assert_eq!(out, 7);
        let made = filled_blocks.load(Ordering::SeqCst);
        assert!((1..=2).contains(&made), "filled {made} of 2 blocks");
        // A panic of `main` stops the helper the same way.
        let main_panic = panic::catch_unwind(AssertUnwindSafe(|| {
            with_producer(vec![0u8; 2], |_| {}, |_| -> u8 { panic!("main failed") })
        }))
        .expect_err("a panic of main reaches the caller");
        assert_eq!(main_panic.downcast_ref::<&str>(), Some(&"main failed"));
    }

    #[test]
    fn with_producer_reraises_a_producer_panic() {
        // The producer fails on its second block, while `main` waits for
        // it: the producer's panic, not `main`'s, reaches the caller.
        let mut calls = 0;
        let fill = |_: &mut u8| {
            calls += 1;
            if calls == 2 {
                panic!("producer failed");
            }
        };
        let producer_panic = panic::catch_unwind(AssertUnwindSafe(|| {
            with_producer(vec![0u8; 1], fill, |filled| loop {
                let block = filled.next();
                filled.recycle(block);
            })
        }))
        .expect_err("a producer panic reaches the caller");
        assert_eq!(
            producer_panic.downcast_ref::<&str>(),
            Some(&"producer failed")
        );
    }

    #[test]
    fn map_ordered_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial = map_ordered(1, &items, |x| x * x);
        for jobs in [2, 4, 8] {
            let parallel = map_ordered(jobs, &items, |x| x * x);
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn map_ordered_handles_edge_sizes() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_ordered(4, &empty, |x| *x).is_empty());
        assert_eq!(map_ordered(4, &[7u32], |x| x + 1), vec![8]);
        assert_eq!(map_ordered(64, &[1u32, 2], |x| x * 10), vec![10, 20]);
    }

    #[test]
    fn map_ordered_runs_uneven_work_correctly() {
        // Later items finish first; slots must still land in input order.
        let items: Vec<u64> = (0..32).collect();
        let out = map_ordered(8, &items, |x| {
            std::thread::sleep(std::time::Duration::from_micros(500 * (32 - x)));
            *x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn effective_jobs_prefers_explicit_request() {
        assert_eq!(effective_jobs(Some(3)), 3);
        assert_eq!(effective_jobs(Some(0)), 1, "zero clamps to one worker");
        assert!(effective_jobs(None) >= 1);
    }
}
