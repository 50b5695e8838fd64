//! Deterministic work-stealing invocation scheduler.
//!
//! Distributes a batch of invocations across the machine's cores using the
//! classic work-stealing deque idiom: each core owns a double-ended queue
//! of pending jobs, pops its own work from the front, and — when its queue
//! runs dry — steals from the *back* of a victim's queue. Victim selection
//! is driven by a seeded xorshift generator, so for a fixed `(cores, jobs,
//! seed)` triple the entire steal interleaving is a pure function of the
//! per-core clocks: repeated runs are byte-identical, and no host-level
//! parallelism or wall-clock state is consulted anywhere.
//!
//! The scheduler is a simulation artifact, not host threading: the machine
//! advances whichever core has the *lowest simulated clock* by one trace
//! event at a time, so cores interleave exactly as their cycle ledgers
//! dictate.
//!
//! The machine re-decides (acquire, count active cores, pick the next
//! core) only when a decision input can have changed: at the start and
//! after a job completed. In between, the running core keeps the CPU
//! while its `(clock, index)` stays below its horizon
//! ([`Scheduler::next_core_and_horizon`]), which is exactly the core
//! [`Scheduler::next_core`] would pick.

use std::collections::VecDeque;

/// Counters describing one scheduled batch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Jobs acquired by stealing from another core's queue.
    pub steals: u64,
    /// Invocations each core started (own pops + steals).
    pub per_core_jobs: Vec<u64>,
    /// Simulated cycles each core accumulated across its invocations.
    pub per_core_cycles: Vec<u64>,
}

/// Deterministic work-stealing scheduler state (see module docs).
#[derive(Clone, Debug)]
pub struct Scheduler {
    /// Per-core job deques: front is the owner's pop side, back is the
    /// steal side.
    queues: Vec<VecDeque<usize>>,
    /// Job currently pinned to each core (`None` = idle).
    current: Vec<Option<usize>>,
    /// Per-core simulated clock in cycles.
    clock: Vec<u64>,
    /// xorshift64 state for victim selection (never zero).
    rng: u64,
    stats: SchedStats,
}

impl Scheduler {
    /// Builds a scheduler for `jobs` invocations over `cores` cores,
    /// dealing job `j` to core `j % cores` (round-robin, like the sharded
    /// runner it replaces) and seeding victim selection with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize, jobs: usize, seed: u64) -> Self {
        assert!(cores > 0, "scheduler needs at least one core");
        let mut queues = vec![VecDeque::new(); cores];
        for job in 0..jobs {
            queues[job % cores].push_back(job);
        }
        Scheduler {
            queues,
            current: vec![None; cores],
            clock: vec![0; cores],
            rng: seed | 1,
            stats: SchedStats {
                steals: 0,
                per_core_jobs: vec![0; cores],
                per_core_cycles: vec![0; cores],
            },
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64: full-period for any nonzero state.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Gives every idle core a job: first from the front of its own queue,
    /// otherwise stolen from the back of a seeded victim's non-empty
    /// queue. Cores acquire in index order, so one call is deterministic.
    /// Afterwards an idle core means every queue is empty.
    pub fn acquire_jobs(&mut self) {
        for core in 0..self.queues.len() {
            if self.current[core].is_some() {
                continue;
            }
            let job = match self.queues[core].pop_front() {
                Some(j) => Some(j),
                None => self.steal_for(core),
            };
            if let Some(j) = job {
                self.current[core] = Some(j);
                self.stats.per_core_jobs[core] += 1;
            }
        }
    }

    fn steal_for(&mut self, thief: usize) -> Option<usize> {
        let cores = self.queues.len();
        if self.queues.iter().all(|q| q.is_empty()) {
            return None;
        }
        let start = (self.next_rand() % cores as u64) as usize;
        for k in 0..cores {
            let victim = (start + k) % cores;
            if victim == thief {
                continue;
            }
            if let Some(j) = self.queues[victim].pop_back() {
                self.stats.steals += 1;
                return Some(j);
            }
        }
        None
    }

    /// The core to advance next: the core with in-flight work whose
    /// simulated clock is lowest (ties break to the lowest index). `None`
    /// when no core has a job.
    pub fn next_core(&self) -> Option<usize> {
        self.next_core_and_horizon().map(|(core, _)| core)
    }

    /// [`Self::next_core`] plus its horizon: the smallest `(clock, index)`
    /// among the *other* runnable cores (`(u64::MAX, usize::MAX)` when
    /// there is none). Until the scheduler is mutated by anything but
    /// [`Self::advance`] on the chosen core, `next_core` keeps choosing
    /// that core exactly while its `(clock, index)` is below the horizon.
    /// Right after [`Self::acquire_jobs`], `None` means [`Self::all_done`].
    pub fn next_core_and_horizon(&self) -> Option<(usize, (u64, usize))> {
        let mut best: Option<(u64, usize)> = None;
        let mut horizon = (u64::MAX, usize::MAX);
        for c in 0..self.queues.len() {
            if self.current[c].is_none() {
                continue;
            }
            let key = (self.clock[c], c);
            match best {
                None => best = Some(key),
                Some(b) if key < b => {
                    horizon = horizon.min(b);
                    best = Some(key);
                }
                Some(_) => horizon = horizon.min(key),
            }
        }
        best.map(|(_, core)| (core, horizon))
    }

    /// Cores with in-flight work — the machine's
    /// contention knob: how many cores are co-resident on the shared LLC
    /// and DRAM this instant.
    pub fn active_cores(&self) -> usize {
        self.current.iter().filter(|c| c.is_some()).count()
    }

    /// Advances `core`'s simulated clock by `delta` cycles.
    pub fn advance(&mut self, core: usize, delta: u64) {
        self.clock[core] += delta;
        self.stats.per_core_cycles[core] += delta;
    }

    /// Marks `core`'s in-flight job complete, freeing the core.
    pub fn complete(&mut self, core: usize) {
        debug_assert!(self.current[core].is_some(), "complete on idle core");
        self.current[core] = None;
    }

    /// The job currently pinned to `core`.
    pub fn current(&self, core: usize) -> Option<usize> {
        self.current[core]
    }

    /// `core`'s simulated clock.
    pub fn clock(&self, core: usize) -> u64 {
        self.clock[core]
    }

    /// True when every queue is drained and every core is idle.
    pub fn all_done(&self) -> bool {
        self.current.iter().all(|c| c.is_none()) && self.queues.iter().all(|q| q.is_empty())
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &SchedStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains the scheduler with a fixed per-job cost, returning the order
    /// in which (core, job) pairs started.
    fn drain(sched: &mut Scheduler, cost: impl Fn(usize) -> u64) -> Vec<(usize, usize)> {
        let mut started: Vec<(usize, usize)> = Vec::new();
        while !sched.all_done() {
            sched.acquire_jobs();
            let core = sched.next_core().expect("undone work has a runnable core");
            let job = sched.current(core).expect("running core has a job");
            if started.last() != Some(&(core, job)) && !started.contains(&(core, job)) {
                started.push((core, job));
            }
            sched.advance(core, cost(job));
            sched.complete(core);
        }
        started
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let mut sched = Scheduler::new(3, 10, 42);
        let started = drain(&mut sched, |_| 100);
        let mut jobs: Vec<usize> = started.iter().map(|&(_, j)| j).collect();
        jobs.sort_unstable();
        assert_eq!(jobs, (0..10).collect::<Vec<_>>());
        let stats = sched.stats();
        assert_eq!(stats.per_core_jobs.iter().sum::<u64>(), 10);
    }

    #[test]
    fn single_core_runs_in_deal_order_without_steals() {
        let mut sched = Scheduler::new(1, 5, 7);
        let started = drain(&mut sched, |_| 10);
        assert_eq!(
            started,
            (0..5).map(|j| (0, j)).collect::<Vec<_>>(),
            "one core pops its own queue front to back"
        );
        assert_eq!(sched.stats().steals, 0);
    }

    #[test]
    fn uneven_costs_trigger_steals() {
        // Core 0's jobs are free, core 1's are huge: core 0 drains its own
        // deque and then steals core 1's backlog from the back.
        let mut sched = Scheduler::new(2, 8, 1);
        let started = drain(&mut sched, |j| if j % 2 == 0 { 1 } else { 1_000_000 });
        assert_eq!(started.len(), 8);
        assert!(sched.stats().steals > 0, "idle core must steal");
    }

    #[test]
    fn seeded_runs_are_identical_and_seeds_differ() {
        let run = |seed: u64| {
            let mut sched = Scheduler::new(4, 32, seed);
            let started = drain(&mut sched, |j| (j as u64 * 37) % 91 + 1);
            (started, sched.stats().clone())
        };
        let (a1, s1) = run(9);
        let (a2, s2) = run(9);
        assert_eq!(a1, a2, "same seed, same interleaving");
        assert_eq!(s1, s2);
    }

    #[test]
    fn horizon_is_the_next_runnable_key() {
        let mut sched = Scheduler::new(3, 3, 5);
        sched.acquire_jobs();
        assert_eq!(sched.next_core_and_horizon(), Some((0, (0, 1))));
        sched.advance(0, 10);
        sched.advance(1, 10);
        // Core 2 leads; the tie between cores 0 and 1 breaks to core 0.
        assert_eq!(sched.next_core_and_horizon(), Some((2, (10, 0))));
        sched.advance(2, 10);
        assert_eq!(sched.next_core_and_horizon(), Some((0, (10, 1))));
        // An idle core is no horizon; a lone runnable core has none.
        sched.complete(1);
        sched.complete(2);
        sched.acquire_jobs();
        assert_eq!(
            sched.next_core_and_horizon(),
            Some((0, (u64::MAX, usize::MAX)))
        );
        assert!(!sched.all_done());
        sched.complete(0);
        sched.acquire_jobs();
        assert_eq!(sched.next_core_and_horizon(), None);
        assert!(sched.all_done(), "no runnable core only once drained");
    }
}
