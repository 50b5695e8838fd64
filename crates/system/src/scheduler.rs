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
//! dictate. A core can be stalled mid-invocation (fault injection, or
//! modeling a hiccup): its in-flight job stays pinned, but the jobs still
//! queued behind it are stolen back by its siblings.
//!
//! The machine re-decides (acquire, count active cores, pick the next
//! core) only when a decision input can have changed: a job completed,
//! or a caller mutated the scheduler, which [`Scheduler::generation`]
//! reveals. In between, the running core keeps the CPU while its
//! `(clock, index)` stays below its horizon
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
    /// Stalled cores hold their in-flight job but execute nothing; their
    /// queued jobs remain stealable.
    stalled: Vec<bool>,
    /// xorshift64 state for victim selection (never zero).
    rng: u64,
    stats: SchedStats,
    /// Bumped by every mutating method (see [`Self::generation`]).
    generation: u64,
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
            stalled: vec![false; cores],
            rng: seed | 1,
            stats: SchedStats {
                steals: 0,
                per_core_jobs: vec![0; cores],
                per_core_cycles: vec![0; cores],
            },
            generation: 0,
        }
    }

    /// A counter that every mutating method bumps. Equal values before
    /// and after a call into foreign code (the machine's fault-injection
    /// hook) prove the scheduler was left untouched, so the machine can
    /// keep its last decision instead of re-deciding.
    pub fn generation(&self) -> u64 {
        self.generation
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

    /// Gives every idle, unstalled core a job: first from the front of its
    /// own queue, otherwise stolen from the back of a seeded victim's
    /// non-empty queue (stalled victims included — that is the steal-back
    /// path). Cores acquire in index order, so one call is deterministic.
    pub fn acquire_jobs(&mut self) {
        self.generation += 1;
        for core in 0..self.queues.len() {
            if self.stalled[core] || self.current[core].is_some() {
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

    /// The core to advance next: the unstalled core with in-flight work
    /// whose simulated clock is lowest (ties break to the lowest index).
    /// `None` when no core can execute right now.
    pub fn next_core(&self) -> Option<usize> {
        self.next_core_and_horizon().map(|(core, _)| core)
    }

    /// [`Self::next_core`] plus its horizon: the smallest `(clock, index)`
    /// among the *other* runnable cores (`(u64::MAX, usize::MAX)` when
    /// there is none). Until the scheduler is mutated by anything but
    /// [`Self::advance`] on the chosen core, `next_core` keeps choosing
    /// that core exactly while its `(clock, index)` is below the horizon.
    pub fn next_core_and_horizon(&self) -> Option<(usize, (u64, usize))> {
        let mut best: Option<(u64, usize)> = None;
        let mut horizon = (u64::MAX, usize::MAX);
        for c in 0..self.queues.len() {
            if self.stalled[c] || self.current[c].is_none() {
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

    /// Cores with in-flight work (stalled or not) — the machine's
    /// contention knob: how many cores are co-resident on the shared LLC
    /// and DRAM this instant.
    pub fn active_cores(&self) -> usize {
        self.current.iter().filter(|c| c.is_some()).count()
    }

    /// Advances `core`'s simulated clock by `delta` cycles.
    pub fn advance(&mut self, core: usize, delta: u64) {
        self.generation += 1;
        self.clock[core] += delta;
        self.stats.per_core_cycles[core] += delta;
    }

    /// Marks `core`'s in-flight job complete, freeing the core.
    pub fn complete(&mut self, core: usize) {
        debug_assert!(self.current[core].is_some(), "complete on idle core");
        self.generation += 1;
        self.current[core] = None;
    }

    /// Stalls `core`: its in-flight job stays pinned but executes nothing
    /// until [`Self::unstall`]; its queued jobs remain stealable.
    pub fn stall(&mut self, core: usize) {
        self.generation += 1;
        self.stalled[core] = true;
    }

    /// Clears a stall injected with [`Self::stall`].
    pub fn unstall(&mut self, core: usize) {
        self.generation += 1;
        self.stalled[core] = false;
    }

    /// Whether `core` is currently stalled.
    pub fn is_stalled(&self, core: usize) -> bool {
        self.stalled[core]
    }

    /// The job currently pinned to `core`.
    pub fn current(&self, core: usize) -> Option<usize> {
        self.current[core]
    }

    /// `core`'s simulated clock.
    pub fn clock(&self, core: usize) -> u64 {
        self.clock[core]
    }

    /// Jobs still waiting in some core's queue (dealt but not started).
    pub fn queued_jobs(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// True when every queue is drained and every core is idle.
    pub fn all_done(&self) -> bool {
        self.current.iter().all(|c| c.is_none()) && self.queues.iter().all(|q| q.is_empty())
    }

    /// True when undone work is blocked behind a stalled core — the only
    /// legitimate reason for [`Self::next_core`] to return `None` before
    /// [`Self::all_done`].
    pub fn has_stalled_work(&self) -> bool {
        !self.all_done() && self.stalled.iter().any(|&s| s)
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
            let core = sched.next_core().expect("no stalls injected");
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
    fn stalled_core_keeps_job_pinned_but_loses_queue() {
        // Deal: core 0 gets jobs {0, 2}, core 1 gets jobs {1, 3}.
        let mut sched = Scheduler::new(2, 4, 3);
        sched.acquire_jobs();
        assert_eq!(sched.current(0), Some(0));
        assert_eq!(sched.current(1), Some(1));
        sched.stall(0);
        assert_eq!(sched.next_core(), Some(1), "only core 1 runs");
        // Core 1 drains its own queue, then steals job 2 back from the
        // stalled core's queue.
        for expect in [3usize, 2] {
            sched.advance(1, 10);
            sched.complete(1);
            sched.acquire_jobs();
            assert_eq!(sched.current(1), Some(expect));
        }
        assert_eq!(sched.stats().steals, 1, "job 2 was stolen back");
        // Core 0's in-flight job 0 stays pinned through the stall; once
        // core 1 finishes, only unstalling lets the batch complete.
        assert_eq!(sched.current(0), Some(0));
        sched.advance(1, 10);
        sched.complete(1);
        sched.acquire_jobs();
        assert_eq!(sched.next_core(), None);
        assert!(sched.has_stalled_work());
        assert!(!sched.all_done());
        sched.unstall(0);
        assert_eq!(sched.next_core(), Some(0));
        sched.advance(0, 10);
        sched.complete(0);
        assert!(sched.all_done());
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
        // A stalled core is no horizon; a lone runnable core has none.
        sched.stall(1);
        sched.stall(2);
        assert_eq!(
            sched.next_core_and_horizon(),
            Some((0, (u64::MAX, usize::MAX)))
        );
        sched.stall(0);
        assert_eq!(sched.next_core_and_horizon(), None);
    }

    #[test]
    fn every_mutation_bumps_the_generation() {
        let mut sched = Scheduler::new(2, 2, 1);
        let mut last = sched.generation();
        let mut bumped = |sched: &Scheduler| {
            let moved = sched.generation() != last;
            last = sched.generation();
            moved
        };
        sched.acquire_jobs();
        assert!(bumped(&sched));
        sched.advance(0, 1);
        assert!(bumped(&sched));
        sched.stall(1);
        assert!(bumped(&sched));
        sched.unstall(1);
        assert!(bumped(&sched));
        sched.complete(0);
        assert!(bumped(&sched));
        let _ = (sched.next_core(), sched.active_cores(), sched.all_done());
        assert!(!bumped(&sched), "reads leave the generation alone");
    }

    #[test]
    fn wedge_is_detectable() {
        let mut sched = Scheduler::new(1, 1, 1);
        sched.acquire_jobs();
        sched.stall(0);
        assert_eq!(sched.next_core(), None);
        assert!(sched.has_stalled_work());
        assert!(!sched.all_done());
    }
}
