//! The deterministic trace generator.
//!
//! Produces an event stream with the spec's MallocPKI, size distribution,
//! and bimodal lifetime behaviour. Short-lived objects are freed after a
//! geometric number of same-class allocations (Fig. 3's malloc-free
//! distance metric); long-lived objects survive to exit, where a
//! per-language fraction is freed explicitly (interpreter teardown /
//! destructors) and the rest are batch-freed by the OS.

use crate::event::{Event, ObjectId, Trace};
use crate::spec::WorkloadSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Cap on short-lived malloc-free distance (stays within Fig. 3's axis).
const MAX_SHORT_DISTANCE: u64 = 240;

/// Index used for the "large" pseudo-class when tracking distances.
const LARGE_CLASS: usize = 64;

/// Size classes tracked: the 64 small ones, then [`LARGE_CLASS`].
const CLASSES: usize = LARGE_CLASS + 1;

/// Buckets in each size class's ring of pending frees. A class's pending
/// due counts lie in `(count, count + MAX_SHORT_DISTANCE]`, so no two of
/// them share a bucket.
const RING: usize = 256;
const _: () = assert!(MAX_SHORT_DISTANCE < RING as u64);

/// No entry: an empty bucket, a class without a ring, the end of a list.
const NIL: u32 = u32::MAX;

/// Short-lived objects waiting for their free, per size class: a ring of
/// [`RING`] FIFO buckets indexed by due count. Buckets are lists through
/// one pool of entries, and a class gets its ring at its first pending
/// free, so a short trace pays only for the classes it schedules.
struct Pending {
    /// Where each class's ring starts in `heads`, or [`NIL`].
    ring: [u32; CLASSES],
    /// The highest due count each class has scheduled.
    last_due: [u64; CLASSES],
    /// Each bucket's newest entry, or [`NIL`].
    heads: Vec<u32>,
    /// Entries: an object and the entry pushed before it into the same
    /// bucket, or the next free entry.
    pool: Vec<(ObjectId, u32)>,
    /// The first free entry of `pool`, or [`NIL`].
    free: u32,
}

impl Pending {
    fn new() -> Self {
        Pending {
            ring: [NIL; CLASSES],
            last_due: [0; CLASSES],
            heads: Vec::new(),
            pool: Vec::new(),
            free: NIL,
        }
    }

    /// Schedules the free of `id` at count `due` of `class`.
    fn push(&mut self, class: usize, due: u64, id: ObjectId) {
        if self.ring[class] == NIL {
            self.ring[class] = self.heads.len() as u32;
            self.heads.resize(self.heads.len() + RING, NIL);
        }
        self.last_due[class] = self.last_due[class].max(due);
        let head = &mut self.heads[self.ring[class] as usize + due as usize % RING];
        let entry = (id, *head);
        *head = if self.free == NIL {
            self.pool.push(entry);
            (self.pool.len() - 1) as u32
        } else {
            let slot = self.free;
            self.free = self.pool[slot as usize].1;
            self.pool[slot as usize] = entry;
            slot
        };
    }

    /// Appends the objects of `class` due at count `due` to `out`, in the
    /// order they were scheduled.
    fn take(&mut self, class: usize, due: u64, out: &mut Vec<ObjectId>) {
        if self.ring[class] == NIL {
            return;
        }
        let start = out.len();
        let head = &mut self.heads[self.ring[class] as usize + due as usize % RING];
        let mut slot = std::mem::replace(head, NIL);
        while slot != NIL {
            let (id, next) = self.pool[slot as usize];
            out.push(id);
            self.pool[slot as usize].1 = self.free;
            self.free = slot;
            slot = next;
        }
        out[start..].reverse();
    }
}

fn geometric(rng: &mut StdRng, mean: f64) -> u64 {
    // Geometric with the given mean (≥ 1): inverse-transform sampling.
    let p = (1.0 / mean.max(1.0)).clamp(1e-6, 1.0);
    let u: f64 = rng.gen_range(0.0..1.0);
    let val = ((1.0 - u).ln() / (1.0 - p).ln()).floor();
    1 + val as u64
}

fn exponential(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

fn sample_size(rng: &mut StdRng, spec: &WorkloadSpec) -> u32 {
    if rng.gen_range(0.0..1.0) < spec.size.small_fraction {
        // Small: geometric over 8-byte classes around the mean.
        let mean_class = (spec.size.small_mean_bytes / 8.0).max(1.0);
        let class = geometric(rng, mean_class).min(64);
        (class * 8) as u32
    } else {
        let extra = exponential(rng, spec.size.large_mean_bytes - 512.0);
        let size = 513.0 + extra;
        (size.min(spec.size.large_max_bytes as f64)) as u32
    }
}

fn class_index(size: u32) -> usize {
    if size as usize > 512 {
        LARGE_CLASS
    } else {
        (size as usize).div_ceil(8) - 1
    }
}

/// The most events [`generate`] can emit for `spec` over `n_allocs`
/// allocations. Each allocation emits one compute, at most
/// `⌈1.5 · touch_intensity⌉` re-touches (the count is `touch_intensity`
/// times a draw in `[0.5, 1.5]`, rounded), the alloc and its init touch;
/// each object is freed at most once; and the trace ends in one exit.
fn event_bound(spec: &WorkloadSpec, n_allocs: u64) -> usize {
    // A negative or NaN intensity casts to 0 re-touches, as in the loop.
    let touches = (1.5 * spec.touch_intensity).ceil() as u64;
    let per_alloc = touches.saturating_add(4);
    n_allocs.saturating_mul(per_alloc).saturating_add(1) as usize
}

/// Generates the trace for `spec`. Deterministic in `spec.seed`.
pub fn generate(spec: &WorkloadSpec) -> Trace {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let n_allocs = spec.expected_allocs().max(1);
    let compute_per_alloc = (1000.0 / spec.malloc_pki.max(0.001)) as u64;

    // Reserved once: a vector that outgrows its reservation reallocates,
    // and its allocation then peaks at about twice the trace's size.
    let mut events = Vec::with_capacity(event_bound(spec, n_allocs));
    let reserved = events.capacity();
    let mut next_id = 0u64;
    // Allocation counter per size class (distance is measured in same-class
    // allocations, matching the paper's metric).
    let mut class_counts = [0u64; CLASSES];
    // Scheduled short-lived frees, and the ones due now.
    let mut pending = Pending::new();
    let mut due = Vec::new();
    // Long-lived survivors.
    let mut long_lived: Vec<(ObjectId, u32)> = Vec::new();
    // Hot set for re-touches, oldest first: (id, size).
    let mut hot: VecDeque<(ObjectId, u32)> = VecDeque::new();
    // Ids are unique, so dropping the first match drops every match.
    let forget = |hot: &mut VecDeque<(ObjectId, u32)>, fid: ObjectId| {
        if let Some(i) = hot.iter().position(|(h, _)| *h == fid) {
            hot.remove(i);
        }
    };

    #[expect(clippy::explicit_counter_loop, reason = "next_id also grows via frees")]
    for _ in 0..n_allocs {
        // Application compute between allocations (±30% jitter).
        let jitter = rng.gen_range(0.7..1.3);
        let insts = ((compute_per_alloc as f64) * jitter).max(1.0) as u32;
        events.push(Event::Compute {
            instructions: insts,
        });

        // Re-touch hot objects (temporal locality of freshly built data).
        let touches = spec.touch_intensity * rng.gen_range(0.5..1.5);
        for _ in 0..touches.round() as usize {
            if hot.is_empty() {
                break;
            }
            let (id, size) = hot[rng.gen_range(0..hot.len())];
            let max_off = (size.saturating_sub(8)) / 8 * 8;
            let offset = if max_off == 0 {
                0
            } else {
                rng.gen_range(0..=(max_off / 8)) * 8
            };
            let len = (size - offset).clamp(1, 64);
            events.push(Event::Touch {
                id,
                offset,
                len,
                write: rng.gen_bool(0.4),
            });
        }

        // The allocation itself.
        let size = sample_size(&mut rng, spec);
        let id = ObjectId(next_id);
        next_id += 1;
        events.push(Event::Alloc { id, size });
        // Objects are initialized right after allocation.
        events.push(Event::Touch {
            id,
            offset: 0,
            len: size,
            write: true,
        });

        let class = class_index(size);
        class_counts[class] += 1;
        let count = class_counts[class];

        // Lifetime decision.
        if rng.gen_range(0.0..1.0) < spec.lifetime.short_fraction {
            let d = geometric(&mut rng, spec.lifetime.short_mean_distance).min(MAX_SHORT_DISTANCE);
            pending.push(class, count + d, id);
        } else {
            long_lived.push((id, size));
        }
        hot.push_back((id, size));
        if hot.len() > spec.hot_set {
            hot.pop_front();
        }

        // Emit the frees due at this class count: each due count lies
        // above the previous count, so none is ever overdue.
        pending.take(class, count, &mut due);
        for fid in due.drain(..) {
            forget(&mut hot, fid);
            events.push(Event::Free { id: fid });
        }
    }

    // Drain short-lived objects whose due count never arrived, in due
    // order per class.
    for (class, &count) in class_counts.iter().enumerate() {
        for k in count + 1..=pending.last_due[class] {
            pending.take(class, k, &mut due);
        }
    }
    for fid in due.drain(..) {
        forget(&mut hot, fid);
        events.push(Event::Free { id: fid });
    }

    // Exit-time teardown frees (Python refcount teardown, C++ destructors).
    let n_exit_frees = (long_lived.len() as f64 * spec.lifetime.exit_free_fraction) as usize;
    for (fid, _) in long_lived.drain(..n_exit_frees.min(long_lived.len())) {
        events.push(Event::Free { id: fid });
    }

    events.push(Event::Exit);
    debug_assert_eq!(
        events.capacity(),
        reserved,
        "{} outgrew its event bound",
        spec.name
    );
    Trace {
        name: spec.name.clone(),
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AllocatorKind, Category, Language, LifetimeProfile, SizeProfile};
    use std::collections::{BTreeMap, HashSet};

    /// The `BTreeMap` generator that `generate` replaced, kept verbatim as
    /// its oracle.
    fn generate_oracle(spec: &WorkloadSpec) -> Trace {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let n_allocs = spec.expected_allocs().max(1);
        let compute_per_alloc = (1000.0 / spec.malloc_pki.max(0.001)) as u64;

        let mut events = Vec::with_capacity(n_allocs as usize * 5);
        let mut next_id = 0u64;
        // Allocation counter per size class (distance is measured in same-class
        // allocations, matching the paper's metric).
        let mut class_counts = [0u64; 65];
        // Scheduled short-lived frees: per class, due-count → object ids.
        let mut pending: Vec<BTreeMap<u64, Vec<(ObjectId, u32)>>> =
            (0..65).map(|_| BTreeMap::new()).collect();
        // Long-lived survivors.
        let mut long_lived: Vec<(ObjectId, u32)> = Vec::new();
        // Hot set for re-touches: (id, size).
        let mut hot: Vec<(ObjectId, u32)> = Vec::new();

        #[expect(clippy::explicit_counter_loop, reason = "next_id also grows via frees")]
        for _ in 0..n_allocs {
            // Application compute between allocations (±30% jitter).
            let jitter = rng.gen_range(0.7..1.3);
            let insts = ((compute_per_alloc as f64) * jitter).max(1.0) as u32;
            events.push(Event::Compute {
                instructions: insts,
            });

            // Re-touch hot objects (temporal locality of freshly built data).
            let touches = spec.touch_intensity * rng.gen_range(0.5..1.5);
            for _ in 0..touches.round() as usize {
                if hot.is_empty() {
                    break;
                }
                let (id, size) = hot[rng.gen_range(0..hot.len())];
                let max_off = (size.saturating_sub(8)) / 8 * 8;
                let offset = if max_off == 0 {
                    0
                } else {
                    rng.gen_range(0..=(max_off / 8)) * 8
                };
                let len = (size - offset).clamp(1, 64);
                events.push(Event::Touch {
                    id,
                    offset,
                    len,
                    write: rng.gen_bool(0.4),
                });
            }

            // The allocation itself.
            let size = sample_size(&mut rng, spec);
            let id = ObjectId(next_id);
            next_id += 1;
            events.push(Event::Alloc { id, size });
            // Objects are initialized right after allocation.
            events.push(Event::Touch {
                id,
                offset: 0,
                len: size,
                write: true,
            });

            let class = class_index(size);
            class_counts[class] += 1;

            // Lifetime decision.
            if rng.gen_range(0.0..1.0) < spec.lifetime.short_fraction {
                let d =
                    geometric(&mut rng, spec.lifetime.short_mean_distance).min(MAX_SHORT_DISTANCE);
                pending[class]
                    .entry(class_counts[class] + d)
                    .or_default()
                    .push((id, size));
                hot.push((id, size));
            } else {
                long_lived.push((id, size));
                hot.push((id, size));
            }
            if hot.len() > spec.hot_set {
                hot.remove(0);
            }

            // Emit frees that came due for this class.
            let due: Vec<u64> = pending[class]
                .range(..=class_counts[class])
                .map(|(k, _)| *k)
                .collect();
            for k in due {
                for (fid, _fsize) in pending[class].remove(&k).unwrap_or_default() {
                    hot.retain(|(h, _)| *h != fid);
                    events.push(Event::Free { id: fid });
                }
            }
        }

        // Drain short-lived objects whose due count never arrived.
        for class in pending.iter_mut() {
            for (_, ids) in std::mem::take(class) {
                for (fid, _) in ids {
                    hot.retain(|(h, _)| *h != fid);
                    events.push(Event::Free { id: fid });
                }
            }
        }

        // Exit-time teardown frees (Python refcount teardown, C++ destructors).
        let n_exit_frees = (long_lived.len() as f64 * spec.lifetime.exit_free_fraction) as usize;
        for (fid, _) in long_lived.drain(..n_exit_frees.min(long_lived.len())) {
            events.push(Event::Free { id: fid });
        }

        events.push(Event::Exit);
        Trace {
            name: spec.name.clone(),
            events,
        }
    }

    #[test]
    fn ring_generator_matches_the_btreemap_oracle() {
        for scale in [1, 8, 32] {
            for mut s in crate::suite::all_workloads() {
                s.total_instructions /= scale;
                assert_eq!(
                    generate(&s).events,
                    generate_oracle(&s).events,
                    "{} at scale 1/{scale}",
                    s.name
                );
            }
        }
    }

    #[test]
    fn every_suite_trace_fits_its_event_bound() {
        for scale in [1, 8, 32] {
            for mut s in crate::suite::all_workloads() {
                s.total_instructions /= scale;
                let n_allocs = s.expected_allocs().max(1);
                let events = generate(&s).events.len();
                let bound = event_bound(&s, n_allocs);
                assert!(
                    events <= bound,
                    "{} at scale 1/{scale}: {events} events over a bound of {bound}",
                    s.name
                );
            }
        }
    }

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "test".into(),
            language: Language::Python,
            category: Category::Function,
            allocator: AllocatorKind::PyMalloc,
            total_instructions: 1_000_000,
            malloc_pki: 10.0,
            size: SizeProfile::typical(0.93, 64.0),
            lifetime: LifetimeProfile::for_language(Language::Python),
            touch_intensity: 1.0,
            hot_set: 32,
            seed: 42,
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = generate(&spec());
        let b = generate(&spec());
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn different_seeds_differ() {
        let mut s = spec();
        let a = generate(&s);
        s.seed = 43;
        let b = generate(&s);
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn pki_close_to_spec() {
        let t = generate(&spec());
        let pki = t.malloc_pki();
        assert!((pki - 10.0).abs() < 1.5, "pki {pki} far from spec");
    }

    #[test]
    fn trace_is_well_formed() {
        let t = generate(&spec());
        let mut live: HashSet<u64> = HashSet::new();
        let mut seen: HashSet<u64> = HashSet::new();
        let mut exited = false;
        for e in &t.events {
            assert!(!exited, "no events after Exit");
            match e {
                Event::Alloc { id, size } => {
                    assert!(*size >= 8);
                    assert!(seen.insert(id.0), "id reused");
                    live.insert(id.0);
                }
                Event::Free { id } => {
                    assert!(live.remove(&id.0), "free of dead/unknown object");
                }
                Event::Touch {
                    id, offset, len, ..
                } => {
                    assert!(live.contains(&id.0), "touch of dead object");
                    assert!(*len >= 1);
                    assert!(offset % 8 == 0);
                }
                Event::Compute { instructions } => assert!(*instructions >= 1),
                Event::Exit => exited = true,
            }
        }
        assert!(exited, "trace must end with Exit");
    }

    #[test]
    fn touches_stay_in_bounds() {
        let t = generate(&spec());
        let mut sizes = std::collections::HashMap::new();
        for e in &t.events {
            match e {
                Event::Alloc { id, size } => {
                    sizes.insert(id.0, *size);
                }
                Event::Touch {
                    id, offset, len, ..
                } => {
                    let size = sizes[&id.0];
                    assert!(
                        offset + len <= size,
                        "touch beyond object: off {offset} len {len} size {size}"
                    );
                }
                _ => {}
            }
        }
    }

    #[test]
    fn size_distribution_mostly_small() {
        let t = generate(&spec());
        let (mut small, mut total) = (0u64, 0u64);
        for e in &t.events {
            if let Event::Alloc { size, .. } = e {
                total += 1;
                if *size <= 512 {
                    small += 1;
                }
            }
        }
        let frac = small as f64 / total as f64;
        assert!((frac - 0.93).abs() < 0.03, "small fraction {frac}");
    }

    #[test]
    fn go_traces_free_nothing_before_gc() {
        let mut s = spec();
        s.language = Language::Golang;
        s.lifetime = LifetimeProfile::for_language(Language::Golang);
        let t = generate(&s);
        // Go still emits death marks for short-lived objects, but no
        // exit-frees (exit_free_fraction = 0).
        let frees = t.free_count();
        let allocs = t.alloc_count();
        assert!(frees < allocs / 2, "most Go objects die with the process");
    }
}
