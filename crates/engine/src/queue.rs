//! A bounded multi-producer single-consumer queue with blocking pop.
//!
//! The engine's two queue roles share one primitive: per-worker packet
//! batch queues (feeders `try_push`, one worker blocks on `pop`) and the
//! control-plane channel (route sources `try_push`, the single writer
//! drains with [`Bounded::pop_up_to`]). Producers never block — a full
//! queue is **backpressure**, surfaced to the caller as
//! [`PushError::Full`] so it can count the drop and move on; a software
//! dataplane that blocked its feeder on a slow worker would turn one
//! overloaded core into head-of-line blocking for every core.
//!
//! `Mutex` + `Condvar` rather than a lock-free ring: the consumer must
//! *block* when idle (burning a core spinning on an empty queue is
//! unacceptable for a control-plane writer that is idle most of the
//! time), and under load the queue is never empty so the mutex is
//! uncontended for exactly the batches that matter.
//!
//! Consumers **spin briefly before parking**. A consumer that parks on
//! the condvar between every item makes every producer push pay a futex
//! wake, and on a machine with more threads than cores the woken
//! consumer routinely *preempts the producer that woke it* — the
//! producer ends up running in sub-millisecond slivers and the whole
//! pipeline degrades to one core's throughput no matter how many
//! consumers exist. Spinning a few microseconds first keeps consumers
//! runnable across the inter-arrival gap under sustained load, so the
//! steady state is wake-free; an idle consumer still parks after the
//! spin budget and costs nothing. Producers skip the notify entirely
//! when no consumer is parked (`parked` is maintained under the mutex,
//! so a parked consumer is never missed).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Spin rounds a consumer burns through before parking on the condvar.
/// Early rounds are pure `spin_loop` hints (sub-microsecond); later
/// rounds yield the time slice so an oversubscribed machine can run the
/// producer this consumer is waiting on.
const SPIN_ROUNDS: u32 = 8;

/// One backoff step of the spin phase (see [`SPIN_ROUNDS`]).
fn backoff(round: u32) {
    if round < 5 {
        for _ in 0..(8u32 << round) {
            std::hint::spin_loop();
        }
    } else {
        std::thread::yield_now();
    }
}

/// Why a [`Bounded::try_push`] was refused. The item is handed back so
/// the producer can retarget it (e.g. try the next worker's queue).
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity (or the pushing source exhausted its
    /// slot quota); shedding load is the caller's decision.
    Full(T),
    /// The queue was closed by [`Bounded::close`]; no more items will
    /// ever be accepted.
    Closed(T),
}

/// Source tag for items pushed without a source
/// ([`Bounded::try_push`]): exempt from quota accounting.
pub const NO_SOURCE: u32 = u32::MAX;

struct Inner<T> {
    items: VecDeque<(u32, T)>,
    closed: bool,
    /// Items currently queued per source index (quota enforcement for
    /// [`Bounded::try_push_from`]); `NO_SOURCE` items are not tracked.
    occupancy: Vec<u64>,
}

/// The bounded MPSC queue. See the module docs for the blocking model.
pub struct Bounded<T> {
    inner: Mutex<Inner<T>>,
    notify: Condvar,
    capacity: usize,
    /// Consumers currently parked on `notify`. Incremented under the
    /// mutex before waiting, so a producer that pushed under the same
    /// mutex and then reads 0 here is guaranteed no consumer is (or can
    /// end up) parked without first re-checking the queue.
    parked: AtomicUsize,
}

impl<T> core::fmt::Debug for Bounded<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Bounded")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl<T> Bounded<T> {
    /// A queue admitting at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Bounded {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
                occupancy: Vec::new(),
            }),
            notify: Condvar::new(),
            capacity: capacity.max(1),
            parked: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Park on the condvar, keeping the `parked` census exact. Called
    /// with the queue known empty and open, under the lock.
    fn park<'a>(&self, g: MutexGuard<'a, Inner<T>>) -> MutexGuard<'a, Inner<T>> {
        self.parked.fetch_add(1, Ordering::Relaxed);
        let g = match self.notify.wait(g) {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        self.parked.fetch_sub(1, Ordering::Relaxed);
        g
    }

    /// Non-blocking push with no source tag and no quota: only the total
    /// capacity bounds admission. On failure hands the item back.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        self.try_push_from(NO_SOURCE, usize::MAX, item)
    }

    /// Non-blocking push attributed to `source`, which may hold at most
    /// `quota` slots of this queue at once — the QoS weighted-share
    /// mechanism: a heavy source exhausts its own slots and is refused
    /// [`PushError::Full`] while lighter sources still get in. Quota is
    /// the *caller's* per-source slot budget (derived from its weight);
    /// the queue just enforces whatever budget each push presents.
    /// `NO_SOURCE` pushes bypass quota accounting entirely.
    pub fn try_push_from(&self, source: u32, quota: usize, item: T) -> Result<(), PushError<T>> {
        let mut g = self.lock();
        if g.closed {
            return Err(PushError::Closed(item));
        }
        if g.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        if source != NO_SOURCE {
            let s = source as usize;
            if g.occupancy.len() <= s {
                g.occupancy.resize(s + 1, 0);
            }
            if g.occupancy[s] >= quota as u64 {
                return Err(PushError::Full(item));
            }
            g.occupancy[s] += 1;
        }
        g.items.push_back((source, item));
        drop(g);
        // Wake-free fast path: a spinning (or busy) consumer re-checks
        // the queue itself; only a consumer that actually parked needs
        // the futex wake.
        if self.parked.load(Ordering::Relaxed) > 0 {
            self.notify.notify_one();
        }
        Ok(())
    }

    /// Pop the head under the lock, releasing its source's quota slot.
    fn take(g: &mut Inner<T>) -> Option<(u32, T)> {
        let (source, item) = g.items.pop_front()?;
        if source != NO_SOURCE {
            let s = source as usize;
            g.occupancy[s] = g.occupancy[s].saturating_sub(1);
        }
        Some((source, item))
    }

    /// Blocking pop: waits for an item or for [`Bounded::close`].
    /// Returns `None` only when the queue is closed *and* fully drained —
    /// the shutdown path never loses queued work. Spins briefly before
    /// parking (see the module docs).
    #[cfg_attr(not(test), allow(dead_code))] // engine paths use pop_entry/pop_up_to
    pub fn pop(&self) -> Option<T> {
        self.pop_entry().map(|(_, item, _)| item)
    }

    /// Blocking pop that also returns the item's source tag
    /// (`NO_SOURCE` for untagged pushes) — the worker uses it to
    /// attribute deadline drops and deliveries per source — and the
    /// number of items left queued behind it, read under the same lock
    /// (the worker's queue-depth gauge).
    pub fn pop_entry(&self) -> Option<(u32, T, usize)> {
        for round in 0..SPIN_ROUNDS {
            {
                let mut g = self.lock();
                if let Some((source, item)) = Self::take(&mut g) {
                    return Some((source, item, g.items.len()));
                }
                if g.closed {
                    return None;
                }
            }
            backoff(round);
        }
        let mut g = self.lock();
        loop {
            if let Some((source, item)) = Self::take(&mut g) {
                return Some((source, item, g.items.len()));
            }
            if g.closed {
                return None;
            }
            g = self.park(g);
        }
    }

    /// Blocking bulk pop: waits until at least one item is available,
    /// then moves up to `max` items into `buf`. Returns `false` only when
    /// closed and drained. This is the control-plane writer's entry
    /// point — draining a burst in one call is what makes per-batch
    /// coalescing and one-publish-per-batch possible. Spins briefly
    /// before parking (see the module docs).
    pub fn pop_up_to(&self, max: usize, buf: &mut Vec<T>) -> bool {
        fn drain<T>(g: &mut Inner<T>, max: usize, buf: &mut Vec<T>) {
            while buf.len() < max {
                match Bounded::take(g) {
                    Some((_, item)) => buf.push(item),
                    None => break,
                }
            }
        }
        for round in 0..SPIN_ROUNDS {
            {
                let mut g = self.lock();
                if !g.items.is_empty() {
                    drain(&mut g, max, buf);
                    return true;
                }
                if g.closed {
                    return false;
                }
            }
            backoff(round);
        }
        let mut g = self.lock();
        loop {
            if !g.items.is_empty() {
                drain(&mut g, max, buf);
                return true;
            }
            if g.closed {
                return false;
            }
            g = self.park(g);
        }
    }

    /// Close the queue: producers are refused from now on, consumers
    /// drain what is queued and then observe end-of-stream.
    pub fn close(&self) {
        self.lock().closed = true;
        self.notify.notify_all();
    }

    /// Momentary queue depth.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is momentarily empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
