//! A bounded, lock-free multi-producer single-consumer ring.
//!
//! The engine's two queue roles share one primitive: per-worker packet
//! batch rings (feeders `try_push`, one worker pops) and the
//! control-plane channel (route sources `try_push`, the single writer
//! drains with [`Consumer::pop_up_to`]). Producers never block — a full
//! ring is **backpressure**, surfaced to the caller as
//! [`PushError::Full`] so it can count the drop and move on; a software
//! dataplane that blocked its feeder on a slow worker would turn one
//! overloaded core into head-of-line blocking for every core.
//!
//! **The ring.** Every slot carries a sequence number (Vyukov's bounded
//! queue): `2·pos` while the slot is free for position `pos`, `2·pos + 1`
//! once it holds that position's item. (Doubling keeps the two states
//! apart for a capacity of 1.) A producer claims a position with one CAS
//! on the tail, writes the slot and release-stores its sequence. The
//! consumer owns the head: it takes an item when its head slot's sequence
//! says so and hands the slot to the next lap with one more store. Per
//! batch, the only line that crosses cores is the slot itself; the
//! consumer never reads the tail or a lock while items flow. Positions
//! never wrap: 2⁶² pushes at one per nanosecond take 146 years.
//!
//! **Idle policy.** A consumer that finds its head slot empty polls that
//! one slot for a fixed idle budget measured on the TSC
//! ([`WORKER_IDLE`] for forwarding workers, [`WRITER_IDLE`] for the
//! writer), yielding its time slice every [`YIELD_EVERY`] so an
//! oversubscribed host still runs the producers. Only then does it look
//! at the tail (for a close) and park on a condvar. A worker whose
//! inter-arrival gap fits in the budget is never parked, so no batch
//! pays a futex wake or a halted-vCPU wake-up; an idle engine still
//! parks and costs nothing.
//!
//! **Parking.** The `parked` flag and the head slot's sequence form a
//! Dekker pair: the consumer sets `parked`, issues a `SeqCst` fence and
//! rechecks its slot; a producer publishes its slot, issues a `SeqCst`
//! fence and reads `parked`. One of the two sees the other's store, so
//! a producer pays the wake (lock plus `notify_one`) only when the
//! consumer really parked, and a wake-up is never lost.
//!
//! **Close.** The close flag is the tail's low bit. Once set, every
//! claim is refused, so the tail freezes at exactly the positions
//! handed out before the close. The consumer drains up to that frozen
//! tail before it reports end-of-stream: a push that races
//! [`Ring::close`] is either refused (and the caller counts it) or
//! delivered, never lost.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use poptrie_cycles::tsc;
use poptrie_telemetry::{CachePadded, Counter};

/// How long an idle forwarding worker polls its head slot before it
/// parks. Longer than the inter-arrival gap of a loaded worker (tens of
/// microseconds), so a worker under load never parks; short enough that
/// an idle one gives its core back within a fraction of a millisecond.
pub const WORKER_IDLE: Duration = Duration::from_micros(200);

/// How long the idle control-plane writer polls before it parks. It
/// shares a core with the load generator on a small host, so a long spin
/// would steal the generator's time.
pub const WRITER_IDLE: Duration = Duration::from_micros(6);

/// An idle consumer yields its time slice this often while it polls.
const YIELD_EVERY: Duration = Duration::from_micros(5);

/// The tail's low bit: set once by [`Ring::close`].
const CLOSED: usize = 1;

/// Why a [`Ring::try_push`] was refused. The item is handed back so the
/// producer can retarget it (e.g. try the next worker's ring).
#[derive(Debug)]
pub enum PushError<T> {
    /// The ring is at capacity; shedding load is the caller's decision.
    Full(T),
    /// The ring was closed by [`Ring::close`]; no more items will ever
    /// be accepted.
    Closed(T),
}

/// One ring slot on its own cache line, so a producer filling one slot
/// never invalidates the slot the consumer is reading.
#[repr(align(64))]
struct Slot<T> {
    /// `2·pos` while free for position `pos`, `2·pos + 1` once it holds
    /// that position's item.
    seq: AtomicUsize,
    entry: UnsafeCell<MaybeUninit<T>>,
}

/// The producer side of the ring, shared by every producer and by
/// observers ([`Ring::len`]). Made with its one [`Consumer`] by [`ring`].
pub struct Ring<T> {
    /// Next position to claim, shifted left one bit; the low bit is
    /// [`CLOSED`]. Written only by producers and `close`.
    tail: CachePadded<AtomicUsize>,
    /// The consumer's next position, published for [`Ring::len`] only.
    head: CachePadded<AtomicUsize>,
    /// Set by a consumer about to park (see the module docs).
    parked: CachePadded<AtomicBool>,
    slots: Box<[Slot<T>]>,
    /// Guards only the park/wake hand-off, never an item.
    lock: Mutex<()>,
    wake: Condvar,
}

// SAFETY: every field but the slot entries is already `Sync` (atomics,
// a `Mutex<()>`, a `Condvar`). A slot entry is written only by the one
// producer whose tail CAS claimed its position and read or dropped only
// by the one consumer (or by `Drop`, with `&mut self`), and the slot's
// sequence orders the two: Release on every store that hands the slot
// over, Acquire on every load that takes it. Items move between threads
// and are never shared, so `T: Send` is all a shared ring needs.
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> core::fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.slots.len())
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

/// A ring of `capacity` slots (minimum 1) and its single consumer, which
/// polls for `idle` before it parks.
pub fn ring<T>(capacity: usize, idle: Duration) -> (Arc<Ring<T>>, Consumer<T>) {
    let cycles = |d: Duration| tsc::ns_to_cycles(d.as_nanos() as u64);
    let ring = Arc::new(Ring {
        tail: CachePadded(AtomicUsize::new(0)),
        head: CachePadded(AtomicUsize::new(0)),
        parked: CachePadded(AtomicBool::new(false)),
        slots: (0..capacity.max(1))
            .map(|pos| Slot {
                seq: AtomicUsize::new(2 * pos),
                entry: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect(),
        lock: Mutex::new(()),
        wake: Condvar::new(),
    });
    let consumer = Consumer {
        ring: Arc::clone(&ring),
        head: 0,
        seen: 0,
        budget: cycles(idle),
        yield_every: cycles(YIELD_EVERY),
    };
    (ring, consumer)
}

impl<T> Ring<T> {
    fn slot(&self, pos: usize) -> &Slot<T> {
        &self.slots[pos % self.slots.len()]
    }

    /// Non-blocking push: only the capacity bounds admission. On failure
    /// hands the item back.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut tail = self.tail.0.load(Ordering::Relaxed);
        let pos = loop {
            if tail & CLOSED != 0 {
                return Err(PushError::Closed(item));
            }
            let pos = tail >> 1;
            let seq = self.slot(pos).seq.load(Ordering::Acquire);
            if seq == 2 * pos {
                // Relaxed: the claim publishes no data; the slot's
                // sequence store below does.
                match self.tail.0.compare_exchange_weak(
                    tail,
                    tail + 2,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break pos,
                    Err(now) => tail = now,
                }
            } else if seq < 2 * pos {
                // The slot still holds the item from one lap back.
                return Err(PushError::Full(item));
            } else {
                // Another producer claimed `pos` first.
                tail = self.tail.0.load(Ordering::Relaxed);
            }
        };
        let slot = self.slot(pos);
        // SAFETY: the CAS gave this producer position `pos` alone, and
        // the Acquire load of `seq == 2·pos` ordered the consumer's read
        // of the slot's previous item before this write. Nobody reads
        // the slot until the Release store below.
        unsafe { (*slot.entry.get()).write(item) };
        slot.seq.store(2 * pos + 1, Ordering::Release);
        // Dekker with `Consumer::park`: publish, fence, then look for a
        // parked consumer.
        fence(Ordering::SeqCst);
        if self.parked.0.load(Ordering::Relaxed) {
            let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.wake.notify_one();
        }
        Ok(())
    }

    /// Close the ring: producers are refused from now on; the consumer
    /// drains every item already claimed and then observes
    /// end-of-stream.
    pub fn close(&self) {
        self.tail.0.fetch_or(CLOSED, Ordering::AcqRel);
        // Under the lock, so a consumer between its recheck and its
        // wait cannot miss the wake.
        let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.wake.notify_all();
    }

    /// Momentary depth: positions claimed and not yet popped.
    pub fn len(&self) -> usize {
        let tail = self.tail.0.load(Ordering::Acquire) >> 1;
        tail.saturating_sub(self.head.0.load(Ordering::Acquire))
    }

    /// Whether the ring is momentarily empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        let head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut() >> 1;
        let cap = self.slots.len();
        for pos in head..tail {
            let slot = &mut self.slots[pos % cap];
            if *slot.seq.get_mut() == 2 * pos + 1 {
                // SAFETY: the sequence says the slot holds position
                // `pos`'s item, which the consumer never took; `&mut
                // self` rules out any concurrent access.
                unsafe { slot.entry.get_mut().assume_init_drop() };
            }
        }
    }
}

/// The ring's one consumer. Not `Clone`: owning it is what makes the
/// consumer single.
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
    /// Next position to pop (mirrored to `Ring::head` for observers).
    head: usize,
    /// First position not yet seen published, at or past `head`: the
    /// depth scan resumes here, so it reads each slot once.
    seen: usize,
    /// Idle budget and yield interval, in TSC cycles.
    budget: u64,
    yield_every: u64,
}

impl<T> core::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Consumer")
            .field("head", &self.head)
            .finish_non_exhaustive()
    }
}

impl<T> Consumer<T> {
    fn published(&self, pos: usize) -> bool {
        self.ring.slot(pos).seq.load(Ordering::Acquire) == 2 * pos + 1
    }

    /// Take the head item; the caller saw it published.
    fn take(&mut self) -> T {
        let pos = self.head;
        let slot = self.ring.slot(pos);
        // SAFETY: the Acquire load of `seq == 2·pos + 1` in `published`
        // ordered the producer's write of this item before this read,
        // and only this consumer (owned, not `Clone`) reads position
        // `pos`. The store below hands the slot to the next lap, so the
        // item is read exactly once.
        let item = unsafe { (*slot.entry.get()).assume_init_read() };
        slot.seq
            .store(2 * (pos + self.ring.slots.len()), Ordering::Release);
        self.head = pos + 1;
        self.ring.head.0.store(self.head, Ordering::Release);
        item
    }

    /// Items published behind the head.
    fn depth(&mut self) -> usize {
        self.seen = self.seen.max(self.head);
        while self.published(self.seen) {
            self.seen += 1;
        }
        self.seen - self.head
    }

    /// Wait until the head slot holds an item (`true`) or the ring is
    /// closed and drained (`false`): poll the head slot for the idle
    /// budget, yielding every [`YIELD_EVERY`], then park. Each park is
    /// counted in `parks`.
    fn wait(&mut self, parks: Option<&Counter>) -> bool {
        loop {
            if self.published(self.head) {
                return true;
            }
            let start = tsc::now();
            let mut next_yield = start + self.yield_every;
            loop {
                std::hint::spin_loop();
                if self.published(self.head) {
                    return true;
                }
                let now = tsc::now();
                if now.wrapping_sub(start) >= self.budget {
                    break;
                }
                if now >= next_yield {
                    std::thread::yield_now();
                    next_yield = now + self.yield_every;
                }
            }
            // The budget is spent: only now read the producers' line.
            let tail = self.ring.tail.0.load(Ordering::Acquire);
            if tail & CLOSED == 0 {
                self.park(parks);
            } else if tail >> 1 == self.head {
                return false;
            }
            // Closed with a claimed item still being written: poll on.
        }
    }

    /// Park until a producer or `close` wakes this consumer, unless the
    /// recheck after setting `parked` finds an item or a close.
    fn park(&self, parks: Option<&Counter>) {
        let ring = &*self.ring;
        let guard = ring.lock.lock().unwrap_or_else(PoisonError::into_inner);
        ring.parked.0.store(true, Ordering::Relaxed);
        // Dekker with `Ring::try_push`: flag, fence, recheck.
        fence(Ordering::SeqCst);
        if !self.published(self.head) && ring.tail.0.load(Ordering::Relaxed) & CLOSED == 0 {
            if let Some(parks) = parks {
                parks.inc();
            }
            // A spurious wake-up just sends the caller back to polling.
            drop(ring.wake.wait(guard));
        }
        ring.parked.0.store(false, Ordering::Relaxed);
    }

    /// Blocking pop: waits for an item or for [`Ring::close`]. Returns
    /// `None` only when the ring is closed *and* drained.
    #[cfg(test)]
    pub fn pop(&mut self) -> Option<T> {
        self.pop_entry(None).map(|(item, _)| item)
    }

    /// Blocking pop that also returns the number of items published
    /// behind the item (the worker's queue-depth gauge). Parks are
    /// counted in `parks`.
    pub fn pop_entry(&mut self, parks: Option<&Counter>) -> Option<(T, usize)> {
        if !self.wait(parks) {
            return None;
        }
        let item = self.take();
        Some((item, self.depth()))
    }

    /// Blocking bulk pop: waits until at least one item is available,
    /// then moves up to `max` items into `buf`. Returns `false` only when
    /// closed and drained. This is the control-plane writer's entry
    /// point — draining a burst in one call is what makes per-burst
    /// coalescing and one publish per burst possible.
    pub fn pop_up_to(&mut self, max: usize, buf: &mut Vec<T>, parks: Option<&Counter>) -> bool {
        if !self.wait(parks) {
            return false;
        }
        while buf.len() < max && self.published(self.head) {
            buf.push(self.take());
        }
        true
    }
}
