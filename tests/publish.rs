//! Differential tests for incremental snapshot publishing.
//!
//! A [`SharedFib`] publishes by copying only the cache lines an update
//! burst wrote into a recycled snapshot (see `poptrie::sync`). Each test
//! compares published snapshots against a from-scratch compilation of the
//! writer's RIB, on IPv4 and IPv6 keys, for a table with a leaf store of
//! its own and for one table of a two-table VRF group. Debug builds
//! additionally check every incremental publish byte for byte inside
//! `SharedFib`. A counting global allocator checks that the publish path
//! allocates no more on a Tier-1-sized table than on a tiny one.

use poptrie_suite::poptrie::sync::{FibSnapshot, PublishStats, RouteUpdate, SharedFib};
use poptrie_suite::poptrie::{BatchBackend, InternStats, PoptrieConfig};
use poptrie_suite::prelude::VrfTable;
use poptrie_suite::rng::prelude::*;
use poptrie_suite::tablegen::{self, churn_stream, ChurnConfig, ChurnEvent};
use poptrie_suite::{bitops::Bits, Builder, Lpm, NextHop, Poptrie, Prefix, RadixTree};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator, counting allocations per thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments;
// counting touches only a const-initialized thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations `f` makes on the calling thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const S: u8 = 16;

/// Where a table's leaves live.
#[derive(Debug, Clone, Copy)]
enum Store {
    /// A leaf store of its own.
    Own,
    /// The store of a two-table VRF group; the other table stays idle.
    Group,
}

/// A table under test. The registry, when there is one, owns the leaf
/// store the table's leaves live in.
struct Table<K: Bits> {
    _group: Option<VrfTable<K>>,
    fib: Arc<SharedFib<K>>,
}

/// An empty table. `reserve` pre-sizes the node array far beyond what
/// the tests' routes need, so that after the first allocation no burst
/// grows it and every full copy is one the retirement rule caused.
fn table<K: Bits>(store: Store, reserve: bool) -> Table<K> {
    let cfg = PoptrieConfig::new()
        .direct_bits(S)
        .aggregate(false)
        .node_capacity(if reserve { 1 << 16 } else { 0 })
        .build()
        .unwrap();
    match store {
        Store::Own => Table {
            _group: None,
            fib: Arc::new(SharedFib::with_config(cfg)),
        },
        Store::Group => {
            let group = VrfTable::shared(cfg, 1 << 18);
            let fib = group.get(group.create()).expect("just created");
            group.create();
            Table {
                _group: Some(group),
                fib,
            }
        }
    }
}

/// The stats of the table's leaf store.
fn store_stats<K: Bits>(fib: &SharedFib<K>) -> InternStats {
    fib.with_fib(|f| f.poptrie().leaf_store().stats())
}

fn update<K: Bits>(ev: ChurnEvent<K>) -> RouteUpdate<K> {
    match ev {
        ChurnEvent::Announce(p, nh) => RouteUpdate::Announce(p, nh),
        ChurnEvent::Withdraw(p) => RouteUpdate::Withdraw(p),
    }
}

fn churn<K: Bits>(seed: u64, events: usize) -> Vec<RouteUpdate<K>> {
    churn_stream::<K>(&ChurnConfig {
        seed,
        events,
        direct_bits: S,
        pool: 256,
        max_nh: 13,
    })
    .into_iter()
    .map(update)
    .collect()
}

fn fresh<K: Bits>(rib: &RadixTree<K, NextHop>) -> Poptrie<K> {
    Builder::new().direct_bits(S).aggregate(false).build(rib)
}

/// The published snapshot must equal a fresh compile of the writer's RIB
/// over the whole key space (`ranges()` lists every boundary).
fn assert_current<K: Bits>(fib: &SharedFib<K>, at: &str) -> Arc<FibSnapshot<K>> {
    let want = fib.with_fib(|f| fresh(f.rib()).ranges());
    let snap = fib.snapshot();
    assert_eq!(snap.ranges(), want, "{at}: published snapshot diverged");
    snap
}

/// The publish work one call did.
fn work<K: Bits>(fib: &SharedFib<K>, f: impl FnOnce(&SharedFib<K>)) -> PublishStats {
    let before = fib.publish_stats();
    f(fib);
    fib.publish_stats().since(before)
}

/// Two empty publishes: the first recycles the initial snapshot (or
/// clones), the second leaves the spare lacking nothing.
fn settle<K: Bits>(fib: &SharedFib<K>) {
    fib.update_batch(std::iter::empty());
    fib.update_batch(std::iter::empty());
}

fn churn_matches_fresh_compile<K: Bits>(store: Store, seed: u64) {
    let t = table::<K>(store, false);
    let stream = churn::<K>(seed, 3_000);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rest = &stream[..];
    let mut bursts = 0u64;
    while !rest.is_empty() {
        // Burst sizes include 0: an empty publish is part of the mix.
        let n = rng.gen_range(0..48usize).min(rest.len());
        let (burst, tail) = rest.split_at(n);
        rest = tail;
        let outcome = t.fib.update_batch(burst.iter().copied());
        bursts += 1;
        let snap = assert_current(&t.fib, &format!("{store:?} burst {bursts}"));
        assert_eq!(snap.version(), outcome.version);
    }
    let st = t.fib.publish_stats();
    assert_eq!(st.full_copies + st.incremental, bursts);
    // No reader holds a snapshot across a publish here, so only the
    // first publish and the two after each node-array growth copy in
    // full.
    assert!(
        st.incremental > 4 * st.full_copies,
        "{store:?}: publishes fell back to full copies: {st:?}"
    );
}

#[test]
fn churn_publishes_match_fresh_compile_u32() {
    churn_matches_fresh_compile::<u32>(Store::Own, 0x5eed_0001);
    churn_matches_fresh_compile::<u32>(Store::Group, 0x5eed_0002);
}

#[test]
fn churn_publishes_match_fresh_compile_u128() {
    churn_matches_fresh_compile::<u128>(Store::Own, 0x5eed_0003);
    churn_matches_fresh_compile::<u128>(Store::Group, 0x5eed_0004);
}

/// A burst that grows the node array is a whole-structure event: its
/// publish and the next one copy everything, and publishing is
/// incremental again after that. (Growth of the leaf store swaps its
/// slab and copies nothing at publish.)
fn growth_burst<K: Bits>(store: Store) {
    let t = table::<K>(store, false);
    t.fib.insert(Prefix::new(K::ZERO, 1), 1).unwrap();
    settle(&t.fib);
    let mut rng = StdRng::seed_from_u64(7);
    let burst: Vec<RouteUpdate<K>> = (0..400)
        .map(|_| {
            let addr = K::from_u128(rng.gen::<u128>() & K::ONES.to_u128());
            let len = rng.gen_range(S as u32 + 1..=K::BITS) as u8;
            RouteUpdate::Announce(Prefix::new(addr, len), rng.gen_range(1..=9u16))
        })
        .collect();
    let grew = work(&t.fib, |f| {
        f.update_batch(burst);
    });
    assert_eq!(grew.full_copies, 1, "{store:?}: growth publish {grew:?}");
    assert_current(&t.fib, "after growth");
    let caught_up = work(&t.fib, |f| {
        f.update_batch(std::iter::empty());
    });
    assert_eq!(
        (caught_up.full_copies, caught_up.bytes_copied),
        (1, grew.bytes_copied),
        "{store:?}: the spare lacked the growth"
    );
    let quiet = work(&t.fib, |f| {
        f.update_batch(std::iter::empty());
    });
    assert_eq!(
        (quiet.incremental, quiet.bytes_copied),
        (1, 0),
        "{store:?}: incremental again"
    );
    assert_current(&t.fib, "after settling");
}

#[test]
fn growth_burst_copies_in_full_then_recovers() {
    growth_burst::<u32>(Store::Own);
    growth_burst::<u32>(Store::Group);
    growth_burst::<u128>(Store::Own);
    growth_burst::<u128>(Store::Group);
}

/// An empty `update_batch` still publishes a new version, with the same
/// contents; once the spare has caught up it copies nothing.
fn empty_batch<K: Bits>(store: Store) {
    let t = table::<K>(store, false);
    t.fib.update_batch(churn::<K>(11, 300));
    settle(&t.fib);
    let before = assert_current(&t.fib, "before");
    let (v, ranges) = (before.version(), before.ranges());
    drop(before);
    let w = work(&t.fib, |f| {
        let outcome = f.update_batch(std::iter::empty());
        assert_eq!((outcome.events, outcome.applied), (0, 0));
        assert_eq!(outcome.version, v + 1);
    });
    assert_eq!(
        w,
        PublishStats {
            full_copies: 0,
            incremental: 1,
            bytes_copied: 0
        },
        "{store:?}"
    );
    let after = assert_current(&t.fib, "after");
    assert_eq!(after.version(), v + 1);
    assert_eq!(after.ranges(), ranges);
}

#[test]
fn empty_update_batch_publishes_without_copying() {
    empty_batch::<u32>(Store::Own);
    empty_batch::<u32>(Store::Group);
    empty_batch::<u128>(Store::Own);
    empty_batch::<u128>(Store::Group);
}

/// The dispatch tier is a scalar field of the trie: a publish that
/// recycles a snapshot built under the old tier must still carry the new
/// one, and batched lookups must stay exact under each.
fn backend_switch<K: Bits>(store: Store) {
    let t = table::<K>(store, false);
    t.fib.update_batch(churn::<K>(13, 300));
    settle(&t.fib);
    let rib = t.fib.with_fib(|f| f.rib().clone());
    let mut rng = StdRng::seed_from_u64(13);
    let keys: Vec<K> = (0..512)
        .map(|_| K::from_u128(rng.gen::<u128>() & K::ONES.to_u128()))
        .collect();
    let want: Vec<Option<NextHop>> = keys.iter().map(|&k| Lpm::lookup(&rib, k)).collect();
    for tier in [BatchBackend::Scalar, BatchBackend::detect()] {
        let installed = t.fib.set_batch_backend(tier);
        // Two more publishes recycle snapshots that predate the switch.
        for round in 0..3 {
            if round > 0 {
                t.fib.update_batch(std::iter::empty());
            }
            let snap = assert_current(&t.fib, "backend switch");
            assert_eq!(snap.batch_backend(), installed, "{store:?} round {round}");
            let mut got = Vec::new();
            t.fib.lookup_batch(&keys, &mut got);
            assert_eq!(got, want, "{store:?} {installed:?} round {round}");
        }
    }
}

#[test]
fn set_batch_backend_survives_recycling() {
    backend_switch::<u32>(Store::Own);
    backend_switch::<u32>(Store::Group);
    backend_switch::<u128>(Store::Own);
    backend_switch::<u128>(Store::Group);
}

/// A reader pins one snapshot across 100 publishes. The snapshot never
/// changes: it answers exactly as its own version's RIB. The publish
/// that would have recycled it clones the trie instead; every other
/// publish stays incremental.
fn pinned_snapshot<K: Bits>(store: Store, seed: u64) {
    let t = table::<K>(store, true);
    let stream = churn::<K>(seed, 2_500);
    let mut bursts = stream.chunks(24);
    t.fib.update_batch(bursts.next().unwrap().iter().copied());
    settle(&t.fib);

    let pinned = t.fib.snapshot();
    let v = pinned.version();
    let rib = t.fib.with_fib(|f| f.rib().clone());
    let ranges = fresh(&rib).ranges();
    assert_eq!(pinned.ranges(), ranges);
    let mut rng = StdRng::seed_from_u64(seed);
    let keys: Vec<K> = (0..256)
        .map(|_| K::from_u128(rng.gen::<u128>() & K::ONES.to_u128()))
        .chain(stream.iter().map(|u| match u {
            RouteUpdate::Announce(p, _) | RouteUpdate::Withdraw(p) => p.first_addr(),
        }))
        .collect();

    let mut full = Vec::new();
    for i in 0..100 {
        let burst = bursts.next().unwrap_or(&[]);
        let w = work(&t.fib, |f| {
            f.update_batch(burst.iter().copied());
        });
        if w.full_copies == 1 {
            full.push(i);
        }
        assert_current(&t.fib, &format!("{store:?} publish {i}"));
        assert_eq!(pinned.version(), v);
        assert_eq!(
            pinned.ranges(),
            ranges,
            "{store:?}: pinned snapshot changed"
        );
        for &k in &keys {
            assert_eq!(
                pinned.lookup(k),
                Lpm::lookup(&rib, k),
                "{store:?} key {k:?}"
            );
        }
    }
    // Publish 0 recycles the spare, which was not pinned; publish 1 finds
    // no spare because the reader still holds the snapshot it retired.
    assert_eq!(full, [1], "{store:?}: full copies at {full:?}");
    assert_eq!(t.fib.version(), v + 100);
}

#[test]
fn pinned_snapshot_stays_exact_across_100_publishes() {
    pinned_snapshot::<u32>(Store::Own, 0x9140_0001);
    pinned_snapshot::<u32>(Store::Group, 0x9140_0002);
    pinned_snapshot::<u128>(Store::Own, 0x9140_0003);
    pinned_snapshot::<u128>(Store::Group, 0x9140_0004);
}

/// A reader holds the current snapshot across one publish, as a worker
/// that took it just before the swap does, and lets go before the next.
/// The writer keeps the retired snapshot as its spare, and the next
/// publish recycles it. That publish also releases the spare's pin
/// before it opens the new epoch, so the leaf store drains to what a
/// twin table, which no reader ever held, has pending at that publish.
fn released_before_next_publish<K: Bits>(store: Store) {
    let (t, twin) = (table::<K>(store, true), table::<K>(store, true));
    for table in [&t, &twin] {
        table.fib.update_batch(churn::<K>(17, 200));
        settle(&table.fib);
    }
    let stream = churn::<K>(18, 200);
    let mut bursts = stream.chunks(20);
    let mut publish = || {
        let burst = bursts.next().unwrap();
        twin.fib.update_batch(burst.iter().copied());
        work(&t.fib, |f| {
            f.update_batch(burst.iter().copied());
        })
    };

    let held = t.fib.snapshot();
    assert_eq!(publish().incremental, 1);
    assert_eq!(
        Arc::strong_count(&held),
        2,
        "{store:?}: the writer keeps the retired snapshot"
    );
    drop(held);
    let next = publish();
    assert_eq!((next.full_copies, next.incremental), (0, 1), "{store:?}");
    assert_eq!(
        store_stats(&t.fib).pending_blocks,
        store_stats(&twin.fib).pending_blocks,
        "{store:?}: retired extents drain at the released snapshot's turn"
    );
    assert_current(&t.fib, "after the released snapshot's turn");
    assert_eq!(publish().incremental, 1, "{store:?}");
    assert_current(&t.fib, "one publish later");
}

#[test]
fn snapshot_released_before_next_publish_is_recycled() {
    released_before_next_publish::<u32>(Store::Own);
    released_before_next_publish::<u32>(Store::Group);
    released_before_next_publish::<u128>(Store::Own);
    released_before_next_publish::<u128>(Store::Group);
}

/// A clone of a snapshot's trie outlives the snapshot: it shares the
/// snapshot's pin, so no leaf extent it resolves into is reclaimed and
/// reused while the table churns on.
fn clone_outlives_snapshot<K: Bits>(store: Store, seed: u64) {
    let t = table::<K>(store, false);
    t.fib.update_batch(churn::<K>(seed, 600));
    let snap = t.fib.snapshot();
    let clone = Poptrie::clone(&snap);
    let ranges = clone.ranges();
    drop(snap);
    let before = store_stats(&t.fib);
    for burst in churn::<K>(seed + 1, 1_200).chunks(300) {
        t.fib.update_batch(burst.iter().copied());
    }
    assert!(store_stats(&t.fib).fresh_allocs > before.fresh_allocs);
    assert_eq!(clone.ranges(), ranges, "{store:?}: the clone changed");
}

#[test]
fn clone_of_a_snapshot_stays_exact_after_it_drops() {
    clone_outlives_snapshot::<u32>(Store::Own, 0xc10e_0001);
    clone_outlives_snapshot::<u32>(Store::Group, 0xc10e_0002);
    clone_outlives_snapshot::<u128>(Store::Own, 0xc10e_0003);
    clone_outlives_snapshot::<u128>(Store::Group, 0xc10e_0004);
}

/// Publish work as a count, on a table of about 10k routes: an empty
/// publish copies nothing and a one-route publish copies under 1% of the
/// structure. Guards against a silent fall-back to full copies.
#[test]
fn publish_copies_in_proportion_to_the_burst() {
    let mut rng = StdRng::seed_from_u64(10_000);
    let mut rib: RadixTree<u32, NextHop> = RadixTree::new();
    while rib.len() < 10_000 {
        let len = rng.gen_range(8..=28u8);
        rib.insert(Prefix::new(rng.gen::<u32>(), len), rng.gen_range(1..=64u16));
    }
    let cfg = PoptrieConfig::new().build().unwrap();
    let fib = SharedFib::compile(rib, cfg);
    let memory = fib.snapshot().stats().memory_bytes;
    // Node and direct arrays per copy; the leaf slab is counted once.
    let slab = fib.snapshot().leaf_store().bytes();
    let two_copies = fib.array_bytes() - slab;

    let first = work(&fib, |f| {
        f.update_batch(std::iter::empty());
    });
    assert_eq!(first.full_copies, 1, "no spare before the first publish");
    assert_eq!(
        (fib.array_bytes() - slab) * 2,
        two_copies * 3,
        "writer, current snapshot and spare"
    );
    let empty = work(&fib, |f| {
        f.update_batch(std::iter::empty());
    });
    assert_eq!(
        empty,
        PublishStats {
            full_copies: 0,
            incremental: 1,
            bytes_copied: 0
        }
    );
    let one = work(&fib, |f| {
        f.insert("198.51.100.0/24".parse().unwrap(), 7).unwrap();
    });
    assert_eq!(one.incremental, 1);
    assert!(
        one.bytes_copied > 0 && (one.bytes_copied as usize) * 100 < memory,
        "one-route publish copied {} of {memory} bytes",
        one.bytes_copied
    );
    assert_eq!(fib.lookup(0xC633_6401), Some(7));
}

/// The allocations of one empty incremental publish on a warmed table,
/// standalone and as a tenant of a VRF group: at most one (the new
/// epoch's pin) and the same on a 10-route table as on a Tier-1-sized
/// one, so publish cost does not grow with the table. The large table is
/// churned first, so its node allocator holds many free blocks.
#[test]
fn empty_publish_allocations_do_not_grow_with_the_table() {
    let tier1 = tablegen::dataset("REAL-Tier1-A").to_rib();
    let small = RadixTree::from_routes(tier1.iter().take(10).map(|(p, &nh)| (p, nh)));
    let withdrawn: Vec<Prefix<u32>> = tier1.iter().map(|(p, _)| p).step_by(50).collect();
    let cfg = PoptrieConfig::new().build().unwrap();
    let mut counts = Vec::new();
    for (rib, withdraw) in [(small, &[][..]), (tier1, &withdrawn[..])] {
        let own = SharedFib::compile(rib.clone(), cfg);
        let group = VrfTable::shared(cfg, 1 << 20);
        let id = group.create_from(rib);
        let tenant = group.get(id).unwrap();
        for fib in [&own, &*tenant] {
            fib.update_batch(withdraw.iter().map(|&p| RouteUpdate::Withdraw(p)));
            settle(fib);
        }
        let mut n = [0; 2];
        let w = [
            work(&own, |f| {
                n[0] = allocations(|| {
                    f.update_batch(std::iter::empty());
                })
            }),
            work(&*tenant, |_| {
                n[1] = allocations(|| {
                    group.update_batch(id, std::iter::empty());
                })
            }),
        ];
        assert!(w.iter().all(|w| w.incremental == 1), "{w:?}");
        counts.push(n);
    }
    assert_eq!(
        counts[0], counts[1],
        "allocations per empty publish (own store, group tenant): 10 routes vs Tier-1"
    );
    assert!(counts[0].iter().all(|&n| n <= 1), "{counts:?}");
}

/// A RIB withdraw, the writer's first step on every withdraw, allocates
/// nothing: not on a present prefix, whose dead nodes it prunes, and not
/// on an absent one.
#[test]
fn rib_withdraw_allocates_nothing() {
    let mut rib: RadixTree<u128, NextHop> = RadixTree::new();
    let deep: Prefix<u128> = Prefix::new(0x2001_0db8 << 96, 64);
    rib.insert(Prefix::new(0x2001 << 112, 16), 1);
    rib.insert(deep, 2);
    let mut removed = None;
    let n = allocations(|| {
        removed = rib.remove(deep);
        rib.remove(Prefix::new(0x2002 << 112, 48));
    });
    assert_eq!((n, removed), (0, Some(2)));
    assert_eq!(rib.len(), 1);
    rib.check_invariants().unwrap();
}
