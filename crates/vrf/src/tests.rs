use poptrie::config::PoptrieConfig;
use poptrie::sync::{RouteUpdate, SharedFib};
use poptrie::{Builder, Poptrie, VrfId};
use poptrie_rib::{NextHop, Prefix, RadixTree};
use poptrie_rng::prelude::*;

use crate::VrfTable;

fn p4(s: &str) -> Prefix<u32> {
    s.parse().unwrap()
}

fn cfg() -> PoptrieConfig {
    PoptrieConfig::new().direct_bits(12).build().unwrap()
}

/// A deterministic pseudo-BGP table: `n` random prefixes of plausible
/// lengths with next hops from a small pool (few distinct hops is the
/// realistic regime — and what leaf interning thrives on).
fn random_rib(rng: &mut StdRng, n: usize, max_nh: u16) -> RadixTree<u32, NextHop> {
    let mut rib = RadixTree::new();
    while rib.len() < n {
        let len = rng.gen_range(8..=28u32) as u8;
        let addr: u32 = rng.gen::<u32>() & (!0u32 << (32 - len as u32));
        rib.insert(
            Prefix::new(addr, len),
            rng.gen_range(1..=max_nh as u32) as NextHop,
        );
    }
    rib
}

/// Tenants cloned from one base feed must deduplicate almost all of their
/// leaf storage, and every tenant must agree on every lookup with a table
/// that has a leaf store of its own.
#[test]
fn cloned_tenants_dedup_and_agree_with_private() {
    let mut rng = StdRng::seed_from_u64(7);
    let base = random_rib(&mut rng, 2_000, 12);

    let shared: VrfTable<u32> = VrfTable::shared(cfg(), 1 << 20);
    let private = SharedFib::compile(base.clone(), cfg());
    const TENANTS: usize = 8;
    for _ in 0..TENANTS {
        shared.create_from(base.clone());
    }

    let stats = shared.intern_stats().unwrap();
    assert!(
        stats.dedup_hits as f64 >= 0.85 * (TENANTS - 1) as f64 * stats.fresh_allocs as f64,
        "clones should intern into the first tenant's extents: {stats:?}"
    );

    for _ in 0..20_000 {
        let key: u32 = rng.gen();
        for i in 0..TENANTS as u32 {
            assert_eq!(
                shared.get(VrfId::new(i)).unwrap().lookup(key),
                private.lookup(key)
            );
        }
    }

    let sm = shared.memory();
    assert_eq!(sm.routes, TENANTS * base.len());
    assert!(sm.shared_used_bytes < sm.unshared_leaf_bytes / 2);
    shared.audit().unwrap();
    private.with_fib(|f| f.poptrie().audit()).unwrap();
}

/// Churning one tenant must leave every other tenant's published snapshot
/// (and version) untouched, with the cross-table reference audit exact
/// throughout.
#[test]
fn churn_isolation_across_tenants() {
    let mut rng = StdRng::seed_from_u64(8);
    let base = random_rib(&mut rng, 1_000, 8);
    let vrfs: VrfTable<u32> = VrfTable::shared(cfg(), 1 << 20);
    let a = vrfs.create_from(base.clone());
    let b = vrfs.create_from(base.clone());

    let b_before = vrfs.snapshot(b).unwrap();
    let probes: Vec<u32> = (0..5_000).map(|_| rng.gen()).collect();
    let b_answers: Vec<_> = probes.iter().map(|&k| b_before.lookup(k)).collect();

    // Oracle for tenant A: mirror its churn into a plain RadixTree.
    let mut oracle = base.clone();
    for round in 0..20 {
        let updates: Vec<RouteUpdate<u32>> = (0..50)
            .map(|_| {
                let len = rng.gen_range(8..=28u32) as u8;
                let addr: u32 = rng.gen::<u32>() & (!0u32 << (32 - len as u32));
                let p = Prefix::new(addr, len);
                if rng.gen_bool(0.7) {
                    RouteUpdate::Announce(p, rng.gen_range(1..=8u32) as NextHop)
                } else {
                    RouteUpdate::Withdraw(p)
                }
            })
            .collect();
        for u in &updates {
            match *u {
                RouteUpdate::Announce(p, nh) => {
                    oracle.insert(p, nh);
                }
                RouteUpdate::Withdraw(p) => {
                    oracle.remove(p);
                }
            }
        }
        vrfs.update_batch(a, updates).unwrap();
        if round % 5 == 4 {
            vrfs.audit().unwrap();
        }
    }

    // Tenant B: same snapshot object still current, same answers.
    let b_after = vrfs.snapshot(b).unwrap();
    assert_eq!(b_before.version(), b_after.version());
    for (&k, &expect) in probes.iter().zip(&b_answers) {
        assert_eq!(b_after.lookup(k), expect, "tenant B perturbed at {k:#x}");
    }

    // Tenant A: oracle-exact after the churn.
    let a_snap = vrfs.snapshot(a).unwrap();
    for &k in &probes {
        assert_eq!(a_snap.lookup(k), oracle.lookup(k).copied());
    }
    vrfs.audit().unwrap();
}

/// Retired extents stay pinned while an old snapshot is alive and are
/// reclaimed once it drops and a new epoch turns.
#[test]
fn epoch_reclamation_waits_for_snapshots() {
    let mut rng = StdRng::seed_from_u64(9);
    let base = random_rib(&mut rng, 1_500, 6);
    let vrfs: VrfTable<u32> = VrfTable::shared(cfg(), 1 << 20);
    let a = vrfs.create_from(base);

    let pinned = vrfs.snapshot(a).unwrap();

    // Replace a spread of routes so leaf blocks are retired.
    let updates: Vec<RouteUpdate<u32>> = (0..400)
        .map(|i| RouteUpdate::Announce(Prefix::new((i as u32) << 20, 12), 5))
        .collect();
    vrfs.update_batch(a, updates).unwrap();

    let held = vrfs.intern_stats().unwrap();
    assert!(
        held.pending_blocks > 0,
        "churn under a pinned snapshot should retire extents: {held:?}"
    );

    drop(pinned);
    // The next publish turns the epoch and collects.
    vrfs.update_batch(a, [RouteUpdate::Announce(p4("10.0.0.0/8"), 1)])
        .unwrap();
    // The pre-churn epoch guard is dead; only the current snapshot pins.
    let after = vrfs.intern_stats().unwrap();
    assert!(
        after.pending_blocks < held.pending_blocks,
        "reclamation should drain once the old snapshot dropped: {held:?} -> {after:?}"
    );
    vrfs.audit().unwrap();
}

/// A two-tenant group starting at 64 slots grows several times under
/// one tenant's churn. Snapshots pinned before the growth stay exact; the
/// untouched tenant keeps serving from the old slab until its own update
/// interns a block, and then serves from the new one.
#[test]
fn store_grows_under_pinned_snapshots() {
    let mut rng = StdRng::seed_from_u64(10);
    let vrfs: VrfTable<u32> = VrfTable::shared(cfg(), 64);
    let (a, b) = (vrfs.create(), vrfs.create());
    vrfs.update_batch(a, [RouteUpdate::Announce(p4("10.0.0.0/16"), 1)]);
    vrfs.update_batch(b, [RouteUpdate::Announce(p4("10.1.0.0/16"), 2)]);
    let small = vrfs.intern_stats().unwrap().capacity;
    assert_eq!(small, 64);
    let pinned = [vrfs.snapshot(a).unwrap(), vrfs.snapshot(b).unwrap()];
    let ranges: Vec<_> = pinned.iter().map(|s| s.ranges()).collect();

    let mut oracle = RadixTree::new();
    oracle.insert(p4("10.0.0.0/16"), 1);
    let churn = random_rib(&mut rng, 2_000, 64);
    let announces: Vec<_> = churn.iter().map(|(p, &nh)| (p, nh)).collect();
    for chunk in announces.chunks(250) {
        for &(p, nh) in chunk {
            oracle.insert(p, nh);
        }
        vrfs.update_batch(a, chunk.iter().map(|&(p, nh)| RouteUpdate::Announce(p, nh)));
    }
    let grown = vrfs.intern_stats().unwrap().capacity;
    assert!(
        grown >= small << 3,
        "the store grew {small} -> {grown} slots"
    );

    for (snap, want) in pinned.iter().zip(&ranges) {
        assert_eq!(&snap.ranges(), want, "a pinned snapshot changed");
    }
    let untouched = vrfs.snapshot(b).unwrap();
    assert_eq!(untouched.leaf_store().slots(), small as usize);
    assert_eq!(untouched.ranges(), ranges[1]);
    let snap_a = vrfs.snapshot(a).unwrap();
    assert_eq!(snap_a.leaf_store().slots(), grown as usize);
    for _ in 0..20_000 {
        let key: u32 = rng.gen();
        assert_eq!(snap_a.lookup(key), oracle.lookup(key).copied());
    }

    vrfs.update_batch(b, [RouteUpdate::Announce(p4("192.0.2.0/24"), 3)]);
    let updated = vrfs.snapshot(b).unwrap();
    assert_eq!(updated.leaf_store().slots(), grown as usize);
    assert_eq!(updated.lookup(0xC000_0201), Some(3));
    assert_eq!(updated.lookup(0x0A01_0001), Some(2));
    vrfs.audit().unwrap();
}

/// A tenant's blob carries its group's slab, so a tenant round-trips
/// through `to_bytes`/`from_bytes` with equal ranges.
#[test]
fn tenant_round_trips_through_bytes() {
    let mut rng = StdRng::seed_from_u64(11);
    let vrfs: VrfTable<u32> = VrfTable::shared(cfg(), 1 << 12);
    let base = random_rib(&mut rng, 1_000, 8);
    let ids = [vrfs.create_from(base.clone()), vrfs.create_from(base)];
    vrfs.update_batch(ids[1], [RouteUpdate::Announce(p4("10.0.0.0/8"), 7)]);
    for id in ids {
        let snap = vrfs.snapshot(id).unwrap();
        let loaded = Poptrie::<u32>::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(loaded.ranges(), snap.ranges());
    }
}

/// Readers race `create_from` across three registry segments. Each sees
/// `len` only grow, and every id below a length it loaded resolves,
/// without a lock, to the table created under that id.
#[test]
fn len_is_lock_free_monotone_and_every_id_below_it_resolves() {
    const TABLES: usize = 200;
    let hop = |i: usize| (i % 7 + 1) as NextHop;
    let vrfs = std::sync::Arc::new(VrfTable::<u32>::shared(cfg(), 1 << 12));
    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|r| {
            let vrfs = std::sync::Arc::clone(&vrfs);
            let done = std::sync::Arc::clone(&done);
            std::thread::spawn(move || {
                let mut last = 0;
                let mut seen = 0u64;
                loop {
                    let finished = done.load(std::sync::atomic::Ordering::Acquire);
                    let len = vrfs.len();
                    assert!(len >= last, "len went from {last} to {len}");
                    if len > 0 {
                        // The newest id is the one a racing create just
                        // published; the reader also sweeps the ids it
                        // has not checked yet.
                        let newest = VrfId::new((len - 1) as u32);
                        assert!(vrfs.get(newest).is_some(), "id {} below len {len}", len - 1);
                        assert!(vrfs.snapshot(newest).is_some());
                        let sweep = if r == 0 { last..len } else { len - 1..len };
                        for i in sweep {
                            let t = vrfs.tenant(VrfId::new(i as u32));
                            let t = t.unwrap_or_else(|| panic!("id {i} below len {len}"));
                            assert_eq!(t.lookup(0x0A00_0001), Some(hop(i)), "id {i}");
                        }
                        seen += 1;
                    }
                    last = len;
                    if finished {
                        return (last, seen);
                    }
                }
            })
        })
        .collect();
    for i in 0..TABLES {
        let mut rib = RadixTree::new();
        rib.insert(p4("10.0.0.0/8"), hop(i));
        assert_eq!(vrfs.create_from(rib), VrfId::new(i as u32));
    }
    done.store(true, std::sync::atomic::Ordering::Release);
    for r in readers {
        let (last, seen) = r.join().unwrap();
        assert_eq!(last, TABLES);
        assert!(seen > 0);
    }
    for i in 0..TABLES {
        assert!(vrfs.get(VrfId::new(i as u32)).is_some());
    }
    assert!(vrfs.tenant(VrfId::new(TABLES as u32)).is_none());
    assert!(vrfs.tenant(VrfId::new(u32::MAX)).is_none());
}

/// One writer burst over the tenants `ids`, whose RIBs are `ribs`: each
/// withdraws the same `shared` prefixes, then announces 20 fresh routes
/// of its own. The updates arrive round-robin over the tenants, as the
/// engine's churn delivers them, and are applied to `ribs` too. Returns
/// the burst and how many of its updates change a RIB.
fn round_robin(
    rng: &mut StdRng,
    ids: &[VrfId],
    ribs: &mut [RadixTree<u32, NextHop>],
    shared: &[Prefix<u32>],
) -> (Vec<(VrfId, RouteUpdate<u32>)>, usize) {
    let mut changed = 0;
    let per: Vec<Vec<RouteUpdate<u32>>> = ribs
        .iter_mut()
        .map(|rib| {
            let mut updates: Vec<RouteUpdate<u32>> =
                shared.iter().map(|&p| RouteUpdate::Withdraw(p)).collect();
            for _ in 0..20 {
                let len = rng.gen_range(8..=28u32) as u8;
                let p = Prefix::new(rng.gen::<u32>() & (!0u32 << (32 - len as u32)), len);
                updates.push(RouteUpdate::Announce(p, rng.gen_range(1..=6u32) as NextHop));
            }
            for u in &updates {
                changed += usize::from(match *u {
                    RouteUpdate::Announce(p, nh) => rib.insert(p, nh) != Some(nh),
                    RouteUpdate::Withdraw(p) => rib.remove(p).is_some(),
                });
            }
            updates
        })
        .collect();
    let burst = (0..per[0].len())
        .flat_map(|j| ids.iter().zip(&per).map(move |(&id, u)| (id, u[j])))
        .collect();
    (burst, changed)
}

/// A writer burst over k tenants opens one store epoch and publishes each
/// tenant once. The first tenant's snapshot, published before the others
/// release the extents the tenants share, stays exact through the
/// burst's collect and through later bursts that retire what it reads.
/// Once the burst's snapshots are retired and dropped, the store's
/// pending blocks fall back to those of a twin group that saw the same
/// bursts and no reader.
#[test]
fn burst_opens_one_epoch_and_publishes_each_tenant_once() {
    const K: usize = 4;
    let mut rng = StdRng::seed_from_u64(12);
    let base = random_rib(&mut rng, 1_500, 6);
    let (vrfs, twin): (VrfTable<u32>, VrfTable<u32>) = (
        VrfTable::shared(cfg(), 1 << 16),
        VrfTable::shared(cfg(), 1 << 16),
    );
    let ids: Vec<VrfId> = (0..K).map(|_| vrfs.create_from(base.clone())).collect();
    for _ in 0..K {
        twin.create_from(base.clone());
    }
    // Two empty publishes per tenant leave each a spare, so the bursts
    // recycle snapshots rather than copy them.
    for group in [&vrfs, &twin] {
        for &id in &ids {
            group.update_batch(id, []);
            group.update_batch(id, []);
        }
    }
    let mut ribs = vec![base.clone(); K];
    let prefixes: Vec<Prefix<u32>> = base.iter().map(|(p, _)| p).collect();
    let mut round = 0;
    let mut burst = |rng: &mut StdRng, ribs: &mut [RadixTree<u32, NextHop>]| {
        let shared = &prefixes[round * 60..][..60];
        round += 1;
        let (mut b, changed) = round_robin(rng, &ids, ribs, shared);
        let mut b_twin = b.clone();
        assert_eq!(vrfs.update_burst(&mut b), changed);
        assert_eq!(twin.update_burst(&mut b_twin), changed);
        assert!(b.windows(2).all(|w| w[0].0 <= w[1].0), "grouped by tenant");
    };
    let version = |id| vrfs.tenant(id).unwrap().version();
    let pending = |v: &VrfTable<u32>| v.intern_stats().unwrap().pending_blocks;

    let epoch = vrfs.intern_stats().unwrap().epoch;
    let versions: Vec<u64> = ids.iter().map(|&id| version(id)).collect();
    burst(&mut rng, &mut ribs);
    assert_eq!(vrfs.intern_stats().unwrap().epoch, epoch + 1, "one epoch");
    for (t, &id) in ids.iter().enumerate() {
        assert_eq!(version(id), versions[t] + 1, "tenant {t}: one publish");
    }
    assert!(pending(&vrfs) > 0, "the burst retired shared extents");

    // Tenant 0 published first, then the others released the extents
    // they shared with it, and the burst collected.
    let first = vrfs.snapshot(ids[0]).unwrap();
    let first_rib = ribs[0].clone();
    let keys: Vec<u32> = (0..4_000)
        .map(|_| rng.gen())
        .chain(prefixes.iter().map(|p| p.first_addr()))
        .collect();
    let exact = |at: &str| {
        for &k in &keys {
            assert_eq!(
                first.lookup(k),
                first_rib.lookup(k).copied(),
                "{at}: key {k:#x}"
            );
        }
    };
    exact("after its burst");

    // Every tenant, tenant 0 included, withdraws more of the base: the
    // extents `first` reads retire, and its pin alone holds them.
    for later in 1..=3 {
        burst(&mut rng, &mut ribs);
        exact(&format!("{later} bursts later"));
    }
    for (t, rib) in ribs.iter().enumerate() {
        let snap = vrfs.snapshot(ids[t]).unwrap();
        for &k in &keys {
            assert_eq!(
                snap.lookup(k),
                rib.lookup(k).copied(),
                "tenant {t}: key {k:#x}"
            );
        }
    }
    assert!(
        pending(&vrfs) > pending(&twin),
        "`first` holds retired extents"
    );
    drop(first);
    burst(&mut rng, &mut ribs);
    assert_eq!(
        pending(&vrfs),
        pending(&twin),
        "drained to the twin's level"
    );
    vrfs.audit().unwrap();
    twin.audit().unwrap();
}

/// The VPN regime: 1024 tenants share a base feed of 12 groups of 64
/// /26es (each group one full 64-leaf block) and add 12 private /26es
/// each. Against the same tenants with unshared leaves, interning cuts
/// bytes/route by at least a quarter, with the store sized for churn.
#[test]
fn interning_cuts_bytes_per_route_by_a_quarter() {
    const TENANTS: usize = 1024;
    let mut rng = StdRng::seed_from_u64(0x7e4a_11f0);
    let mut base = RadixTree::new();
    for phase in 0..12 {
        let g: u32 = rng.gen::<u32>() & (!0u32 << 12);
        for i in 0..64u32 {
            let nh = ((i + phase) % 8 + 1) as NextHop;
            base.insert(Prefix::new(g | (i << 6), 26), nh);
        }
    }
    let ribs: Vec<RadixTree<u32, NextHop>> = (0..TENANTS)
        .map(|_| {
            let mut rib = base.clone();
            for _ in 0..12 {
                let p = Prefix::new(rng.gen::<u32>() & (!0u32 << 6), 26);
                rib.insert(p, rng.gen_range(1..=64u32) as NextHop);
            }
            rib
        })
        .collect();
    let config = PoptrieConfig::new().direct_bits(8).build().unwrap();
    let tenant: Poptrie<u32> = Builder::from_config(&config).build(&ribs[0]);
    let leaves = tenant.stats().leaves;
    let slots = (leaves * 4 + TENANTS * 12 * 8 + (1 << 17)).next_power_of_two();
    let vrfs: VrfTable<u32> = VrfTable::shared(config, slots as u32);
    for rib in ribs {
        vrfs.create_from(rib);
    }
    let sm = vrfs.memory();
    let unshared = sm.node_bytes + sm.direct_bytes + sm.unshared_leaf_bytes;
    let reduction = 1.0 - sm.total_bytes() as f64 / unshared as f64;
    assert!(reduction >= 0.25, "bytes/route fell by {reduction:.3}");
    assert!(vrfs.intern_stats().unwrap().dedup_hits > 0);
    vrfs.audit().unwrap();
}

/// A tenant that never publishes holds none of the extents the others
/// retire. With no outside snapshot held, 30 bursts over two tenants and
/// then two empty publishes per churned tenant leave nothing pending,
/// and every tenant, the idle one too, still answers like its RIB.
#[test]
fn idle_tenant_does_not_hold_retired_extents() {
    let mut rng = StdRng::seed_from_u64(13);
    let base = random_rib(&mut rng, 1_500, 6);
    let vrfs: VrfTable<u32> = VrfTable::shared(cfg(), 1 << 16);
    let ids: Vec<VrfId> = (0..2).map(|_| vrfs.create_from(base.clone())).collect();
    let idle = vrfs.create_from(base.clone());
    let mut ribs = vec![base.clone(); 2];
    let prefixes: Vec<Prefix<u32>> = base.iter().map(|(p, _)| p).collect();
    for shared in prefixes.chunks(40).take(30) {
        let (mut burst, _) = round_robin(&mut rng, &ids, &mut ribs, shared);
        vrfs.update_burst(&mut burst);
    }
    for &id in &ids {
        vrfs.update_batch(id, []);
        vrfs.update_batch(id, []);
    }
    let stats = vrfs.intern_stats().unwrap();
    assert_eq!(stats.pending_blocks, 0, "{stats:?}");
    ribs.push(base);
    for (id, rib) in ids.into_iter().chain([idle]).zip(&ribs) {
        let snap = vrfs.snapshot(id).unwrap();
        for _ in 0..4_000 {
            let k: u32 = rng.gen();
            assert_eq!(snap.lookup(k), rib.lookup(k).copied(), "{id:?} at {k:#x}");
        }
    }
    vrfs.audit().unwrap();
}
