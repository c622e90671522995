//! Model-based churn fuzzer for the §3.5 incremental-update path.
//!
//! Deterministic adversarial announce/withdraw streams
//! ([`tablegen::churn`]) are replayed simultaneously against
//!
//! * a [`Fib`] using [`UpdateStrategy::NodeRefresh`] (the paper's
//!   node-reuse patch),
//! * a [`Fib`] using [`UpdateStrategy::SubtreeRebuild`],
//! * a plain [`RadixTree`] — the semantic oracle,
//! * a [`SharedFib`] hammered by concurrent reader threads,
//!
//! with three kinds of cross-checks interleaved into the replay:
//!
//! 1. **Targeted probes after every event**: the first/last address of
//!    the touched prefix and its two outside neighbours, plus random
//!    keys, must resolve identically on both strategies and the oracle.
//! 2. **Structural audit every `audit_every` events**:
//!    [`Poptrie::audit`] cross-checks the trie against the buddy
//!    allocators' allocation maps (liveness, aliasing, leaks, counts).
//! 3. **Full-equivalence control every `control_every` events**: the
//!    churned tries' `ranges()` must equal a from-scratch [`Builder`]
//!    compilation of the oracle RIB — complete semantic equality over
//!    the whole key space. Narrow-key configs (`u8`, `u16`) check every
//!    key exhaustively instead.
//!
//! Every stream is pinned by a seed, so a failure replays from the
//! config printed in the panic message.

use poptrie_suite::poptrie::sync::{RouteUpdate, SharedFib};
use poptrie_suite::poptrie::{Applied, PoptrieConfig, UpdateStrategy};
use poptrie_suite::rng::prelude::*;
use poptrie_suite::tablegen::{churn_stream, ChurnConfig, ChurnEvent};
use poptrie_suite::{bitops::Bits, Builder, Fib, Lpm, NextHop, Prefix, RadixTree};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Wrapping successor/predecessor within the key width.
fn step<K: Bits>(k: K, delta: i128) -> K {
    let w = K::ONES.to_u128();
    K::from_u128(k.to_u128().wrapping_add(delta as u128) & w)
}

fn random_key<K: Bits>(rng: &mut StdRng) -> K {
    K::from_u128(rng.gen::<u128>() & K::ONES.to_u128())
}

/// The keys worth probing after an event touching `p`: both ends of the
/// prefix's range and the addresses just outside it.
fn probe_keys<K: Bits>(p: Prefix<K>, rng: &mut StdRng) -> [K; 6] {
    let first = p.first_addr();
    let last = p.last_addr();
    [
        first,
        last,
        step(first, -1),
        step(last, 1),
        random_key(rng),
        // A key *inside* the prefix, uniform over its host bits.
        K::from_u128(
            first.to_u128()
                | (random_key::<K>(rng).to_u128() & !K::prefix_mask(p.len() as u32).to_u128()),
        ),
    ]
}

struct Checkpoints {
    /// Audit the allocator maps every this many events.
    audit_every: usize,
    /// Compare against a from-scratch compilation every this many events.
    control_every: usize,
    /// Exhaustively check every key of the (narrow) key space at each
    /// control point instead of relying on `ranges()` equality.
    exhaustive: bool,
}

/// Replay one seeded churn stream against both update strategies, the
/// RIB oracle, and a reader-hammered `SharedFib`, cross-checking
/// throughout. Returns the number of effective (RIB-changing) events.
fn churn_once<K: Bits>(cfg: ChurnConfig, checks: Checkpoints) -> usize {
    let stream = churn_stream::<K>(&cfg);
    let ctx = format!(
        "seed {} / {} events / s={} / {}-bit keys",
        cfg.seed,
        cfg.events,
        cfg.direct_bits,
        K::BITS
    );

    let mut oracle: RadixTree<K, NextHop> = RadixTree::new();
    let pcfg = PoptrieConfig::new()
        .direct_bits(cfg.direct_bits)
        .aggregate(false)
        .build()
        .unwrap();
    let mut refresh: Fib<K> = Fib::with_config(pcfg);
    let mut rebuild: Fib<K> = Fib::with_config(pcfg);
    rebuild.set_update_strategy(UpdateStrategy::SubtreeRebuild);
    let shared: Arc<SharedFib<K>> = Arc::new(SharedFib::with_config(pcfg));

    // Readers race every writer-published snapshot. They cannot know the
    // oracle's answer at their instant, but any torn state surfaces as an
    // out-of-range next hop or a panic inside the lookup.
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|i| {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            let max_nh = cfg.max_nh;
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0xBEEF + i));
                let mut lookups = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = random_key::<K>(&mut rng);
                    if let Some(nh) = shared.lookup(key) {
                        assert!(
                            (1..=max_nh).contains(&nh),
                            "reader saw out-of-range next hop {nh}"
                        );
                    }
                    lookups += 1;
                }
                lookups
            })
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xAD5E_7003);
    let mut effective = 0usize;
    // The SharedFib replays the same stream in bursts (one published
    // snapshot per burst, the §4.9 batching model) while the readers run.
    let mut burst: Vec<RouteUpdate<K>> = Vec::new();
    for (i, ev) in stream.iter().enumerate() {
        match *ev {
            ChurnEvent::Announce(p, nh) => {
                let old = oracle.insert(p, nh);
                let applied = refresh.insert(p, nh).unwrap();
                assert_eq!(
                    applied.previous(),
                    old,
                    "[{ctx}] Applied::previous() disagrees with the oracle at event {i}"
                );
                assert_eq!(
                    applied.changed(),
                    old != Some(nh),
                    "[{ctx}] Applied::changed() disagrees with the oracle at event {i}"
                );
                assert_eq!(rebuild.insert(p, nh).unwrap(), applied);
                burst.push(RouteUpdate::Announce(p, nh));
                if applied.changed() {
                    effective += 1;
                }
            }
            ChurnEvent::Withdraw(p) => {
                let old = oracle.remove(p);
                let applied = refresh.remove(p).unwrap();
                assert_eq!(
                    applied.previous(),
                    old,
                    "[{ctx}] Applied::previous() disagrees with the oracle at event {i}"
                );
                match applied {
                    Applied::Withdrawn(_) | Applied::Absent => {}
                    other => panic!("[{ctx}] remove returned {other:?} at event {i}"),
                }
                assert_eq!(rebuild.remove(p).unwrap(), applied);
                burst.push(RouteUpdate::Withdraw(p));
                if applied.changed() {
                    effective += 1;
                }
            }
        }
        if burst.len() >= 64 {
            shared.update_batch(burst.drain(..));
        }
        // Targeted probes around the touched prefix, on every event.
        for key in probe_keys(ev.prefix(), &mut rng) {
            let want = Lpm::lookup(&oracle, key);
            let a = refresh.lookup(key);
            let b = rebuild.lookup(key);
            assert!(
                a == want && b == want,
                "event {i} ({ev:?}) [{ctx}]: key {:#x} -> NodeRefresh {a:?}, \
                 SubtreeRebuild {b:?}, oracle {want:?}",
                key.to_u128()
            );
        }
        let n = i + 1;
        if n.is_multiple_of(checks.audit_every) {
            refresh
                .poptrie()
                .audit()
                .unwrap_or_else(|e| panic!("event {i} [{ctx}]: NodeRefresh audit: {e}"));
            rebuild
                .poptrie()
                .audit()
                .unwrap_or_else(|e| panic!("event {i} [{ctx}]: SubtreeRebuild audit: {e}"));
        }
        if n.is_multiple_of(checks.control_every) {
            check_against_fresh(
                &oracle,
                &refresh,
                &rebuild,
                &cfg,
                &checks,
                &format!("event {i}"),
            );
        }
    }

    shared.update_batch(burst.drain(..));
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        let lookups = r.join().expect("reader thread panicked");
        assert!(lookups > 0, "reader never ran");
    }

    // Final structural audit and full equivalence check.
    let ra = refresh
        .poptrie()
        .audit()
        .unwrap_or_else(|e| panic!("[{ctx}] final NodeRefresh audit: {e}"));
    let rb = rebuild
        .poptrie()
        .audit()
        .unwrap_or_else(|e| panic!("[{ctx}] final SubtreeRebuild audit: {e}"));
    assert_eq!(ra.leaves, refresh.poptrie().stats().leaves);
    assert_eq!(rb.leaves, rebuild.poptrie().stats().leaves);
    check_against_fresh(&oracle, &refresh, &rebuild, &cfg, &checks, "final");
    // After the final burst the shared FIB has seen the whole stream too.
    let snap = shared.snapshot();
    snap.check_invariants().expect("shared snapshot");
    assert_eq!(
        snap.ranges(),
        refresh.poptrie().ranges(),
        "[{ctx}] shared FIB end state diverged"
    );

    // Both strategies counted exactly the effective events.
    assert_eq!(refresh.stats().updates, effective as u64, "[{ctx}]");
    assert_eq!(rebuild.stats().updates, effective as u64, "[{ctx}]");
    effective
}

fn check_against_fresh<K: Bits>(
    oracle: &RadixTree<K, NextHop>,
    refresh: &Fib<K>,
    rebuild: &Fib<K>,
    cfg: &ChurnConfig,
    checks: &Checkpoints,
    at: &str,
) {
    let fresh: poptrie_suite::Poptrie<K> = Builder::new()
        .direct_bits(cfg.direct_bits)
        .aggregate(false)
        .build(oracle);
    if checks.exhaustive {
        // Narrow keys: walk the entire key space.
        let mut key = K::ZERO;
        loop {
            let want = Lpm::lookup(oracle, key);
            assert_eq!(
                refresh.lookup(key),
                want,
                "{at}: NodeRefresh key {:#x}",
                key.to_u128()
            );
            assert_eq!(
                rebuild.lookup(key),
                want,
                "{at}: SubtreeRebuild key {:#x}",
                key.to_u128()
            );
            assert_eq!(
                fresh.lookup(key),
                want,
                "{at}: fresh key {:#x}",
                key.to_u128()
            );
            if key == K::ONES {
                break;
            }
            key = step(key, 1);
        }
    } else {
        // ranges() enumerates every (start-of-range, next hop) boundary:
        // equality is full semantic equality over the key space.
        let want = fresh.ranges();
        assert_eq!(
            refresh.poptrie().ranges(),
            want,
            "{at}: NodeRefresh ranges diverged"
        );
        assert_eq!(
            rebuild.poptrie().ranges(),
            want,
            "{at}: SubtreeRebuild ranges diverged"
        );
    }
}

/// The acceptance run: 100k+ adversarial events on IPv4-width keys, both
/// strategies, audited throughout.
#[test]
fn churn_100k_events_u32() {
    let effective = churn_once::<u32>(
        ChurnConfig {
            seed: 0x0417_0001,
            events: 100_000,
            direct_bits: 8,
            pool: 256,
            max_nh: 13,
        },
        Checkpoints {
            audit_every: 2_000,
            control_every: 10_000,
            exhaustive: false,
        },
    );
    // The pool guarantees heavy reuse, so a large share of events must be
    // real transitions (sanity that the stream isn't degenerate).
    assert!(effective > 30_000, "only {effective} effective events");
}

/// The acceptance run for IPv6-width keys.
#[test]
fn churn_100k_events_u128() {
    let effective = churn_once::<u128>(
        ChurnConfig {
            seed: 0x0417_0002,
            events: 100_000,
            direct_bits: 8,
            pool: 256,
            max_nh: 13,
        },
        Checkpoints {
            audit_every: 2_000,
            control_every: 10_000,
            exhaustive: false,
        },
    );
    assert!(effective > 30_000, "only {effective} effective events");
}

/// Exhaustive-oracle configs: every key of the `u8` / `u16` spaces is
/// checked at every control point, so nothing hides between probes.
#[test]
fn churn_exhaustive_u8() {
    churn_once::<u8>(
        ChurnConfig {
            seed: 0x0417_0003,
            events: 20_000,
            direct_bits: 4,
            pool: 64,
            max_nh: 7,
        },
        Checkpoints {
            audit_every: 1_000,
            control_every: 2_000,
            exhaustive: true,
        },
    );
}

#[test]
fn churn_exhaustive_u16() {
    churn_once::<u16>(
        ChurnConfig {
            seed: 0x0417_0004,
            events: 10_000,
            direct_bits: 8,
            pool: 128,
            max_nh: 7,
        },
        Checkpoints {
            audit_every: 1_000,
            control_every: 2_000,
            exhaustive: true,
        },
    );
}

/// No direct pointing at all (`s = 0`): the root-node path of the patch
/// logic, which the direct-table configs never touch.
#[test]
fn churn_without_direct_pointing() {
    churn_once::<u32>(
        ChurnConfig {
            seed: 0x0417_0005,
            events: 20_000,
            direct_bits: 0,
            pool: 128,
            max_nh: 13,
        },
        Checkpoints {
            audit_every: 1_000,
            control_every: 5_000,
            exhaustive: false,
        },
    );
}

/// Multi-VRF mode: two tenants on one shared leaf store, each replaying
/// its own independently seeded churn stream against its own RIB oracle.
///
/// The point is cross-tenant interference: tenant A's announce can retire
/// an extent tenant B still references, or dedup against a block B
/// interned — the oracle probes after every event prove neither ever
/// observes the other's churn, and [`VrfTable::audit`] (which runs
/// `Poptrie::audit` on every table and reconciles the summed leaf-block
/// references against the store exactly) proves the shared store's
/// bookkeeping survives the interleaving.
#[test]
fn churn_two_vrfs_on_shared_arena() {
    use poptrie_suite::prelude::{VrfId, VrfTable};

    let pcfg = PoptrieConfig::new()
        .direct_bits(8)
        .aggregate(false)
        .build()
        .unwrap();
    let vrfs: VrfTable<u32> = VrfTable::shared(pcfg, 1 << 18);

    let cfgs = [
        ChurnConfig {
            seed: 0x0417_0007,
            events: 8_000,
            direct_bits: 8,
            pool: 128,
            max_nh: 13,
        },
        ChurnConfig {
            seed: 0x0417_0008,
            events: 8_000,
            direct_bits: 8,
            pool: 128,
            max_nh: 13,
        },
    ];
    let streams: Vec<Vec<ChurnEvent<u32>>> = cfgs.iter().map(churn_stream).collect();
    let ids = [vrfs.create(), vrfs.create()];
    assert_eq!(ids, [VrfId::new(0), VrfId::new(1)]);
    let mut oracles: [RadixTree<u32, NextHop>; 2] = [RadixTree::new(), RadixTree::new()];

    let mut rng = StdRng::seed_from_u64(0x0417_0009);
    for i in 0..streams[0].len().max(streams[1].len()) {
        // Interleave the tenants event by event so retire/intern races on
        // the shared store actually happen.
        for t in 0..2 {
            let Some(ev) = streams[t].get(i) else {
                continue;
            };
            match *ev {
                ChurnEvent::Announce(p, nh) => {
                    oracles[t].insert(p, nh);
                    vrfs.update_batch(ids[t], [RouteUpdate::Announce(p, nh)])
                        .expect("known VrfId");
                }
                ChurnEvent::Withdraw(p) => {
                    oracles[t].remove(p);
                    vrfs.update_batch(ids[t], [RouteUpdate::Withdraw(p)])
                        .expect("known VrfId");
                }
            }
            // Probe BOTH tenants around the touched prefix: the churned
            // one must track its oracle, the other must be unaffected.
            for key in probe_keys(ev.prefix(), &mut rng) {
                for u in 0..2 {
                    let want = Lpm::lookup(&oracles[u], key);
                    let got = vrfs.snapshot(ids[u]).unwrap().lookup(key);
                    assert_eq!(
                        got, want,
                        "event {i}, tenant {t} churned, tenant {u} probed: key {key:#x}"
                    );
                }
            }
        }
        if (i + 1).is_multiple_of(1_000) {
            vrfs.audit()
                .unwrap_or_else(|e| panic!("group audit after event {i}: {e}"));
        }
    }

    // End state: both tenants oracle-exact over their ranges, group audit
    // (per-table Poptrie::audit + exact store reconciliation) green.
    vrfs.audit().expect("final group audit");
    for t in 0..2 {
        let fresh: poptrie_suite::Poptrie<u32> = Builder::new()
            .direct_bits(8)
            .aggregate(false)
            .build(&oracles[t]);
        let got = vrfs.get(ids[t]).unwrap().with_fib(|f| f.poptrie().ranges());
        assert_eq!(got, fresh.ranges(), "tenant {t} end state diverged");
    }
    let stats = vrfs.intern_stats().expect("shared mode");
    assert!(stats.dedup_hits > 0, "two tenants never shared an extent");
}

/// The paper's production setting `s = 18`: short prefixes span many
/// direct slots, so each /0–/17 event patches a slot *range*. Fewer
/// events keep the quadratic-ish slot fan-out affordable.
#[test]
fn churn_wide_direct_table_s18() {
    churn_once::<u32>(
        ChurnConfig {
            seed: 0x0417_0006,
            events: 1_500,
            direct_bits: 18,
            pool: 96,
            max_nh: 13,
        },
        Checkpoints {
            audit_every: 250,
            control_every: 500,
            exhaustive: false,
        },
    );
}
