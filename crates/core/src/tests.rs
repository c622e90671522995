use crate::sync::{FibSnapshot, RouteUpdate, SharedFib};
use crate::{Applied, Builder, Fib, LeafStore, Poptrie, PoptrieBasic, PoptrieConfig};
use poptrie_rib::LinearLpm;
use poptrie_rib::{Lpm, Prefix, RadixTree};
use poptrie_rng::prelude::*;

fn p4(s: &str) -> Prefix<u32> {
    s.parse().unwrap()
}

/// The config most tests want: direct-pointing size `s`, no aggregation
/// (so incremental patches can be compared against full rebuilds).
fn cfg(s: u8) -> PoptrieConfig {
    PoptrieConfig::new()
        .direct_bits(s)
        .aggregate(false)
        .build()
        .unwrap()
}

/// A random BGP-shaped table over `u32` keys.
fn random_v4_table(rng: &mut StdRng, n: usize) -> RadixTree<u32, u16> {
    let mut t = RadixTree::new();
    while t.len() < n {
        let len = *[8u8, 12, 16, 18, 20, 22, 24, 24, 24, 28, 32]
            .choose(rng)
            .unwrap();
        let addr: u32 = rng.gen();
        let nh = rng.gen_range(1..=64u16);
        t.insert(Prefix::new(addr, len), nh);
    }
    t
}

/// A random table over the exhaustive-checkable `u16` key space.
fn random_v16_table(rng: &mut StdRng, n: usize) -> RadixTree<u16, u16> {
    let mut t = RadixTree::new();
    for _ in 0..n {
        let len = rng.gen_range(0..=16u8);
        let addr: u16 = rng.gen();
        t.insert(Prefix::new(addr, len), rng.gen_range(1..=8u16));
    }
    t
}

mod build {
    use super::*;

    #[test]
    fn empty_table_lookups_none() {
        let rib: RadixTree<u32, u16> = RadixTree::new();
        for s in [0u8, 8, 16, 18] {
            let t: Poptrie = Builder::new().direct_bits(s).build(&rib);
            assert_eq!(t.lookup(0), None, "s={s}");
            assert_eq!(t.lookup(u32::MAX), None, "s={s}");
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn single_default_route() {
        let mut rib: RadixTree<u32, u16> = RadixTree::new();
        rib.insert(p4("0.0.0.0/0"), 5);
        for s in [0u8, 16, 18] {
            let t: Poptrie = Builder::new().direct_bits(s).build(&rib);
            assert_eq!(t.lookup(0), Some(5));
            assert_eq!(t.lookup(0xDEAD_BEEF), Some(5));
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn basic_example_all_s() {
        let mut rib: RadixTree<u32, u16> = RadixTree::new();
        rib.insert(p4("10.0.0.0/8"), 1);
        rib.insert(p4("10.64.0.0/16"), 2);
        rib.insert(p4("192.0.2.0/24"), 3);
        rib.insert(p4("192.0.2.128/25"), 4);
        rib.insert(p4("203.0.113.7/32"), 5);
        for s in [0u8, 6, 12, 16, 18, 20] {
            let t: Poptrie = Builder::new().direct_bits(s).build(&rib);
            assert_eq!(t.lookup(0x0A00_0001), Some(1), "s={s}");
            assert_eq!(t.lookup(0x0A40_0001), Some(2), "s={s}");
            assert_eq!(t.lookup(0x0A41_0001), Some(1), "s={s}");
            assert_eq!(t.lookup(0xC000_0201), Some(3), "s={s}");
            assert_eq!(t.lookup(0xC000_02FF), Some(4), "s={s}");
            assert_eq!(t.lookup(0xCB00_7107), Some(5), "s={s}");
            assert_eq!(t.lookup(0xCB00_7108), None, "s={s}");
            assert_eq!(t.lookup(0x0B00_0001), None, "s={s}");
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn host_route_at_max_depth() {
        // /31 and /32 prefixes live past the last full 6-bit chunk when
        // s = 18 (offsets 18, 24, 30): exercises the zero-padded extract.
        let mut rib: RadixTree<u32, u16> = RadixTree::new();
        rib.insert(p4("198.51.100.42/32"), 9);
        rib.insert(p4("198.51.100.40/31"), 8);
        for s in [0u8, 16, 18] {
            let t: Poptrie = Builder::new().direct_bits(s).build(&rib);
            assert_eq!(t.lookup(0xC633_642A), Some(9), "s={s}");
            assert_eq!(t.lookup(0xC633_6428), Some(8), "s={s}");
            assert_eq!(t.lookup(0xC633_6429), Some(8), "s={s}");
            assert_eq!(t.lookup(0xC633_642B), None, "s={s}");
        }
    }

    #[test]
    fn exhaustive_u16_against_radix() {
        let mut rng = StdRng::seed_from_u64(1);
        for round in 0..30 {
            let rib = random_v16_table(&mut rng, 50);
            for s in [0u8, 4, 7, 12] {
                let agg = round % 2 == 0;
                let t: Poptrie<u16> = Builder::new().direct_bits(s).aggregate(agg).build(&rib);
                t.check_invariants().unwrap();
                for key in 0..=u16::MAX {
                    assert_eq!(
                        t.lookup(key),
                        rib.lookup(key).copied(),
                        "round={round} s={s} agg={agg} key={key:#06x}"
                    );
                }
            }
        }
    }

    #[test]
    fn exhaustive_u16_basic_variant() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let rib = random_v16_table(&mut rng, 60);
            let t: PoptrieBasic<u16> = Builder::new().direct_bits(7).build(&rib);
            t.check_invariants().unwrap();
            for key in 0..=u16::MAX {
                assert_eq!(t.lookup(key), rib.lookup(key).copied());
            }
        }
    }

    #[test]
    fn random_u32_against_radix() {
        let mut rng = StdRng::seed_from_u64(3);
        let rib = random_v4_table(&mut rng, 5000);
        for s in [0u8, 16, 18] {
            let t: Poptrie = Builder::new().direct_bits(s).build(&rib);
            t.check_invariants().unwrap();
            // Probe pure-random keys plus neighborhoods of every prefix
            // (boundary addresses are where off-by-one bugs live).
            for _ in 0..20_000 {
                let key: u32 = rng.gen();
                assert_eq!(t.lookup(key), rib.lookup(key).copied(), "s={s}");
            }
            for (p, _) in rib.iter() {
                for delta in [0u32, 1, 0xFF] {
                    let key = p.addr().wrapping_add(delta);
                    assert_eq!(t.lookup(key), rib.lookup(key).copied(), "s={s}");
                    let below = p.addr().wrapping_sub(1);
                    assert_eq!(t.lookup(below), rib.lookup(below).copied(), "s={s}");
                }
            }
        }
    }

    #[test]
    fn ipv6_basic() {
        let mut rib: RadixTree<u128, u16> = RadixTree::new();
        rib.insert("2001:db8::/32".parse().unwrap(), 1);
        rib.insert("2001:db8:0:1::/64".parse().unwrap(), 2);
        rib.insert("::/0".parse().unwrap(), 3);
        rib.insert("2001:db8::42/128".parse().unwrap(), 4);
        for s in [0u8, 16, 18] {
            let t: Poptrie<u128> = Builder::new().direct_bits(s).build(&rib);
            t.check_invariants().unwrap();
            let k64 = 0x2001_0db8_0000_0001_dead_beef_0000_0001u128;
            let k32 = 0x2001_0db8_ffff_0000_0000_0000_0000_0001u128;
            let khost = 0x2001_0db8_0000_0000_0000_0000_0000_0042u128;
            assert_eq!(t.lookup(k64), Some(2), "s={s}");
            assert_eq!(t.lookup(k32), Some(1), "s={s}");
            assert_eq!(t.lookup(khost), Some(4), "s={s}");
            assert_eq!(t.lookup(1u128), Some(3), "s={s}");
        }
    }

    #[test]
    fn names_follow_paper_convention() {
        let rib: RadixTree<u32, u16> = RadixTree::new();
        let t: Poptrie = Builder::new().direct_bits(18).build(&rib);
        assert_eq!(Lpm::<u32>::name(&t), "Poptrie18");
        let t: Poptrie = Builder::new().direct_bits(0).build(&rib);
        assert_eq!(Lpm::<u32>::name(&t), "Poptrie0");
        let t: PoptrieBasic = Builder::new().direct_bits(16).build(&rib);
        assert_eq!(Lpm::<u32>::name(&t), "PoptrieBasic16");
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn oversized_direct_bits_panics() {
        let _ = Builder::<u32, crate::Node24>::new().direct_bits(25);
    }
}

mod compression {
    use super::*;

    #[test]
    fn leafvec_compresses_leaves_dramatically() {
        // §4.3: "reduces more than 90% of leaves". A shorter prefix
        // expanded across a 64-slot node is exactly the redundancy leafvec
        // removes; on a BGP-shaped table the reduction is large.
        let mut rng = StdRng::seed_from_u64(4);
        let rib = random_v4_table(&mut rng, 20_000);
        let basic: PoptrieBasic = Builder::new().direct_bits(16).aggregate(false).build(&rib);
        let leafvec: Poptrie = Builder::new().direct_bits(16).aggregate(false).build(&rib);
        let (b, l) = (basic.stats(), leafvec.stats());
        assert_eq!(b.inodes, l.inodes, "leafvec must not change the tree shape");
        assert!(
            (l.leaves as f64) < (b.leaves as f64) * 0.10,
            "expected >90% leaf reduction, got {} -> {}",
            b.leaves,
            l.leaves
        );
    }

    #[test]
    fn aggregation_reduces_size() {
        // Many prefixes share few next hops => aggregation merges heavily.
        let mut rng = StdRng::seed_from_u64(5);
        let mut rib: RadixTree<u32, u16> = RadixTree::new();
        // Dense blocks: each /20 is fully populated by its 16 /24s, most
        // sharing one next hop — the "subtree without any gap" that §3's
        // aggregation merges.
        for _ in 0..1000 {
            let block = Prefix::new(rng.gen(), 20);
            let nh = rng.gen_range(1..=4u16);
            for sub in block.split(4) {
                rib.insert(sub, nh);
            }
        }
        let plain: Poptrie = Builder::new().direct_bits(16).aggregate(false).build(&rib);
        let agg: Poptrie = Builder::new().direct_bits(16).aggregate(true).build(&rib);
        assert!(agg.stats().memory_bytes < plain.stats().memory_bytes);
        let mut rng2 = StdRng::seed_from_u64(6);
        for _ in 0..20_000 {
            let key: u32 = rng2.gen();
            assert_eq!(plain.lookup(key), agg.lookup(key));
        }
    }

    #[test]
    fn stats_memory_accounting() {
        let mut rib: RadixTree<u32, u16> = RadixTree::new();
        rib.insert(p4("10.0.0.0/8"), 1);
        let t: Poptrie = Builder::new().direct_bits(16).build(&rib);
        let st = t.stats();
        assert_eq!(st.direct_slots, 1 << 16);
        assert_eq!(
            st.memory_bytes,
            st.inodes * 24 + st.leaves * 2 + st.direct_slots * 4
        );
        let tb: PoptrieBasic = Builder::new().direct_bits(16).build(&rib);
        let stb = tb.stats();
        assert_eq!(
            stb.memory_bytes,
            stb.inodes * 16 + stb.leaves * 2 + stb.direct_slots * 4
        );
    }

    #[test]
    fn direct_pointing_resolves_short_prefixes_without_nodes() {
        // With s = 18 a pure-/16 table needs no internal nodes at all.
        let mut rib: RadixTree<u32, u16> = RadixTree::new();
        for i in 0..100u32 {
            rib.insert(Prefix::new(i << 16, 16), (i % 13 + 1) as u16);
        }
        let t: Poptrie = Builder::new().direct_bits(18).build(&rib);
        assert_eq!(t.stats().inodes, 0);
        assert_eq!(t.lookup(50 << 16 | 0x1234), Some(50 % 13 + 1));
    }
}

mod ranges {
    use super::*;

    /// Ground truth: scan every key (u16 space) and record value-change
    /// boundaries.
    fn naive_ranges(rib: &RadixTree<u16, u16>) -> Vec<(u16, u16)> {
        let mut out: Vec<(u16, u16)> = Vec::new();
        for key in 0..=u16::MAX {
            let nh = rib.lookup(key).copied().unwrap_or(0);
            match out.last() {
                Some(&(_, last)) if last == nh => {}
                _ => out.push((key, nh)),
            }
        }
        out
    }

    #[test]
    fn ranges_match_exhaustive_scan_u16() {
        let mut rng = StdRng::seed_from_u64(31);
        for round in 0..20 {
            let rib = random_v16_table(&mut rng, 40);
            for s in [0u8, 7, 12] {
                let t: Poptrie<u16> = Builder::new()
                    .direct_bits(s)
                    .aggregate(round % 2 == 0)
                    .build(&rib);
                assert_eq!(t.ranges(), naive_ranges(&rib), "round={round} s={s}");
            }
        }
    }

    #[test]
    fn ranges_of_empty_and_default() {
        let rib: RadixTree<u32, u16> = RadixTree::new();
        let t: Poptrie<u32> = Builder::new().direct_bits(16).build(&rib);
        assert_eq!(t.ranges(), vec![(0u32, 0u16)]);
        let rib = RadixTree::from_routes(vec![(p4("0.0.0.0/0"), 9u16)]);
        let t: Poptrie<u32> = Builder::new().direct_bits(16).build(&rib);
        assert_eq!(t.ranges(), vec![(0u32, 9u16)]);
    }

    #[test]
    fn ranges_are_semantic_equality() {
        // Two FIBs with different options but the same routes must have
        // identical range lists — the documented diffing use case.
        let mut rng = StdRng::seed_from_u64(32);
        let rib = random_v4_table(&mut rng, 2000);
        let a: Poptrie<u32> = Builder::new().direct_bits(16).aggregate(false).build(&rib);
        let b: Poptrie<u32> = Builder::new().direct_bits(18).aggregate(true).build(&rib);
        assert_eq!(a.ranges(), b.ranges());
        // And each range start actually looks up to its next hop.
        for &(start, nh) in a.ranges().iter().take(500) {
            assert_eq!(a.lookup_raw(start), nh);
            if start > 0 {
                assert_ne!(a.lookup_raw(start - 1), nh, "unmerged boundary");
            }
        }
    }

    #[test]
    fn ranges_handle_host_route_at_end_of_space() {
        let rib = RadixTree::from_routes(vec![
            (p4("255.255.255.255/32"), 3u16),
            (p4("0.0.0.0/32"), 4),
        ]);
        let t: Poptrie<u32> = Builder::new().direct_bits(18).build(&rib);
        assert_eq!(t.ranges(), vec![(0u32, 4u16), (1, 0), (u32::MAX, 3)]);
    }
}

mod update {
    use super::*;

    /// After a batch of updates, an incrementally patched FIB must agree
    /// with a from-scratch compilation everywhere.
    fn assert_matches_rebuild(fib: &Fib<u16>) {
        let fresh: Poptrie<u16> = Builder::new()
            .direct_bits(fib.poptrie().direct_bits())
            .aggregate(false)
            .build(fib.rib());
        for key in 0..=u16::MAX {
            assert_eq!(fib.lookup(key), fresh.lookup(key), "key={key:#06x}");
        }
        fib.poptrie().check_invariants().unwrap();
    }

    #[test]
    fn insert_then_lookup() {
        let mut fib: Fib<u32> = Fib::with_config(cfg(18));
        assert_eq!(fib.lookup(0x0A00_0001), None);
        assert_eq!(fib.insert(p4("10.0.0.0/8"), 1), Ok(Applied::Inserted));
        assert_eq!(fib.lookup(0x0A00_0001), Some(1));
        assert_eq!(fib.insert(p4("10.0.0.0/24"), 2), Ok(Applied::Inserted));
        assert_eq!(fib.lookup(0x0A00_0001), Some(2));
        assert_eq!(fib.lookup(0x0A00_0101), Some(1));
        assert_eq!(fib.remove(p4("10.0.0.0/24")), Ok(Applied::Withdrawn(2)));
        assert_eq!(fib.lookup(0x0A00_0001), Some(1));
        fib.poptrie().check_invariants().unwrap();
    }

    #[test]
    fn short_prefix_update_touches_direct_range() {
        let mut fib: Fib<u32> = Fib::with_config(cfg(18));
        fib.insert(p4("10.0.0.0/8"), 1).unwrap(); // 2^10 direct slots
        assert_eq!(fib.lookup(0x0A12_3456), Some(1));
        assert!(fib.stats().direct_replacements >= 1 << 10);
        fib.remove(p4("10.0.0.0/8")).unwrap();
        assert_eq!(fib.lookup(0x0A12_3456), None);
    }

    #[test]
    fn zero_next_hop_rejected() {
        let mut fib: Fib<u32> = Fib::with_config(cfg(16));
        assert_eq!(
            fib.insert(p4("10.0.0.0/8"), 0),
            Err(crate::UpdateError::ReservedNextHop)
        );
        // The rejection left no trace.
        assert_eq!(fib.lookup(0x0A00_0001), None);
        assert_eq!(fib.stats().updates, 0);
    }

    #[test]
    fn random_churn_matches_rebuild_u16() {
        let mut rng = StdRng::seed_from_u64(7);
        for s in [0u8, 7, 12] {
            let mut fib: Fib<u16> = Fib::with_config(cfg(s));
            let mut live: Vec<Prefix<u16>> = Vec::new();
            for step in 0..300 {
                if live.is_empty() || rng.gen_bool(0.6) {
                    let p = Prefix::new(rng.gen::<u16>(), rng.gen_range(0..=16));
                    fib.insert(p, rng.gen_range(1..=9)).unwrap();
                    if !live.contains(&p) {
                        live.push(p);
                    }
                } else {
                    let p = live.swap_remove(rng.gen_range(0..live.len()));
                    assert!(fib.remove(p).unwrap().changed());
                }
                if step % 60 == 59 {
                    assert_matches_rebuild(&fib);
                }
            }
            assert_matches_rebuild(&fib);
        }
    }

    #[test]
    fn update_stats_accumulate() {
        let mut fib: Fib<u32> = Fib::with_config(cfg(16));
        fib.insert(p4("10.0.0.0/24"), 1).unwrap();
        fib.insert(p4("10.0.0.128/25"), 2).unwrap();
        let st = fib.stats();
        assert_eq!(st.updates, 2);
        assert!(st.nodes_allocated > 0);
        // The first insert converts the direct slot from a leaf to a node;
        // the second lands inside the same slot's subtree, which the §3.5
        // node-refresh repairs without touching the top-level array.
        assert_eq!(st.direct_replacements, 1);
        fib.remove(p4("10.0.0.0/24")).unwrap();
        assert!(fib.stats().leaves_freed > 0, "{:?}", fib.stats());
        // Withdrawing the last route in the slot tears the subtree down.
        fib.remove(p4("10.0.0.128/25")).unwrap();
        assert!(fib.stats().nodes_freed > 0, "{:?}", fib.stats());
        assert_eq!(fib.poptrie().stats().inodes, 0);
    }

    #[test]
    fn buddy_accounting_stays_tight_under_churn() {
        // Allocator slack must not grow without bound across heavy churn —
        // the reason the paper uses a buddy allocator for update-heavy
        // FIBs.
        let mut rng = StdRng::seed_from_u64(8);
        let mut fib: Fib<u32> = Fib::with_config(cfg(16));
        let mut live: Vec<Prefix<u32>> = Vec::new();
        for _ in 0..3000 {
            if live.len() < 400 && rng.gen_bool(0.55) {
                let p = Prefix::new(rng.gen(), *[20u8, 24, 28, 32].choose(&mut rng).unwrap());
                fib.insert(p, rng.gen_range(1..=32)).unwrap();
                live.push(p);
            } else if !live.is_empty() {
                let p = live.swap_remove(rng.gen_range(0..live.len()));
                fib.remove(p).unwrap();
            }
        }
        fib.poptrie().check_invariants().unwrap();
        for p in live.drain(..) {
            fib.remove(p).unwrap();
        }
        let st = fib.poptrie().stats();
        assert_eq!(st.inodes, 0, "all nodes must be freed");
        fib.poptrie().check_invariants().unwrap();
    }

    #[test]
    fn update_strategies_are_equivalent_and_refresh_is_cheaper() {
        use crate::update::UpdateStrategy;
        let mut rng = StdRng::seed_from_u64(21);
        let mut refresh: Fib<u16> = Fib::with_config(cfg(7));
        let mut rebuild: Fib<u16> = Fib::with_config(cfg(7));
        rebuild.set_update_strategy(UpdateStrategy::SubtreeRebuild);
        assert_eq!(rebuild.update_strategy(), UpdateStrategy::SubtreeRebuild);
        let mut live: Vec<Prefix<u16>> = Vec::new();
        for _ in 0..400 {
            if live.is_empty() || rng.gen_bool(0.6) {
                let p = Prefix::new(rng.gen::<u16>(), rng.gen_range(0..=16));
                let nh = rng.gen_range(1..=9);
                refresh.insert(p, nh).unwrap();
                rebuild.insert(p, nh).unwrap();
                if !live.contains(&p) {
                    live.push(p);
                }
            } else {
                let p = live.swap_remove(rng.gen_range(0..live.len()));
                refresh.remove(p).unwrap();
                rebuild.remove(p).unwrap();
            }
        }
        for key in 0..=u16::MAX {
            assert_eq!(refresh.lookup(key), rebuild.lookup(key), "key={key:#06x}");
        }
        refresh.poptrie().check_invariants().unwrap();
        rebuild.poptrie().check_invariants().unwrap();
        // The §3.5 node-reuse strategy must rebuild strictly fewer nodes.
        assert!(
            refresh.stats().nodes_allocated < rebuild.stats().nodes_allocated,
            "refresh {:?} vs rebuild {:?}",
            refresh.stats(),
            rebuild.stats()
        );
    }

    #[test]
    fn refresh_leaf_only_update_touches_no_nodes() {
        // A pure path change (same prefix, new next hop) in a populated
        // subtree must replace leaves only — the §4.9 common case.
        let mut fib: Fib<u32> = Fib::with_config(cfg(16));
        fib.insert(p4("10.0.0.0/24"), 1).unwrap();
        fib.insert(p4("10.0.1.0/24"), 2).unwrap();
        let before = fib.stats();
        // Path change: same prefix, new next hop.
        assert_eq!(fib.insert(p4("10.0.1.0/24"), 3), Ok(Applied::Replaced(2)));
        let after = fib.stats();
        assert_eq!(
            after.nodes_allocated, before.nodes_allocated,
            "no node churn"
        );
        assert_eq!(after.nodes_freed, before.nodes_freed);
        assert!(after.leaves_allocated > before.leaves_allocated);
        assert_eq!(fib.lookup(0x0A00_0101), Some(3));
    }

    #[test]
    fn rebuild_matches_incremental() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut fib: Fib<u32> = Fib::with_config(cfg(18));
        for _ in 0..2000 {
            let p = Prefix::new(rng.gen(), *[8u8, 16, 24, 32].choose(&mut rng).unwrap());
            fib.insert(p, rng.gen_range(1..=16)).unwrap();
        }
        let incremental = fib.poptrie().clone();
        fib.rebuild();
        for _ in 0..50_000 {
            let key: u32 = rng.gen();
            assert_eq!(incremental.lookup(key), fib.lookup(key));
        }
    }

    #[test]
    fn from_rib_initial_state() {
        let mut rng = StdRng::seed_from_u64(10);
        let rib = random_v4_table(&mut rng, 1000);
        let fib = Fib::compile(
            rib.clone(),
            PoptrieConfig::new().direct_bits(16).build().unwrap(),
        );
        for _ in 0..10_000 {
            let key: u32 = rng.gen();
            assert_eq!(fib.lookup(key), rib.lookup(key).copied());
        }
    }
}

mod edge_cases {
    use super::*;

    #[test]
    fn u64_keys_work() {
        let p = |addr: u64, len: u8| Prefix::new(addr, len);
        let mut rib: RadixTree<u64, u16> = RadixTree::new();
        rib.insert(p(0xAAAA_0000_0000_0000, 16), 1);
        rib.insert(p(0xAAAA_BBBB_0000_0000, 32), 2);
        rib.insert(p(0xAAAA_BBBB_CCCC_DDDD, 64), 3);
        for s in [0u8, 12, 18] {
            let t: Poptrie<u64> = Builder::new().direct_bits(s).build(&rib);
            t.check_invariants().unwrap();
            assert_eq!(t.lookup(0xAAAA_BBBB_CCCC_DDDD), Some(3), "s={s}");
            assert_eq!(t.lookup(0xAAAA_BBBB_CCCC_DDDE), Some(2), "s={s}");
            assert_eq!(t.lookup(0xAAAA_0001_0000_0000), Some(1), "s={s}");
            assert_eq!(t.lookup(0xAAAB_0000_0000_0000), None, "s={s}");
        }
    }

    #[test]
    fn max_next_hop_fits_direct_leaf_and_trie_leaf() {
        // 0xFFFF must round-trip through both the 31-bit direct-leaf
        // encoding and the u16 leaf array.
        let mut rib: RadixTree<u32, u16> = RadixTree::new();
        rib.insert(p4("10.0.0.0/8"), u16::MAX); // resolved by direct leaf
        rib.insert(p4("20.0.0.0/24"), u16::MAX); // resolved via trie leaf
        let t: Poptrie<u32> = Builder::new().direct_bits(18).build(&rib);
        assert_eq!(t.lookup(0x0A01_0203), Some(u16::MAX));
        assert_eq!(t.lookup(0x1400_0001), Some(u16::MAX));
    }

    #[test]
    fn all_64_children_internal() {
        // Force a node whose vector is all ones: 64 sub-chunks each with
        // deeper prefixes. With s = 0 the root chunk covers bits 0..6, so
        // give every 6-bit top value a /12 and a /18 below it.
        let mut rib: RadixTree<u32, u16> = RadixTree::new();
        for v in 0..64u32 {
            rib.insert(Prefix::new(v << 26, 12), (v % 9 + 1) as u16);
            rib.insert(Prefix::new(v << 26 | 1 << 15, 18), (v % 5 + 1) as u16);
        }
        let t: Poptrie<u32> = Builder::new().direct_bits(0).aggregate(false).build(&rib);
        t.check_invariants().unwrap();
        for v in 0..64u32 {
            assert_eq!(t.lookup(v << 26 | 0xFF), Some((v % 9 + 1) as u16));
            assert_eq!(t.lookup(v << 26 | 1 << 15), Some((v % 5 + 1) as u16));
        }
    }

    #[test]
    fn deep_nested_chain_every_length() {
        // Prefixes at every length 1..=32 along one path: maximal trie
        // depth, every chunk boundary crossed.
        let mut rib: RadixTree<u32, u16> = RadixTree::new();
        let spine = 0xA5A5_A5A5u32;
        for len in 1..=32u8 {
            rib.insert(Prefix::new(spine, len), len as u16);
        }
        for s in [0u8, 16, 18] {
            let t: Poptrie<u32> = Builder::new().direct_bits(s).aggregate(false).build(&rib);
            assert_eq!(t.lookup(spine), Some(32), "s={s}");
            // Flip the last bit: matches the /31.
            assert_eq!(t.lookup(spine ^ 1), Some(31), "s={s}");
            // Flip bit 8 (0-indexed from MSB): matches the /8.
            assert_eq!(t.lookup(spine ^ (1 << 23)), Some(8), "s={s}");
            for key in [spine, spine ^ 1, spine ^ 0xFF, !spine] {
                assert_eq!(t.lookup(key), rib.lookup(key).copied(), "s={s}");
            }
        }
    }

    #[test]
    fn exhaustive_u8_keyspace_all_tables() {
        // Every possible route set over 3 fixed prefixes of an 8-bit key
        // space, exhaustively — a tiny model-checking pass.
        let prefixes = [
            Prefix::<u8>::new(0b1010_0000, 3),
            Prefix::<u8>::new(0b1010_1000, 5),
            Prefix::<u8>::new(0, 0),
        ];
        for mask in 0u32..(1 << 3) {
            let mut rib: RadixTree<u8, u16> = RadixTree::new();
            for (i, &p) in prefixes.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    rib.insert(p, (i + 1) as u16);
                }
            }
            for s in [0u8, 3, 7] {
                let t: Poptrie<u8> = Builder::new().direct_bits(s).build(&rib);
                for key in 0..=255u8 {
                    assert_eq!(
                        t.lookup(key),
                        rib.lookup(key).copied(),
                        "mask={mask:03b} s={s} key={key:#04x}"
                    );
                }
            }
        }
    }
}

mod serialization {
    use super::*;
    use crate::SerializeError;

    #[test]
    fn roundtrip_preserves_semantics() {
        let mut rng = StdRng::seed_from_u64(61);
        let rib = random_v4_table(&mut rng, 5000);
        for s in [0u8, 16, 18] {
            let fib: Poptrie<u32> = Builder::new().direct_bits(s).build(&rib);
            let bytes = fib.to_bytes();
            let loaded: Poptrie<u32> = Poptrie::from_bytes(&bytes).unwrap();
            loaded.check_invariants().unwrap();
            assert_eq!(loaded.stats(), fib.stats(), "s={s}");
            assert_eq!(loaded.ranges(), fib.ranges(), "s={s}");
        }
    }

    #[test]
    fn roundtrip_basic_and_v6() {
        let mut rng = StdRng::seed_from_u64(62);
        let rib = random_v4_table(&mut rng, 1000);
        let fib: PoptrieBasic<u32> = Builder::new().direct_bits(16).build(&rib);
        let loaded: PoptrieBasic<u32> = PoptrieBasic::from_bytes(&fib.to_bytes()).unwrap();
        assert_eq!(loaded.ranges(), fib.ranges());

        let mut rib6: RadixTree<u128, u16> = RadixTree::new();
        rib6.insert("2001:db8::/32".parse().unwrap(), 1);
        rib6.insert("2001:db8:1::/48".parse().unwrap(), 2);
        let fib6: Poptrie<u128> = Builder::new().direct_bits(18).build(&rib6);
        let loaded6: Poptrie<u128> = Poptrie::from_bytes(&fib6.to_bytes()).unwrap();
        assert_eq!(
            loaded6.lookup(0x2001_0db8_0001_0000_0000_0000_0000_0001),
            Some(2)
        );
    }

    #[test]
    fn wrong_shape_is_rejected() {
        let rib: RadixTree<u32, u16> = RadixTree::new();
        let fib: Poptrie<u32> = Builder::new().build(&rib);
        let bytes = fib.to_bytes();
        // Wrong key width.
        let err = Poptrie::<u128>::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, SerializeError::WrongShape { .. }), "{err}");
        // Wrong node layout.
        let err = PoptrieBasic::<u32>::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, SerializeError::WrongShape { .. }), "{err}");
    }

    #[test]
    fn corruption_is_detected() {
        let mut rng = StdRng::seed_from_u64(63);
        let rib = random_v4_table(&mut rng, 200);
        let fib: Poptrie<u32> = Builder::new().direct_bits(16).build(&rib);
        let good = fib.to_bytes();
        // Flip a payload byte: checksum must catch it.
        let mut bad = good.clone();
        let idx = bad.len() - 3;
        bad[idx] ^= 0xFF;
        assert_eq!(
            Poptrie::<u32>::from_bytes(&bad).unwrap_err(),
            SerializeError::ChecksumMismatch
        );
        // Truncated payload: caught by the checksum (computed over what
        // remains).
        assert_eq!(
            Poptrie::<u32>::from_bytes(&good[..good.len() - 5]).unwrap_err(),
            SerializeError::ChecksumMismatch
        );
        // Truncated header.
        assert_eq!(
            Poptrie::<u32>::from_bytes(&good[..10]).unwrap_err(),
            SerializeError::Truncated
        );
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            Poptrie::<u32>::from_bytes(&bad).unwrap_err(),
            SerializeError::BadHeader(_)
        ));
        // Empty input.
        assert_eq!(
            Poptrie::<u32>::from_bytes(&[]).unwrap_err(),
            SerializeError::Truncated
        );
    }
}

mod rcu {
    use crate::sync::RcuCell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn read_returns_current_value() {
        let cell = RcuCell::new(41);
        assert_eq!(cell.read(|v| *v), 41);
        cell.replace(42);
        assert_eq!(cell.read(|v| *v), 42);
    }

    #[test]
    fn drop_reclaims_value() {
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let cell = RcuCell::new(Counted(Arc::clone(&drops)));
            cell.replace(Counted(Arc::clone(&drops)));
            // With no outstanding snapshots, a replaced value is freed at
            // the swap itself.
            assert_eq!(drops.load(Ordering::SeqCst), 1, "replaced value freed");
            cell.replace(Counted(Arc::clone(&drops)));
            // A held snapshot keeps the value alive across a replace...
            let snap = cell.snapshot();
            cell.replace(Counted(Arc::clone(&drops)));
            assert_eq!(drops.load(Ordering::SeqCst), 2, "snapshot pins value");
            // ...until it drops.
            drop(snap);
            assert_eq!(drops.load(Ordering::SeqCst), 3, "freed with snapshot");
        }
        assert_eq!(drops.load(Ordering::SeqCst), 4, "all four values dropped");
    }

    #[test]
    fn parked_reader_keeps_exactly_one_old_snapshot_alive() {
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = RcuCell::new(Counted(Arc::clone(&drops)));
        assert_eq!(cell.snapshot_count(), 0, "fresh cell has no snapshots");

        // A reader parks on a snapshot of the initial value.
        let parked = cell.snapshot();
        assert_eq!(cell.snapshot_count(), 1);

        // Writers publish twice. The parked reader pins exactly its own
        // generation: the first value stays alive, the intermediate one
        // (never snapshotted) is freed at the swap that superseded it.
        cell.replace(Counted(Arc::clone(&drops)));
        cell.replace(Counted(Arc::clone(&drops)));
        assert_eq!(
            drops.load(Ordering::SeqCst),
            1,
            "only the un-snapshotted intermediate value was freed"
        );
        // Superseded snapshots are no longer counted by the cell...
        assert_eq!(cell.snapshot_count(), 0);
        // ...but the parked reader still holds the sole reference to its
        // generation (the cell released its own at the first replace).
        assert_eq!(Arc::strong_count(&parked), 1);

        drop(parked);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            2,
            "dropping the parked snapshot frees its generation"
        );
    }

    #[test]
    fn concurrent_read_replace_torture() {
        let cell = Arc::new(RcuCell::new(vec![0u64; 64]));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        // A torn/freed vector would fail this invariant.
                        cell.read(|v| {
                            assert_eq!(v.len(), 64);
                            let first = v[0];
                            assert!(v.iter().all(|&x| x == first));
                        });
                    }
                })
            })
            .collect();
        for i in 1..=2000u64 {
            cell.replace(vec![i; 64]);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    }

    /// `SharedFib::version` is stored (`Release`) after the snapshot swap
    /// and loaded with `Acquire`, so a snapshot taken after `version()`
    /// returned `v` is never older than `v`.
    #[test]
    fn version_never_runs_ahead_of_snapshot() {
        use crate::sync::SharedFib;
        use crate::PoptrieConfig;
        use poptrie_rib::Prefix;
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;

        let cfg = PoptrieConfig::new().direct_bits(8).build().unwrap();
        let fib = Arc::new(SharedFib::<u32>::with_config(cfg));
        let stop = Arc::new(AtomicBool::new(false));
        let start = Arc::new(Barrier::new(3));
        let pollers: Vec<_> = (0..2)
            .map(|_| {
                let (fib, stop, start) = (Arc::clone(&fib), Arc::clone(&stop), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    let mut checks = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let v = fib.version();
                        let seen = fib.snapshot().version();
                        assert!(seen >= v, "version() {v} ran ahead of snapshot {seen}");
                        checks += 1;
                    }
                    checks
                })
            })
            .collect();
        start.wait();
        for i in 0..2000u32 {
            fib.insert(Prefix::new(i << 12, 20), 1 + (i % 7) as u16)
                .unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for p in pollers {
            assert!(p.join().unwrap() > 0);
        }
        assert_eq!(fib.version(), 2000);
        assert_eq!(fib.snapshot().version(), 2000);
    }
}

mod prop {
    use super::*;
    use crate::node::{Node16, Node24, NodeRepr};
    use crate::trie::PoptrieImpl;
    use poptrie_bitops::Bits;
    use poptrie_rng::check;

    /// Up to 49 random routes over a 16-bit key space.
    fn routes(r: &mut StdRng) -> Vec<(Prefix<u16>, u16)> {
        (0..r.gen_range(0..50))
            .map(|_| {
                let addr = r.gen::<u16>();
                let len = r.gen_range(0u8..=16);
                (Prefix::new(addr, len), r.gen_range(1u16..=20))
            })
            .collect()
    }

    fn keys(r: &mut StdRng, n: usize) -> Vec<u16> {
        (0..n).map(|_| r.gen()).collect()
    }

    #[test]
    fn build_agrees_with_linear_oracle() {
        check(
            "build_agrees_with_linear_oracle",
            64,
            |r| {
                let s = *[0u8, 4, 7, 12].choose(r).unwrap();
                (routes(r), s, r.gen::<bool>(), keys(r, 128))
            },
            |(routes, s, agg, keys)| {
                let rib: RadixTree<u16, u16> = RadixTree::from_routes(routes);
                let lin = LinearLpm::new(rib.to_routes());
                let t: Poptrie<u16> = Builder::new().direct_bits(s).aggregate(agg).build(&rib);
                for key in keys {
                    assert_eq!(t.lookup(key), Lpm::lookup(&lin, key));
                }
            },
        );
    }

    #[test]
    fn serialization_roundtrips_arbitrary_tables() {
        check(
            "serialization_roundtrips_arbitrary_tables",
            64,
            |r| (routes(r), *[0u8, 7, 12].choose(r).unwrap()),
            |(routes, s)| {
                let rib: RadixTree<u16, u16> = RadixTree::from_routes(routes);
                let fib: Poptrie<u16> = Builder::new().direct_bits(s).build(&rib);
                let loaded: Poptrie<u16> = Poptrie::from_bytes(&fib.to_bytes()).unwrap();
                assert_eq!(loaded.ranges(), fib.ranges());
                assert_eq!(loaded.stats(), fib.stats());
            },
        );
    }

    #[test]
    fn incremental_update_agrees_with_oracle() {
        check(
            "incremental_update_agrees_with_oracle",
            64,
            |r| {
                let ops: Vec<_> = (0..r.gen_range(1..60))
                    .map(|_| {
                        let is_insert = r.gen::<bool>();
                        let addr = r.gen::<u16>();
                        let len = r.gen_range(0u8..=16);
                        (is_insert, Prefix::new(addr, len), r.gen_range(1u16..=9))
                    })
                    .collect();
                (ops, keys(r, 64))
            },
            |(ops, keys)| {
                let mut fib: Fib<u16> = Fib::with_config(cfg(7));
                let mut lin = LinearLpm::new(Vec::new());
                for (is_insert, p, nh) in ops {
                    if is_insert {
                        fib.insert(p, nh).unwrap();
                        lin.insert(p, nh);
                    } else {
                        fib.remove(p).unwrap();
                        lin.remove(p);
                    }
                }
                for key in keys {
                    assert_eq!(fib.lookup(key), Lpm::lookup(&lin, key));
                }
                fib.poptrie().check_invariants().unwrap();
            },
        );
    }

    /// A table on which §3's aggregation bites: one to three next hops,
    /// an optional default route, routes clustered a little above `s` so
    /// they nest and share chunks, lengths ending at `s` and `s + 6k`,
    /// and covering routes whose children fill their range with one next
    /// hop, sometimes broken by a deeper route. One case in eight is
    /// empty. `key` maps a top-aligned 128-bit address to the key type.
    fn aggregation_table<K: Bits>(r: &mut StdRng, s: u8, key: fn(u128) -> K) -> RadixTree<K, u16> {
        let mut rib = RadixTree::new();
        if r.gen_range(0..8) == 0 {
            return rib;
        }
        let bits = K::BITS as u8;
        let hops = r.gen_range(1..=3u16);
        let base: u128 = r.gen();
        let lo = s.saturating_sub(2) as u32;
        let window = (u128::MAX >> lo) & !(u128::MAX >> (lo + 16));
        let near = |r: &mut StdRng| key(base ^ (r.gen::<u128>() & window));
        let len = |r: &mut StdRng| {
            let at = [s, s + 6, s + 12, s + 18, s.saturating_sub(1), s + 1, s + 7];
            if r.gen_range(0..4) == 0 {
                r.gen_range(0..=bits)
            } else {
                (*at.choose(r).unwrap()).min(bits)
            }
        };
        if r.gen::<bool>() {
            rib.insert(Prefix::new(K::ZERO, 0), r.gen_range(1..=hops));
        }
        for _ in 0..r.gen_range(0..24) {
            let p = Prefix::new(near(r), len(r));
            rib.insert(p, r.gen_range(1..=hops));
        }
        for _ in 0..r.gen_range(0..6) {
            let extra = r.gen_range(1..=3u8);
            let cover = Prefix::new(near(r), len(r).min(bits - extra));
            rib.insert(cover, r.gen_range(1..=hops));
            let fill = r.gen_range(1..=hops);
            let subs: Vec<_> = cover.split(extra).collect();
            for &sub in &subs {
                rib.insert(sub, fill);
            }
            if r.gen::<bool>() {
                // A deeper route in the last child: the uniformity walk
                // meets its disagreement late.
                let last = subs[subs.len() - 1];
                let deeper = (last.len() + r.gen_range(1..=8u8)).min(bits);
                let low = r.gen::<u128>().checked_shr(last.len() as u32);
                let addr = last.addr().or(key(low.unwrap_or(0)));
                rib.insert(Prefix::new(addr, deeper), r.gen_range(1..=hops));
            }
        }
        rib
    }

    /// Aggregating during the builder's walk compiles exactly the trie
    /// that compiling `rib.aggregated()` without aggregation does.
    fn aggregates_like_reference<K: Bits, N: NodeRepr>(rib: &RadixTree<K, u16>, s: u8) {
        let ours: PoptrieImpl<K, N> = Builder::new().direct_bits(s).aggregate(true).build(rib);
        let reference: PoptrieImpl<K, N> = Builder::new()
            .direct_bits(s)
            .aggregate(false)
            .build(&rib.aggregated());
        assert!(
            ours.to_bytes() == reference.to_bytes(),
            "s={s}, {} routes: in-walk aggregation {:?} != compiled rib.aggregated() {:?}",
            rib.len(),
            ours.stats(),
            reference.stats()
        );
    }

    fn aggregation_matches_reference<K: Bits>(name: &str, key: fn(u128) -> K) {
        check(
            name,
            96,
            |r| {
                let s = *[0u8, 1, 6, 8, 16, 18].choose(r).unwrap();
                (aggregation_table(r, s, key), s)
            },
            |(rib, s)| {
                aggregates_like_reference::<K, Node24>(&rib, s);
                aggregates_like_reference::<K, Node16>(&rib, s);
            },
        );
    }

    #[test]
    fn in_walk_aggregation_matches_reference_v4() {
        aggregation_matches_reference("in_walk_aggregation_matches_reference_v4", |a| {
            (a >> 96) as u32
        });
    }

    #[test]
    fn in_walk_aggregation_matches_reference_v6() {
        aggregation_matches_reference("in_walk_aggregation_matches_reference_v6", |a| a);
    }
}

mod shared {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn readers_progress_during_writes() {
        let fib: Arc<SharedFib<u32>> = Arc::new(SharedFib::with_config(cfg(16)));
        fib.insert(p4("10.0.0.0/8"), 1).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let fib = Arc::clone(&fib);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut count = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // 10.255.0.1 is covered only by the stable /8: the
                    // churned /24s all live in 10.0.0.0/16.
                    assert_eq!(fib.lookup(0x0AFF_0001), Some(1));
                    count += 1;
                }
                count
            }));
        }
        // Writer: churn more-specific routes under the stable /8.
        for i in 0..2000u32 {
            let p = Prefix::new(0x0A00_0000 | ((i % 64) << 10), 24);
            if i % 2 == 0 {
                fib.insert(p, ((i % 60) + 2) as u16).unwrap();
            } else {
                fib.remove(p).unwrap();
            }
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
    }

    #[test]
    fn batch_update_is_atomic_at_publish() {
        let fib: SharedFib<u32> = SharedFib::with_config(cfg(16));
        let outcome = fib.update_batch(vec![
            RouteUpdate::Announce(p4("10.0.0.0/8"), 1),
            RouteUpdate::Announce(p4("10.1.0.0/16"), 2),
            RouteUpdate::Withdraw(p4("10.1.0.0/16")),
        ]);
        assert_eq!(fib.lookup(0x0A01_0001), Some(1));
        assert!(fib.stats().updates >= 3);
        assert_eq!(outcome.events, 3);
        assert_eq!(outcome.applied, 3);
        // One batch = one published snapshot version.
        assert_eq!(outcome.version, 1);
        assert_eq!(fib.version(), 1);
    }

    #[test]
    fn versions_advance_per_publish_not_per_event() {
        let fib: SharedFib<u32> = SharedFib::with_config(cfg(16));
        assert_eq!(fib.version(), 0);
        fib.insert(p4("10.0.0.0/8"), 1).unwrap();
        assert_eq!(fib.version(), 1);
        // An absent withdraw publishes nothing.
        assert_eq!(fib.remove(p4("192.0.2.0/24")), Ok(Applied::Absent));
        assert_eq!(fib.version(), 1);
        let outcome = fib.update_batch(vec![
            RouteUpdate::Announce(p4("10.0.0.0/8"), 1), // no-op re-announce
            RouteUpdate::Announce(p4("10.2.0.0/16"), 3),
        ]);
        assert_eq!((outcome.events, outcome.applied), (2, 1));
        assert_eq!(fib.version(), 2);
        assert_eq!(fib.snapshot().version(), 2);
    }

    #[test]
    fn with_current_reads_coherent_snapshot() {
        let fib: SharedFib<u32> = SharedFib::with_config(cfg(16));
        fib.insert(p4("10.0.0.0/8"), 1).unwrap();
        let (nh, stats) = fib.with_current(|t| (t.lookup(0x0A00_0001), t.stats()));
        assert_eq!(nh, Some(1));
        assert!(stats.memory_bytes > 0);
        // Ranges read through the same snapshot API.
        let ranges = fib.with_current(|t| t.ranges());
        assert!(ranges.iter().any(|&(_, nh)| nh == 1));
    }

    #[test]
    fn lookup_batch_uses_single_snapshot() {
        let fib: SharedFib<u32> = SharedFib::with_config(cfg(16));
        fib.insert(p4("10.0.0.0/8"), 1).unwrap();
        fib.insert(p4("11.0.0.0/8"), 2).unwrap();
        let keys = [0x0A00_0001u32, 0x0B00_0001, 0x0C00_0001];
        let mut out = Vec::new();
        fib.lookup_batch(&keys, &mut out);
        assert_eq!(out, vec![Some(1), Some(2), None]);
    }

    /// Neither publish path copies the node allocator: the first
    /// snapshot, a full copy, and the incremental publishes after it all
    /// hold an empty one. The writer's trie keeps the real one, and its
    /// audit still checks it.
    #[test]
    fn snapshots_hold_no_node_allocator() {
        let fib: SharedFib<u32> = SharedFib::with_config(cfg(16));
        let empty = |snap: &FibSnapshot<u32>| snap.node_buddy.capacity() == 0;
        assert!(empty(&fib.snapshot()));
        for i in 0..64u32 {
            let held = fib.snapshot();
            fib.insert(Prefix::new(0x0A00_0000 | (i << 8), 24), (i % 5 + 1) as u16)
                .unwrap();
            assert!(empty(&held) && empty(&fib.snapshot()), "publish {i}");
            fib.update_batch(std::iter::empty());
        }
        let st = fib.publish_stats();
        assert!(st.full_copies > 0 && st.incremental > 0, "{st:?}");
        fib.with_fib(|f| {
            assert!(f.poptrie().node_buddy.live_blocks() > 0);
            f.poptrie().audit().unwrap();
        });
        assert_eq!(fib.lookup(0x0A00_2A01), Some(3));
    }
}

mod audit {
    use super::*;
    use crate::trie::DIRECT_LEAF_BIT;

    #[test]
    fn audit_passes_after_build_and_churn() {
        let mut rng = StdRng::seed_from_u64(11);
        let rib = random_v4_table(&mut rng, 3_000);
        let t: Poptrie<u32> = Builder::new().direct_bits(16).aggregate(false).build(&rib);
        let report = t.audit().expect("fresh build audits clean");
        assert_eq!(report.inodes, t.stats().inodes);
        assert_eq!(report.leaves, t.stats().leaves);
        assert!(report.node_blocks > 0 && report.leaf_blocks > 0);

        let mut fib = Fib::compile(rib, cfg(16));
        for i in 0..200u32 {
            let p = Prefix::new(rng.gen(), *[8, 16, 20, 24, 32].choose(&mut rng).unwrap());
            if i % 3 == 0 {
                fib.remove(p).unwrap();
            } else {
                fib.insert(p, rng.gen_range(1..=64)).unwrap();
            }
        }
        fib.poptrie().audit().expect("churned FIB audits clean");
    }

    #[test]
    fn audit_detects_count_drift() {
        let mut rib: RadixTree<u32, u16> = RadixTree::new();
        rib.insert(p4("10.0.0.0/24"), 1);
        let mut t: Poptrie<u32> = Builder::new().direct_bits(16).aggregate(false).build(&rib);
        t.audit().unwrap();
        t.leaf_count += 1;
        let err = t.audit().unwrap_err();
        assert!(err.contains("leaf count mismatch"), "{err}");
    }

    #[test]
    fn audit_detects_freed_block_still_referenced() {
        let mut rib: RadixTree<u32, u16> = RadixTree::new();
        rib.insert(p4("10.0.0.0/24"), 1);
        let t: Poptrie<u32> = Builder::new().direct_bits(16).aggregate(false).build(&rib);
        // Release the leaf extent of the first reachable node in the
        // table's store behind the structure's back: the trie still
        // references it, so the auditor must flag the dangling block (a
        // lookup would still "work", returning whatever the store later
        // puts there).
        let e = *t
            .direct
            .iter()
            .find(|&&e| e & DIRECT_LEAF_BIT == 0)
            .expect("a slot with a subtree");
        let node = t.nodes[e as usize];
        let nleaves = node.leafvec.count_ones();
        assert!(nleaves > 0);
        t.store.release(node.base0, nleaves); // the trie's counts stay: only the block is stale
        let err = t.audit().unwrap_err();
        assert!(err.contains("not a live allocation"), "{err}");
    }

    #[test]
    fn audit_detects_leaked_leaf_extent() {
        let mut rib: RadixTree<u32, u16> = RadixTree::new();
        rib.insert(p4("10.0.0.0/24"), 1);
        let mut t: Poptrie<u32> = Builder::new().direct_bits(16).aggregate(false).build(&rib);
        t.audit().unwrap();
        // A block no node references, interned in the table's own store:
        // the updater lost track of an extent.
        t.store.intern(&[5, 6, 7]);
        let err = t.audit().unwrap_err();
        assert!(err.contains("leaf leak"), "{err}");
    }

    #[test]
    fn audit_detects_vector_leafvec_overlap() {
        let mut rib: RadixTree<u32, u16> = RadixTree::new();
        // A /24 below s = 16 spans two 6-bit levels, so the slot's root
        // node has an internal child.
        rib.insert(p4("10.0.0.0/24"), 1);
        let mut t: Poptrie<u32> = Builder::new().direct_bits(16).aggregate(false).build(&rib);
        let e = *t
            .direct
            .iter()
            .find(|&&e| e & DIRECT_LEAF_BIT == 0)
            .unwrap();
        let node = &mut t.nodes[e as usize];
        assert_ne!(node.vector, 0, "test premise: node has an internal child");
        let child_bit = node.vector & node.vector.wrapping_neg(); // lowest set bit
        node.leafvec |= child_bit;
        let err = t.audit().unwrap_err();
        assert!(err.contains("vector and leafvec share slots"), "{err}");
    }

    #[test]
    fn audit_detects_leaked_allocation() {
        let mut rib: RadixTree<u32, u16> = RadixTree::new();
        rib.insert(p4("10.0.0.0/24"), 1);
        let mut t: Poptrie<u32> = Builder::new().direct_bits(16).aggregate(false).build(&rib);
        // An allocation nothing references: the incremental updater lost
        // track of a block (leak). Reachability-only checks cannot see it.
        t.node_buddy.alloc(1);
        let err = t.audit().unwrap_err();
        assert!(err.contains("block leak"), "{err}");
    }
}

mod satellite_regressions {
    use super::*;
    use crate::sync::RcuCell;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::{Duration, Instant};

    /// `UpdateStats::updates` counts only inserts and removes that changed
    /// the RIB; a re-announcement of the current next hop takes no patch
    /// and must not be counted.
    #[test]
    fn noop_reannouncement_is_not_counted_or_patched() {
        let mut fib: Fib<u32> = Fib::with_config(cfg(16));
        fib.insert(p4("10.0.0.0/24"), 1).unwrap();
        let st = fib.stats();
        assert_eq!(st.updates, 1);
        // Same prefix, same next hop: the RIB is unchanged, so no update
        // is counted and no patch work happens.
        assert_eq!(fib.insert(p4("10.0.0.0/24"), 1), Ok(Applied::Unchanged(1)));
        assert_eq!(fib.stats(), st, "no-op announce must do zero work");
        // A genuine path change is counted.
        assert_eq!(fib.insert(p4("10.0.0.0/24"), 2), Ok(Applied::Replaced(1)));
        assert_eq!(fib.stats().updates, 2);
        // Withdrawing an absent prefix is also a no-op.
        assert_eq!(fib.remove(p4("192.0.2.0/24")), Ok(Applied::Absent));
        assert_eq!(fib.stats().updates, 2);
    }

    /// A value whose drop blocks until released, standing in for the
    /// multi-hundred-megabyte deallocation of a full BGP-table Poptrie.
    struct SlowDrop {
        id: u32,
        entered: Arc<AtomicBool>,
        release: Arc<AtomicBool>,
    }

    impl Drop for SlowDrop {
        fn drop(&mut self) {
            self.entered.store(true, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(30);
            while !self.release.load(Ordering::SeqCst) && Instant::now() < deadline {
                std::thread::yield_now();
            }
        }
    }

    /// `RcuCell::replace` must publish the new value and release the write
    /// lock *before* dropping the previous value: readers' snapshot
    /// acquisition may not stall behind a large deallocation.
    #[test]
    fn rcu_replace_drops_old_value_outside_the_lock() {
        let entered = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let released = Arc::new(AtomicBool::new(true)); // successor drops freely
        let cell = Arc::new(RcuCell::new(SlowDrop {
            id: 1,
            entered: Arc::clone(&entered),
            release: Arc::clone(&release),
        }));
        let writer = {
            let cell = Arc::clone(&cell);
            let released = Arc::clone(&released);
            std::thread::spawn(move || {
                // The cell holds the only reference, so replace() itself
                // runs the old value's (blocking) destructor.
                cell.replace(SlowDrop {
                    id: 2,
                    entered: Arc::new(AtomicBool::new(false)),
                    release: released,
                });
            })
        };
        // Wait until the old value's destructor is running inside replace().
        while !entered.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // A reader must now be able to take a snapshot immediately — and it
        // must already see the *new* value. Run it on a helper thread with a
        // timeout so a regression fails instead of deadlocking the suite.
        let (tx, rx) = mpsc::channel();
        let reader = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                let id = cell.read(|v| v.id);
                let _ = tx.send(id);
            })
        };
        let seen = rx.recv_timeout(Duration::from_secs(5));
        release.store(true, Ordering::SeqCst); // unblock the drop either way
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(
            seen.expect("reader stalled behind the old value's drop"),
            2,
            "reader must observe the newly published value"
        );
    }

    /// Prefix construction canonicalizes (masks bits below `len`), and
    /// `Fib::patch` re-masks defensively — a sloppy host-address spelling
    /// of a short prefix must patch the prefix's real direct-slot range.
    #[test]
    fn non_canonical_addresses_are_canonicalized() {
        let sloppy = Prefix::<u32>::new(0x0A7F_FFFF, 8); // "10.127.255.255/8"
        assert_eq!(sloppy, p4("10.0.0.0/8"), "construction must mask");
        assert_eq!(sloppy.addr(), 0x0A00_0000);

        let mut fib: Fib<u32> = Fib::with_config(cfg(16));
        fib.insert(sloppy, 1).unwrap();
        // The whole /8 range resolves, including slots *before* the slot
        // of the unmasked address (a non-canonical patch would have
        // refreshed [0x0A7F.., 0x0B7F..) instead of [0x0A00.., 0x0B00..)).
        assert_eq!(fib.lookup(0x0A00_0000), Some(1));
        assert_eq!(fib.lookup(0x0A7F_FFFF), Some(1));
        assert_eq!(fib.lookup(0x0AFF_FFFF), Some(1));
        assert_eq!(fib.lookup(0x09FF_FFFF), None);
        assert_eq!(fib.lookup(0x0B00_0000), None);
        // Withdraw through a different non-canonical spelling.
        assert_eq!(
            fib.remove(Prefix::new(0x0A01_0203, 8)),
            Ok(Applied::Withdrawn(1))
        );
        assert_eq!(fib.lookup(0x0A00_0000), None);
        assert_eq!(fib.lookup(0x0AFF_FFFF), None);
        fib.poptrie().audit().unwrap();
    }
}

mod api {
    use super::*;
    use crate::{ConfigError, UpdateError};

    #[test]
    fn config_builder_validates_once() {
        let cfg = PoptrieConfig::new()
            .direct_bits(16)
            .strategy(crate::UpdateStrategy::SubtreeRebuild)
            .aggregate(false)
            .node_capacity(1 << 10)
            .build()
            .unwrap();
        assert_eq!(cfg.direct_bits, 16);
        assert_eq!(cfg.strategy, crate::UpdateStrategy::SubtreeRebuild);
        assert!(!cfg.aggregate);
        assert_eq!(cfg.node_capacity, 1 << 10);

        assert_eq!(
            PoptrieConfig::new().direct_bits(25).build(),
            Err(ConfigError::DirectBitsTooLarge(25))
        );
        assert_eq!(
            PoptrieConfig::new().node_capacity(1 << 31).build(),
            Err(ConfigError::CapacityTooLarge(1 << 31))
        );
        // Errors render as real std errors.
        let e: Box<dyn std::error::Error> = Box::new(ConfigError::DirectBitsTooLarge(25));
        assert!(e.to_string().contains("25"));
    }

    #[test]
    fn config_respects_strategy_and_capacity() {
        let cfg = PoptrieConfig::new()
            .direct_bits(12)
            .strategy(crate::UpdateStrategy::SubtreeRebuild)
            .aggregate(false)
            .node_capacity(64)
            .build()
            .unwrap();
        let mut fib: Fib<u32> = Fib::with_config(cfg);
        assert_eq!(fib.update_strategy(), crate::UpdateStrategy::SubtreeRebuild);
        fib.insert(p4("10.0.0.0/24"), 1).unwrap();
        assert_eq!(fib.lookup(0x0A00_0001), Some(1));
        fib.poptrie().check_invariants().unwrap();
    }

    /// Two tables compiled into one leaf store must agree with a table
    /// that has a store of its own on every key, and their per-table leaf
    /// references must reconcile with the store, before and after one of
    /// them churns.
    #[test]
    fn group_compile_matches_own_store() {
        let store = LeafStore::new(1 << 16);
        let mut rng = StdRng::seed_from_u64(40);
        let rib = random_v4_table(&mut rng, 300);
        let cfg = PoptrieConfig::new().direct_bits(16).build().unwrap();

        let mut shared_a = Fib::compile_in(rib.clone(), cfg, &store);
        let shared_b = Fib::compile_in(rib.clone(), cfg, &store);
        let oracle = Fib::compile(rib, cfg);

        for _ in 0..5_000 {
            let key: u32 = rng.gen();
            assert_eq!(shared_a.lookup(key), oracle.lookup(key));
            assert_eq!(shared_b.lookup(key), oracle.lookup(key));
        }
        let refs = |a: &Fib<u32>, b: &Fib<u32>| {
            let (ra, rb) = (a.poptrie().audit().unwrap(), b.poptrie().audit().unwrap());
            (ra.leaf_block_refs + rb.leaf_block_refs) as u64
        };
        assert_eq!(
            refs(&shared_a, &shared_b),
            store.stats().total_refs,
            "per-table leaf references must reconcile with the store"
        );

        // Churn one table; the other's lookups and audit stay intact.
        shared_a.insert(p4("10.0.0.0/8"), 9).unwrap();
        shared_a.remove(p4("10.0.0.0/8")).unwrap();
        assert_eq!(refs(&shared_a, &shared_b), store.stats().total_refs);
        store.check_invariants().unwrap();
    }

    /// The wire-format entry points reject what `Prefix::new` would
    /// silently canonicalize.
    #[test]
    fn announce_rejects_malformed_wire_routes() {
        let mut fib: Fib<u32> = Fib::with_config(cfg(16));
        assert_eq!(
            fib.announce(0x0A00_0000, 33, 1),
            Err(UpdateError::PrefixTooLong { len: 33, width: 32 })
        );
        assert_eq!(
            fib.announce(0x0A00_0001, 8, 1),
            Err(UpdateError::NonCanonical { len: 8 })
        );
        assert_eq!(fib.announce(0x0A00_0000, 8, 1), Ok(Applied::Inserted));
        assert_eq!(fib.lookup(0x0A00_0001), Some(1));
        assert_eq!(
            fib.withdraw(0x0A00_0001, 8),
            Err(UpdateError::NonCanonical { len: 8 })
        );
        assert_eq!(fib.withdraw(0x0A00_0000, 8), Ok(Applied::Withdrawn(1)));
        assert_eq!(fib.lookup(0x0A00_0001), None);
    }

    #[test]
    fn applied_reports_previous_and_changed() {
        assert_eq!(Applied::Inserted.previous(), None);
        assert!(Applied::Inserted.changed());
        assert_eq!(Applied::Replaced(4).previous(), Some(4));
        assert!(Applied::Replaced(4).changed());
        assert_eq!(Applied::Unchanged(4).previous(), Some(4));
        assert!(!Applied::Unchanged(4).changed());
        assert_eq!(Applied::Withdrawn(4).previous(), Some(4));
        assert!(Applied::Withdrawn(4).changed());
        assert_eq!(Applied::Absent.previous(), None);
        assert!(!Applied::Absent.changed());
        assert!(!Applied::Refreshed.changed());
    }

    #[test]
    fn update_errors_render() {
        let cases: Vec<(UpdateError, &str)> = vec![
            (
                UpdateError::PrefixTooLong {
                    len: 129,
                    width: 128,
                },
                "exceeds key width",
            ),
            (UpdateError::NonCanonical { len: 8 }, "host bits"),
            (UpdateError::ReservedNextHop, "reserved"),
            (UpdateError::CapacityExhausted { nodes: 7 }, "2^31"),
        ];
        for (e, needle) in cases {
            let boxed: Box<dyn std::error::Error> = Box::new(e);
            assert!(boxed.to_string().contains(needle), "{boxed}");
        }
    }

    #[test]
    fn prelude_glob_covers_the_vocabulary() {
        use crate::prelude::*;
        let cfg = PoptrieConfig::new().direct_bits(8).build().unwrap();
        let fib: SharedFib<u32> = SharedFib::with_config(cfg);
        fib.insert("10.0.0.0/8".parse().unwrap(), 1).unwrap();
        let snap = fib.snapshot();
        assert_eq!(snap.version(), 1);
        let keys = [0x0A00_0001u32, 0];
        let mut out = [NO_ROUTE; 2];
        snap.lookup_batch(&keys, &mut out);
        assert_eq!(out, [1, NO_ROUTE]);
    }
}

// The cross-crate Lpm conformance contract, instantiated for the Poptrie
// itself (with and without direct pointing, and over the IPv6 key width).
poptrie_rib::lpm_contract_tests!(poptrie_contract_v4, u32, |rib: &RadixTree<u32, u16>| {
    let t: Poptrie<u32> = Builder::new().direct_bits(18).build(rib);
    t
});
poptrie_rib::lpm_contract_tests!(poptrie_contract_no_direct, u32, |rib: &RadixTree<
    u32,
    u16,
>| {
    let t: Poptrie<u32> = Builder::new().direct_bits(0).build(rib);
    t
});
poptrie_rib::lpm_contract_tests!(poptrie_contract_v6, u128, |rib: &RadixTree<u128, u16>| {
    let t: Poptrie<u128> = Builder::new().direct_bits(18).build(rib);
    t
});
