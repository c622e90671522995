use crate::LinearLpm;
use crate::{Lpm, Patricia, Prefix, RadixTree};

fn p4(s: &str) -> Prefix<u32> {
    s.parse().unwrap()
}

fn p6(s: &str) -> Prefix<u128> {
    s.parse().unwrap()
}

mod prefix {
    use super::*;

    #[test]
    fn parse_and_display_v4() {
        let p = p4("192.0.2.0/24");
        assert_eq!(p.addr(), 0xC000_0200);
        assert_eq!(p.len(), 24);
        assert_eq!(p.to_string(), "192.0.2.0/24");
    }

    #[test]
    fn parse_canonicalizes() {
        // Host bits beyond the mask are dropped.
        let p = p4("192.0.2.55/24");
        assert_eq!(p, p4("192.0.2.0/24"));
    }

    #[test]
    fn parse_errors() {
        assert!("192.0.2.0".parse::<Prefix<u32>>().is_err());
        assert!("300.0.2.0/8".parse::<Prefix<u32>>().is_err());
        assert!("192.0.2.0/33".parse::<Prefix<u32>>().is_err());
        assert!("192.0.2.0/x".parse::<Prefix<u32>>().is_err());
    }

    #[test]
    fn parse_and_display_v6() {
        let p = p6("2001:db8::/32");
        assert_eq!(p.len(), 32);
        assert_eq!(p.addr(), 0x2001_0db8u128 << 96);
        assert_eq!(p.to_string(), "2001:db8::/32");
        assert!("2001:db8::/129".parse::<Prefix<u128>>().is_err());
    }

    #[test]
    fn contains_and_covers() {
        let p = p4("10.0.0.0/8");
        assert!(p.contains(0x0A00_0001));
        assert!(p.contains(0x0AFF_FFFF));
        assert!(!p.contains(0x0B00_0000));
        assert!(p.covers(&p4("10.1.0.0/16")));
        assert!(p.covers(&p));
        assert!(!p.covers(&p4("0.0.0.0/0")));
        assert!(p4("0.0.0.0/0").covers(&p));
    }

    #[test]
    fn default_route() {
        let d = Prefix::<u32>::DEFAULT;
        assert!(d.is_default());
        assert!(d.contains(0));
        assert!(d.contains(u32::MAX));
    }

    #[test]
    fn child_extends() {
        let p = p4("10.0.0.0/8");
        assert_eq!(p.child(false), p4("10.0.0.0/9"));
        assert_eq!(p.child(true), p4("10.128.0.0/9"));
    }

    #[test]
    fn split_produces_ordered_children() {
        let p = p4("10.0.0.0/8");
        let kids: Vec<Prefix<u32>> = p.split(2).collect();
        assert_eq!(
            kids,
            vec![
                p4("10.0.0.0/10"),
                p4("10.64.0.0/10"),
                p4("10.128.0.0/10"),
                p4("10.192.0.0/10"),
            ]
        );
        // Splitting by zero reproduces the prefix itself.
        assert_eq!(p.split(0).collect::<Vec<_>>(), vec![p]);
    }

    #[test]
    fn split_covers_parent_exactly() {
        let p = p4("172.16.0.0/12");
        let kids: Vec<Prefix<u32>> = p.split(3).collect();
        assert_eq!(kids.len(), 8);
        for k in &kids {
            assert!(p.covers(k));
            assert_eq!(k.len(), 15);
        }
        // Children are disjoint and consecutive.
        for w in kids.windows(2) {
            assert!(w[0].addr() < w[1].addr());
            assert!(!w[0].covers(&w[1]));
        }
    }

    #[test]
    fn ordering_is_addr_then_len() {
        let mut v = vec![p4("10.0.0.0/16"), p4("9.0.0.0/8"), p4("10.0.0.0/8")];
        v.sort();
        assert_eq!(
            v,
            vec![p4("9.0.0.0/8"), p4("10.0.0.0/8"), p4("10.0.0.0/16")]
        );
    }
}

mod radix {
    use super::*;

    #[test]
    fn insert_lookup_remove() {
        let mut t: RadixTree<u32, u16> = RadixTree::new();
        assert!(t.is_empty());
        t.insert(p4("10.0.0.0/8"), 1);
        t.insert(p4("10.1.0.0/16"), 2);
        t.insert(p4("0.0.0.0/0"), 9);
        assert_eq!(t.len(), 3);
        assert_eq!(t.lookup(0x0A01_0203), Some(&2));
        assert_eq!(t.lookup(0x0A02_0203), Some(&1));
        assert_eq!(t.lookup(0x0B00_0000), Some(&9));
        assert_eq!(t.remove(p4("10.1.0.0/16")), Some(2));
        assert_eq!(t.lookup(0x0A01_0203), Some(&1));
        assert_eq!(t.remove(p4("10.1.0.0/16")), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn insert_replaces() {
        let mut t: RadixTree<u32, u16> = RadixTree::new();
        assert_eq!(t.insert(p4("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p4("10.0.0.0/8"), 5), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(p4("10.0.0.0/8")), Some(&5));
    }

    #[test]
    fn host_routes() {
        let mut t: RadixTree<u32, u16> = RadixTree::new();
        t.insert(p4("192.0.2.1/32"), 7);
        assert_eq!(t.lookup(0xC000_0201), Some(&7));
        assert_eq!(t.lookup(0xC000_0202), None);
    }

    #[test]
    fn no_default_means_none() {
        let mut t: RadixTree<u32, u16> = RadixTree::new();
        t.insert(p4("128.0.0.0/1"), 3);
        assert_eq!(t.lookup(0x7FFF_FFFF), None);
        assert_eq!(t.lookup(0x8000_0000), Some(&3));
    }

    #[test]
    fn remove_prunes_dead_paths() {
        let mut t: RadixTree<u32, u16> = RadixTree::new();
        t.insert(p4("10.255.255.0/24"), 1);
        t.remove(p4("10.255.255.0/24"));
        assert!(t.root().is_none(), "pruning must remove the whole chain");
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut t: RadixTree<u32, u16> = RadixTree::new();
        let routes = [
            (p4("10.0.0.0/8"), 1u16),
            (p4("10.0.0.0/16"), 2),
            (p4("9.0.0.0/8"), 3),
            (p4("0.0.0.0/0"), 4),
            (p4("192.0.2.128/25"), 5),
        ];
        for (p, v) in routes {
            t.insert(p, v);
        }
        let got: Vec<(Prefix<u32>, u16)> = t.iter().map(|(p, v)| (p, *v)).collect();
        let mut want = routes.to_vec();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn lookup_with_depth_hole_punching() {
        // /8 route with a deep /24 hole: deciding that an address near the
        // hole matches only the /8 requires descending far past 8 bits.
        let mut t: RadixTree<u32, u16> = RadixTree::new();
        t.insert(p4("10.0.0.0/8"), 1);
        t.insert(p4("10.9.9.0/24"), 2);
        let (v, depth, plen) = t.lookup_with_depth(0x0A09_0901); // 10.9.9.1
        assert_eq!(v, Some(&2));
        assert_eq!(depth, 24);
        assert_eq!(plen, Some(24));
        // 10.9.8.1 shares 23 bits with the hole: depth 23, match /8.
        let (v, depth, plen) = t.lookup_with_depth(0x0A09_0801);
        assert_eq!(v, Some(&1));
        assert_eq!(depth, 23);
        assert_eq!(plen, Some(8));
        // 11.x: leaves the 10/8 subtree immediately at bit 7.
        let (v, depth, _) = t.lookup_with_depth(0x0B00_0000);
        assert_eq!(v, None);
        assert!(depth <= 8, "depth {depth}");
    }

    #[test]
    fn from_routes_roundtrip() {
        let routes = vec![(p4("10.0.0.0/8"), 1u16), (p4("10.128.0.0/9"), 2)];
        let t = RadixTree::from_routes(routes.clone());
        assert_eq!(t.to_routes(), routes);
    }

    #[test]
    fn works_for_u128() {
        let mut t: RadixTree<u128, u16> = RadixTree::new();
        t.insert(p6("2001:db8::/32"), 1);
        t.insert(p6("2001:db8:0:1::/64"), 2);
        let in_64 = 0x2001_0db8_0000_0001_0000_0000_0000_0001u128;
        let in_32 = 0x2001_0db8_ffff_0000_0000_0000_0000_0001u128;
        assert_eq!(t.lookup(in_64), Some(&2));
        assert_eq!(t.lookup(in_32), Some(&1));
        assert_eq!(t.lookup(0x2002u128 << 112), None);
    }
}

mod aggregate {
    use super::*;

    #[test]
    fn merges_sibling_halves() {
        // Two /9 halves of 10/8 with the same next hop collapse to 10/8.
        let t = RadixTree::from_routes(vec![(p4("10.0.0.0/9"), 1u16), (p4("10.128.0.0/9"), 1)]);
        let a = t.aggregated();
        assert_eq!(a.to_routes(), vec![(p4("10.0.0.0/8"), 1)]);
    }

    #[test]
    fn does_not_merge_with_gap() {
        // A /9 and a /10 do not fill the /8; nothing merges.
        let t = RadixTree::from_routes(vec![(p4("10.0.0.0/9"), 1u16), (p4("10.128.0.0/10"), 1)]);
        let a = t.aggregated();
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn drops_redundant_more_specific() {
        let t = RadixTree::from_routes(vec![
            (p4("10.0.0.0/8"), 1u16),
            (p4("10.1.0.0/16"), 1), // same next hop as covering /8
            (p4("10.2.0.0/16"), 2),
        ]);
        let a = t.aggregated();
        assert_eq!(
            a.to_routes(),
            vec![(p4("10.0.0.0/8"), 1), (p4("10.2.0.0/16"), 2)]
        );
    }

    #[test]
    fn recursive_collapse() {
        // Four /10s with one next hop collapse all the way to the /8.
        let t = RadixTree::from_routes(vec![
            (p4("10.0.0.0/10"), 3u16),
            (p4("10.64.0.0/10"), 3),
            (p4("10.128.0.0/10"), 3),
            (p4("10.192.0.0/10"), 3),
        ]);
        let a = t.aggregated();
        assert_eq!(a.to_routes(), vec![(p4("10.0.0.0/8"), 3)]);
    }

    #[test]
    fn never_invents_coverage() {
        // 0/1 with nh 1; aggregation must not extend it to 0/0.
        let t = RadixTree::from_routes(vec![(p4("0.0.0.0/1"), 1u16)]);
        let a = t.aggregated();
        assert_eq!(Lpm::lookup(&a, 0x8000_0000u32), None);
        assert_eq!(Lpm::lookup(&a, 0x0000_0000u32), Some(1));
    }

    #[test]
    fn preserves_semantics_exhaustively_u8() {
        // Dense random tables over an 8-bit space, checked for every key.
        use poptrie_rng::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let n = rng.gen_range(0..40);
            let mut t: RadixTree<u8, u16> = RadixTree::new();
            for _ in 0..n {
                let len = rng.gen_range(0..=8u8);
                let addr: u8 = rng.gen();
                let nh = rng.gen_range(1..=4u16);
                t.insert(Prefix::new(addr, len), nh);
            }
            let a = t.aggregated();
            assert!(a.len() <= t.len(), "aggregation must not grow the table");
            for key in 0..=255u8 {
                assert_eq!(
                    t.lookup(key),
                    a.lookup(key),
                    "key {key:#04x} table {:?}",
                    t.to_routes()
                );
            }
        }
    }

    #[test]
    fn aggregating_empty_and_single() {
        let t: RadixTree<u32, u16> = RadixTree::new();
        assert_eq!(t.aggregated().len(), 0);
        let t = RadixTree::from_routes(vec![(p4("10.0.0.0/8"), 1u16)]);
        assert_eq!(t.aggregated().to_routes(), vec![(p4("10.0.0.0/8"), 1)]);
    }
}

mod patricia {
    use super::*;

    #[test]
    fn insert_lookup_basic() {
        let mut t: Patricia<u32, u16> = Patricia::new();
        t.insert(p4("10.0.0.0/8"), 1);
        t.insert(p4("10.1.0.0/16"), 2);
        t.insert(p4("192.0.2.0/24"), 3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.lookup(0x0A01_0001), Some(&2));
        assert_eq!(t.lookup(0x0A02_0001), Some(&1));
        assert_eq!(t.lookup(0xC000_0201), Some(&3));
        assert_eq!(t.lookup(0xC000_0301), None);
    }

    #[test]
    fn split_on_divergence() {
        let mut t: Patricia<u32, u16> = Patricia::new();
        t.insert(p4("10.0.0.0/24"), 1);
        t.insert(p4("10.0.1.0/24"), 2); // shares 23 bits, forces a fork
        assert_eq!(t.lookup(0x0A00_0001), Some(&1));
        assert_eq!(t.lookup(0x0A00_0101), Some(&2));
        assert_eq!(t.lookup(0x0A00_0201), None);
    }

    #[test]
    fn fork_at_existing_value() {
        let mut t: Patricia<u32, u16> = Patricia::new();
        t.insert(p4("10.0.0.0/24"), 1);
        t.insert(p4("10.0.0.0/16"), 2); // shorter, becomes the fork itself
        assert_eq!(t.get(p4("10.0.0.0/16")), Some(&2));
        assert_eq!(t.get(p4("10.0.0.0/24")), Some(&1));
        assert_eq!(t.lookup(0x0A00_0001), Some(&1));
        assert_eq!(t.lookup(0x0A00_FF01), Some(&2));
    }

    #[test]
    fn remove_collapses() {
        let mut t: Patricia<u32, u16> = Patricia::new();
        t.insert(p4("10.0.0.0/24"), 1);
        t.insert(p4("10.0.1.0/24"), 2);
        assert_eq!(t.remove(p4("10.0.1.0/24")), Some(2));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(0x0A00_0001), Some(&1));
        assert_eq!(t.remove(p4("10.0.0.0/24")), Some(1));
        assert!(t.is_empty());
        assert_eq!(t.remove(p4("10.0.0.0/24")), None);
    }

    #[test]
    fn default_route_patricia() {
        let mut t: Patricia<u32, u16> = Patricia::new();
        t.insert(Prefix::DEFAULT, 9);
        t.insert(p4("10.0.0.0/8"), 1);
        assert_eq!(t.lookup(0x0A000001), Some(&1));
        assert_eq!(t.lookup(0xDEAD_BEEF), Some(&9));
    }

    #[test]
    fn host_route_u128() {
        let mut t: Patricia<u128, u16> = Patricia::new();
        let host = p6("2001:db8::1/128");
        t.insert(host, 1);
        assert_eq!(t.lookup(0x2001_0db8u128 << 96 | 1), Some(&1));
        assert_eq!(t.lookup(0x2001_0db8u128 << 96 | 2), None);
    }

    #[test]
    fn iter_matches_inserts() {
        let routes = vec![
            (p4("10.0.0.0/8"), 1u16),
            (p4("10.0.0.0/16"), 2),
            (p4("172.16.0.0/12"), 3),
        ];
        let mut t: Patricia<u32, u16> = Patricia::new();
        for &(p, v) in &routes {
            t.insert(p, v);
        }
        let mut got: Vec<(Prefix<u32>, u16)> = t.iter().map(|(p, v)| (p, *v)).collect();
        got.sort();
        assert_eq!(got, routes);
    }
}

mod aggregate_more {
    use super::*;

    #[test]
    fn aggregation_is_idempotent() {
        use poptrie_rng::prelude::*;
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..50 {
            let mut t: RadixTree<u16, u16> = RadixTree::new();
            for _ in 0..60 {
                t.insert(
                    Prefix::new(rng.gen::<u16>(), rng.gen_range(0..=16)),
                    rng.gen_range(1..=3),
                );
            }
            let once = t.aggregated();
            let twice = once.aggregated();
            assert_eq!(once.to_routes(), twice.to_routes());
        }
    }

    #[test]
    fn aggregates_nested_chain_to_single_route() {
        // A chain of nested prefixes all mapping to nh 1 collapses to the
        // shortest one.
        let t = RadixTree::from_routes(vec![
            (p4("10.0.0.0/8"), 1u16),
            (p4("10.0.0.0/16"), 1),
            (p4("10.0.0.0/24"), 1),
            (p4("10.0.0.0/32"), 1),
        ]);
        assert_eq!(t.aggregated().to_routes(), vec![(p4("10.0.0.0/8"), 1)]);
    }

    #[test]
    fn hole_punching_survives_aggregation() {
        // A different-nexthop hole must not be absorbed.
        let t = RadixTree::from_routes(vec![(p4("10.0.0.0/8"), 1u16), (p4("10.1.0.0/16"), 2)]);
        let a = t.aggregated();
        assert_eq!(a.len(), 2);
        assert_eq!(Lpm::lookup(&a, 0x0A01_0001u32), Some(2));
        assert_eq!(Lpm::lookup(&a, 0x0A02_0001u32), Some(1));
    }

    #[test]
    fn default_route_enables_whole_table_collapse() {
        // With a default route of the same nexthop, everything merges away.
        let t = RadixTree::from_routes(vec![
            (p4("0.0.0.0/0"), 1u16),
            (p4("10.0.0.0/8"), 1),
            (p4("192.0.2.0/24"), 1),
        ]);
        assert_eq!(t.aggregated().to_routes(), vec![(p4("0.0.0.0/0"), 1)]);
    }
}

mod depth {
    use super::*;
    use poptrie_rng::prelude::*;

    #[test]
    fn depth_lookup_agrees_with_plain_lookup() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut t: RadixTree<u32, u16> = RadixTree::new();
        for _ in 0..3000 {
            let len = *[8u8, 16, 24, 28, 32].choose(&mut rng).unwrap();
            t.insert(Prefix::new(rng.gen(), len), rng.gen_range(1..=9));
        }
        for _ in 0..50_000 {
            let key: u32 = rng.gen();
            let (v, depth, plen) = t.lookup_with_depth(key);
            assert_eq!(v, t.lookup(key));
            assert!(depth <= 32);
            if let Some(plen) = plen {
                assert!(
                    depth >= plen as u32,
                    "depth {depth} < matched length {plen}"
                );
                // The matched prefix really matches and has that length.
                let p = Prefix::new(key, plen);
                assert!(t.get(p).is_some(), "{p}");
            } else {
                assert_eq!(v, None);
            }
        }
    }

    #[test]
    fn depth_zero_on_empty_tree() {
        let t: RadixTree<u32, u16> = RadixTree::new();
        assert_eq!(t.lookup_with_depth(0xDEAD_BEEF), (None, 0, None));
    }

    #[test]
    fn default_route_matches_at_length_zero() {
        let mut t: RadixTree<u32, u16> = RadixTree::new();
        t.insert(Prefix::DEFAULT, 7);
        let (v, depth, plen) = t.lookup_with_depth(0xDEAD_BEEF);
        assert_eq!(v, Some(&7));
        assert_eq!(depth, 0);
        assert_eq!(plen, Some(0));
    }
}

mod diff {
    use super::*;

    #[test]
    fn diff_identifies_all_change_kinds() {
        let old = RadixTree::from_routes(vec![
            (p4("10.0.0.0/8"), 1u16),
            (p4("10.1.0.0/16"), 2),
            (p4("192.0.2.0/24"), 3),
        ]);
        let new = RadixTree::from_routes(vec![
            (p4("10.0.0.0/8"), 1u16),   // unchanged
            (p4("10.1.0.0/16"), 9),     // changed
            (p4("198.51.100.0/24"), 4), // added
        ]);
        let d = old.diff(&new);
        assert_eq!(d.added, vec![(p4("198.51.100.0/24"), 4)]);
        assert_eq!(d.removed, vec![(p4("192.0.2.0/24"), 3)]);
        assert_eq!(d.changed, vec![(p4("10.1.0.0/16"), 2, 9)]);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
    }

    #[test]
    fn diff_of_identical_tables_is_empty() {
        let t = RadixTree::from_routes(vec![(p4("10.0.0.0/8"), 1u16)]);
        assert!(t.diff(&t.clone()).is_empty());
        let empty: RadixTree<u32, u16> = RadixTree::new();
        assert!(empty.diff(&RadixTree::new()).is_empty());
    }

    #[test]
    fn applying_a_diff_converges_the_tables() {
        use poptrie_rng::prelude::*;
        let mut rng = StdRng::seed_from_u64(44);
        for _ in 0..20 {
            let mut old: RadixTree<u16, u16> = RadixTree::new();
            let mut new: RadixTree<u16, u16> = RadixTree::new();
            for _ in 0..60 {
                let p = Prefix::new(rng.gen::<u16>(), rng.gen_range(0..=16));
                let v = rng.gen_range(1..=5);
                if rng.gen_bool(0.6) {
                    old.insert(p, v);
                }
                if rng.gen_bool(0.6) {
                    new.insert(p, rng.gen_range(1..=5));
                }
            }
            let d = old.diff(&new);
            let mut converged = old.clone();
            for (p, _) in &d.removed {
                converged.remove(*p);
            }
            for (p, v) in &d.added {
                converged.insert(*p, *v);
            }
            for (p, _, v) in &d.changed {
                converged.insert(*p, *v);
            }
            assert_eq!(converged.to_routes(), new.to_routes());
        }
    }

    #[test]
    fn length_differences_are_not_value_changes() {
        // 10.0.0.0/8 vs 10.0.0.0/9 are different prefixes entirely.
        let old = RadixTree::from_routes(vec![(p4("10.0.0.0/8"), 1u16)]);
        let new = RadixTree::from_routes(vec![(p4("10.0.0.0/9"), 1u16)]);
        let d = old.diff(&new);
        assert_eq!(d.added.len(), 1);
        assert_eq!(d.removed.len(), 1);
        assert!(d.changed.is_empty());
    }
}

mod u64_keys {
    use super::*;

    #[test]
    fn radix_and_patricia_work_on_u64() {
        let p = |addr: u64, len: u8| Prefix::new(addr, len);
        let routes = vec![
            (p(0xFFFF_0000_0000_0000, 16), 1u16),
            (p(0xFFFF_FFFF_0000_0000, 32), 2),
            (p(0, 0), 3),
        ];
        let radix: RadixTree<u64, u16> = RadixTree::from_routes(routes.clone());
        let mut pat: Patricia<u64, u16> = Patricia::new();
        for &(p, v) in &routes {
            pat.insert(p, v);
        }
        for key in [
            0xFFFF_FFFF_1234_5678u64,
            0xFFFF_0000_1234_5678,
            0x1234_5678_0000_0000,
            u64::MAX,
            0,
        ] {
            assert_eq!(radix.lookup(key), pat.lookup(key), "{key:#x}");
        }
        assert_eq!(radix.lookup(0xFFFF_FFFF_0000_0001), Some(&2));
    }
}

mod cross_validation {
    use super::*;
    use poptrie_rng::{check, StdRng};

    /// Arbitrary route tables over a 16-bit key space.
    fn routes(r: &mut StdRng) -> Vec<(Prefix<u16>, u16)> {
        (0..r.gen_range(0..60))
            .map(|_| {
                let addr = r.gen::<u16>();
                let len = r.gen_range(0u8..=16);
                (Prefix::new(addr, len), r.gen_range(1u16..=30))
            })
            .collect()
    }

    fn keys(r: &mut StdRng) -> Vec<u16> {
        (0..64).map(|_| r.gen()).collect()
    }

    #[test]
    fn radix_patricia_linear_agree() {
        check(
            "radix_patricia_linear_agree",
            256,
            |r| (routes(r), keys(r)),
            |(routes, keys)| {
                let radix: RadixTree<u16, u16> = RadixTree::from_routes(routes.clone());
                let mut pat: Patricia<u16, u16> = Patricia::new();
                for &(p, v) in &routes {
                    pat.insert(p, v);
                }
                let lin = LinearLpm::new(routes.clone());
                assert_eq!(radix.len(), pat.len());
                for key in keys {
                    let want = Lpm::lookup(&lin, key);
                    assert_eq!(Lpm::lookup(&radix, key), want);
                    assert_eq!(Lpm::lookup(&pat, key), want);
                }
            },
        );
    }

    #[test]
    fn aggregation_preserves_lookup() {
        check(
            "aggregation_preserves_lookup",
            256,
            |r| (routes(r), keys(r)),
            |(routes, keys)| {
                let radix: RadixTree<u16, u16> = RadixTree::from_routes(routes);
                let agg = radix.aggregated();
                assert!(agg.len() <= radix.len());
                for key in keys {
                    assert_eq!(radix.lookup(key), agg.lookup(key));
                }
            },
        );
    }

    #[test]
    fn removal_matches_linear() {
        check(
            "removal_matches_linear",
            256,
            |r| {
                (0..r.gen_range(1..80))
                    .map(|_| {
                        let is_insert = r.gen::<bool>();
                        let addr = r.gen::<u16>();
                        let len = r.gen_range(0u8..=16);
                        (is_insert, Prefix::new(addr, len), r.gen_range(1u16..=5))
                    })
                    .collect::<Vec<_>>()
            },
            |ops| {
                let mut radix: RadixTree<u16, u16> = RadixTree::new();
                let mut lin = LinearLpm::new(Vec::new());
                for (is_insert, p, nh) in ops {
                    if is_insert {
                        radix.insert(p, nh);
                        lin.insert(p, nh);
                    } else {
                        let a = radix.remove(p);
                        let b = lin.remove(p);
                        assert_eq!(a.is_some(), b.is_some());
                    }
                }
                assert_eq!(radix.len(), lin.len());
                for key in (0..=u16::MAX).step_by(257) {
                    assert_eq!(Lpm::lookup(&radix, key), Lpm::lookup(&lin, key));
                }
            },
        );
    }
}

mod oracle_hooks {
    use super::*;

    #[test]
    fn prefix_first_and_last_addr() {
        let p = p4("192.0.2.0/24");
        assert_eq!(p.first_addr(), 0xC000_0200);
        assert_eq!(p.last_addr(), 0xC000_02FF);
        let host = p4("10.1.2.3/32");
        assert_eq!(host.first_addr(), host.last_addr());
        let all: Prefix<u32> = Prefix::DEFAULT;
        assert_eq!(all.first_addr(), 0);
        assert_eq!(all.last_addr(), u32::MAX);
        let v6 = p6("2001:db8::/32");
        assert_eq!(v6.first_addr(), 0x2001_0db8_u128 << 96);
        assert_eq!(
            v6.last_addr(),
            (0x2001_0db8_u128 << 96) | ((1u128 << 96) - 1)
        );
    }

    #[test]
    fn radix_check_invariants_tracks_churn() {
        let mut t: RadixTree<u32, u16> = RadixTree::new();
        t.check_invariants().unwrap();
        t.insert(p4("10.0.0.0/8"), 1);
        t.insert(p4("10.1.0.0/16"), 2);
        t.insert(p4("10.1.2.0/24"), 3);
        t.check_invariants().unwrap();
        // Removing the middle prefix must not leave a dead interior node.
        t.remove(p4("10.1.0.0/16"));
        t.check_invariants().unwrap();
        t.remove(p4("10.1.2.0/24"));
        t.remove(p4("10.0.0.0/8"));
        t.check_invariants().unwrap();
        assert!(t.is_empty());
    }
}

mod prefix_try_new {
    use super::*;
    use crate::PrefixError;

    #[test]
    fn accepts_canonical_and_rejects_host_bits() {
        assert_eq!(Prefix::<u32>::try_new(0x0A00_0000, 8), Ok(p4("10.0.0.0/8")));
        assert_eq!(Prefix::<u32>::try_new(0, 0), Ok(Prefix::DEFAULT));
        assert_eq!(
            Prefix::<u32>::try_new(0x0A00_0001, 8),
            Err(PrefixError::NonCanonical { len: 8 })
        );
        assert_eq!(
            Prefix::<u32>::try_new(0, 40),
            Err(PrefixError::TooLong { len: 40, width: 32 })
        );
        // Host prefixes are canonical by definition.
        assert!(Prefix::<u32>::try_new(0xFFFF_FFFF, 32).is_ok());
        assert!(Prefix::<u128>::try_new(1, 128).is_ok());
        assert_eq!(
            Prefix::<u128>::try_new(1, 64),
            Err(PrefixError::NonCanonical { len: 64 })
        );
    }

    #[test]
    fn errors_render() {
        let e = PrefixError::TooLong { len: 40, width: 32 };
        assert!(e.to_string().contains("40"));
        let e = PrefixError::NonCanonical { len: 8 };
        assert!(e.to_string().contains("host bits"));
    }
}

// The Lpm conformance contract, on the two RIB-side implementations.
crate::lpm_contract_tests!(radix_contract_v4, u32, |rib: &RadixTree<u32, u16>| rib
    .clone());
crate::lpm_contract_tests!(radix_contract_v6, u128, |rib: &RadixTree<u128, u16>| rib
    .clone());
