use crate::{internal_bit, TreeBitmap, TreeBitmap4, TreeBitmap64};
use poptrie_rib::LinearLpm;
use poptrie_rib::{Lpm, Prefix, RadixTree};
use poptrie_rng::prelude::*;

fn p4(s: &str) -> Prefix<u32> {
    s.parse().unwrap()
}

#[test]
fn internal_bit_layout() {
    // Length-ordered, then value-ordered: the canonical Tree BitMap order.
    assert_eq!(internal_bit(0, 0), 0);
    assert_eq!(internal_bit(1, 0), 1);
    assert_eq!(internal_bit(1, 1), 2);
    assert_eq!(internal_bit(2, 0), 3);
    assert_eq!(internal_bit(5, 31), 62); // last bit of a stride-6 node
}

#[test]
fn empty_table() {
    let rib: RadixTree<u32, u16> = RadixTree::new();
    let t = TreeBitmap64::from_rib(&rib);
    assert_eq!(t.lookup(0), None);
    assert_eq!(t.lookup(u32::MAX), None);
    assert_eq!(t.node_count(), 1);
}

#[test]
fn basic_routes_both_strides() {
    let mut rib: RadixTree<u32, u16> = RadixTree::new();
    rib.insert(p4("0.0.0.0/0"), 9);
    rib.insert(p4("10.0.0.0/8"), 1);
    rib.insert(p4("10.1.0.0/16"), 2);
    rib.insert(p4("10.1.128.0/17"), 3);
    rib.insert(p4("192.0.2.1/32"), 4);

    fn check<const S: u32>(t: &TreeBitmap<u32, S>) {
        assert_eq!(t.lookup(0x0A01_8001), Some(3));
        assert_eq!(t.lookup(0x0A01_0001), Some(2));
        assert_eq!(t.lookup(0x0A02_0001), Some(1));
        assert_eq!(t.lookup(0x0B00_0001), Some(9));
        assert_eq!(t.lookup(0xC000_0201), Some(4));
        assert_eq!(t.lookup(0xC000_0202), Some(9));
    }
    check(&TreeBitmap4::from_rib(&rib));
    check(&TreeBitmap64::from_rib(&rib));
}

#[test]
fn prefix_at_stride_boundary() {
    // A /6 and /12 sit exactly on stride-6 node boundaries; their values
    // land in the child node's internal bit (r = 0).
    let mut rib: RadixTree<u32, u16> = RadixTree::new();
    rib.insert(p4("4.0.0.0/6"), 1);
    rib.insert(p4("4.16.0.0/12"), 2);
    let t = TreeBitmap64::from_rib(&rib);
    assert_eq!(t.lookup(0x0410_0001), Some(2));
    assert_eq!(t.lookup(0x0420_0001), Some(1));
    assert_eq!(t.lookup(0x0800_0001), None);
}

#[test]
fn exhaustive_u16_against_radix() {
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..25 {
        let mut rib: RadixTree<u16, u16> = RadixTree::new();
        for _ in 0..50 {
            rib.insert(
                Prefix::new(rng.gen::<u16>(), rng.gen_range(0..=16)),
                rng.gen_range(1..=9),
            );
        }
        let t4: TreeBitmap4<u16> = TreeBitmap::from_rib(&rib);
        let t6: TreeBitmap64<u16> = TreeBitmap::from_rib(&rib);
        for key in 0..=u16::MAX {
            let want = rib.lookup(key).copied();
            assert_eq!(t4.lookup(key), want, "stride4 key={key:#06x}");
            assert_eq!(t6.lookup(key), want, "stride6 key={key:#06x}");
        }
    }
}

#[test]
fn random_u32_against_radix() {
    let mut rng = StdRng::seed_from_u64(12);
    let mut rib: RadixTree<u32, u16> = RadixTree::new();
    for _ in 0..5000 {
        let len = *[8u8, 12, 16, 20, 24, 28, 32].choose(&mut rng).unwrap();
        rib.insert(Prefix::new(rng.gen(), len), rng.gen_range(1..=64));
    }
    let t = TreeBitmap64::from_rib(&rib);
    for _ in 0..50_000 {
        let key: u32 = rng.gen();
        assert_eq!(t.lookup(key), rib.lookup(key).copied());
    }
    for (p, _) in rib.iter() {
        assert_eq!(t.lookup(p.addr()), rib.lookup(p.addr()).copied());
    }
}

#[test]
fn ipv6_lookup() {
    let mut rib: RadixTree<u128, u16> = RadixTree::new();
    rib.insert("2001:db8::/32".parse().unwrap(), 1);
    rib.insert("2001:db8:0:1::/64".parse().unwrap(), 2);
    let t: TreeBitmap64<u128> = TreeBitmap::from_rib(&rib);
    assert_eq!(t.lookup(0x2001_0db8_0000_0001u128 << 64 | 5), Some(2));
    assert_eq!(t.lookup(0x2001_0db8_ffff_0000u128 << 64 | 5), Some(1));
    assert_eq!(t.lookup(1u128), None);
}

#[test]
fn memory_and_name() {
    let mut rib: RadixTree<u32, u16> = RadixTree::new();
    rib.insert(p4("10.0.0.0/8"), 1);
    let t = TreeBitmap64::from_rib(&rib);
    assert!(Lpm::<u32>::memory_bytes(&t) > 0);
    assert_eq!(Lpm::<u32>::name(&t), "Tree BitMap (64-ary)");
    let t = TreeBitmap4::from_rib(&rib);
    assert_eq!(Lpm::<u32>::name(&t), "Tree BitMap");
}

mod prop {
    use super::*;
    use poptrie_rng::check;

    #[test]
    fn agrees_with_linear_oracle() {
        check(
            "agrees_with_linear_oracle",
            48,
            |r| {
                let routes: Vec<(Prefix<u16>, u16)> = (0..r.gen_range(0..60))
                    .map(|_| {
                        let addr = r.gen::<u16>();
                        let len = r.gen_range(0u8..=16);
                        (Prefix::new(addr, len), r.gen_range(1u16..=20))
                    })
                    .collect();
                let keys: Vec<u16> = (0..128).map(|_| r.gen()).collect();
                (routes, keys)
            },
            |(routes, keys)| {
                let rib: RadixTree<u16, u16> = RadixTree::from_routes(routes);
                let lin = LinearLpm::new(rib.to_routes());
                let t4: TreeBitmap4<u16> = TreeBitmap::from_rib(&rib);
                let t6: TreeBitmap64<u16> = TreeBitmap::from_rib(&rib);
                for key in keys {
                    let want = Lpm::lookup(&lin, key);
                    assert_eq!(t4.lookup(key), want);
                    assert_eq!(t6.lookup(key), want);
                }
            },
        );
    }
}

// The cross-crate Lpm conformance contract (rib crate), over both stride
// variants and the IPv6 key width.
poptrie_rib::lpm_contract_tests!(treebitmap_contract_v4, u32, |rib: &RadixTree<u32, u16>| {
    TreeBitmap64::<u32>::from_rib(rib)
});
poptrie_rib::lpm_contract_tests!(treebitmap_contract_s4, u32, |rib: &RadixTree<u32, u16>| {
    TreeBitmap4::<u32>::from_rib(rib)
});
poptrie_rib::lpm_contract_tests!(treebitmap_contract_v6, u128, |rib: &RadixTree<
    u128,
    u16,
>| {
    TreeBitmap64::<u128>::from_rib(rib)
});
