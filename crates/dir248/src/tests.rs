use crate::{Dir248, Dir248Error, MAX_LONG_BLOCKS};
use poptrie_rib::LinearLpm;
use poptrie_rib::{Lpm, Prefix, RadixTree};
use poptrie_rng::prelude::*;

fn p4(s: &str) -> Prefix<u32> {
    s.parse().unwrap()
}

fn rib_from(routes: &[(&str, u16)]) -> RadixTree<u32, u16> {
    RadixTree::from_routes(routes.iter().map(|&(p, nh)| (p4(p), nh)))
}

#[test]
fn empty_table() {
    let rib: RadixTree<u32, u16> = RadixTree::new();
    let d = Dir248::from_rib(&rib).unwrap();
    assert_eq!(d.lookup(0), None);
    assert_eq!(d.lookup(u32::MAX), None);
    assert_eq!(d.long_blocks(), 0);
    // TBL24 alone is 32 MiB — the cost the paper's s = 16/18 avoids.
    assert_eq!(Lpm::memory_bytes(&d), (1 << 24) * 2);
}

#[test]
fn shallow_prefixes_are_one_access() {
    let rib = rib_from(&[("0.0.0.0/0", 9), ("10.0.0.0/8", 1), ("10.1.2.0/24", 2)]);
    let d = Dir248::from_rib(&rib).unwrap();
    assert_eq!(d.lookup(0x0A01_0203), Some(2));
    assert_eq!(d.lookup(0x0A01_0303), Some(1));
    assert_eq!(d.lookup(0x0B01_0303), Some(9));
    assert_eq!(d.long_blocks(), 0, "no deep routes, no TBLlong");
}

#[test]
fn deep_prefixes_allocate_long_blocks() {
    let rib = rib_from(&[
        ("10.1.2.0/24", 1),
        ("10.1.2.128/25", 2),
        ("10.1.2.130/32", 3),
    ]);
    let d = Dir248::from_rib(&rib).unwrap();
    assert_eq!(d.long_blocks(), 1);
    assert_eq!(d.lookup(0x0A01_0201), Some(1));
    assert_eq!(d.lookup(0x0A01_0281), Some(2));
    assert_eq!(d.lookup(0x0A01_0282), Some(3));
    assert_eq!(d.lookup(0x0A01_0301), None);
}

#[test]
fn exhaustive_u32_slice_against_radix() {
    let mut rng = StdRng::seed_from_u64(51);
    let mut rib: RadixTree<u32, u16> = RadixTree::new();
    rib.insert(p4("10.1.0.0/16"), 1);
    for _ in 0..300 {
        let addr = 0x0A01_0000 | (rng.gen::<u32>() & 0xFFFF);
        rib.insert(
            Prefix::new(addr, rng.gen_range(17..=32)),
            rng.gen_range(1..=200),
        );
    }
    let d = Dir248::from_rib(&rib).unwrap();
    for low in 0..=0xFFFFu32 {
        let key = 0x0A01_0000 | low;
        assert_eq!(d.lookup(key), rib.lookup(key).copied(), "key={key:#010x}");
    }
}

#[test]
fn random_u32_against_radix() {
    let mut rng = StdRng::seed_from_u64(52);
    let mut rib: RadixTree<u32, u16> = RadixTree::new();
    for _ in 0..5000 {
        let len = *[8u8, 12, 16, 20, 24, 28, 32].choose(&mut rng).unwrap();
        rib.insert(Prefix::new(rng.gen(), len), rng.gen_range(1..=64));
    }
    let d = Dir248::from_rib(&rib).unwrap();
    for _ in 0..50_000 {
        let key: u32 = rng.gen();
        assert_eq!(d.lookup(key), rib.lookup(key).copied());
    }
}

#[test]
fn long_block_overflow_reported() {
    // > 2^15 deep /24 blocks.
    let mut rib: RadixTree<u32, u16> = RadixTree::new();
    for hi in 0..200u32 {
        for mid in 0..170u32 {
            rib.insert(Prefix::new((10 << 24) | (hi << 16) | (mid << 8), 25), 1);
        }
    }
    const _: () = assert!(200 * 170 > MAX_LONG_BLOCKS);
    let err = Dir248::from_rib(&rib).unwrap_err();
    assert!(
        matches!(err, Dir248Error::LongBlockOverflow { .. }),
        "{err:?}"
    );
}

#[test]
fn next_hop_limits() {
    let rib = rib_from(&[("10.0.0.0/8", 0x7FFF)]);
    let d = Dir248::from_rib(&rib).unwrap();
    assert_eq!(d.lookup(0x0A00_0001), Some(0x7FFF));
    let rib = rib_from(&[("10.0.0.0/8", 0x8000)]);
    assert_eq!(
        Dir248::from_rib(&rib).unwrap_err(),
        Dir248Error::NextHopOverflow
    );
    assert_eq!(
        Lpm::name(&Dir248::from_rib(&rib_from(&[])).unwrap()),
        "DIR-24-8"
    );
}

mod prop {
    use super::*;
    use poptrie_rng::check;

    #[test]
    fn matches_oracle() {
        check(
            "matches_oracle",
            24,
            |r| {
                let routes: Vec<(Prefix<u32>, u16)> = (0..r.gen_range(0..40))
                    .map(|_| {
                        let addr = r.gen::<u32>();
                        let len = r.gen_range(0u8..=32);
                        (Prefix::new(addr, len), r.gen_range(1u16..=500))
                    })
                    .collect();
                let keys: Vec<u32> = (0..128).map(|_| r.gen()).collect();
                (routes, keys)
            },
            |(routes, keys)| {
                let rib = RadixTree::from_routes(routes);
                let lin = LinearLpm::new(rib.to_routes());
                let d = Dir248::from_rib(&rib).unwrap();
                for key in keys {
                    assert_eq!(d.lookup(key), Lpm::lookup(&lin, key));
                }
            },
        );
    }
}

// The cross-crate Lpm conformance contract (rib crate).
poptrie_rib::lpm_contract_tests!(dir248_contract_v4, u32, |rib: &RadixTree<u32, u16>| {
    Dir248::from_rib(rib).unwrap()
});
