use crate::{Lulea, LuleaError, MAX_CHUNKS};
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
    let l = Lulea::from_rib(&rib).unwrap();
    assert_eq!(l.lookup(0), None);
    assert_eq!(l.lookup(u32::MAX), None);
    assert_eq!(l.chunk_counts(), (0, 0));
    // The whole empty table is one interval: a single stored pointer.
    assert_eq!(l.pointer_counts(), (1, 0, 0));
}

#[test]
fn interval_compression_is_effective() {
    // A /8 spans 256 level-1 slots but stores ~2 pointers (the interval
    // and the return to no-route) — the compression SAIL forgoes.
    let rib = rib_from(&[("10.0.0.0/8", 7)]);
    let l = Lulea::from_rib(&rib).unwrap();
    let (p1, _, _) = l.pointer_counts();
    assert!(p1 <= 3, "level-1 pointers: {p1}");
    assert_eq!(l.lookup(0x0A12_3456), Some(7));
    assert_eq!(l.lookup(0x0B00_0000), None);
}

#[test]
fn three_levels_resolve() {
    let rib = rib_from(&[
        ("0.0.0.0/0", 9),
        ("10.0.0.0/8", 1),
        ("10.1.0.0/16", 2),
        ("10.1.2.0/24", 3),
        ("10.1.2.128/25", 4),
        ("10.1.2.130/32", 5),
    ]);
    let l = Lulea::from_rib(&rib).unwrap();
    assert_eq!(l.lookup(0xDEAD_BEEF), Some(9));
    assert_eq!(l.lookup(0x0A02_0000), Some(1));
    assert_eq!(l.lookup(0x0A01_0300), Some(2));
    assert_eq!(l.lookup(0x0A01_0201), Some(3));
    assert_eq!(l.lookup(0x0A01_0281), Some(4));
    assert_eq!(l.lookup(0x0A01_0282), Some(5));
    assert_eq!(l.chunk_counts(), (1, 1));
}

#[test]
fn interval_boundaries_are_exact() {
    // Adjacent /16s with different next hops: head bits at exact slots.
    let rib = rib_from(&[("10.0.0.0/16", 1), ("10.1.0.0/16", 2), ("10.3.0.0/16", 3)]);
    let l = Lulea::from_rib(&rib).unwrap();
    assert_eq!(l.lookup(0x0A00_FFFF), Some(1));
    assert_eq!(l.lookup(0x0A01_0000), Some(2));
    assert_eq!(l.lookup(0x0A01_FFFF), Some(2));
    assert_eq!(l.lookup(0x0A02_0000), None); // gap
    assert_eq!(l.lookup(0x0A03_0000), Some(3));
    assert_eq!(l.lookup(0x0A04_0000), None);
}

#[test]
fn exhaustive_u32_slice_against_radix() {
    let mut rng = StdRng::seed_from_u64(71);
    let mut rib: RadixTree<u32, u16> = RadixTree::new();
    rib.insert(p4("10.1.0.0/16"), 1);
    for _ in 0..300 {
        let addr = 0x0A01_0000 | (rng.gen::<u32>() & 0xFFFF);
        rib.insert(
            Prefix::new(addr, rng.gen_range(17..=32)),
            rng.gen_range(1..=200),
        );
    }
    let l = Lulea::from_rib(&rib).unwrap();
    for low in 0..=0xFFFFu32 {
        let key = 0x0A01_0000 | low;
        assert_eq!(l.lookup(key), rib.lookup(key).copied(), "key={key:#010x}");
    }
}

#[test]
fn random_u32_against_radix() {
    let mut rng = StdRng::seed_from_u64(72);
    let mut rib: RadixTree<u32, u16> = RadixTree::new();
    for _ in 0..5000 {
        let len = *[8u8, 12, 16, 20, 24, 28, 32].choose(&mut rng).unwrap();
        rib.insert(Prefix::new(rng.gen(), len), rng.gen_range(1..=64));
    }
    let l = Lulea::from_rib(&rib).unwrap();
    for _ in 0..50_000 {
        let key: u32 = rng.gen();
        assert_eq!(l.lookup(key), rib.lookup(key).copied());
    }
}

#[test]
fn memory_is_smaller_than_sail_shape() {
    // Same structural family as SAIL but interval-compressed: on a
    // sparse-ish table Lulea's footprint must be far below SAIL's fully
    // expanded 2 x 2^16 + chunks.
    let mut rng = StdRng::seed_from_u64(73);
    let mut rib: RadixTree<u32, u16> = RadixTree::new();
    for _ in 0..20_000 {
        rib.insert(Prefix::new(rng.gen(), 24), rng.gen_range(1..=16));
    }
    let l = Lulea::from_rib(&rib).unwrap();
    let sail = poptrie_rib::Lpm::memory_bytes(&l);
    assert!(
        sail < (1 << 16) * 2 + l.chunk_counts().0 * 512,
        "lulea bytes {sail}"
    );
}

#[test]
fn chunk_overflow_reported() {
    let mut rib: RadixTree<u32, u16> = RadixTree::new();
    for i in 0..(MAX_CHUNKS as u32 + 4) {
        rib.insert(Prefix::new(i << 16, 24), 1);
    }
    let err = Lulea::from_rib(&rib).unwrap_err();
    assert!(
        matches!(err, LuleaError::ChunkOverflow { level: 2, .. }),
        "{err:?}"
    );
}

#[test]
fn next_hop_overflow_reported() {
    let rib = rib_from(&[("10.0.0.0/8", 0x8000)]);
    assert_eq!(
        Lulea::from_rib(&rib).unwrap_err(),
        LuleaError::NextHopOverflow
    );
    let rib = rib_from(&[("10.0.0.0/8", 0x7FFF)]);
    let l = Lulea::from_rib(&rib).unwrap();
    assert_eq!(l.lookup(0x0A00_0001), Some(0x7FFF));
    assert_eq!(Lpm::name(&l), "Lulea");
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
                let l = Lulea::from_rib(&rib).unwrap();
                for key in keys {
                    assert_eq!(l.lookup(key), Lpm::lookup(&lin, key));
                }
            },
        );
    }
}

// The cross-crate Lpm conformance contract (rib crate).
poptrie_rib::lpm_contract_tests!(lulea_contract_v4, u32, |rib: &RadixTree<u32, u16>| {
    Lulea::from_rib(rib).unwrap()
});
