use crate::{Sail, SailError, MAX_CHUNKS};
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
    let s = Sail::from_rib(&rib).unwrap();
    assert_eq!(s.lookup(0), None);
    assert_eq!(s.lookup(u32::MAX), None);
    assert_eq!(s.chunk_counts(), (0, 0));
}

#[test]
fn level_pushing_across_boundaries() {
    let rib = rib_from(&[
        ("0.0.0.0/0", 9),     // pushed to /16 everywhere
        ("10.0.0.0/8", 1),    // pushed to /16
        ("10.1.0.0/16", 2),   // exactly /16
        ("10.1.2.0/24", 3),   // exactly /24 (level-2 chunk)
        ("10.1.2.128/26", 4), // pushed to /32 (level-3 chunk)
        ("10.1.2.130/32", 5), // exactly /32
    ]);
    let s = Sail::from_rib(&rib).unwrap();
    assert_eq!(s.lookup(0xDEAD_BEEF), Some(9));
    assert_eq!(s.lookup(0x0A02_0000), Some(1));
    assert_eq!(s.lookup(0x0A01_0300), Some(2));
    assert_eq!(s.lookup(0x0A01_0201), Some(3));
    assert_eq!(s.lookup(0x0A01_0281), Some(4));
    assert_eq!(s.lookup(0x0A01_0282), Some(5));
    let (c24, c32) = s.chunk_counts();
    assert_eq!(c24, 1, "only 10.1/16 holds longer prefixes");
    assert_eq!(c32, 1, "only 10.1.2/24 holds longer prefixes");
}

#[test]
fn prefix_shorter_than_16_fills_range() {
    let rib = rib_from(&[("10.0.0.0/8", 7)]);
    let s = Sail::from_rib(&rib).unwrap();
    assert_eq!(s.lookup(0x0A00_0000), Some(7));
    assert_eq!(s.lookup(0x0AFF_FFFF), Some(7));
    assert_eq!(s.lookup(0x0B00_0000), None);
    assert_eq!(s.lookup(0x09FF_FFFF), None);
}

#[test]
fn exhaustive_u32_slice_against_radix() {
    let mut rng = StdRng::seed_from_u64(31);
    let mut rib: RadixTree<u32, u16> = RadixTree::new();
    rib.insert(p4("10.1.0.0/16"), 1);
    for _ in 0..300 {
        let addr = 0x0A01_0000 | (rng.gen::<u32>() & 0xFFFF);
        rib.insert(
            Prefix::new(addr, rng.gen_range(17..=32)),
            rng.gen_range(1..=200),
        );
    }
    let s = Sail::from_rib(&rib).unwrap();
    for low in 0..=0xFFFFu32 {
        let key = 0x0A01_0000 | low;
        assert_eq!(s.lookup(key), rib.lookup(key).copied(), "key={key:#010x}");
    }
}

#[test]
fn random_u32_against_radix() {
    let mut rng = StdRng::seed_from_u64(32);
    let mut rib: RadixTree<u32, u16> = RadixTree::new();
    for _ in 0..5000 {
        let len = *[8u8, 12, 16, 20, 24, 28, 32].choose(&mut rng).unwrap();
        rib.insert(Prefix::new(rng.gen(), len), rng.gen_range(1..=64));
    }
    let s = Sail::from_rib(&rib).unwrap();
    for _ in 0..50_000 {
        let key: u32 = rng.gen();
        assert_eq!(s.lookup(key), rib.lookup(key).copied());
    }
}

#[test]
fn chunk_overflow_reported() {
    // More than 2^15 /16 blocks containing longer-than-/16 prefixes: the
    // level-24 chunk ids overflow their 15-bit field (§4.8 / Table 5).
    let mut rib: RadixTree<u32, u16> = RadixTree::new();
    for i in 0..(MAX_CHUNKS as u32 + 8) {
        rib.insert(Prefix::new(i << 16, 24), 1);
    }
    let err = Sail::from_rib(&rib).unwrap_err();
    assert!(
        matches!(err, SailError::ChunkOverflow { level: 24, needed } if needed == MAX_CHUNKS + 1),
        "{err:?}"
    );
}

#[test]
fn level32_chunk_overflow_reported() {
    // More than 2^15 /24 blocks holding longer-than-/24 prefixes: the
    // level-32 chunk ids overflow. Spread the /25s across distinct /16s
    // and /24s inside them (256 per /16 keeps the level-24 chunks low).
    // 200 /16 blocks (level-24 chunks stay far under the limit), each with
    // 170 distinct /24 blocks holding a /25: 34,000 level-32 chunks.
    let mut rib: RadixTree<u32, u16> = RadixTree::new();
    for hi in 0..200u32 {
        for mid in 0..170u32 {
            rib.insert(Prefix::new((10 << 24) | (hi << 16) | (mid << 8), 25), 1);
        }
    }
    const _: () = assert!(200 * 170 > MAX_CHUNKS);
    let err = Sail::from_rib(&rib).unwrap_err();
    assert!(
        matches!(err, SailError::ChunkOverflow { level: 32, .. }),
        "{err:?}"
    );
}

#[test]
fn max_next_hop_boundary() {
    // 32767 is the largest next hop that fits beside the chunk flag.
    let rib = rib_from(&[("10.0.0.0/8", 0x7FFF)]);
    let s = Sail::from_rib(&rib).unwrap();
    assert_eq!(s.lookup(0x0A00_0001), Some(0x7FFF));
}

#[test]
fn default_route_fills_entire_n16() {
    let rib = rib_from(&[("0.0.0.0/0", 5)]);
    let s = Sail::from_rib(&rib).unwrap();
    assert_eq!(s.lookup(0), Some(5));
    assert_eq!(s.lookup(u32::MAX), Some(5));
    assert_eq!(s.chunk_counts(), (0, 0));
}

#[test]
fn deep_chain_pushes_through_both_levels() {
    // /18 pushed to 24, /26 and /31 pushed to 32, inside one /16.
    let rib = rib_from(&[("10.1.0.0/18", 1), ("10.1.2.0/26", 2), ("10.1.2.16/31", 3)]);
    let s = Sail::from_rib(&rib).unwrap();
    assert_eq!(s.lookup(0x0A01_0201), Some(2));
    assert_eq!(s.lookup(0x0A01_0210), Some(3));
    assert_eq!(s.lookup(0x0A01_0211), Some(3));
    assert_eq!(s.lookup(0x0A01_0212), Some(2));
    assert_eq!(s.lookup(0x0A01_0301), Some(1));
    assert_eq!(s.lookup(0x0A01_8001), None); // outside the /18
    let (c24, c32) = s.chunk_counts();
    assert_eq!((c24, c32), (1, 1));
}

#[test]
fn next_hop_overflow_reported() {
    let rib = rib_from(&[("10.0.0.0/8", 0x8000)]);
    assert_eq!(
        Sail::from_rib(&rib).unwrap_err(),
        SailError::NextHopOverflow
    );
}

#[test]
fn memory_accounting() {
    let rib = rib_from(&[("10.1.2.0/24", 1), ("10.1.2.128/25", 2)]);
    let s = Sail::from_rib(&rib).unwrap();
    // N16 (2^16) + one level-24 chunk + one level-32 chunk, 2 bytes each.
    assert_eq!(Lpm::memory_bytes(&s), ((1 << 16) + 256 + 256) * 2);
    assert_eq!(Lpm::name(&s), "SAIL");
}

mod prop {
    use super::*;
    use poptrie_rng::check;

    #[test]
    fn sail_matches_oracle() {
        check(
            "sail_matches_oracle",
            32,
            |r| {
                let routes: Vec<(Prefix<u32>, u16)> = (0..r.gen_range(0..50))
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
                let s = Sail::from_rib(&rib).unwrap();
                for key in keys {
                    assert_eq!(s.lookup(key), Lpm::lookup(&lin, key));
                }
            },
        );
    }
}

// The cross-crate Lpm conformance contract (rib crate).
poptrie_rib::lpm_contract_tests!(sail_contract_v4, u32, |rib: &RadixTree<u32, u16>| {
    Sail::from_rib(rib).unwrap()
});
