use crate::{Dxr, Dxr6, DxrConfig, DxrError};
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
    for cfg in [DxrConfig::d16r(), DxrConfig::d18r()] {
        let d = Dxr::from_rib(&rib, cfg).unwrap();
        assert_eq!(d.lookup(0), None);
        assert_eq!(d.lookup(u32::MAX), None);
    }
}

#[test]
fn basic_routes_both_configs() {
    let rib = rib_from(&[
        ("0.0.0.0/0", 9),
        ("10.0.0.0/8", 1),
        ("10.1.0.0/16", 2),
        ("10.1.2.0/24", 3),
        ("10.1.2.42/32", 4),
    ]);
    for cfg in [
        DxrConfig::d16r(),
        DxrConfig::d18r(),
        DxrConfig {
            direct_bits: 18,
            extended_index: true,
        },
    ] {
        let d = Dxr::from_rib(&rib, cfg).unwrap();
        assert_eq!(d.lookup(0x0A01_022A), Some(4), "{cfg:?}");
        assert_eq!(d.lookup(0x0A01_022B), Some(3), "{cfg:?}");
        assert_eq!(d.lookup(0x0A01_0301), Some(2), "{cfg:?}");
        assert_eq!(d.lookup(0x0A02_0301), Some(1), "{cfg:?}");
        assert_eq!(d.lookup(0x0B02_0301), Some(9), "{cfg:?}");
    }
}

#[test]
fn range_boundaries_are_exact() {
    // A /31 creates range boundaries two addresses apart deep inside a
    // chunk — the worst case for off-by-one errors in the binary search.
    let rib = rib_from(&[("10.0.0.0/8", 1), ("10.0.0.4/31", 2)]);
    let d = Dxr::from_rib(&rib, DxrConfig::d18r()).unwrap();
    assert_eq!(d.lookup(0x0A00_0003), Some(1));
    assert_eq!(d.lookup(0x0A00_0004), Some(2));
    assert_eq!(d.lookup(0x0A00_0005), Some(2));
    assert_eq!(d.lookup(0x0A00_0006), Some(1));
}

#[test]
fn short_format_is_used_for_byte_aligned_chunks() {
    // /24s with small next hops inside one /16 chunk: short-format ranges.
    let rib = rib_from(&[("10.0.1.0/24", 2), ("10.0.2.0/24", 3)]);
    let d16 = Dxr::from_rib(&rib, DxrConfig::d16r()).unwrap();
    // Memory check: short entries are 2 bytes each. The chunk holding the
    // /24s must use them, so memory is strictly smaller than an all-long
    // encoding of the same table.
    let ext = Dxr::from_rib(
        &rib,
        DxrConfig {
            direct_bits: 16,
            extended_index: true,
        },
    )
    .unwrap();
    assert!(Lpm::memory_bytes(&d16) < Lpm::memory_bytes(&ext));
    assert_eq!(d16.lookup(0x0A00_0180), Some(2));
    assert_eq!(d16.lookup(0x0A00_0280), Some(3));
    assert_eq!(d16.lookup(0x0A00_0380), None);
}

#[test]
fn long_format_when_nexthop_wide() {
    // Next hop 300 does not fit the short format's 8-bit field.
    let rib = rib_from(&[("10.0.1.0/24", 300)]);
    let d = Dxr::from_rib(&rib, DxrConfig::d16r()).unwrap();
    assert_eq!(d.lookup(0x0A00_0101), Some(300));
}

#[test]
fn exhaustive_u32_slice_against_radix() {
    // Exhaustively check one /16 worth of addresses against the radix
    // tree, with dense unaligned routes inside it.
    let mut rng = StdRng::seed_from_u64(21);
    let mut rib: RadixTree<u32, u16> = RadixTree::new();
    rib.insert(p4("10.1.0.0/16"), 1);
    for _ in 0..300 {
        let addr = 0x0A01_0000 | (rng.gen::<u32>() & 0xFFFF);
        let len = rng.gen_range(17..=32u8);
        rib.insert(Prefix::new(addr, len), rng.gen_range(1..=500));
    }
    for cfg in [DxrConfig::d16r(), DxrConfig::d18r()] {
        let d = Dxr::from_rib(&rib, cfg).unwrap();
        for low in 0..=0xFFFFu32 {
            let key = 0x0A01_0000 | low;
            assert_eq!(d.lookup(key), rib.lookup(key).copied(), "key={key:#010x}");
        }
    }
}

#[test]
fn random_u32_against_radix() {
    let mut rng = StdRng::seed_from_u64(22);
    let mut rib: RadixTree<u32, u16> = RadixTree::new();
    for _ in 0..5000 {
        let len = *[8u8, 12, 16, 20, 24, 28, 32].choose(&mut rng).unwrap();
        rib.insert(Prefix::new(rng.gen(), len), rng.gen_range(1..=64));
    }
    for cfg in [DxrConfig::d16r(), DxrConfig::d18r()] {
        let d = Dxr::from_rib(&rib, cfg).unwrap();
        for _ in 0..50_000 {
            let key: u32 = rng.gen();
            assert_eq!(d.lookup(key), rib.lookup(key).copied());
        }
    }
}

#[test]
fn structural_limit_reported() {
    // Force > 2^19 ranges: alternating next hops on dense /24s prevent
    // merging, giving one range per route plus separators.
    let mut rib: RadixTree<u32, u16> = RadixTree::new();
    let mut count = 0u32;
    'outer: for hi in 0..=255u32 {
        for mid in 0..=255u32 {
            for lo in (0..=255u32).step_by(2) {
                rib.insert(
                    Prefix::new(hi << 24 | mid << 16 | lo << 8, 24),
                    ((lo % 2) + 1 + (count % 7)) as u16,
                );
                count += 1;
                if count > 300_000 {
                    break 'outer;
                }
            }
        }
    }
    let err = Dxr::from_rib(&rib, DxrConfig::d18r()).unwrap_err();
    assert!(
        matches!(err, DxrError::RangeIndexOverflow { limit, .. } if limit == 1 << 19),
        "{err:?}"
    );
    // The §4.8 modified encoding compiles the same table.
    let d = Dxr::from_rib(
        &rib,
        DxrConfig {
            direct_bits: 18,
            extended_index: true,
        },
    )
    .unwrap();
    assert!(d.range_count() > 1 << 19);
    assert_eq!(
        d.lookup(0x0000_0001),
        Some(rib.lookup(0x0000_0001).copied().unwrap())
    );
}

#[test]
fn chunk_range_overflow_reported() {
    // One /16 chunk with alternating-nexthop /32 hosts: > 4095 ranges in a
    // single D16R chunk overflows the 12-bit count field.
    let mut rib: RadixTree<u32, u16> = RadixTree::new();
    for i in 0..4200u32 {
        rib.insert(Prefix::new(0x0A01_0000 | (i * 2), 32), ((i % 2) + 1) as u16);
    }
    let err = Dxr::from_rib(&rib, DxrConfig::d16r()).unwrap_err();
    assert!(
        matches!(err, DxrError::ChunkRangeOverflow { limit: 4095, .. }),
        "{err:?}"
    );
}

#[test]
fn exactly_at_chunk_range_limit_compiles() {
    // 2047 hosts with gaps = 2047*2 + 1 = 4095 ranges: the maximum.
    let mut rib: RadixTree<u32, u16> = RadixTree::new();
    for i in 0..2047u32 {
        rib.insert(Prefix::new(0x0A01_0000 | (i * 4), 32), ((i % 7) + 1) as u16);
    }
    let d = Dxr::from_rib(&rib, DxrConfig::d16r()).unwrap();
    assert_eq!(d.lookup(0x0A01_0000), Some(1));
    assert_eq!(d.lookup(0x0A01_0001), None);
    assert_eq!(d.lookup(0x0A01_0004), Some(2));
}

#[test]
fn wide_next_hops_roundtrip() {
    // Next hops up to the full 16-bit FIB-index width.
    let rib = rib_from(&[("10.0.0.0/8", 65_535), ("10.1.0.0/16", 32_768)]);
    for cfg in [DxrConfig::d16r(), DxrConfig::d18r()] {
        let d = Dxr::from_rib(&rib, cfg).unwrap();
        assert_eq!(d.lookup(0x0A00_0001), Some(65_535));
        assert_eq!(d.lookup(0x0A01_0001), Some(32_768));
    }
}

#[test]
fn uniform_chunk_descriptors_are_shared() {
    // A single /8 covers 1024 D18R chunks; the uniform-chunk cache must
    // keep the range table tiny rather than 1024 copies.
    let rib = rib_from(&[("10.0.0.0/8", 1)]);
    let d = Dxr::from_rib(&rib, DxrConfig::d18r()).unwrap();
    assert!(d.range_count() < 16, "ranges: {}", d.range_count());
}

#[test]
fn names() {
    let rib: RadixTree<u32, u16> = RadixTree::new();
    assert_eq!(
        Lpm::name(&Dxr::from_rib(&rib, DxrConfig::d16r()).unwrap()),
        "D16R"
    );
    assert_eq!(
        Lpm::name(&Dxr::from_rib(&rib, DxrConfig::d18r()).unwrap()),
        "D18R"
    );
}

mod v6 {
    use super::*;

    fn p6(s: &str) -> Prefix<u128> {
        s.parse().unwrap()
    }

    #[test]
    fn basic_v6() {
        let mut rib: RadixTree<u128, u16> = RadixTree::new();
        rib.insert(p6("::/0"), 9);
        rib.insert(p6("2001:db8::/32"), 1);
        rib.insert(p6("2001:db8:0:1::/64"), 2);
        rib.insert(p6("2001:db8::42/128"), 3);
        for s in [16u8, 18] {
            let d = Dxr6::from_rib(&rib, s).unwrap();
            assert_eq!(d.lookup(0x2001_0db8_0000_0001u128 << 64 | 7), Some(2));
            assert_eq!(d.lookup(0x2001_0db8_ffff_0000u128 << 64), Some(1));
            assert_eq!(d.lookup(0x2001_0db8u128 << 96 | 0x42), Some(3));
            assert_eq!(d.lookup(0x3000u128 << 112), Some(9));
        }
    }

    #[test]
    fn random_v6_against_radix() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut rib: RadixTree<u128, u16> = RadixTree::new();
        for _ in 0..2000 {
            let len = *[32u8, 40, 48, 56, 64].choose(&mut rng).unwrap();
            let addr = 0x2000u128 << 112 | (rng.gen::<u128>() >> 8);
            rib.insert(Prefix::new(addr, len), rng.gen_range(1..=32));
        }
        let d = Dxr6::from_rib(&rib, 18).unwrap();
        for _ in 0..20_000 {
            let key = 0x2000u128 << 112 | (rng.gen::<u128>() >> 8);
            assert_eq!(d.lookup(key), rib.lookup(key).copied());
        }
    }

    #[test]
    fn v6_range_count_and_memory() {
        let mut rib: RadixTree<u128, u16> = RadixTree::new();
        rib.insert(p6("2001:db8::/32"), 1);
        let d = Dxr6::from_rib(&rib, 16).unwrap();
        assert!(d.range_count() >= 2, "miss + route + miss boundaries");
        assert!(Lpm::memory_bytes(&d) >= (1 << 16) * 4);
        assert_eq!(Lpm::name(&d), "D16R-IPv6");
    }
}

mod prop {
    use super::*;
    use poptrie_rng::check;

    #[test]
    fn dxr_matches_oracle_on_dense_chunk() {
        check(
            "dxr_matches_oracle_on_dense_chunk",
            32,
            |r| {
                // All routes inside 10.1.0.0/16 so chunk-internal logic is hit.
                let routes: Vec<(Prefix<u32>, u16)> = (0..r.gen_range(1..40))
                    .map(|_| {
                        let low = r.gen_range(0u32..=0xFFFF);
                        let len = r.gen_range(17u8..=32);
                        (Prefix::new(0x0A01_0000 | low, len), r.gen_range(1u16..=300))
                    })
                    .collect();
                let keys: Vec<u32> = (0..64).map(|_| r.gen_range(0u32..=0xFFFF)).collect();
                (routes, keys)
            },
            |(routes, keys)| {
                let rib = RadixTree::from_routes(routes.clone());
                let lin = LinearLpm::new(routes);
                for cfg in [DxrConfig::d16r(), DxrConfig::d18r()] {
                    let d = Dxr::from_rib(&rib, cfg).unwrap();
                    for &low in &keys {
                        let key = 0x0A01_0000 | low;
                        assert_eq!(d.lookup(key), Lpm::lookup(&lin, key));
                    }
                }
            },
        );
    }
}

// The cross-crate Lpm conformance contract (rib crate), at both range
// granularities.
poptrie_rib::lpm_contract_tests!(dxr_contract_d16r, u32, |rib: &RadixTree<u32, u16>| {
    Dxr::from_rib(rib, DxrConfig::d16r()).unwrap()
});
poptrie_rib::lpm_contract_tests!(dxr_contract_d18r, u32, |rib: &RadixTree<u32, u16>| {
    Dxr::from_rib(rib, DxrConfig::d18r()).unwrap()
});
