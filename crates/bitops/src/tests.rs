use crate::{mask_low, rank0, rank1, BitVec64, Bits};

#[test]
fn mask_low_matches_naive() {
    for n in 0..64u32 {
        let naive: u64 = (0..=n).fold(0, |acc, i| acc | (1u64 << i));
        assert_eq!(mask_low(n), naive, "n={n}");
    }
    assert_eq!(mask_low(63), u64::MAX);
    assert_eq!(mask_low(0), 1);
}

#[test]
fn rank_counts_low_bits() {
    let v = 0b1011_0101u64;
    assert_eq!(rank1(v, 0), 1);
    assert_eq!(rank1(v, 1), 1);
    assert_eq!(rank1(v, 2), 2);
    assert_eq!(rank1(v, 7), 5);
    assert_eq!(rank0(v, 7), 3);
    assert_eq!(rank1(u64::MAX, 63), 64);
    assert_eq!(rank0(0, 63), 64);
}

#[test]
fn rank1_plus_rank0_is_width() {
    let v = 0xdead_beef_cafe_f00du64;
    for n in 0..64 {
        assert_eq!(rank1(v, n) + rank0(v, n), n + 1);
    }
}

#[test]
fn extract_u32_basic() {
    let key: u32 = 0b1010_1100_0000_0000_0000_0000_0000_0000;
    assert_eq!(key.extract(0, 4), 0b1010);
    assert_eq!(key.extract(4, 4), 0b1100);
    assert_eq!(key.extract(0, 1), 1);
    assert_eq!(key.extract(1, 1), 0);
    assert_eq!(key.extract(0, 8), 0b1010_1100);
}

#[test]
fn extract_zero_pads_past_end() {
    // The paper's 64-ary trie with s = 18 extracts at offset 30 on a 32-bit
    // key: two real bits followed by four zero-padded bits.
    let key: u32 = 0x0000_0003; // low two bits set
    assert_eq!(key.extract(30, 6), 0b11_0000);
    assert_eq!(key.extract(32, 6), 0);
    assert_eq!(key.extract(100, 6), 0);
    let key: u32 = u32::MAX;
    assert_eq!(key.extract(30, 6), 0b11_0000);
}

#[test]
fn extract_boundary_chunks_mask_exactly() {
    // The boundary audit behind the batched walker's key-width assert:
    // the deepest legal chain on each key width ends with a chunk that
    // straddles the key end, and every bit past the end must read as 0 —
    // in release builds too, where the walker's debug_assert is gone.
    // u32, s = 18: chunk offsets 18, 24, 30; the offset-30 chunk holds
    // bits 30..32 then four pad bits.
    for key in [0u32, 1, 3, 0xFFFF_FFFF, 0xDEAD_BEEF] {
        let top2 = (key & 0b11) << 4;
        assert_eq!(key.extract(30, 6), top2, "key={key:#x}");
        assert_eq!(key.extract(30, 6) & 0b1111, 0, "pad bits must be zero");
        // One phantom level deeper (only reachable on a corrupt trie):
        // fully past the end, must be all-zero, not garbage.
        assert_eq!(key.extract(36, 6), 0);
    }
    // u128, s = 16: chunk offsets 16, 22, …, 124; the offset-124 chunk
    // holds bits 124..128 then two pad bits.
    for key in [
        0u128,
        1,
        0xF,
        u128::MAX,
        0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210,
    ] {
        let low4 = ((key & 0xF) as u32) << 2;
        assert_eq!(key.extract(124, 6), low4, "key={key:#x}");
        assert_eq!(key.extract(124, 6) & 0b11, 0, "pad bits must be zero");
        assert_eq!(key.extract(126, 6) & 0b1111, 0);
        assert_eq!(key.extract(130, 6), 0);
    }
}

#[test]
fn extract_full_width() {
    let key: u32 = 0xdead_beef;
    assert_eq!(key.extract(0, 32), 0xdead_beef);
    let key: u8 = 0xa5;
    assert_eq!(key.extract(0, 8), 0xa5);
}

#[test]
fn extract_u128_high_and_low() {
    let key: u128 = 0x2001_0db8_0000_0000_0000_0000_0000_0001;
    assert_eq!(key.extract(0, 16), 0x2001);
    assert_eq!(key.extract(16, 16), 0x0db8);
    assert_eq!(key.extract(112, 16), 0x0001);
    assert_eq!(key.extract(122, 6), 1);
    assert_eq!(key.extract(126, 6), 0b01_0000);
}

#[test]
fn bit_msb_first() {
    let key: u32 = 0x8000_0001;
    assert!(key.bit(0));
    assert!(!key.bit(1));
    assert!(!key.bit(30));
    assert!(key.bit(31));
    assert_eq!(u32::single_bit(0), 0x8000_0000);
    assert_eq!(u32::single_bit(31), 1);
}

#[test]
fn prefix_mask_widths() {
    assert_eq!(u32::prefix_mask(0), 0);
    assert_eq!(u32::prefix_mask(8), 0xff00_0000);
    assert_eq!(u32::prefix_mask(24), 0xffff_ff00);
    assert_eq!(u32::prefix_mask(32), u32::MAX);
    assert_eq!(u128::prefix_mask(128), u128::MAX);
    assert_eq!(u8::prefix_mask(3), 0b1110_0000);
}

#[test]
fn from_high_bits_roundtrip() {
    for len in 1..=8u32 {
        for v in 0..(1u32 << len) {
            let k = u8::from_high_bits(v, len);
            assert_eq!(k.extract(0, len), v, "len={len} v={v}");
        }
    }
    assert_eq!(u32::from_high_bits(0xc0, 8), 0xc000_0000);
    assert_eq!(u128::from_high_bits(0x20, 8), 0x20u128 << 120);
    assert_eq!(u32::from_high_bits(0, 0), 0);
}

#[test]
fn from_high_bits_masks_excess() {
    // Bits above `len` in `v` must be ignored.
    assert_eq!(u32::from_high_bits(0xffff_ffff, 4), 0xf000_0000);
}

#[test]
fn u128_conversions() {
    let v: u32 = 0xdead_beef;
    assert_eq!(u32::from_u128(v.to_u128()), v);
    let v: u128 = u128::MAX;
    assert_eq!(u128::from_u128(v.to_u128()), v);
}

#[test]
fn bitvec_set_get_clear() {
    let mut v = BitVec64::EMPTY;
    assert!(v.is_empty());
    v.set(0);
    v.set(63);
    v.set(17);
    assert!(v.get(0) && v.get(63) && v.get(17));
    assert!(!v.get(16));
    assert_eq!(v.count(), 3);
    v.clear(17);
    assert!(!v.get(17));
    assert_eq!(v.count(), 2);
}

#[test]
fn bitvec_rank_and_iter() {
    let mut v = BitVec64::EMPTY;
    for i in [3u32, 5, 40, 63] {
        v.set(i);
    }
    assert_eq!(v.rank1(3), 1);
    assert_eq!(v.rank1(5), 2);
    assert_eq!(v.rank1(63), 4);
    assert_eq!(v.rank0(5), 4);
    let ones: Vec<u32> = v.iter_ones().collect();
    assert_eq!(ones, vec![3, 5, 40, 63]);
    assert_eq!(v.iter_ones().len(), 4);
}

mod prop {
    use super::*;
    use poptrie_rng::check;

    #[test]
    fn extract_matches_naive_u32() {
        check(
            "extract_matches_naive_u32",
            256,
            |r| {
                (
                    r.gen::<u32>(),
                    r.gen_range(0u32..40),
                    r.gen_range(1u32..=32),
                )
            },
            |(key, off, len)| {
                let naive: u32 = (0..len)
                    .map(|i| {
                        let pos = off + i;
                        let bit = if pos < 32 { (key >> (31 - pos)) & 1 } else { 0 };
                        bit << (len - 1 - i)
                    })
                    .fold(0, |a, b| a | b);
                assert_eq!(key.extract(off, len), naive);
            },
        );
    }

    #[test]
    fn extract_matches_naive_u128() {
        check(
            "extract_matches_naive_u128",
            256,
            |r| {
                (
                    r.gen::<u128>(),
                    r.gen_range(0u32..140),
                    r.gen_range(1u32..=32),
                )
            },
            |(key, off, len)| {
                let naive: u32 = (0..len)
                    .map(|i| {
                        let pos = off + i;
                        let bit = if pos < 128 {
                            ((key >> (127 - pos)) & 1) as u32
                        } else {
                            0
                        };
                        bit << (len - 1 - i)
                    })
                    .fold(0, |a, b| a | b);
                assert_eq!(key.extract(off, len), naive);
            },
        );
    }

    #[test]
    fn rank1_matches_scan() {
        check(
            "rank1_matches_scan",
            256,
            |r| (r.gen::<u64>(), r.gen_range(0u32..64)),
            |(v, n)| {
                let naive = (0..=n).filter(|i| (v >> i) & 1 == 1).count() as u32;
                assert_eq!(rank1(v, n), naive);
            },
        );
    }

    #[test]
    fn iter_ones_sorted_and_complete() {
        check(
            "iter_ones_sorted_and_complete",
            256,
            |r| r.gen::<u64>(),
            |v| {
                let ones: Vec<u32> = BitVec64(v).iter_ones().collect();
                assert!(ones.windows(2).all(|w| w[0] < w[1]));
                assert_eq!(ones.len() as u32, v.count_ones());
                for i in &ones {
                    assert!((v >> i) & 1 == 1);
                }
            },
        );
    }

    #[test]
    fn prefix_mask_bit_pattern() {
        check(
            "prefix_mask_bit_pattern",
            256,
            |r| r.gen_range(0u32..=32),
            |len| {
                let m = u32::prefix_mask(len);
                for i in 0..32 {
                    assert_eq!(m.bit(i), i < len);
                }
            },
        );
    }
}
