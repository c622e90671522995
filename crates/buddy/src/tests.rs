use crate::{order_of, Buddy};
use poptrie_rng::prelude::*;
use std::collections::HashMap;

#[test]
fn order_rounding() {
    assert_eq!(order_of(1), 0);
    assert_eq!(order_of(2), 1);
    assert_eq!(order_of(3), 2);
    assert_eq!(order_of(4), 2);
    assert_eq!(order_of(5), 3);
    assert_eq!(order_of(64), 6);
    assert_eq!(order_of(65), 7);
}

#[test]
fn alloc_free_roundtrip() {
    let mut b = Buddy::new();
    let a = b.alloc(8);
    let c = b.alloc(8);
    assert_ne!(a, c);
    assert_eq!(b.allocated_slots(), 16);
    assert_eq!(b.live_blocks(), 2);
    b.free(a, 8);
    b.free(c, 8);
    assert_eq!(b.allocated_slots(), 0);
    assert_eq!(b.live_blocks(), 0);
    b.check_invariants().unwrap();
}

#[test]
fn blocks_do_not_overlap() {
    let mut b = Buddy::new();
    let mut runs: Vec<(u32, u32)> = Vec::new();
    let sizes = [1u32, 3, 64, 7, 2, 128, 1, 31, 64, 5];
    for &n in &sizes {
        let off = b.alloc(n);
        let rounded = n.next_power_of_two();
        for &(o, s) in &runs {
            assert!(off + rounded <= o || o + s <= off, "overlap");
        }
        runs.push((off, rounded));
    }
    b.check_invariants().unwrap();
}

#[test]
fn full_free_coalesces_back() {
    let mut b = Buddy::new();
    let offs: Vec<u32> = (0..64).map(|_| b.alloc(4)).collect();
    let cap = b.capacity();
    for off in offs {
        b.free(off, 4);
    }
    assert_eq!(b.allocated_slots(), 0);
    // After freeing everything, one more allocation of the whole capacity
    // must succeed without growing: complete coalescing happened.
    let off = b.alloc(cap);
    assert_eq!(off, 0);
    assert_eq!(b.capacity(), cap);
}

#[test]
fn reuse_prefers_freed_space() {
    let mut b = Buddy::new();
    let a = b.alloc(16);
    let _hold = b.alloc(16);
    b.free(a, 16);
    let again = b.alloc(16);
    assert_eq!(a, again, "freed block should be reused");
}

#[test]
#[should_panic(expected = "double free")]
fn double_free_panics() {
    let mut b = Buddy::new();
    let a = b.alloc(4);
    b.free(a, 4);
    b.free(a, 4);
}

#[test]
#[should_panic(expected = "non-live block")]
fn double_free_into_coalesced_span_panics() {
    // Regression for the double-free hardening: free two sibling blocks
    // so they coalesce into a larger span, then free one of them again.
    // The exact-block check alone (`free[order].contains(&off)`) misses
    // this — the order-2 block no longer exists, its span lives at a
    // higher order — and the stale free used to corrupt the accounting.
    let mut b = Buddy::new();
    let a = b.alloc(4);
    let c = b.alloc(4);
    assert_eq!(a ^ 4, c, "siblings, so they coalesce");
    b.free(a, 4);
    b.free(c, 4);
    b.free(a, 4);
}

#[test]
#[should_panic(expected = "cannot allocate an empty run")]
fn zero_alloc_panics() {
    let mut b = Buddy::new();
    b.alloc(0);
}

#[test]
fn with_capacity_presizes() {
    let b = Buddy::with_capacity(1000);
    assert!(b.capacity() >= 1000);
    b.check_invariants().unwrap();
}

#[test]
fn reset_keeps_capacity() {
    let mut b = Buddy::new();
    for _ in 0..10 {
        b.alloc(33);
    }
    let cap = b.capacity();
    b.reset();
    assert_eq!(b.capacity(), cap);
    assert_eq!(b.allocated_slots(), 0);
    b.check_invariants().unwrap();
    let off = b.alloc(cap);
    assert_eq!(off, 0);
}

#[test]
fn growth_is_aligned() {
    let mut b = Buddy::new();
    // Force repeated growth with awkward sizes.
    for n in [1u32, 100, 3, 1000, 7, 5000] {
        b.alloc(n);
        b.check_invariants().unwrap();
    }
}

#[test]
fn churn_random_workload() {
    // Simulates incremental-update churn: random alloc/free of sibling runs
    // of 1..=64 slots, the size class Poptrie uses for child blocks.
    let mut rng = StdRng::seed_from_u64(42);
    let mut b = Buddy::new();
    let mut live: HashMap<u32, u32> = HashMap::new();
    for step in 0..20_000 {
        if live.is_empty() || rng.gen_bool(0.55) {
            let n = rng.gen_range(1..=64);
            let off = b.alloc(n);
            assert!(live.insert(off, n).is_none(), "offset reuse while live");
        } else {
            let &off = live.keys().choose(&mut rng).unwrap();
            let n = live.remove(&off).unwrap();
            b.free(off, n);
        }
        if step % 4096 == 0 {
            b.check_invariants().unwrap();
        }
    }
    b.check_invariants().unwrap();
    // Fragmentation bound sanity: capacity should stay within a small factor
    // of the live rounded size for this power-of-two workload.
    let live_rounded: u64 = live.values().map(|n| n.next_power_of_two() as u64).sum();
    assert!(
        (b.capacity() as u64) <= live_rounded.max(64) * 8,
        "capacity {} vs live {}",
        b.capacity(),
        live_rounded
    );
}

#[test]
fn rounded_matches_order() {
    for n in 1u32..=130 {
        assert_eq!(Buddy::rounded(n), n.next_power_of_two());
    }
}

#[test]
fn live_block_introspection() {
    let mut b = Buddy::new();
    let a = b.alloc(5); // rounds to 8
    let c = b.alloc(3); // rounds to 4
    assert!(b.is_live_block(a, 5));
    assert!(b.is_live_block(a, 8), "same rounded extent");
    assert!(b.is_live_block(c, 3));
    // Misaligned, out-of-range and freed extents are not live.
    assert!(!b.is_live_block(a + 1, 5), "unaligned");
    assert!(!b.is_live_block(b.capacity(), 1), "past capacity");
    assert!(!b.is_live_block(a, 0), "empty extent");
    b.free(c, 3);
    assert!(!b.is_live_block(c, 3), "freed block no longer live");
    assert!(b.is_live_block(a, 5), "sibling unaffected");
}

#[test]
fn free_spans_cover_exactly_the_unallocated_space() {
    let mut b = Buddy::new();
    let offs: Vec<u32> = (0..7).map(|_| b.alloc(16)).collect();
    b.free(offs[2], 16);
    b.free(offs[5], 16);
    let spans = b.free_spans();
    // Spans are sorted, disjoint, and their total plus the live rounded
    // sizes equals the capacity.
    let mut total = 0u64;
    for w in spans.windows(2) {
        assert!(w[0].1 <= w[1].0, "unsorted or overlapping spans");
    }
    for &(s, e) in &spans {
        assert!(s < e && e <= b.capacity());
        total += (e - s) as u64;
    }
    assert_eq!(total + b.allocated_slots() as u64, b.capacity() as u64);
    // Freed blocks fall inside free spans; live ones don't.
    let inside = |x: u32| spans.iter().any(|&(s, e)| s <= x && x < e);
    assert!(inside(offs[2]) && inside(offs[5]));
    assert!(!inside(offs[0]) && !inside(offs[6]));
}

#[test]
fn live_block_tracks_random_churn() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut b = Buddy::new();
    let mut live: HashMap<u32, u32> = HashMap::new();
    for _ in 0..5_000 {
        if live.is_empty() || rng.gen_bool(0.6) {
            let n = rng.gen_range(1..=64);
            let off = b.alloc(n);
            live.insert(off, n);
        } else {
            let &off = live.keys().choose(&mut rng).unwrap();
            let n = live.remove(&off).unwrap();
            b.free(off, n);
            assert!(!b.is_live_block(off, n));
        }
    }
    for (&off, &n) in &live {
        assert!(b.is_live_block(off, n), "live block {off}+{n} not reported");
    }
    let free_total: u64 = b.free_spans().iter().map(|&(s, e)| (e - s) as u64).sum();
    assert_eq!(free_total + b.allocated_slots() as u64, b.capacity() as u64);
}

mod prop {
    use crate::Buddy;
    use poptrie_rng::check;

    #[test]
    fn prop_no_overlap_and_accounting() {
        check(
            "prop_no_overlap_and_accounting",
            256,
            |r| {
                (0..r.gen_range(1..200))
                    .map(|_| (r.gen::<bool>(), r.gen_range(1u32..=96)))
                    .collect::<Vec<_>>()
            },
            |ops| {
                let mut b = Buddy::new();
                let mut live: Vec<(u32, u32)> = Vec::new();
                for (is_alloc, n) in ops {
                    if is_alloc || live.is_empty() {
                        let off = b.alloc(n);
                        let size = n.next_power_of_two();
                        for &(o, s) in &live {
                            assert!(off + size <= o || o + s <= off);
                        }
                        live.push((off, size));
                    } else {
                        let idx = (n as usize) % live.len();
                        let (off, size) = live.swap_remove(idx);
                        b.free(off, size);
                    }
                    b.check_invariants().unwrap();
                }
            },
        );
    }
}
