use super::prelude::*;
use super::{Xorshift128, Xorshift32};

#[test]
fn xorshift32_is_deterministic_and_nonzero() {
    let a: Vec<u32> = Xorshift32::new(7).take(100).collect();
    let b: Vec<u32> = Xorshift32::new(7).take(100).collect();
    assert_eq!(a, b);
    assert!(a.iter().all(|&x| x != 0), "xorshift never emits 0");
}

#[test]
fn xorshift128_seed_zero_is_remapped() {
    let mut r = Xorshift128::new(0);
    // Must not get stuck at zero.
    assert!((0..16).any(|_| r.next_u32() != 0));
}

#[test]
fn stdrng_same_seed_same_stream() {
    let mut a = StdRng::seed_from_u64(0xDEAD_BEEF_CAFE_F00D);
    let mut b = StdRng::seed_from_u64(0xDEAD_BEEF_CAFE_F00D);
    for _ in 0..100 {
        assert_eq!(a.next_u64(), b.next_u64());
    }
}

#[test]
fn stdrng_seeds_differing_only_in_high_half_diverge() {
    let mut a = StdRng::seed_from_u64(1);
    let mut b = StdRng::seed_from_u64(1 | (1 << 40));
    let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
    let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
    assert_ne!(va, vb);
}

#[test]
fn gen_range_stays_in_bounds() {
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..10_000 {
        let v = rng.gen_range(3..17u32);
        assert!((3..17).contains(&v));
        let v = rng.gen_range(1..=64u16);
        assert!((1..=64).contains(&v));
        let v = rng.gen_range(0..5usize);
        assert!(v < 5);
        let v = rng.gen_range(17..=32u8);
        assert!((17..=32).contains(&v));
    }
}

#[test]
fn gen_range_covers_every_value_of_a_small_range() {
    let mut rng = StdRng::seed_from_u64(9);
    let mut seen = [false; 8];
    for _ in 0..1_000 {
        seen[rng.gen_range(0..8usize)] = true;
    }
    assert!(seen.iter().all(|&s| s), "all 8 values drawn: {seen:?}");
}

#[test]
fn full_domain_inclusive_range_works() {
    let mut rng = StdRng::seed_from_u64(10);
    // Would overflow `end + 1` without the full-domain special case.
    let _: u8 = rng.gen_range(0..=u8::MAX);
    let _: u32 = rng.gen_range(0..=u32::MAX);
}

#[test]
fn gen_f64_is_unit_interval() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut sum = 0.0;
    for _ in 0..10_000 {
        let x: f64 = rng.gen();
        assert!((0.0..1.0).contains(&x));
        sum += x;
    }
    let mean = sum / 10_000.0;
    assert!((0.4..0.6).contains(&mean), "mean {mean} implausible");
}

#[test]
fn gen_bool_tracks_probability() {
    let mut rng = StdRng::seed_from_u64(4);
    let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
    assert!((2_000..3_000).contains(&hits), "{hits} hits for p=0.25");
}

#[test]
fn choose_and_shuffle_are_uniformish() {
    let mut rng = StdRng::seed_from_u64(5);
    let items = [1u32, 2, 3, 4];
    let mut counts = [0usize; 4];
    for _ in 0..4_000 {
        let &v = items.choose(&mut rng).unwrap();
        counts[v as usize - 1] += 1;
    }
    assert!(counts.iter().all(|&c| c > 700), "{counts:?}");

    let empty: [u32; 0] = [];
    assert_eq!(empty.choose(&mut rng), None);

    let mut v: Vec<u32> = (0..32).collect();
    let orig = v.clone();
    v.shuffle(&mut rng);
    let mut sorted = v.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, orig, "shuffle is a permutation");
    assert_ne!(v, orig, "32 elements virtually never shuffle to identity");
}

#[test]
fn iterator_choose_sees_every_element() {
    let mut rng = StdRng::seed_from_u64(6);
    let mut seen = [false; 5];
    for _ in 0..1_000 {
        let v = (0..5usize).choose(&mut rng).unwrap();
        seen[v] = true;
    }
    assert!(seen.iter().all(|&s| s), "{seen:?}");
    assert_eq!((0..0).choose(&mut rng), None);
}

#[test]
fn signed_ranges_work() {
    let mut rng = StdRng::seed_from_u64(8);
    for _ in 0..1_000 {
        let v = rng.gen_range(-5..5i32);
        assert!((-5..5).contains(&v));
        let v = rng.gen_range(-3..=3i64);
        assert!((-3..=3).contains(&v));
    }
}

#[test]
fn check_runs_every_case_with_a_fixed_input_sequence() {
    let draw = |name| {
        let mut seen = Vec::new();
        super::check(name, 32, |rng| rng.gen::<u64>(), |v| seen.push(v));
        seen
    };
    let first = draw("a");
    assert_eq!(first.len(), 32);
    assert_eq!(first, draw("a"), "the same name replays the same inputs");
    assert_ne!(first, draw("b"), "another name draws other inputs");
}

#[test]
fn check_names_the_failing_case_and_its_seed() {
    let failure = std::panic::catch_unwind(|| {
        super::check("fails_at_seven", 16, |_| (), {
            let mut case = 0;
            move |()| {
                assert!(case != 7, "boom");
                case += 1;
            }
        })
    })
    .unwrap_err();
    let msg = failure.downcast_ref::<String>().unwrap();
    assert!(
        msg.contains("`fails_at_seven` failed on case 7 of 16"),
        "{msg}"
    );
    assert!(msg.contains("(seed 0x"), "{msg}");
    assert!(msg.ends_with("boom"), "{msg}");
}

#[test]
fn inclusive_ranges_may_end_at_the_type_maximum() {
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..1_000 {
        assert!(rng.gen_range(1u8..=u8::MAX) >= 1);
        assert!(rng.gen_range(u64::MAX - 1..=u64::MAX) >= u64::MAX - 1);
        assert!(rng.gen_range(-1i8..=i8::MAX) >= -1);
    }
    assert_eq!(rng.gen_range(u16::MAX..=u16::MAX), u16::MAX);
}
