//! Cross-crate validation: every lookup algorithm in the workspace must
//! agree with the binary radix tree (ground truth) on synthesized tables
//! of every kind — the workspace equivalent of the paper's whole-address-
//! space validation ("we implemented these algorithms ourselves, and
//! validated their correctness by comparing all lookup results of all
//! algorithms", §4).

use poptrie_suite::baselines::{Dir248, Dxr, DxrConfig, Lulea, Sail, TreeBitmap4, TreeBitmap64};
use poptrie_suite::bitops::Bits;
use poptrie_suite::poptrie::{BatchBackend, PoptrieConfig};
use poptrie_suite::rng::prelude::*;
use poptrie_suite::tablegen::{
    churn_stream, expand_syn1, expand_syn2, ChurnConfig, ChurnEvent, Dataset, TableKind, TableSpec,
};
use poptrie_suite::traffic::Xorshift128;
use poptrie_suite::{Builder, Fib, LinearLpm, Lpm, Patricia, Poptrie, PoptrieBasic, Prefix};

/// Build one instance of every algorithm in the workspace for `dataset`.
fn build_algos(dataset: &Dataset) -> Vec<(String, Box<dyn Lpm<u32>>)> {
    let rib = dataset.to_rib();
    let mut algos: Vec<(String, Box<dyn Lpm<u32>>)> = Vec::new();
    let mut pat: Patricia<u32, u16> = Patricia::new();
    for &(p, nh) in &dataset.routes {
        pat.insert(p, nh);
    }
    algos.push(("Patricia".into(), Box::new(pat)));
    algos.push(("TreeBitmap4".into(), Box::new(TreeBitmap4::from_rib(&rib))));
    algos.push((
        "TreeBitmap64".into(),
        Box::new(TreeBitmap64::from_rib(&rib)),
    ));
    algos.push(("SAIL".into(), Box::new(Sail::from_rib(&rib).expect("sail"))));
    algos.push((
        "DIR-24-8".into(),
        Box::new(Dir248::from_rib(&rib).expect("dir248")),
    ));
    algos.push((
        "Lulea".into(),
        Box::new(Lulea::from_rib(&rib).expect("lulea")),
    ));
    for cfg in [DxrConfig::d16r(), DxrConfig::d18r()] {
        algos.push((
            format!("D{}R", cfg.direct_bits),
            Box::new(Dxr::from_rib(&rib, cfg).expect("dxr")),
        ));
    }
    for s in [0u8, 16, 18] {
        let agg = s != 16; // cover both aggregation settings
        algos.push((
            format!("Poptrie{s}"),
            Box::new(
                Builder::<u32, poptrie_suite::poptrie::Node24>::new()
                    .direct_bits(s)
                    .aggregate(agg)
                    .build(&rib),
            ),
        ));
    }
    algos.push((
        "PoptrieBasic18".into(),
        Box::new(
            Builder::<u32, poptrie_suite::poptrie::Node16>::new()
                .direct_bits(18)
                .aggregate(false)
                .build(&rib),
        ),
    ));
    algos
}

/// Build every algorithm and check agreement on random + adversarial keys.
fn validate(dataset: &Dataset, random_keys: usize) {
    let rib = dataset.to_rib();
    let algos = build_algos(dataset);

    let check = |key: u32| {
        let want = Lpm::lookup(&rib, key);
        for (name, fib) in &algos {
            assert_eq!(
                fib.lookup(key),
                want,
                "{name} at {key:#010x} on {}",
                dataset.name
            );
        }
    };
    let mut rng = Xorshift128::new(0xCAFE);
    for _ in 0..random_keys {
        check(rng.next_u32());
    }
    // Adversarial: prefix boundaries of every 50th route.
    for (p, _) in dataset.routes.iter().step_by(50) {
        let base = p.addr();
        let host = 32 - p.len() as u32;
        let last = if host == 0 {
            base
        } else {
            base | (u32::MAX >> (32 - host))
        };
        for key in [
            base,
            base.wrapping_sub(1),
            base.wrapping_add(1),
            last,
            last.wrapping_add(1),
        ] {
            check(key);
        }
    }
}

fn spec(name: &str, n: usize, nh: u16, kind: TableKind) -> Dataset {
    TableSpec {
        name: name.into(),
        prefixes: n,
        next_hops: nh,
        kind,
    }
    .generate()
}

#[test]
fn routeviews_shape_agrees() {
    validate(&spec("xval-rv", 30_000, 64, TableKind::RouteViews), 20_000);
}

#[test]
fn real_shape_agrees() {
    validate(&spec("xval-real", 30_000, 13, TableKind::Real), 20_000);
}

#[test]
fn syn_expansions_agree() {
    let base = spec("xval-real-syn", 15_000, 13, TableKind::Real);
    validate(&expand_syn1(&base), 10_000);
    validate(&expand_syn2(&base), 10_000);
}

#[test]
fn tiny_and_pathological_tables_agree() {
    // Empty table.
    validate(
        &Dataset {
            name: "xval-empty".into(),
            routes: vec![],
        },
        2_000,
    );
    // Default route only.
    validate(
        &Dataset {
            name: "xval-default".into(),
            routes: vec![(Prefix::new(0, 0), 1)],
        },
        2_000,
    );
    // Nested chain from /1 to /32 on one path, alternating next hops.
    let chain: Vec<(Prefix<u32>, u16)> = (1..=32u8)
        .map(|len| (Prefix::new(0xF0F0_F0F0, len), (len % 7 + 1) as u16))
        .collect();
    validate(
        &Dataset {
            name: "xval-chain".into(),
            routes: chain,
        },
        5_000,
    );
    // All /32 host routes around chunk boundaries of every algorithm.
    let hosts: Vec<(Prefix<u32>, u16)> = (0..64u32)
        .map(|i| {
            (
                Prefix::new(0x0A00_0000 + i * 0x0003_FFFF, 32),
                (i % 9 + 1) as u16,
            )
        })
        .collect();
    validate(
        &Dataset {
            name: "xval-hosts".into(),
            routes: hosts,
        },
        5_000,
    );
}

#[test]
fn batched_lookup_matches_scalar() {
    // The differential contract of Lpm::lookup_batch: for every algorithm
    // (interleaved+prefetch overrides and default scalar loops alike),
    // batching must be unobservable except in speed. 100_003 keys makes
    // the count a non-multiple of every exercised batch size, so each
    // partial tail chunk — and the overrides' internal 8-lane tail — is
    // hit too.
    let d = spec("xval-batch", 30_000, 32, TableKind::Real);
    let algos = build_algos(&d);
    let mut rng = Xorshift128::new(0xBA7C);
    let keys: Vec<u32> = (0..100_003).map(|_| rng.next_u32()).collect();
    for (name, fib) in &algos {
        let want: Vec<u16> = keys.iter().map(|&k| fib.lookup(k).unwrap_or(0)).collect();
        for batch in [1usize, 7, 8, 1000] {
            let mut got = vec![0u16; keys.len()];
            for (kc, oc) in keys.chunks(batch).zip(got.chunks_mut(batch)) {
                fib.lookup_batch(kc, oc);
            }
            assert_eq!(got, want, "{name}, batch size {batch}");
        }
        // One whole-array call, driving the implementation's own chunking.
        let mut got = vec![0u16; keys.len()];
        fib.lookup_batch(&keys, &mut got);
        assert_eq!(got, want, "{name}, single 100_003-key call");
    }
}

#[test]
fn linear_oracle_agrees_with_radix() {
    // The oracle itself is validated against the RIB here; the per-crate
    // property tests lean on it.
    let d = spec("xval-oracle", 2_000, 8, TableKind::Real);
    let rib = d.to_rib();
    let lin = LinearLpm::new(d.routes.clone());
    let mut rng = Xorshift128::new(5);
    for _ in 0..20_000 {
        let key = rng.next_u32();
        assert_eq!(Lpm::lookup(&rib, key), Lpm::lookup(&lin, key));
    }
}

/// Every dispatch tier the running CPU can execute. Under the CI matrix
/// (`POPTRIE_BACKEND=scalar` / `avx2`) the wider tiers are still listed
/// here if the silicon has them — the env knob pins what `detect()`
/// builds by default, while this fuzz force-installs each tier
/// explicitly, so the forced-scalar run and the full-ladder run check
/// the same agreement property from both directions.
fn backends() -> Vec<BatchBackend> {
    use BatchBackend::*;
    [Scalar, Avx2, Avx512]
        .into_iter()
        .filter(|b| b.is_available())
        .collect()
}

/// Wrapping successor/predecessor within the key width.
fn wrapping_step<K: Bits>(k: K, delta: i128) -> K {
    K::from_u128(k.to_u128().wrapping_add(delta as u128) & K::ONES.to_u128())
}

/// Differential fuzz of the dispatch ladder over churn-fuzzer tables.
///
/// The §3.5 incremental updater produces trie shapes a from-scratch
/// build never emits verbatim — buddy-reallocated node blocks, patched
/// direct slots, leafvec rewrites — and the SIMD walkers gather straight
/// out of those arrays. So beyond the from-scratch differential in
/// [`batched_lookup_matches_scalar`], every available tier (forced via
/// `set_batch_backend`, not left to detection) must agree with the
/// scalar one-key lookup on *churned* tables at many points mid-stream,
/// with the adversarial key mix of the churn fuzzer: both ends of every
/// recently-touched prefix, their one-off neighbours, and random keys.
fn churn_backend_differential<K: Bits>(cfg: ChurnConfig, check_every: usize) {
    let stream = churn_stream::<K>(&cfg);
    let pcfg = PoptrieConfig::new()
        .direct_bits(cfg.direct_bits)
        .aggregate(false)
        .build()
        .unwrap();
    let mut fib: Fib<K> = Fib::with_config(pcfg);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xD1FF_BACD);
    let tiers = backends();
    assert!(tiers.contains(&BatchBackend::Scalar));
    let ctx = format!(
        "seed {:#x} / s={} / {}-bit keys / tiers {:?}",
        cfg.seed,
        cfg.direct_bits,
        K::BITS,
        tiers
    );

    let mut recent: Vec<Prefix<K>> = Vec::new();
    for (i, ev) in stream.iter().enumerate() {
        match *ev {
            ChurnEvent::Announce(p, nh) => {
                fib.insert(p, nh).unwrap();
            }
            ChurnEvent::Withdraw(p) => {
                fib.remove(p).unwrap();
            }
        }
        recent.push(ev.prefix());
        let n = i + 1;
        if !n.is_multiple_of(check_every) && n != stream.len() {
            continue;
        }

        // Boundaries of every prefix touched since the last checkpoint,
        // plus random keys; the final count is forced off every lane
        // multiple so each kernel's partial-tail path runs too.
        let mut keys: Vec<K> = Vec::with_capacity(recent.len() * 4 + 2100);
        for p in recent.drain(..) {
            let (first, last) = (p.first_addr(), p.last_addr());
            keys.extend([
                first,
                last,
                wrapping_step(first, -1),
                wrapping_step(last, 1),
            ]);
        }
        loop {
            keys.push(K::from_u128(rng.gen::<u128>() & K::ONES.to_u128()));
            if keys.len() >= 2048 && keys.len() % 32 == 5 {
                break;
            }
        }
        let want: Vec<u16> = keys.iter().map(|&k| fib.lookup(k).unwrap_or(0)).collect();
        for &b in &tiers {
            assert_eq!(fib.set_batch_backend(b), b, "[{ctx}] tier refused");
            // One whole-array call (the kernel's own chunking) and one
            // chunked pass with an odd caller-side batch size.
            let mut got = vec![0xAAAAu16; keys.len()];
            fib.poptrie().lookup_batch(&keys, &mut got);
            assert!(
                got == want,
                "[{ctx}] backend {b} diverged from scalar lookup at event {i} \
                 (first bad key {:#x})",
                keys[got.iter().zip(&want).position(|(g, w)| g != w).unwrap()].to_u128()
            );
            let mut got = vec![0xAAAAu16; keys.len()];
            for (kc, oc) in keys.chunks(13).zip(got.chunks_mut(13)) {
                fib.poptrie().lookup_batch(kc, oc);
            }
            assert!(
                got == want,
                "[{ctx}] backend {b} diverged on 13-key chunks at event {i}"
            );
        }
    }
}

#[test]
fn churn_tables_agree_across_dispatch_tiers_u32() {
    churn_backend_differential::<u32>(
        ChurnConfig {
            seed: 0x0707_0001,
            events: 6_000,
            direct_bits: 16,
            pool: 192,
            max_nh: 200,
        },
        1_000,
    );
}

#[test]
fn churn_tables_agree_across_dispatch_tiers_u128() {
    churn_backend_differential::<u128>(
        ChurnConfig {
            seed: 0x0707_0002,
            events: 4_000,
            direct_bits: 16,
            pool: 160,
            max_nh: 200,
        },
        1_000,
    );
}

#[test]
fn churn_without_direct_table_agrees_across_tiers() {
    // `s = 0` keeps every lookup on the root-node path the direct-table
    // configs never take; the SIMD walkers special-case the first round.
    churn_backend_differential::<u32>(
        ChurnConfig {
            seed: 0x0707_0003,
            events: 2_000,
            direct_bits: 0,
            pool: 96,
            max_nh: 50,
        },
        500,
    );
}

#[test]
fn poptrie_variants_are_equivalent() {
    // Basic vs leafvec vs aggregated: identical lookup behaviour, very
    // different sizes (§3.3, Table 2).
    let d = spec("xval-variants", 25_000, 16, TableKind::Real);
    let rib = d.to_rib();
    let basic: PoptrieBasic<u32> = Builder::new().direct_bits(16).aggregate(false).build(&rib);
    let leafvec: Poptrie<u32> = Builder::new().direct_bits(16).aggregate(false).build(&rib);
    let full: Poptrie<u32> = Builder::new().direct_bits(16).aggregate(true).build(&rib);
    assert!(leafvec.stats().leaves < basic.stats().leaves / 5);
    assert!(full.stats().memory_bytes <= leafvec.stats().memory_bytes);
    let mut rng = Xorshift128::new(11);
    for _ in 0..50_000 {
        let key = rng.next_u32();
        let want = basic.lookup(key);
        assert_eq!(leafvec.lookup(key), want);
        assert_eq!(full.lookup(key), want);
    }
}
