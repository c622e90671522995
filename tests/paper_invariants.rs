//! Regression tests for the paper's structural claims: the quantitative
//! statements of §3–§4 that must hold on our synthesized tables for the
//! evaluation to be meaningful.

use poptrie_suite::baselines::{Dxr, DxrConfig, Sail};
use poptrie_suite::tablegen::{self, expand_syn1, expand_syn2, TableKind, TableSpec};
use poptrie_suite::traffic::{RealTrace, TraceConfig};
use poptrie_suite::{Builder, Poptrie, PoptrieBasic};

fn real_table(n: usize) -> tablegen::Dataset {
    TableSpec {
        name: format!("inv-real-{n}"),
        prefixes: n,
        next_hops: 13,
        kind: TableKind::Real,
    }
    .generate()
}

#[test]
fn leafvec_reduces_leaves_by_90_percent() {
    // §4.3: "reduces more than 90% of leaves".
    let rib = real_table(60_000).to_rib();
    for s in [0u8, 16, 18] {
        let basic: PoptrieBasic<u32> = Builder::new().direct_bits(s).aggregate(false).build(&rib);
        let leafvec: Poptrie<u32> = Builder::new().direct_bits(s).aggregate(false).build(&rib);
        let ratio = leafvec.stats().leaves as f64 / basic.stats().leaves as f64;
        assert!(ratio < 0.10, "s={s}: leaf ratio {ratio:.3}");
    }
}

#[test]
fn direct_pointing_memory_tradeoff() {
    // Table 2: s = 18 costs ~1 MiB of direct table over s = 0 but removes
    // most tree traversal; s = 16 sits between.
    let rib = real_table(60_000).to_rib();
    let t0: Poptrie<u32> = Builder::new().direct_bits(0).build(&rib);
    let t16: Poptrie<u32> = Builder::new().direct_bits(16).build(&rib);
    let t18: Poptrie<u32> = Builder::new().direct_bits(18).build(&rib);
    assert_eq!(t0.stats().direct_slots, 0);
    assert_eq!(t16.stats().direct_slots, 1 << 16);
    assert_eq!(t18.stats().direct_slots, 1 << 18);
    // Direct pointing resolves the shallow part without internal nodes.
    assert!(t18.stats().inodes < t0.stats().inodes);
    // §3.4: memory footprint grows by at most 4 * 2^s bytes.
    assert!(t18.stats().memory_bytes <= t0.stats().memory_bytes + 4 * (1 << 18));
}

#[test]
fn node_sizes_are_paper_exact() {
    // §3: 16-byte basic nodes, 24-byte leafvec nodes.
    assert_eq!(std::mem::size_of::<poptrie_suite::poptrie::Node16>(), 16);
    assert_eq!(std::mem::size_of::<poptrie_suite::poptrie::Node24>(), 24);
}

#[test]
fn binary_radix_depth_exceeds_prefix_length() {
    // Figure 7's key observation: deciding a *short* match often needs a
    // *deep* search. On a REAL-shaped table, a nontrivial share of
    // addresses must exhibit depth > matched length.
    let rib = real_table(40_000).to_rib();
    let mut rng = poptrie_suite::traffic::Xorshift128::new(77);
    let mut matched = 0u64;
    let mut deeper = 0u64;
    for _ in 0..200_000 {
        let key = rng.next_u32();
        let (v, depth, plen) = rib.lookup_with_depth(key);
        if v.is_some() {
            matched += 1;
            if depth > plen.unwrap_or(0) as u32 {
                deeper += 1;
            }
        }
    }
    assert!(matched > 10_000, "sample too small: {matched}");
    let frac = deeper as f64 / matched as f64;
    assert!(frac > 0.05, "depth>plen fraction {frac:.3}");
}

#[test]
fn real_trace_depth_statistics_match_section_4_7() {
    // §4.7: "32.5% of the packets in real-trace … have the binary radix
    // depth more than 18, … 21.8% … more than 24".
    let dataset = real_table(40_000);
    let rib = dataset.to_rib();
    let trace = RealTrace::synthesize(
        &dataset,
        TraceConfig {
            destinations: 50_000,
            ..TraceConfig::default()
        },
    );
    let (mut d18, mut d24) = (0u64, 0u64);
    for &dst in &trace.destinations {
        let depth = rib.lookup_with_depth(dst).1;
        if depth > 18 {
            d18 += 1;
        }
        if depth > 24 {
            d24 += 1;
        }
    }
    let n = trace.destinations.len() as f64;
    let f18 = d18 as f64 / n;
    let f24 = d24 as f64 / n;
    assert!((0.25..=0.45).contains(&f18), "depth>18 fraction {f18:.3}");
    assert!((0.12..=0.30).contains(&f24), "depth>24 fraction {f24:.3}");
}

#[test]
fn section5_structural_headroom() {
    // §5: "we estimate the limitation on the number of internal nodes,
    // leaf nodes, and next hops, and project that Poptrie can support a
    // hundred million ... routes ... in contrast to DXR and SAIL which
    // already reached their limitations in our synthetic RIB
    // evaluations." The indices are u32 and the leaf is u16: verify the
    // arithmetic the paper's projection rests on.
    //
    // - node/leaf indices (base0/base1, direct entries): u32, and direct
    //   leaf entries sacrifice bit 31 -> >= 2^31 addressable nodes.
    // - next hops: u16 with 0 reserved -> 65535 FIB entries.
    // - SAIL / Lulea / DIR-24-8 chunk ids: 15 bits -> 32767.
    // - DXR range index: 19 (stock) or 20 (modified) bits.
    assert_eq!(std::mem::size_of::<poptrie_suite::NextHop>() * 8, 16);
    assert_eq!(poptrie_suite::baselines::SAIL_MAX_CHUNKS, 1 << 15);
    // A Poptrie on a table already fatal to SAIL builds with inode counts
    // around 10^5 — more than four orders of magnitude of headroom below
    // the u32 index space, consistent with the paper's 10^8 projection.
    let base = tablegen::TableSpec {
        name: "inv-headroom".into(),
        prefixes: 60_000,
        next_hops: 13,
        kind: TableKind::Real,
    }
    .generate();
    let rib = base.to_rib();
    let t: Poptrie<u32> = Builder::new().direct_bits(18).build(&rib);
    let st = t.stats();
    assert!(st.inodes < (1usize << 31) / 10_000);
}

/// Full-scale Table 5 structural behaviour. Slow (generates the full
/// 531K-route REAL-Tier1-A and its SYN expansions and compiles SAIL/DXR
/// on them); run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "full-scale dataset synthesis; minutes in debug builds"]
fn table5_structural_limits_full_scale() {
    let base = tablegen::dataset("REAL-Tier1-A");
    let syn1 = expand_syn1(&base);
    let syn2 = expand_syn2(&base);

    // Base: everything compiles (Table 3).
    let rib = base.to_rib();
    assert!(Sail::from_rib(&rib).is_ok());
    assert!(Dxr::from_rib(&rib, DxrConfig::d18r()).is_ok());

    // SYN1: SAIL still compiles; stock DXR overflows; modified works.
    let rib1 = syn1.to_rib();
    assert!(Sail::from_rib(&rib1).is_ok(), "SAIL must compile SYN1");
    assert!(Dxr::from_rib(&rib1, DxrConfig::d18r()).is_err());
    assert!(Dxr::from_rib(
        &rib1,
        DxrConfig {
            direct_bits: 18,
            extended_index: true
        }
    )
    .is_ok());

    // SYN2: SAIL hits its 15-bit chunk-id limit (the paper's N/A);
    // modified DXR still compiles.
    let rib2 = syn2.to_rib();
    assert!(Sail::from_rib(&rib2).is_err(), "SAIL must fail SYN2");
    assert!(Dxr::from_rib(
        &rib2,
        DxrConfig {
            direct_bits: 18,
            extended_index: true
        }
    )
    .is_ok());

    // Poptrie compiles everything, with room to spare (§5).
    let _: Poptrie<u32> = Builder::new().direct_bits(18).build(&rib2);
}

/// Full-scale check of §3 aggregation decided during the builder's walk:
/// on REAL-Tier1-A, REAL-Tier1-B and REAL-Tier1-A-v6 at s = 0/16/18, with
/// both node layouts, it compiles byte for byte the trie that compiling
/// the materialized `rib.aggregated()` without aggregation does. Run with
/// `cargo test --release -- --ignored`.
#[test]
#[ignore = "full-scale dataset synthesis; minutes in debug builds"]
fn in_walk_aggregation_matches_reference_full_scale() {
    use poptrie_suite::bitops::Bits;
    use poptrie_suite::poptrie::{trie::PoptrieImpl, Node16, Node24, NodeRepr};
    use poptrie_suite::rib::RadixTree;

    fn check<K: Bits, N: NodeRepr>(
        name: &str,
        rib: &RadixTree<K, u16>,
        reference: &RadixTree<K, u16>,
    ) {
        for s in [0u8, 16, 18] {
            let ours: PoptrieImpl<K, N> = Builder::new().direct_bits(s).aggregate(true).build(rib);
            let theirs: PoptrieImpl<K, N> = Builder::new()
                .direct_bits(s)
                .aggregate(false)
                .build(reference);
            assert!(
                ours.to_bytes() == theirs.to_bytes(),
                "{name} s={s}: {:?} != {:?}",
                ours.stats(),
                theirs.stats()
            );
        }
    }
    for name in ["REAL-Tier1-A", "REAL-Tier1-B"] {
        let rib = tablegen::dataset(name).to_rib();
        let reference = rib.aggregated();
        check::<u32, Node24>(name, &rib, &reference);
        check::<u32, Node16>(name, &rib, &reference);
    }
    let rib = tablegen::ipv6_dataset("REAL-Tier1-A-v6").to_rib();
    let reference = rib.aggregated();
    check::<u128, Node24>("REAL-Tier1-A-v6", &rib, &reference);
    check::<u128, Node16>("REAL-Tier1-A-v6", &rib, &reference);
}
