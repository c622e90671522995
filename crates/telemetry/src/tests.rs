use super::*;
use crate::json;
use crate::json::{Json, ParseError};

#[test]
fn counter_sums_across_threads() {
    static C: Counter = Counter::new();
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                for _ in 0..10_000 {
                    C.inc();
                }
            });
        }
    });
    assert_eq!(C.get(), 80_000);
    C.reset();
    assert_eq!(C.get(), 0);
}

#[test]
fn counter_add_accumulates() {
    let c = Counter::new();
    c.add(3);
    c.add(4);
    assert_eq!(c.get(), 7);
}

#[test]
fn gauge_set_and_record_max() {
    let g = Gauge::new();
    g.set(10);
    assert_eq!(g.get(), 10);
    g.record_max(5);
    assert_eq!(g.get(), 10);
    g.record_max(42);
    assert_eq!(g.get(), 42);
    g.reset();
    assert_eq!(g.get(), 0);
}

#[test]
fn histogram_records_and_clamps() {
    let h: Histogram<4> = Histogram::new();
    h.record(0);
    h.record(1);
    h.record(1);
    h.record(3);
    h.record(99); // clamps into the last bucket
    assert_eq!(h.counts(), [1, 2, 0, 2]);
    assert_eq!(h.total(), 5);
    h.reset();
    assert_eq!(h.total(), 0);
}

#[test]
fn histogram_concurrent_mass_is_exact() {
    static H: Histogram<8> = Histogram::new();
    std::thread::scope(|s| {
        for t in 0..4 {
            s.spawn(move || {
                for i in 0..5_000 {
                    H.record((t + i) % 8);
                }
            });
        }
    });
    assert_eq!(H.total(), 20_000);
}

#[test]
fn log2_histogram_buckets_and_sum() {
    let h = Log2Histogram::new();
    h.record(0); // bucket 0
    h.record(1); // bucket 1
    h.record(2); // bucket 2
    h.record(3); // bucket 2
    h.record(1024); // bucket 11
    let counts = h.counts();
    assert_eq!(counts[0], 1);
    assert_eq!(counts[1], 1);
    assert_eq!(counts[2], 2);
    assert_eq!(counts[11], 1);
    assert_eq!(h.total(), 5);
    assert_eq!(h.sum(), 1 + 2 + 3 + 1024); // the recorded 0 adds nothing
    assert!((h.mean() - 206.0).abs() < 1e-9);
    assert_eq!(Log2Histogram::upper_bound(0), 0);
    assert_eq!(Log2Histogram::upper_bound(1), 1);
    assert_eq!(Log2Histogram::upper_bound(2), 3);
    assert_eq!(Log2Histogram::upper_bound(11), 2047);
}

/// Exact type-7 (linear interpolation) quantile of a sorted sample — the
/// reference the histogram estimator is held against.
fn exact_quantile(sorted: &[u64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

#[test]
fn log2_quantile_empty_is_none() {
    let h = Log2Histogram::new();
    assert_eq!(h.quantile(0.0), None);
    assert_eq!(h.quantile(0.5), None);
    assert_eq!(h.quantile(1.0), None);
}

#[test]
fn log2_quantile_one_sample_stays_in_its_bucket() {
    for v in [0u64, 1, 2, 5, 100, 1 << 20] {
        let h = Log2Histogram::new();
        h.record(v);
        let b = (u64::BITS - v.leading_zeros()) as usize;
        let (lo, hi) = (Log2Histogram::lower_bound(b), Log2Histogram::upper_bound(b));
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            let got = h.quantile(q).unwrap();
            assert!(
                got >= lo && got <= hi,
                "single sample {v}: q{q} = {got} escaped bucket [{lo}, {hi}]"
            );
        }
        // Midpoint convention: a lone sample must NOT collapse to the
        // bucket's lower edge (the interpolation bias the estimator
        // exists to avoid) — except bucket 0/1 where lo == midpoint.
        if hi > lo + 1 {
            assert!(
                h.quantile(0.5).unwrap() > lo,
                "single sample {v} collapsed to bucket lower edge"
            );
        }
    }
}

#[test]
fn log2_quantile_tracks_exact_reference_on_uniform() {
    // Uniform 1..=4096: every bucket it spans is fully populated, so the
    // within-bucket interpolation should land near the true quantile.
    let h = Log2Histogram::new();
    let sample: Vec<u64> = (1..=4096u64).collect();
    for &v in &sample {
        h.record(v);
    }
    for q in [0.5, 0.9, 0.99, 0.999] {
        let want = exact_quantile(&sample, q);
        let got = h.quantile(q).unwrap() as f64;
        let rel = (got - want).abs() / want;
        assert!(
            rel < 0.25,
            "uniform q{q}: histogram said {got}, exact is {want} (rel err {rel:.3})"
        );
    }
    // Extremes are bounded by the occupied buckets: the max sample 4096
    // sits alone in bucket [4096, 8191], so q=1.0 reconstructs within it.
    assert!(h.quantile(0.0).unwrap() >= 1);
    let p100 = h.quantile(1.0).unwrap();
    assert!((4096..=8191).contains(&p100), "p100 = {p100}");
}

#[test]
fn log2_quantile_tracks_exact_reference_on_skewed() {
    // A long-tailed mix like a latency distribution: mostly fast, a few
    // large outliers. p50 must sit in the body, p99.9 in the tail.
    let h = Log2Histogram::new();
    let mut sample = Vec::new();
    for i in 0..10_000u64 {
        sample.push(100 + i % 64); // body: [100, 163]
    }
    for i in 0..10u64 {
        sample.push(1_000_000 + i); // tail outliers
    }
    sample.sort_unstable();
    for &v in &sample {
        h.record(v);
    }
    let p50 = h.quantile(0.5).unwrap();
    assert!(
        (64..=255).contains(&p50),
        "p50 = {p50} left the body's buckets"
    );
    let p999 = h.quantile(0.999).unwrap();
    // 10 outliers in 10_010 samples: the 0.999 position (index ~9999) is
    // still in the body; 1.0 must reach the outlier bucket.
    assert!(p999 <= 255, "p99.9 = {p999} jumped to the tail too early");
    let p100 = h.quantile(1.0).unwrap();
    assert!(
        p100 >= (1 << 19),
        "max quantile {p100} missed the outlier bucket"
    );
}

#[test]
fn log2_quantile_is_monotone_in_q() {
    let h = Log2Histogram::new();
    let mut x = 0x2026_0808u64;
    for _ in 0..5_000 {
        // xorshift64 stand-in: deterministic spread over many buckets.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        h.record(x % 100_000);
    }
    let mut prev = 0u64;
    for i in 0..=1000 {
        let q = i as f64 / 1000.0;
        let v = h.quantile(q).unwrap();
        assert!(v >= prev, "quantile not monotone at q={q}: {v} < {prev}");
        prev = v;
    }
}

#[test]
fn log2_quantile_of_counts_merges_workers() {
    // Two "workers" with disjoint distributions; merging their counts
    // must behave like one histogram over the union.
    let a = Log2Histogram::new();
    let b = Log2Histogram::new();
    for _ in 0..1000 {
        a.record(10);
        b.record(10_000);
    }
    let mut merged = a.counts();
    for (m, c) in merged.iter_mut().zip(b.counts().iter()) {
        *m += c;
    }
    let p25 = Log2Histogram::quantile_of_counts(&merged, 0.25).unwrap();
    let p75 = Log2Histogram::quantile_of_counts(&merged, 0.75).unwrap();
    assert!(p25 <= 15, "p25 = {p25} should come from the fast worker");
    assert!(p75 >= 8192, "p75 = {p75} should come from the slow worker");
    assert_eq!(
        Log2Histogram::quantile_of_counts(&[0; LOG2_BUCKETS], 0.5),
        None
    );
}

#[test]
fn registry_renders_prometheus_families_once() {
    let mut reg = TelemetryRegistry::new();
    reg.counter("demo_total", "A demo counter.", &[("mode", "scalar")], 7)
        .counter("demo_total", "A demo counter.", &[("mode", "batched")], 3)
        .gauge("demo_gauge", "A demo gauge.", &[], 1.5);
    let text = reg.render_prometheus();
    assert_eq!(text.matches("# HELP demo_total").count(), 1);
    assert_eq!(text.matches("# TYPE demo_total counter").count(), 1);
    assert!(text.contains("demo_total{mode=\"scalar\"} 7\n"));
    assert!(text.contains("demo_total{mode=\"batched\"} 3\n"));
    assert!(text.contains("demo_gauge 1.5\n"));
}

#[test]
fn registry_renders_cumulative_histogram() {
    let mut reg = TelemetryRegistry::new();
    reg.histogram(
        "depth",
        "Descent depth.",
        &[],
        &[(1.0, 5), (2.0, 3), (3.0, 0)],
        13.0,
    );
    let text = reg.render_prometheus();
    assert!(text.contains("# TYPE depth histogram"));
    assert!(text.contains("depth_bucket{le=\"1\"} 5\n"));
    assert!(text.contains("depth_bucket{le=\"2\"} 8\n"));
    assert!(text.contains("depth_bucket{le=\"3\"} 8\n"));
    assert!(text.contains("depth_bucket{le=\"+Inf\"} 8\n"));
    assert!(text.contains("depth_sum 13\n"));
    assert!(text.contains("depth_count 8\n"));
}

#[test]
fn registry_renders_json() {
    let mut reg = TelemetryRegistry::new();
    reg.counter("a_total", "h", &[("k", "v")], 2)
        .gauge("b", "h", &[], 0.5)
        .histogram("c", "h", &[], &[(1.0, 1), (2.0, 2)], 4.0);
    // Through the rendered text, as the artifact is read back.
    let json = Json::parse(&reg.render_json().to_string()).unwrap();
    assert_eq!(json.get("a_total{k=v}").and_then(Json::as_u64), Some(2));
    assert_eq!(json.get("b").and_then(Json::as_f64), Some(0.5));
    assert_eq!(json.pointer("/c/count").and_then(Json::as_u64), Some(3));
    assert_eq!(json.pointer("/c/sum").and_then(Json::as_f64), Some(4.0));
    assert_eq!(json.pointer("/c/buckets/2").and_then(Json::as_u64), Some(3));
}

#[test]
fn prometheus_escapes_label_values() {
    let mut reg = TelemetryRegistry::new();
    reg.counter("e_total", "h", &[("k", "a\"b\\c")], 1);
    let text = reg.render_prometheus();
    assert!(text.contains("e_total{k=\"a\\\"b\\\\c\"} 1"));
}

#[test]
fn registry_merge_appends_in_order() {
    let mut core = TelemetryRegistry::new();
    core.counter("poptrie_lookups_total", "h", &[], 10);
    let mut engine = TelemetryRegistry::new();
    engine.counter("poptrie_engine_packets_total", "h", &[], 20);
    let mut bgp = TelemetryRegistry::new();
    bgp.counter("poptrie_bgp_updates_total", "h", &[], 30);
    core.merge(engine).merge(bgp);
    let names: Vec<&str> = core.metrics().iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "poptrie_lookups_total",
            "poptrie_engine_packets_total",
            "poptrie_bgp_updates_total"
        ]
    );
    let text = core.render_prometheus();
    assert!(text.contains("poptrie_lookups_total 10"));
    assert!(text.contains("poptrie_engine_packets_total 20"));
    assert!(text.contains("poptrie_bgp_updates_total 30"));
}

#[test]
fn json_non_finite_floats_render_as_null() {
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(Json::from(v).to_string(), "null");
    }
    let doc = json!({"overhead_pct": f64::NAN, "ok": 1.5});
    let back = Json::parse(&doc.to_string()).unwrap();
    assert_eq!(back.get("overhead_pct"), Some(&Json::Null));
    assert_eq!(back.get("ok"), Some(&Json::F64(1.5)));
}

#[test]
fn json_strings_round_trip_escapes() {
    let nasty = "a\"b\\c\n\r\t\u{1}\u{1f}/é\u{1F600}";
    let text = Json::from(nasty).to_string();
    assert!(!text.contains('\n'), "control characters are escaped");
    assert_eq!(Json::parse(&text), Ok(Json::from(nasty)));
    // A path with a quote in it, as `--mrt` may pass.
    let doc = json!({"source": "dir/\"x\".bgp4mp"});
    let back = Json::parse(&doc.to_string()).unwrap();
    assert_eq!(
        back.get("source").and_then(Json::as_str),
        Some("dir/\"x\".bgp4mp")
    );
    // Escapes written by other encoders, surrogate pairs included.
    assert_eq!(
        Json::parse(r#""\u00e9\ud83d\ude00\/\b\f""#),
        Ok(Json::from("é\u{1F600}/\u{8}\u{c}"))
    );
}

#[test]
fn json_integers_are_exact() {
    for v in [Json::U64(u64::MAX), Json::I64(i64::MIN), Json::U64(0)] {
        assert_eq!(Json::parse(&v.to_string()), Ok(v));
    }
    assert_eq!(
        Json::parse("18446744073709551615").unwrap().as_u64(),
        Some(u64::MAX)
    );
    // Beyond u64 an integer can only be approximate.
    assert_eq!(
        Json::parse("18446744073709551616"),
        Ok(Json::F64(18446744073709551616.0))
    );
    // A float keeps its kind through a round trip, even when integral.
    assert_eq!(Json::parse(&Json::F64(4.0).to_string()), Ok(Json::F64(4.0)));
}

#[test]
fn json_round_trips_nested_documents() {
    let doc = json!({
        "experiment": "slo", "quick": true, "none": Json::Null,
        "cells": vec![json!({"p99_ns": 7}), json!({})],
        "empty": Vec::<u64>::new(), "neg": -3,
    });
    let text = doc.to_string();
    assert!(
        text.contains("\"quick\": true"),
        "`\"key\": value` separators"
    );
    assert_eq!(Json::parse(&text), Ok(doc.clone()));
    assert_eq!(Json::parse(&format!(" \n{text}\n ")), Ok(doc.clone()));
    assert_eq!(doc.pointer("/cells/0/p99_ns"), Some(&Json::U64(7)));
    assert_eq!(doc.pointer("/cells/2"), None);
    assert_eq!(doc.pointer("/cells/x"), None);
    assert_eq!(doc.pointer(""), Some(&doc));
    assert_eq!(doc.pointer("cells"), None, "a path starts with '/'");
}

#[test]
fn json_bad_input_is_an_error_not_a_panic() {
    let good = json!({"s": "a\u{e9}\"", "n": vec![1.5, -2.0e-7], "t": true}).to_string();
    // Every truncation of a valid document is refused.
    for end in 0..good.len() {
        if good.is_char_boundary(end) {
            assert!(Json::parse(&good[..end]).is_err(), "{:?}", &good[..end]);
        }
    }
    for garbage in [
        "",
        " ",
        "nul",
        "tru",
        "{",
        "}",
        "[1,]",
        "[1 2]",
        "{\"a\" 1}",
        "{1: 2}",
        "{\"a\": 1,}",
        "01",
        "-",
        "1.",
        "1e",
        ".5",
        "+1",
        "NaN",
        "inf",
        "\"\\x\"",
        "\"\\u12\"",
        "\"\\u+123\"",
        "\"\\ud800\"",
        "\"\\ud800\\u0041\"",
        "\"\u{1}\"",
        "1 2",
        "[]]",
        "\u{0}",
        "\"\\u12\u{e9}\"",
        "\"\\u\u{1F600}\"",
    ] {
        assert!(Json::parse(garbage).is_err(), "{garbage:?}");
    }
    // Nesting is bounded instead of overflowing the stack.
    let deep = "[".repeat(100_000);
    assert_eq!(
        Json::parse(&deep).map_err(|e: ParseError| e.msg),
        Err("nesting too deep")
    );
    let err = Json::parse("[1, x]").unwrap_err();
    assert_eq!(err.at, 4);
    assert_eq!(err.to_string(), "expected a value at byte 4");
}
