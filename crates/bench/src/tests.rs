use crate::algorithms::{build_all_v4, Algo, BuildOutcome};
use crate::artifact::{append_history, last_comparable, write_artifact};
use crate::measure::{
    batched_cycles_per_lookup, cycle_samples, mean_std, measure_mlps, measure_mlps_batch,
    measure_mlps_keys, measure_mlps_keys_batch, MeasureConfig,
};
use crate::report::{mean_std_cell, mib, Table};
use poptrie_rib::Lpm;
use poptrie_tablegen::{TableKind, TableSpec};
use poptrie_telemetry::json;
use poptrie_telemetry::json::Json;

fn small_dataset() -> poptrie_tablegen::Dataset {
    TableSpec {
        name: "bench-test".into(),
        prefixes: 20_000,
        next_hops: 16,
        kind: TableKind::Real,
    }
    .generate()
}

#[test]
fn all_algorithms_build_and_agree() {
    let dataset = small_dataset();
    let rib = dataset.to_rib();
    let built = build_all_v4(Algo::table3(), &dataset);
    assert_eq!(built.len(), Algo::table3().len());
    let mut rng = poptrie_traffic::Xorshift128::new(77);
    for _ in 0..20_000 {
        let key = rng.next_u32();
        let want = Lpm::lookup(&rib, key);
        for (algo, outcome) in &built {
            let BuildOutcome::Ok(fib) = outcome else {
                panic!("{algo:?} hit a structural limit on a small table");
            };
            assert_eq!(fib.lookup(key), want, "{algo:?} key={key:#010x}");
        }
    }
}

#[test]
fn mlps_measurement_is_positive() {
    let dataset = small_dataset();
    let rib = dataset.to_rib();
    let built = build_all_v4(&[Algo::Poptrie18], &dataset);
    let BuildOutcome::Ok(fib) = &built[0].1 else {
        panic!("build failed")
    };
    let cfg = MeasureConfig {
        lookups: 1 << 16,
        reps: 2,
        cycle_samples: 1 << 10,
        batch: 64,
    };
    let (rate, std) = measure_mlps(fib.as_ref(), &cfg);
    assert!(rate > 0.0 && std >= 0.0);
    let (rate, _) = measure_mlps_batch(fib.as_ref(), &cfg);
    assert!(rate > 0.0);
    let keys: Vec<u32> = (0..1000).collect();
    let (rate, _) = measure_mlps_keys(fib.as_ref(), &keys, &cfg);
    assert!(rate > 0.0);
    let (rate, _) = measure_mlps_keys_batch(fib.as_ref(), &keys, &cfg);
    assert!(rate > 0.0);
    let cycles = batched_cycles_per_lookup(fib.as_ref(), 1 << 12, cfg.batch);
    assert!(cycles >= 0.0);
    let _ = rib;
}

#[test]
fn cycle_sampling_tags_keys() {
    let dataset = small_dataset();
    let built = build_all_v4(&[Algo::Poptrie16], &dataset);
    let BuildOutcome::Ok(fib) = &built[0].1 else {
        panic!("build failed")
    };
    let samples = cycle_samples(fib.as_ref(), 4096);
    assert_eq!(samples.len(), 4096);
    // Same seed across calls: identical key streams (the §4.6 requirement
    // for comparing algorithms).
    let again = cycle_samples(fib.as_ref(), 4096);
    assert!(samples.iter().zip(&again).all(|(a, b)| a.key == b.key));
}

#[test]
fn mean_std_math() {
    let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
    assert!((m - 5.0).abs() < 1e-12);
    assert!((s - 2.138089935299395).abs() < 1e-9);
    let (m, s) = mean_std(&[3.0]);
    assert_eq!((m, s), (3.0, 0.0));
}

#[test]
fn table_rendering_aligns() {
    let mut t = Table::new(vec!["Name", "Rate"]);
    t.row(vec!["Poptrie18", "240.52"]);
    t.row(vec!["D18R", "179.92"]);
    let s = t.render();
    let lines: Vec<&str> = s.lines().collect();
    assert_eq!(lines.len(), 4);
    assert!(lines[0].contains("Name") && lines[0].contains("Rate"));
    assert!(lines[2].starts_with("Poptrie18"));
    assert!(lines[2].ends_with("240.52"));
    assert!(!t.is_empty() && t.len() == 2);
}

#[test]
fn csv_rendering() {
    let mut t = Table::new(vec!["Name", "Rate"]);
    t.row(vec!["Poptrie18", "240.52"]);
    t.row(vec!["with,comma", "a \"quoted\" cell"]);
    let csv = t.to_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines[0], "Name,Rate");
    assert_eq!(lines[1], "Poptrie18,240.52");
    assert_eq!(lines[2], "\"with,comma\",\"a \"\"quoted\"\" cell\"");
}

#[test]
fn format_helpers() {
    assert_eq!(mib(2 * 1024 * 1024), "2.00");
    assert_eq!(mean_std_cell((198.276, 5.29)), "198.28 (5.29)");
}

/// One SLO history entry as `repro slo` appends it.
fn history_entry(threads: u64, agg_mlps: f64) -> Json {
    json!({
        "ts": 1, "quick": true, "dataset": "RV-sydney-p0", "threads": threads,
        "agg_mlps": agg_mlps,
    })
}

/// The `agg_mlps` of the last entry of `history` comparable with a run
/// on `threads`, matched as `repro slo` matches.
fn previous_mlps(history: &str, threads: u64) -> Option<f64> {
    let probe = history_entry(threads, 0.0);
    let entry = last_comparable(history, &probe, &["quick", "dataset", "threads"])?;
    entry.get("agg_mlps")?.as_f64()
}

#[test]
fn history_matches_threads_exactly() {
    // A `--threads 2` run must not compare against a 24-thread entry,
    // although `"threads": 2` is a prefix of `"threads": 24`.
    let history = format!("{}\n{}\n", history_entry(2, 5.0), history_entry(24, 50.0));
    assert_eq!(previous_mlps(&history, 2), Some(5.0));
    assert_eq!(previous_mlps(&history, 24), Some(50.0));
    assert_eq!(previous_mlps(&history, 4), None);
}

#[test]
fn history_skips_a_torn_last_line() {
    let whole = history_entry(2, 5.0).to_string();
    let torn = &history_entry(2, 7.0).to_string()[..40];
    let history = format!("{whole}\n{torn}");
    assert_eq!(previous_mlps(&history, 2), Some(5.0));

    // Appending after the torn line starts a fresh, parseable line.
    let dir = fresh_temp_dir("history");
    let path = dir.join("history.jsonl");
    std::fs::write(&path, &history).unwrap();
    append_history(&path, &json!({"threads": 2})).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().last(), Some(r#"{"threads": 2}"#));
    assert_eq!(text.lines().count(), 3);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn artifacts_are_checked_as_read_back() {
    let dir = fresh_temp_dir("artifact");
    let path = dir.join("sub").join("BENCH_x.json");
    let doc = json!({
        "source": "a \"quoted\" path", "overhead_pct": f64::NAN,
        "cells": vec![json!({"p99_ns": 3})],
    });
    let landed = write_artifact(&path, &doc, &["/source", "/cells/0/p99_ns"]).unwrap();
    assert_eq!(
        landed.pointer("/cells/0/p99_ns").and_then(Json::as_u64),
        Some(3)
    );
    assert_eq!(landed.get("overhead_pct"), Some(&Json::Null));
    assert_eq!(
        Json::parse(&std::fs::read_to_string(&path).unwrap()).as_ref(),
        Ok(&landed)
    );
    let err = write_artifact(&path, &doc, &["/cells/1"]).unwrap_err();
    assert!(err.contains("/cells/1"), "{err}");
    std::fs::remove_dir_all(dir).unwrap();
}

/// A fresh directory under the system temp dir, unique to this process
/// and `tag`.
fn fresh_temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("poptrie-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
