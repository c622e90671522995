//! `repro` — regenerate every table and figure of the Poptrie paper.
//!
//! ```text
//! repro <experiment> [--quick | --full] [--compare]
//! repro fig10 --live --threads N [--churn] [--quick]
//! repro slo [--threads N] [--quick]
//!
//! experiments:
//!   table1   dataset inventory (Table 1)
//!   table2   Poptrie options ablation on REAL-Tier1-A (Table 2)
//!   table3   memory + rate, all algorithms, REAL-Tier1-A/B (Table 3)
//!   table4   per-lookup CPU cycle percentiles (Table 4)
//!   table5   scalability on SYN1/SYN2 tables (Table 5)
//!   table6   IPv6 Poptrie (Table 6; --compare adds IPv6 DXR, §4.10)
//!   fig7     binary-radix-depth heat map (Figure 7)
//!   fig8     multi-thread scaling (Figure 8)
//!   fig9     lookup rate on all 35 datasets (Figure 9)
//!   fig10    CDF of CPU cycles per lookup (Figure 10); with --live:
//!            aggregate rate through the sharded forwarding engine,
//!            sweeping worker counts up to --threads N, optionally under
//!            concurrent control-plane churn (--churn)
//!   fig11    cycles vs binary radix depth candlesticks (Figure 11)
//!   fig12    real-trace lookup rate on REAL-RENET (Figure 12)
//!   updates  incremental update performance (§4.9)
//!   all      everything above
//! ```
//!
//! `--quick` shrinks workloads for smoke runs; `--full` uses paper-scale
//! 2^32-lookup measurements (slow).

use poptrie::{Builder, Fib, Poptrie, PoptrieConfig, UpdateStrategy};
use poptrie_bench::algorithms::{build_all_v4, build_v4, Algo, BuildOutcome};
use poptrie_bench::measure::{
    batched_cycles_per_lookup, cycle_percentiles, cycle_samples, mean_std, measure_mlps,
    measure_mlps_batch, measure_mlps_keys, measure_mlps_keys_batch, CycleSample, MeasureConfig,
};
use poptrie_bench::report::{mean_std_cell, mib, Table};
use poptrie_cycles::{Candlestick, Cdf, Heatmap};
use poptrie_dxr::Dxr6;
use poptrie_rib::Lpm;
use poptrie_rng::StdRng;
use poptrie_tablegen as tablegen;
use poptrie_tablegen::{churn_stream, ChurnConfig, ChurnEvent};
use poptrie_traffic::{random_v6_in_2000, RealTrace, TraceConfig, Xorshift128};
use std::collections::HashMap;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let full = args.iter().any(|a| a == "--full");
    let compare = args.iter().any(|a| a == "--compare");
    let live = args.iter().any(|a| a == "--live");
    let churn = args.iter().any(|a| a == "--churn");
    let cfg = if full {
        MeasureConfig::full()
    } else if quick {
        MeasureConfig::quick()
    } else {
        MeasureConfig::standard()
    };
    // `--threads` consumes the next token, so the command word is picked
    // from the positionals that remain after flag parsing.
    let mut threads: Option<usize> = None;
    let mut mrt: Option<String> = None;
    let mut write_fixture: Option<String> = None;
    let mut speedup: f64 = 0.0;
    let mut positional: Vec<&str> = Vec::new();
    let mut words = args.iter();
    while let Some(a) = words.next() {
        if a == "--threads" {
            threads = words.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0);
            if threads.is_none() {
                eprintln!("--threads needs a positive integer");
                std::process::exit(2);
            }
        } else if a == "--mrt" {
            mrt = words.next().cloned();
            if mrt.is_none() {
                eprintln!("--mrt needs a file path");
                std::process::exit(2);
            }
        } else if a == "--write-fixture" {
            write_fixture = words.next().cloned();
            if write_fixture.is_none() {
                eprintln!("--write-fixture needs a file path");
                std::process::exit(2);
            }
        } else if a == "--speedup" {
            match words.next().and_then(|v| v.parse().ok()) {
                Some(s) => speedup = s,
                None => {
                    eprintln!("--speedup needs a number (0 = as fast as possible)");
                    std::process::exit(2);
                }
            }
        } else if !a.starts_with("--") {
            positional.push(a);
        }
    }
    let cmd = positional.first().copied().unwrap_or("help");
    let mut ctx = Ctx {
        cfg,
        quick,
        compare,
        datasets: HashMap::new(),
    };
    match cmd {
        "table1" => table1(&mut ctx),
        "table2" => table2(&mut ctx),
        "table3" => table3(&mut ctx),
        "table4" => table4(&mut ctx),
        "table5" => table5(&mut ctx),
        "table6" => table6(&mut ctx),
        "fig7" => fig7(&mut ctx),
        "fig8" => fig8(&mut ctx),
        "fig9" => fig9(&mut ctx),
        "fig10" if live => fig10_live(&mut ctx, threads.unwrap_or(2), churn),
        "fig10" => fig10(&mut ctx),
        "slo" => slo(&mut ctx, threads.unwrap_or(2)),
        "bgp" => bgp(
            &mut ctx,
            &BgpOpts {
                mrt,
                write_fixture,
                speedup,
                threads: threads.unwrap_or(2),
            },
        ),
        "trace" => trace_cmd(&mut ctx, threads.unwrap_or(2)),
        "vrf" => vrf_cmd(
            &mut ctx,
            threads.unwrap_or(2),
            if full { 4096 } else { 1024 },
        ),
        "fig11" => fig11(&mut ctx),
        "fig12" => fig12(&mut ctx),
        "updates" => updates(&mut ctx),
        "audit" => audit(&mut ctx),
        "stats" => stats(&mut ctx, &args),
        "serial" => serial(&mut ctx),
        "locality" => locality(&mut ctx),
        "batch" => batch(&mut ctx),
        "all" => {
            table1(&mut ctx);
            table2(&mut ctx);
            table3(&mut ctx);
            table4(&mut ctx);
            table5(&mut ctx);
            table6(&mut ctx);
            fig7(&mut ctx);
            fig8(&mut ctx);
            fig9(&mut ctx);
            fig10(&mut ctx);
            fig11(&mut ctx);
            fig12(&mut ctx);
            updates(&mut ctx);
        }
        _ => {
            eprint!("{}", HELP);
            std::process::exit(if cmd == "help" { 0 } else { 2 });
        }
    }
}

const HELP: &str = "\
repro — regenerate the tables and figures of the Poptrie paper (SIGCOMM 2015)

usage: repro <experiment> [--quick | --full] [--compare]
       repro fig10 --live --threads N [--churn] [--quick]
       repro slo [--threads N] [--quick]
       repro bgp [--quick] [--threads N] [--mrt FILE] [--speedup X]
       repro bgp --write-fixture FILE
       repro trace [--quick] [--threads N]
       repro vrf [--quick | --full] [--threads N]
       repro stats [--prometheus]

experiments: table1 table2 table3 table4 table5 table6
             fig7 fig8 fig9 fig10 fig11 fig12 updates all
             fig10 --live      drive the sharded forwarding engine:
                      N pinned workers draining bounded batch queues
                      against the RCU snapshot, sweeping worker counts
                      1..=N; --churn replays a seeded BGP update stream
                      through the control-plane writer concurrently;
                      writes results/BENCH_engine.json
             slo      tail-latency SLO matrix through the forwarding
                      engine under deadline QoS: traffic pattern (uniform,
                      zipf, microburst, worst-depth) x worker count
                      (1..=--threads N) x churn on/off, reporting
                      p50/p99/p99.9 queue-wait and service latency per
                      cell with exact drop accounting; writes
                      results/BENCH_slo.json and exits nonzero on an
                      accounting mismatch or malformed JSON
             bgp      BGP control-plane replay: drive wire-format UPDATE
                      messages (synthetic, or an MRT BGP4MP capture via
                      --mrt) through the RFC 4271 session FSM into the
                      engine's control plane, with a seeded mid-replay
                      session flap (reset, exponential-backoff reconnect,
                      full-table resend) while lookups keep serving the
                      last snapshot; gates on exact announce/withdraw
                      accounting and a FIB-vs-RIB-oracle match, writes
                      results/BENCH_bgp.json (updates/s, convergence-lag
                      p50/p99/p99.9, lookups/s), exits nonzero on any
                      mismatch. --speedup X paces the trace at X times
                      the recorded rate (0 = as fast as possible);
                      --write-fixture FILE emits the deterministic
                      BGP4MP fixture CI replays
             trace    flight-recorder run (requires building with
                      --features observe): per-lookup-phase perf-counter
                      attribution (direct-point hit vs trie descent, per
                      dispatch tier), a BGP->writer->replica->lookup
                      convergence-span replay exported as Perfetto-
                      loadable Chrome trace JSON
                      (results/BENCH_trace_events.json), and the
                      recorder's own overhead at 1-in-64 sampling;
                      writes results/BENCH_trace.json and exits nonzero
                      on a broken span chain or phase-counter mismatch
             vrf      multi-tenant VRF scale: compile 1024 tenant FIBs
                      (4096 under --full) from one base feed plus
                      per-tenant deltas into a shared leaf arena with
                      next-hop interning, against an unshared baseline;
                      then churn one tenant through the engine's control
                      plane while VRF-keyed lookups are served across
                      the whole group. Gates on exact cross-table
                      reference reconciliation, oracle-exact lookups on
                      an untouched tenant during churn, and a >= 25%
                      bytes/route reduction from interning; writes
                      results/BENCH_vrf.json and exits nonzero on any
                      violation
             stats    with no dataset argument: live-telemetry replay —
                      a seeded lookup + churn workload whose counters are
                      reconciled against the script, dumped as Prometheus
                      text and results/BENCH_telemetry.json (requires
                      building with --features observe); --prometheus
                      additionally exercises the engine and a BGP session
                      and merges their registries into the same scrape
             stats <dataset|SYN1-...|SYN2-...>   structural diagnostics
             audit    structural invariant audit: fresh builds, the §4.9
                      replay under both update strategies, and a seeded
                      churn-fuzz run cross-checked against the RIB
                      (--quick bounds it to a few seconds; CI runs that)
             serial   dependent-lookup latency comparison (ablation)
             locality sequential/repeated rates on REAL-Tier1-B (§4.5)
             batch    scalar vs batched+prefetch lookup rate (ablation)

fig8, fig9, fig10 and fig12 report both the scalar and the batched
(interleaved, software-prefetched) lookup modes side by side.
";

struct Ctx {
    cfg: MeasureConfig,
    quick: bool,
    compare: bool,
    datasets: HashMap<String, tablegen::Dataset>,
}

impl Ctx {
    fn dataset(&mut self, name: &str) -> &tablegen::Dataset {
        if !self.datasets.contains_key(name) {
            eprintln!("[gen] synthesizing {name} ...");
            let d = tablegen::dataset(name);
            self.datasets.insert(name.to_string(), d);
        }
        &self.datasets[name]
    }

    /// Dataset list for sweep experiments (fig9): all 35, or 6 in quick
    /// mode.
    fn sweep_names(&self) -> Vec<&'static str> {
        if self.quick {
            vec![
                "REAL-Tier1-A",
                "REAL-Tier1-B",
                "REAL-RENET",
                "RV-linx-p46",
                "RV-saopaulo-p2",
                "RV-sydney-p0",
            ]
        } else {
            tablegen::all_dataset_names()
        }
    }
}

fn section(title: &str) {
    println!("\n==============================================================");
    println!("{title}");
    println!("==============================================================");
}

// ---------------------------------------------------------------- table 1

fn table1(ctx: &mut Ctx) {
    section("Table 1: RIB datasets (name, # prefixes, # next hops)");
    let mut t = Table::new(vec!["Name", "# prefixes", "# nhops", "kind"]);
    if ctx.quick {
        for info in tablegen::table1() {
            t.row(vec![
                info.name.to_string(),
                info.prefixes.to_string(),
                info.next_hops.to_string(),
                format!("{:?} (spec)", info.kind),
            ]);
        }
    } else {
        for info in tablegen::table1() {
            let d = ctx.dataset(info.name);
            t.row(vec![
                info.name.to_string(),
                d.len().to_string(),
                d.next_hop_count().to_string(),
                format!("{:?}", info.kind),
            ]);
        }
    }
    print!("{}", t.render());
}

// ---------------------------------------------------------------- table 2

fn table2(ctx: &mut Ctx) {
    section("Table 2: Poptrie options on REAL-Tier1-A (s = 0, 16, 18)");
    let cfg = ctx.cfg;
    let rib = ctx.dataset("REAL-Tier1-A").to_rib();
    let mut t = Table::new(vec![
        "Variant",
        "s",
        "# inodes",
        "# leaves",
        "Mem [MiB]",
        "Compile (std.) [ms]",
        "Rate (std.) [Mlps]",
    ]);

    // Radix baseline row, as in the paper's Table 2 header row.
    let (rate, std) = measure_mlps(&rib, &cfg);
    t.row(vec![
        "Radix".to_string(),
        "-".into(),
        "-".into(),
        "-".into(),
        mib(Lpm::memory_bytes(&rib)),
        "-".into(),
        format!("{rate:.2} ({std:.2})"),
    ]);

    for s in [0u8, 16, 18] {
        // basic, no aggregation (§3.1)
        let (compile, trie) = timed_builds(3, || {
            Builder::<u32, poptrie::Node16>::new()
                .direct_bits(s)
                .aggregate(false)
                .build(&rib)
        });
        let st = trie.stats();
        t.row(vec![
            "Poptrie (basic), no aggregation".to_string(),
            s.to_string(),
            st.inodes.to_string(),
            st.leaves.to_string(),
            mib(st.memory_bytes),
            mean_std_cell(compile),
            mean_std_cell(measure_mlps(&trie, &cfg)),
        ]);
        drop(trie);
        // leafvec, no aggregation (§3.3)
        let (compile, trie) = timed_builds(3, || {
            Builder::<u32, poptrie::Node24>::new()
                .direct_bits(s)
                .aggregate(false)
                .build(&rib)
        });
        let st = trie.stats();
        t.row(vec![
            "Poptrie (leafvec), no aggregation".to_string(),
            s.to_string(),
            st.inodes.to_string(),
            st.leaves.to_string(),
            mib(st.memory_bytes),
            mean_std_cell(compile),
            mean_std_cell(measure_mlps(&trie, &cfg)),
        ]);
        drop(trie);
        // full Poptrie (leafvec + route aggregation)
        let (compile, trie) = timed_builds(3, || {
            Builder::<u32, poptrie::Node24>::new()
                .direct_bits(s)
                .aggregate(true)
                .build(&rib)
        });
        let st = trie.stats();
        t.row(vec![
            "Poptrie".to_string(),
            s.to_string(),
            st.inodes.to_string(),
            st.leaves.to_string(),
            mib(st.memory_bytes),
            mean_std_cell(compile),
            mean_std_cell(measure_mlps(&trie, &cfg)),
        ]);
    }
    print!("{}", t.render());
}

fn timed_builds<T>(reps: u32, mut f: impl FnMut() -> T) -> ((f64, f64), T) {
    let mut times = Vec::new();
    let mut out = None;
    for _ in 0..reps {
        let start = Instant::now();
        let t = f();
        times.push(start.elapsed().as_secs_f64() * 1e3);
        out = Some(t);
    }
    (mean_std(&times), out.expect("reps >= 1"))
}

// ---------------------------------------------------------------- table 3

fn table3(ctx: &mut Ctx) {
    section("Table 3: memory footprint and random lookup rate (REAL-Tier1-A/B)");
    let cfg = ctx.cfg;
    let mut t = Table::new(vec![
        "Algorithm",
        "A: Mem [MiB]",
        "A: Rate [Mlps]",
        "B: Mem [MiB]",
        "B: Rate [Mlps]",
    ]);
    let mut cells: HashMap<(usize, &'static str), (String, String)> = HashMap::new();
    for (i, ds) in ["REAL-Tier1-A", "REAL-Tier1-B"].iter().enumerate() {
        let dataset = ctx.dataset(ds).clone();
        for (algo, outcome) in build_all_v4(Algo::table3(), &dataset) {
            let key = (i, algo_label(algo));
            match outcome {
                BuildOutcome::Ok(fib) => {
                    let (rate, _) = measure_mlps(fib.as_ref(), &cfg);
                    cells.insert(key, (mib(fib.memory_bytes()), format!("{rate:.2}")));
                }
                BuildOutcome::StructuralLimit(e) => {
                    cells.insert(key, ("N/A".into(), format!("N/A ({e})")));
                }
            }
        }
    }
    for algo in Algo::table3() {
        let label = algo_label(*algo);
        let a = cells.get(&(0, label)).cloned().unwrap_or_default();
        let b = cells.get(&(1, label)).cloned().unwrap_or_default();
        t.row(vec![label.to_string(), a.0, a.1, b.0, b.1]);
    }
    print!("{}", t.render());
}

fn algo_label(algo: Algo) -> &'static str {
    match algo {
        Algo::Radix => "Radix",
        Algo::TreeBitmap => "Tree BitMap",
        Algo::TreeBitmap64 => "Tree BitMap (64-ary)",
        Algo::Sail => "SAIL",
        Algo::D16r => "D16R",
        Algo::D18r => "D18R",
        Algo::D18rModified => "D18R (modified)",
        Algo::Dir248 => "DIR-24-8",
        Algo::Lulea => "Lulea",
        Algo::Poptrie0 => "Poptrie0",
        Algo::Poptrie16 => "Poptrie16",
        Algo::Poptrie18 => "Poptrie18",
    }
}

// ---------------------------------------------------------------- table 4

const CYCLE_ALGOS: [Algo; 5] = [
    Algo::Sail,
    Algo::D16r,
    Algo::D18r,
    Algo::Poptrie16,
    Algo::Poptrie18,
];

fn table4(ctx: &mut Ctx) {
    section("Table 4: per-lookup CPU cycles, random traffic (mean / p50 / p75 / p95 / p99)");
    let n = ctx.cfg.cycle_samples;
    println!("(serialized-TSC sampling, {n} lookups per algorithm, bracket overhead subtracted)");
    let mut t = Table::new(vec![
        "Dataset",
        "Algorithm",
        "Mean",
        "50th",
        "75th",
        "95th",
        "99th",
    ]);
    for ds in ["REAL-Tier1-A", "REAL-Tier1-B"] {
        let dataset = ctx.dataset(ds).clone();
        let rib = dataset.to_rib();
        for algo in CYCLE_ALGOS {
            let BuildOutcome::Ok(fib) = build_v4(algo, &rib) else {
                t.row(vec![ds.to_string(), algo_label(algo).into(), "N/A".into()]);
                continue;
            };
            let samples = cycle_samples(fib.as_ref(), n);
            let p = cycle_percentiles(&samples).expect("non-empty");
            t.row(vec![
                ds.to_string(),
                algo_label(algo).to_string(),
                format!("{:.2}", p.mean),
                p.p50.to_string(),
                p.p75.to_string(),
                p.p95.to_string(),
                p.p99.to_string(),
            ]);
        }
    }
    print!("{}", t.render());
}

// ---------------------------------------------------------------- table 5

fn table5(ctx: &mut Ctx) {
    section("Table 5: scalability on synthetic large RIBs (random traffic)");
    let cfg = ctx.cfg;
    let mut t = Table::new(vec!["Algorithm", "Table", "# routes", "Rate [Mlps]"]);
    for base_name in ["REAL-Tier1-A", "REAL-Tier1-B"] {
        let base = ctx.dataset(base_name).clone();
        for (syn, d) in [
            ("SYN1", tablegen::expand_syn1(&base)),
            ("SYN2", tablegen::expand_syn2(&base)),
        ] {
            eprintln!("[gen] {} -> {} ({} routes)", base_name, d.name, d.len());
            let rib = d.to_rib();
            for algo in [Algo::Sail, Algo::D18r, Algo::D18rModified, Algo::Poptrie18] {
                let label = algo_label(algo);
                match build_v4(algo, &rib) {
                    BuildOutcome::Ok(fib) => {
                        let (rate, _) = measure_mlps(fib.as_ref(), &cfg);
                        t.row(vec![
                            label.to_string(),
                            d.name.clone(),
                            d.len().to_string(),
                            format!("{rate:.2}"),
                        ]);
                    }
                    BuildOutcome::StructuralLimit(e) => {
                        t.row(vec![
                            label.to_string(),
                            d.name.clone(),
                            d.len().to_string(),
                            format!("N/A ({e})"),
                        ]);
                    }
                }
            }
            let _ = syn;
        }
    }
    print!("{}", t.render());
    println!("(the paper's Table 5: SAIL is N/A on SYN2 — 15-bit chunk ids exceeded —");
    println!(" and DXR requires the modified 2^20-range encoding; Poptrie18 stays above");
    println!(" the 148.8 Mlps 100GbE wire rate)");
}

// ---------------------------------------------------------------- table 6

fn table6(ctx: &mut Ctx) {
    section("Table 6: IPv6 Poptrie (REAL-Tier1-A IPv6 table, random in 2000::/8)");
    let cfg = ctx.cfg;
    let d = tablegen::ipv6_dataset("REAL-Tier1-A-v6");
    println!("({} prefixes)", d.len());
    let rib = d.to_rib();
    let mut t = Table::new(vec![
        "s",
        "# inodes",
        "# leaves",
        "Mem [KiB]",
        "Compile (std.) [ms]",
        "Rate (std.) [Mlps]",
    ]);
    for s in [0u8, 16, 18] {
        let (compile, trie) = timed_builds(3, || {
            Builder::<u128, poptrie::Node24>::new()
                .direct_bits(s)
                .aggregate(true)
                .build(&rib)
        });
        let st = trie.stats();
        let rate = measure_v6_mlps(|k| trie.lookup(k), &cfg);
        t.row(vec![
            s.to_string(),
            st.inodes.to_string(),
            st.leaves.to_string(),
            format!("{:.0}", st.memory_bytes as f64 / 1024.0),
            mean_std_cell(compile),
            mean_std_cell(rate),
        ]);
    }
    print!("{}", t.render());

    if ctx.compare || !ctx.quick {
        println!("\n§4.10 comparison (IPv6 DXR, long-format ranges):");
        let mut t = Table::new(vec!["Algorithm", "Ranges", "Rate (std.) [Mlps]"]);
        for s in [16u8, 18] {
            match Dxr6::from_rib(&rib, s) {
                Ok(dxr) => {
                    let rate = measure_v6_mlps(|k| dxr.lookup(k), &cfg);
                    t.row(vec![
                        format!("D{s}R-IPv6"),
                        dxr.range_count().to_string(),
                        mean_std_cell(rate),
                    ]);
                }
                Err(e) => {
                    t.row(vec![
                        format!("D{s}R-IPv6"),
                        "-".into(),
                        format!("N/A ({e})"),
                    ]);
                }
            }
        }
        print!("{}", t.render());

        println!("\n§4.10 RouteViews-style IPv6 tables (Poptrie16/Poptrie18):");
        let mut t = Table::new(vec![
            "Table",
            "# prefixes",
            "Poptrie16 [Mlps]",
            "Poptrie18 [Mlps]",
        ]);
        let names = if ctx.quick {
            tablegen::ipv6_routeviews_names()[..3].to_vec()
        } else {
            tablegen::ipv6_routeviews_names()
        };
        for name in names {
            let d = tablegen::ipv6_dataset(&name);
            let rib = d.to_rib();
            let t16: Poptrie<u128> = Builder::new().direct_bits(16).build(&rib);
            let t18: Poptrie<u128> = Builder::new().direct_bits(18).build(&rib);
            let r16 = measure_v6_mlps(|k| t16.lookup(k), &cfg);
            let r18 = measure_v6_mlps(|k| t18.lookup(k), &cfg);
            t.row(vec![
                name,
                d.len().to_string(),
                format!("{:.2}", r16.0),
                format!("{:.2}", r18.0),
            ]);
        }
        print!("{}", t.render());
    }
}

fn measure_v6_mlps(lookup: impl Fn(u128) -> Option<u16>, cfg: &MeasureConfig) -> (f64, f64) {
    let mut rates = Vec::new();
    for rep in 0..cfg.reps {
        let start = Instant::now();
        let mut acc = 0u64;
        let mut it = random_v6_in_2000(0xBEEF + rep, cfg.lookups);
        for _ in 0..cfg.lookups {
            let key = it.next().expect("infinite");
            acc = acc.wrapping_add(lookup(key).unwrap_or(0) as u64);
        }
        std::hint::black_box(acc);
        rates.push(cfg.lookups as f64 / start.elapsed().as_secs_f64() / 1e6);
    }
    mean_std(&rates)
}

// ----------------------------------------------------------------- fig 7

fn fig7(ctx: &mut Ctx) {
    section("Figure 7: binary radix depth vs matched prefix length (REAL-Tier1-A)");
    let rib = ctx.dataset("REAL-Tier1-A").to_rib();
    let samples: u64 = if ctx.quick { 1 << 20 } else { 1 << 24 };
    println!("(stratified sample of {samples} addresses over the IPv4 space;");
    println!(" the paper scans all 2^32 — intensity scale is per decade either way)");
    let mut map = Heatmap::new(33, 33);
    let mut rng = Xorshift128::new(7);
    let stride = (u64::from(u32::MAX) + 1) / samples;
    for i in 0..samples {
        // Stratified: one random address per stride bucket.
        let key = (i * stride) as u32 | (rng.next_u32() % stride.max(1) as u32);
        let (_, depth, plen) = rib.lookup_with_depth(key);
        if let Some(plen) = plen {
            map.add(plen as usize, depth as usize, 1);
        }
    }
    println!(
        "{}",
        map.render("matched prefix length", "binary radix depth")
    );
}

// ----------------------------------------------------------------- fig 8

fn fig8(ctx: &mut Ctx) {
    section("Figure 8: aggregated lookup rate by thread count (Poptrie18)");
    println!("(scalar = the paper's per-thread loop; batched = lookup_batch with");
    println!(" software prefetch, {} keys per call)", ctx.cfg.batch);
    let cfg = ctx.cfg;
    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    let mut t = Table::new(vec![
        "Dataset",
        "Threads",
        "Scalar [Mlps]",
        "Batched [Mlps]",
    ]);
    for ds in ["REAL-Tier1-A", "REAL-Tier1-B"] {
        let rib = ctx.dataset(ds).to_rib();
        let trie: Poptrie<u32> = Builder::new().direct_bits(18).build(&rib);
        for threads in 1..=max_threads {
            let run = |batched: bool| -> f64 {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..threads)
                        .map(|tid| {
                            let trie = &trie;
                            scope.spawn(move || {
                                if batched {
                                    let batch = cfg.batch.max(1);
                                    let mut src =
                                        poptrie_traffic::fill::RandomV4::new(0xF00D + tid as u32);
                                    let mut keys = vec![0u32; batch];
                                    let mut nhs = vec![0u16; batch];
                                    let start = Instant::now();
                                    let mut acc = 0u64;
                                    let mut done = 0u64;
                                    while done < cfg.lookups {
                                        let n = batch.min((cfg.lookups - done) as usize);
                                        src.fill(&mut keys[..n]);
                                        trie.lookup_batch(&keys[..n], &mut nhs[..n]);
                                        for &nh in &nhs[..n] {
                                            acc = acc.wrapping_add(nh as u64);
                                        }
                                        done += n as u64;
                                    }
                                    std::hint::black_box(acc);
                                    done as f64 / start.elapsed().as_secs_f64() / 1e6
                                } else {
                                    let mut rng = Xorshift128::new(0xF00D + tid as u32);
                                    let start = Instant::now();
                                    let mut acc = 0u64;
                                    for _ in 0..cfg.lookups {
                                        acc = acc.wrapping_add(
                                            trie.lookup(rng.next_u32()).unwrap_or(0) as u64,
                                        );
                                    }
                                    std::hint::black_box(acc);
                                    cfg.lookups as f64 / start.elapsed().as_secs_f64() / 1e6
                                }
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().expect("thread")).sum()
                })
            };
            let scalar = run(false);
            let batched = run(true);
            t.row(vec![
                ds.to_string(),
                threads.to_string(),
                format!("{scalar:.2}"),
                format!("{batched:.2}"),
            ]);
        }
    }
    print!("{}", t.render());
}

// ----------------------------------------------------------------- fig 9

fn fig9(ctx: &mut Ctx) {
    section("Figure 9: average lookup rate for random traffic, all datasets");
    println!("(each cell: scalar / batched+prefetch lookup rate [Mlps])");
    let cfg = ctx.cfg;
    let names = ctx.sweep_names();
    let algos = Algo::figure9();
    let mut header: Vec<String> = vec!["Dataset".into()];
    header.extend(algos.iter().map(|a| algo_label(*a).to_string()));
    let mut t = Table::new(header);
    for name in names {
        let dataset = ctx.dataset(name).clone();
        let mut row = vec![name.to_string()];
        for (_, outcome) in build_all_v4(algos, &dataset) {
            match outcome {
                BuildOutcome::Ok(fib) => {
                    let (rate, _) = measure_mlps(fib.as_ref(), &cfg);
                    let (brate, _) = measure_mlps_batch(fib.as_ref(), &cfg);
                    row.push(format!("{rate:.1} / {brate:.1}"));
                }
                BuildOutcome::StructuralLimit(_) => row.push("N/A".into()),
            }
        }
        t.row(row);
        // Free the cached dataset: the sweep touches all 35 and holding
        // them all costs gigabytes.
        ctx.datasets.remove(name);
    }
    print!("{}", t.render());
}

// ----------------------------------------------------------------- fig 10

fn fig10(ctx: &mut Ctx) {
    section("Figure 10: CDF of CPU cycles per lookup (REAL-Tier1-A, random)");
    let n = ctx.cfg.cycle_samples;
    let rib = ctx.dataset("REAL-Tier1-A").to_rib();
    let mut cdfs: Vec<(&'static str, Cdf)> = Vec::new();
    let mut means: Vec<(&'static str, f64, f64)> = Vec::new();
    for algo in CYCLE_ALGOS {
        let BuildOutcome::Ok(fib) = build_v4(algo, &rib) else {
            continue;
        };
        let samples = cycle_samples(fib.as_ref(), n);
        let raw: Vec<u64> = samples.iter().map(|s| s.cycles).collect();
        let scalar_mean = raw.iter().sum::<u64>() as f64 / raw.len().max(1) as f64;
        let batched_mean = batched_cycles_per_lookup(fib.as_ref(), n, ctx.cfg.batch);
        means.push((algo_label(algo), scalar_mean, batched_mean));
        cdfs.push((algo_label(algo), Cdf::from_samples(&raw)));
    }
    let mut header = vec!["cycles".to_string()];
    header.extend(cdfs.iter().map(|(l, _)| l.to_string()));
    let mut t = Table::new(header);
    for x in (0..=500u64).step_by(20) {
        let mut row = vec![x.to_string()];
        for (_, cdf) in &cdfs {
            row.push(format!("{:.3}", cdf.at(x)));
        }
        t.row(row);
    }
    print!("{}", t.render());

    // Batched mode has no per-lookup distribution (one TSC bracket spans
    // a whole batch), so its column is the amortized mean next to the
    // scalar mean from the samples above.
    println!(
        "\nmean cycles per lookup, scalar vs batched+prefetch ({} keys/batch):",
        ctx.cfg.batch
    );
    let mut t = Table::new(vec!["Algorithm", "Scalar mean", "Batched mean"]);
    for (label, s, b) in means {
        t.row(vec![
            label.to_string(),
            format!("{s:.1}"),
            format!("{b:.1}"),
        ]);
    }
    print!("{}", t.render());
}

// ---------------------------------------------------------- fig 10 --live

/// One engine run: feed pre-generated packet batches round-robin into the
/// worker queues for `duration` (non-blocking; full queues shed load and
/// are counted as drops), optionally replaying a churn stream through the
/// control channel, then drain-shutdown and report the aggregate rate.
fn live_run(
    fib: &std::sync::Arc<poptrie::sync::SharedFib<u32>>,
    workers: usize,
    pool: &[std::sync::Arc<[u32]>],
    churn: &[ChurnEvent<u32>],
    duration: std::time::Duration,
) -> (f64, poptrie_engine::EngineReport) {
    use poptrie::sync::RouteUpdate;
    use poptrie_engine::{Engine, EngineConfig};
    use std::sync::Arc;
    use std::time::Duration;

    let engine = Engine::start(
        Arc::clone(fib),
        // Engine defaults: workers pinned round-robin (pinning degrades
        // to a no-op for worker indices beyond the core count), 64-batch
        // queues. The feeder below floats — it bursts and sleeps, so the
        // scheduler slots it into whichever core has slack.
        EngineConfig::new(workers).queue_capacity(64),
    );
    let ingress = engine.ingress();
    let control = engine.control();
    let deadline = Instant::now() + duration;
    let (mut i, mut ev) = (0usize, 0usize);
    'feed: loop {
        // Burst-submit between clock checks: keeping the 64-deep queues
        // topped up (not the clock) paces this loop, and a drained queue
        // would park its worker on the condvar — the expensive case.
        for _ in 0..256 {
            // ~1 control-plane event per 64 data batches keeps the
            // writer busy without dominating the run.
            if !churn.is_empty() && i % 64 == 0 {
                let update = match churn[ev % churn.len()] {
                    ChurnEvent::Announce(p, nh) => RouteUpdate::Announce(p, nh),
                    ChurnEvent::Withdraw(p) => RouteUpdate::Withdraw(p),
                };
                let _ = control.send(update); // full channel: shed, counted
                ev += 1;
            }
            i += 1;
            if ingress
                .try_submit(Arc::clone(&pool[i % pool.len()]))
                .is_err()
            {
                // Every queue is full: the workers are saturated with
                // ~400 µs of buffered work each. Sleep it off rather
                // than burn a core the workers could use.
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        if Instant::now() >= deadline {
            break 'feed;
        }
    }
    let report = engine.shutdown(Duration::from_secs(30));
    let mlps = report.packets as f64 / report.elapsed.as_secs_f64() / 1e6;
    (mlps, report)
}

/// `repro fig10 --live --threads N [--churn]`: the §4.8 multi-core
/// experiment through the real forwarding engine instead of bare
/// per-thread loops — bounded ingress queues, RCU snapshot re-acquired
/// per batch, and (with `--churn`) a concurrent seeded BGP stream through
/// the single control-plane writer.
fn fig10_live(ctx: &mut Ctx, threads: usize, churn: bool) {
    use poptrie::sync::SharedFib;
    use std::sync::Arc;
    use std::time::Duration;

    let threads = threads.max(1);
    section(&format!(
        "Figure 10 (live engine): aggregate rate by worker count, 1..={threads}{}",
        if churn { ", under churn" } else { "" }
    ));
    let ds_name = if ctx.quick {
        "RV-sydney-p0"
    } else {
        "REAL-Tier1-A"
    };
    let dataset = ctx.dataset(ds_name).clone();
    let pcfg = PoptrieConfig::new().direct_bits(18).build().unwrap();

    // Pre-generate the traffic: a pool of random packet batches the
    // feeder recycles, so the hot loop only clones `Arc`s. An ingress
    // batch is an rx-burst of many lookup_batch calls (64x the
    // measurement batch): each queue handoff costs a mutex and possibly
    // a futex wake, and on a small host the feeder shares cores with the
    // workers, so a handoff has to carry enough lookup work that the
    // feeder's core share stays negligible.
    let batch = ctx.cfg.batch.max(1) * 64;
    let mut src = poptrie_traffic::fill::RandomV4::new(0x000F_1610);
    let pool: Vec<Arc<[u32]>> = (0..256)
        .map(|_| {
            let mut keys = vec![0u32; batch];
            src.fill(&mut keys);
            Arc::from(keys)
        })
        .collect();
    let events = if churn {
        churn_stream::<u32>(&ChurnConfig {
            seed: 0x16F1,
            events: if ctx.quick { 2_000 } else { 20_000 },
            direct_bits: 18,
            ..ChurnConfig::default()
        })
    } else {
        Vec::new()
    };

    let duration = if ctx.quick {
        Duration::from_millis(250)
    } else {
        Duration::from_millis(1500)
    };
    let reps = if ctx.quick { 2 } else { 3 };
    let mut counts: Vec<usize> = [1usize, 2, 4]
        .into_iter()
        .filter(|&n| n <= threads)
        .collect();
    if !counts.contains(&threads) {
        counts.push(threads);
    }

    // Dispatch-tier comparison on identical table and traffic: the
    // scalar batched walker against the widest SIMD tier this CPU runs.
    // The backend is forced on the FIB before the engine starts so the
    // engine's NUMA replicas inherit it.
    let widest = poptrie::BatchBackend::widest_available();
    let backends: Vec<poptrie::BatchBackend> = if widest == poptrie::BatchBackend::Scalar {
        vec![widest]
    } else {
        vec![poptrie::BatchBackend::Scalar, widest]
    };

    let mut t = Table::new(vec![
        "Workers",
        "Backend",
        "Rate [Mlps]",
        "Batches",
        "Dropped",
        "Publishes",
        "Coalesced",
        "Respawns",
        "FIB ver.",
    ]);
    let mut runs = Vec::new();
    // Per worker count: scalar and SIMD rates, for the summary line.
    let mut compare: Vec<(usize, f64, f64)> = Vec::new();
    for &workers in &counts {
        let mut rates: Vec<f64> = Vec::new();
        for &backend in &backends {
            // Fresh FIB per sweep point so every cell replays the same
            // churn against the same starting table.
            let fib: Arc<SharedFib<u32>> = Arc::new(SharedFib::compile(dataset.to_rib(), pcfg));
            assert_eq!(fib.set_batch_backend(backend), backend);
            // Best of `reps`: on a small host the feeder competes with
            // the workers for cores, so a single run is noisy.
            let mut best: Option<(f64, poptrie_engine::EngineReport)> = None;
            for _ in 0..reps {
                let run = live_run(&fib, workers, &pool, &events, duration);
                match &best {
                    Some((b, _)) if run.0 <= *b => {}
                    _ => best = Some(run),
                }
            }
            let (mlps, report) = best.expect("reps >= 1");
            assert!(report.drained_clean, "engine failed to drain on shutdown");
            assert_eq!(report.leaked_threads, 0, "engine leaked threads");
            rates.push(mlps);
            let respawns: u64 = report.workers.iter().map(|w| w.respawns).sum();
            let version = fib.version();
            t.row(vec![
                workers.to_string(),
                backend.to_string(),
                format!("{mlps:.2}"),
                report.batches.to_string(),
                report.dropped_batches.to_string(),
                report.publishes.to_string(),
                report.updates_coalesced.to_string(),
                respawns.to_string(),
                version.to_string(),
            ]);
            runs.push(format!(
                "    {{\"workers\": {workers}, \"backend\": \"{backend}\", \
                 \"mlps\": {mlps:.3}, \"packets\": {}, \
                 \"batches\": {}, \"dropped_batches\": {}, \"publishes\": {}, \
                 \"update_events\": {}, \"updates_coalesced\": {}, \"control_dropped\": {}, \
                 \"respawns\": {respawns}, \"fib_version\": {version}, \
                 \"fib_replicas\": {}, \"drained_clean\": {}}}",
                report.packets,
                report.batches,
                report.dropped_batches,
                report.publishes,
                report.update_events,
                report.updates_coalesced,
                report.control_dropped,
                report.fib_replicas,
                report.drained_clean,
            ));
        }
        if rates.len() == 2 {
            compare.push((workers, rates[0], rates[1]));
        }
    }
    print!("{}", t.render());
    println!(
        "(best of {reps} runs of {} ms each; drops are shed ingress batches)",
        duration.as_millis()
    );
    for &(workers, scalar, simd) in &compare {
        println!(
            "  {workers} worker(s): {widest} {simd:.2} Mlps vs scalar {scalar:.2} Mlps \
             (x{:.2})",
            simd / scalar.max(1e-9)
        );
    }

    let json = format!(
        "{{\n  \"experiment\": \"fig10_live\",\n  \"dataset\": \"{ds_name}\",\n  \
         \"batch\": {batch},\n  \"duration_ms\": {},\n  \"reps\": {reps},\n  \
         \"churn\": {churn},\n  \"runs\": [\n{}\n  ]\n}}\n",
        duration.as_millis(),
        runs.join(",\n"),
    );
    let path = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(path)
        .and_then(|()| std::fs::write(path.join("BENCH_engine.json"), &json))
    {
        eprintln!("warning: could not write results/BENCH_engine.json: {e}");
    } else {
        println!("wrote results/BENCH_engine.json");
    }
}

// -------------------------------------------------------------------- slo

/// Driver-side tallies of one SLO cell run, alongside the engine's own
/// report. The driver counts everything it *offered* (including batches
/// the full queues refused), so the accounting identity
/// `offered == delivered + deadline-dropped + refused` can be checked
/// against ground truth rather than against the engine's bookkeeping
/// alone.
struct SloTally {
    offered_batches: u64,
    offered_packets: u64,
    refused_batches: u64,
    refused_packets: u64,
    report: poptrie_engine::EngineReport,
}

/// One SLO cell: feed pre-generated batches for `duration` into an
/// engine running the deadline-drop QoS policy, optionally gating the
/// feeder through a microburst schedule and replaying churn through the
/// control plane. Refused batches are counted and shed, never retried —
/// under a deadline policy a refusal is a loss the accounting must
/// explain, not something to block the feeder on.
fn slo_run(
    fib: &std::sync::Arc<poptrie::sync::SharedFib<u32>>,
    workers: usize,
    pool: &[std::sync::Arc<[u32]>],
    churn: &[ChurnEvent<u32>],
    duration: std::time::Duration,
    deadline: std::time::Duration,
    burst: Option<poptrie_traffic::MicroburstSchedule>,
) -> SloTally {
    use poptrie::sync::RouteUpdate;
    use poptrie_engine::{Engine, EngineConfig, QosPolicy};
    use std::sync::Arc;
    use std::time::Duration;

    let engine = Engine::start(
        Arc::clone(fib),
        EngineConfig::new(workers)
            .queue_capacity(64)
            .qos(QosPolicy::Deadline(deadline)),
    );
    let ingress = engine.ingress();
    let control = engine.control();
    let start = Instant::now();
    let end = start + duration;
    let (mut i, mut ev) = (0usize, 0usize);
    let mut offered_batches = 0u64;
    let mut offered_packets = 0u64;
    let mut refused_batches = 0u64;
    let mut refused_packets = 0u64;
    'feed: loop {
        if let Some(schedule) = &burst {
            if !schedule.is_on(start.elapsed()) {
                // Quiet gap of the microburst schedule: the feeder goes
                // fully idle, so the queues drain and the next burst
                // lands on an empty engine — the tail-latency shape this
                // pattern exists to produce.
                std::thread::sleep(Duration::from_micros(100));
                if Instant::now() >= end {
                    break 'feed;
                }
                continue;
            }
        }
        for _ in 0..64 {
            if !churn.is_empty() && i % 64 == 0 {
                let update = match churn[ev % churn.len()] {
                    ChurnEvent::Announce(p, nh) => RouteUpdate::Announce(p, nh),
                    ChurnEvent::Withdraw(p) => RouteUpdate::Withdraw(p),
                };
                let _ = control.send(update); // full channel: shed, counted
                ev += 1;
            }
            i += 1;
            let batch = Arc::clone(&pool[i % pool.len()]);
            let keys = batch.len() as u64;
            offered_batches += 1;
            offered_packets += keys;
            if ingress.try_submit(batch).is_err() {
                refused_batches += 1;
                refused_packets += keys;
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        if Instant::now() >= end {
            break 'feed;
        }
    }
    let report = engine.shutdown(Duration::from_secs(30));
    SloTally {
        offered_batches,
        offered_packets,
        refused_batches,
        refused_packets,
        report,
    }
}

/// A [`poptrie_engine::LatencySummary`] as a JSON object fragment. Both
/// unit systems are emitted: nanoseconds (host-independent) and
/// calibrated TSC cycles (comparable to the paper's per-lookup figures).
/// `repro vrf [--quick | --full] [--threads N]`: the multi-tenant VRF
/// scale benchmark and its CI gate.
///
/// Provisions a family of tenant FIBs — one dense base feed plus a small
/// per-tenant delta, the VPN regime where tables are overwhelmingly
/// byte-identical — twice: into a `VrfTable` sharing one interned leaf
/// arena, and into an unshared baseline. Reports bytes/route for both
/// (shared storage counted once) and the reduction interning buys. Then
/// attaches the shared registry to the forwarding engine and, while
/// VRF-keyed lookup batches fan out across the whole group, churns one
/// tenant through the control plane, probing an untouched tenant's
/// snapshot for oracle-exact answers and a stable version throughout.
///
/// Hard gates (nonzero exit): exact cross-table reference reconciliation
/// (every table's leaf-block references sum to the interner's total, and
/// the interner's own invariants hold), zero isolation mismatches, an
/// oracle-exact churned tenant, and a >= 25% bytes/route reduction.
fn vrf_cmd(ctx: &mut Ctx, threads: usize, tenants: usize) {
    use poptrie::sync::SharedFib;
    use poptrie::VrfId;
    use poptrie_engine::{Engine, EngineConfig, VrfTable};
    use poptrie_rib::{NextHop, Prefix, RadixTree};
    use std::sync::Arc;
    use std::time::Duration;

    let (groups, delta_routes, churn_updates, lookup_batches) = if ctx.quick {
        (12usize, 12usize, 200u64, 128usize)
    } else {
        (32, 24, 1_000, 1024)
    };
    let batch_keys = 256usize;
    let probe_count = 4096usize;

    println!("== repro vrf: {tenants} tenant FIBs over a shared interned leaf arena ==\n");

    // The tenant family. Each base group is 64 consecutive /26es on a
    // /20-aligned base with next hops cycling through a small pool (a
    // per-group phase keeps the patterns from collapsing to one block):
    // adjacent leaves always differ, so every group compiles to one full
    // 64-leaf chunk — the leaf-heavy shape whose redundancy across
    // tenants is exactly what interning collapses. Deltas are sparse
    // tenant-private /26es.
    let mut rng = StdRng::seed_from_u64(0x7e4a_11f0);
    let mut base: RadixTree<u32, NextHop> = RadixTree::new();
    let mut group_bases: Vec<u32> = Vec::with_capacity(groups);
    while group_bases.len() < groups {
        let g: u32 = rng.gen::<u32>() & (!0u32 << 12); // /20-aligned
        if group_bases.contains(&g) {
            continue;
        }
        group_bases.push(g);
        let phase = group_bases.len() % 8;
        for i in 0..64u32 {
            let nh = ((i as usize + phase) % 8 + 1) as NextHop;
            base.insert(Prefix::new(g | (i << 6), 26), nh);
        }
    }
    let deltas: Vec<Vec<(Prefix<u32>, NextHop)>> = (0..tenants)
        .map(|_| {
            (0..delta_routes)
                .map(|_| {
                    let addr = rng.gen::<u32>() & (!0u32 << 6);
                    (Prefix::new(addr, 26), rng.gen_range(1..=64u32) as NextHop)
                })
                .collect()
        })
        .collect();
    let rib_of = |i: usize| -> RadixTree<u32, NextHop> {
        let mut rib = base.clone();
        for &(p, nh) in &deltas[i] {
            rib.insert(p, nh);
        }
        rib
    };
    // Probe keys for the oracle checks: half inside base groups (where
    // the answers are nontrivial), half uniform.
    let probes: Vec<u32> = (0..probe_count)
        .map(|i| {
            if i % 2 == 0 {
                group_bases[rng.gen_range(0..groups)] | rng.gen_range(0..1u32 << 12)
            } else {
                rng.gen()
            }
        })
        .collect();

    let config = PoptrieConfig::new().direct_bits(8).build().unwrap();

    // Unshared baseline first: its measured leaf total sizes the shared
    // arena (with generous margin for churn and per-tenant deltas).
    let t0 = Instant::now();
    let private: VrfTable<u32> = VrfTable::private(config);
    for i in 0..tenants {
        private.create_from(rib_of(i));
    }
    let private_build = t0.elapsed();
    let pm = private.memory();

    let per_table_slots = pm.private_leaf_bytes / 2 / tenants.max(1);
    let capacity =
        (per_table_slots * 4 + tenants * delta_routes * 8 + (1 << 17)).next_power_of_two() as u32;
    let t0 = Instant::now();
    let shared: Arc<VrfTable<u32>> = Arc::new(VrfTable::shared(config, capacity));
    for i in 0..tenants {
        shared.create_from(rib_of(i));
    }
    let shared_build = t0.elapsed();
    let sm = shared.memory();
    let intern = shared.intern_stats().expect("shared registry");

    let reduction = 1.0 - sm.bytes_per_route() / pm.bytes_per_route();

    // Phase 2: the engine. VRF-keyed lookups fan out over every tenant
    // while the control plane churns tenant 0; tenant 1 must stay
    // byte-for-byte untouched (stable snapshot version, oracle-exact
    // answers) the whole time — isolation is structural, not scheduled.
    let vrf_churned = VrfId::new(0);
    let vrf_untouched = VrfId::new(1);
    let untouched_oracle = rib_of(1);
    let untouched_version = shared.snapshot(vrf_untouched).expect("tenant 1").version();
    let mut churn_oracle = rib_of(0);

    let fib: Arc<SharedFib<u32>> = Arc::new(SharedFib::with_config(config));
    let engine = Engine::start(
        Arc::clone(&fib),
        EngineConfig::new(threads)
            .pin_workers(false)
            .queue_capacity(256)
            .control_capacity(8192)
            .vrfs(Arc::clone(&shared)),
    );
    let control = engine.control();
    let ingress = engine.ingress();
    let telemetry = engine.telemetry();

    // Churn tenant 0: announces/withdraws of sparse /26es, mirrored
    // into a RIB oracle, with an isolation probe of tenant 1 after
    // every drained chunk.
    let mut isolation_checked = 0u64;
    let mut isolation_mismatches = 0u64;
    let mut sent = 0u64;
    let chunk = (churn_updates / 10).max(1);
    while sent < churn_updates {
        for _ in 0..chunk.min(churn_updates - sent) {
            let addr = rng.gen::<u32>() & (!0u32 << 6);
            let p = Prefix::new(addr, 26);
            let mut u = if rng.gen_bool(0.75) {
                let nh = rng.gen_range(1..=64u32) as NextHop;
                churn_oracle.insert(p, nh);
                poptrie::sync::RouteUpdate::Announce(p, nh)
            } else {
                churn_oracle.remove(p);
                poptrie::sync::RouteUpdate::Withdraw(p)
            };
            loop {
                match control.send_vrf(vrf_churned, u) {
                    Ok(()) => break,
                    Err(back) => {
                        u = back;
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
            }
            sent += 1;
        }
        let drain_deadline = Instant::now() + Duration::from_secs(10);
        while telemetry.update_events.get() < sent && Instant::now() < drain_deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let snap = shared.snapshot(vrf_untouched).expect("tenant 1");
        for &k in &probes {
            isolation_checked += 1;
            if snap.lookup(k) != untouched_oracle.lookup(k).copied() {
                isolation_mismatches += 1;
            }
        }
    }
    let untouched_stable =
        shared.snapshot(vrf_untouched).expect("tenant 1").version() == untouched_version;

    // The churned tenant itself must be oracle-exact after the storm.
    let mut churn_mismatches = 0u64;
    let churn_snap = shared.snapshot(vrf_churned).expect("tenant 0");
    for &k in &probes {
        if churn_snap.lookup(k) != churn_oracle.lookup(k).copied() {
            churn_mismatches += 1;
        }
    }

    // Aggregate VRF-keyed lookup throughput across the whole group.
    let batches: Vec<Arc<[u32]>> = (0..8)
        .map(|_| (0..batch_keys).map(|_| rng.gen::<u32>()).collect())
        .collect();
    let t0 = Instant::now();
    let mut submitted_packets = 0u64;
    for b in 0..lookup_batches {
        let vrf = VrfId::new((b % tenants) as u32);
        let mut batch = Arc::clone(&batches[b % batches.len()]);
        loop {
            match ingress.try_submit_vrf(vrf, batch) {
                Ok(_) => break,
                Err(back) => {
                    batch = back;
                    std::thread::yield_now();
                }
            }
        }
        submitted_packets += batch_keys as u64;
    }
    let serve_deadline = Instant::now() + Duration::from_secs(30);
    while telemetry.vrf_packets.get() < submitted_packets && Instant::now() < serve_deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let lookup_elapsed = t0.elapsed();
    let agg_mlps = submitted_packets as f64 / lookup_elapsed.as_secs_f64() / 1e6;

    let report = engine.shutdown(Duration::from_secs(30));
    let intern_after = shared.intern_stats().expect("shared registry");

    // Exact reconciliation, after everything: every table's leaf-block
    // references must sum to the interner's total and both registries'
    // structural audits must pass.
    let shared_audit = shared.audit();
    let private_audit = private.audit();

    let mut t = Table::new(vec!["Metric", "Private", "Shared"]);
    t.row(vec![
        "tables x routes".into(),
        format!("{} x {}", pm.tables, pm.routes / pm.tables.max(1)),
        format!("{} x {}", sm.tables, sm.routes / sm.tables.max(1)),
    ]);
    t.row(vec![
        "build time".into(),
        format!("{:.2}s", private_build.as_secs_f64()),
        format!("{:.2}s", shared_build.as_secs_f64()),
    ]);
    t.row(vec![
        "node bytes".into(),
        mib(pm.node_bytes),
        mib(sm.node_bytes),
    ]);
    t.row(vec![
        "direct bytes".into(),
        mib(pm.direct_bytes),
        mib(sm.direct_bytes),
    ]);
    t.row(vec![
        "leaf bytes".into(),
        mib(pm.private_leaf_bytes),
        format!("{} (store, once)", mib(sm.shared_store_bytes)),
    ]);
    t.row(vec![
        "total bytes".into(),
        mib(pm.total_bytes()),
        mib(sm.total_bytes()),
    ]);
    t.row(vec![
        "bytes/route".into(),
        format!("{:.1}", pm.bytes_per_route()),
        format!("{:.1}", sm.bytes_per_route()),
    ]);
    print!("{}", t.render());
    println!(
        "bytes/route reduction from interning: {:.1}% (gate: >= 25%)",
        reduction * 100.0
    );
    println!(
        "interning: {} live extents, {} dedup hits vs {} fresh allocs, {} of {} slots used",
        intern.live_extents,
        intern.dedup_hits,
        intern.fresh_allocs,
        intern.live_slots_rounded,
        intern.capacity
    );
    println!(
        "churn: {sent} updates to tenant 0 ({} applied), convergence p50/p99 {:.1}/{:.1} us",
        report.vrf_updates,
        report.convergence.p50_ns as f64 / 1e3,
        report.convergence.p99_ns as f64 / 1e3,
    );
    println!(
        "isolation: {isolation_checked} probes of tenant 1 during churn, \
         {isolation_mismatches} mismatches, version stable: {untouched_stable}"
    );
    println!(
        "lookups: {} VRF-keyed packets across {tenants} tenants, {agg_mlps:.2} aggregate Mlps",
        report.vrf_packets
    );

    let mut failures: Vec<String> = Vec::new();
    if let Err(e) = &shared_audit {
        failures.push(format!("shared registry audit failed: {e}"));
    }
    if let Err(e) = &private_audit {
        failures.push(format!("private registry audit failed: {e}"));
    }
    if reduction < 0.25 {
        failures.push(format!(
            "interning reduced bytes/route by only {:.1}% (< 25%)",
            reduction * 100.0
        ));
    }
    if isolation_mismatches != 0 {
        failures.push(format!(
            "{isolation_mismatches} oracle mismatches on the untouched tenant during churn"
        ));
    }
    if !untouched_stable {
        failures.push("untouched tenant's snapshot version moved during churn".into());
    }
    if churn_mismatches != 0 {
        failures.push(format!(
            "{churn_mismatches} oracle mismatches on the churned tenant"
        ));
    }
    if telemetry.update_events.get() < sent {
        failures.push(format!(
            "writer drained {} of {sent} churn updates",
            telemetry.update_events.get()
        ));
    }
    if report.vrf_packets < submitted_packets {
        failures.push(format!(
            "served {} of {submitted_packets} VRF-keyed packets",
            report.vrf_packets
        ));
    }
    if intern.dedup_hits == 0 {
        failures.push("no dedup hits: interning did nothing".into());
    }
    if report.convergence.samples == 0 {
        failures.push("convergence-lag histogram is empty".into());
    }

    let json = format!(
        "{{\n  \"experiment\": \"vrf\",\n  \"quick\": {},\n  \"tenants\": {tenants},\n  \
         \"routes\": {},\n  \"threads\": {threads},\n  \
         \"private\": {{\"node_bytes\": {}, \"direct_bytes\": {}, \"leaf_bytes\": {}, \
         \"total_bytes\": {}, \"bytes_per_route\": {:.2}, \"build_ms\": {:.1}}},\n  \
         \"shared\": {{\"node_bytes\": {}, \"direct_bytes\": {}, \"store_bytes\": {}, \
         \"store_used_bytes\": {}, \"total_bytes\": {}, \"bytes_per_route\": {:.2}, \
         \"build_ms\": {:.1}}},\n  \
         \"reduction\": {reduction:.4},\n  \
         \"intern\": {{\"live_extents\": {}, \"live_slots_rounded\": {}, \"total_refs\": {}, \
         \"dedup_hits\": {}, \"fresh_allocs\": {}, \"pending_blocks\": {}, \"epoch\": {}, \
         \"capacity\": {}}},\n  \
         \"churn\": {{\"sent\": {sent}, \"vrf_updates_applied\": {}, \
         \"convergence_ns\": {}}},\n  \
         \"isolation\": {{\"probes\": {isolation_checked}, \
         \"mismatches\": {isolation_mismatches}, \
         \"untouched_version_stable\": {untouched_stable}, \
         \"churned_tenant_mismatches\": {churn_mismatches}}},\n  \
         \"lookup\": {{\"vrf_packets\": {}, \"agg_mlps\": {agg_mlps:.3}}},\n  \
         \"reconciliation\": {{\"shared_audit_ok\": {}, \"private_audit_ok\": {}, \
         \"interner_refs\": {}}}\n}}\n",
        ctx.quick,
        sm.routes,
        pm.node_bytes,
        pm.direct_bytes,
        pm.private_leaf_bytes,
        pm.total_bytes(),
        pm.bytes_per_route(),
        private_build.as_secs_f64() * 1e3,
        sm.node_bytes,
        sm.direct_bytes,
        sm.shared_store_bytes,
        sm.shared_used_bytes,
        sm.total_bytes(),
        sm.bytes_per_route(),
        shared_build.as_secs_f64() * 1e3,
        intern_after.live_extents,
        intern_after.live_slots_rounded,
        intern_after.total_refs,
        intern_after.dedup_hits,
        intern_after.fresh_allocs,
        intern_after.pending_blocks,
        intern_after.epoch,
        intern_after.capacity,
        report.vrf_updates,
        latency_json(&report.convergence),
        report.vrf_packets,
        shared_audit.is_ok(),
        private_audit.is_ok(),
        intern_after.total_refs,
    );
    let dir = std::path::Path::new("results");
    let path = dir.join("BENCH_vrf.json");
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json.as_bytes()))
    {
        eprintln!("error: could not write results/BENCH_vrf.json: {e}");
        std::process::exit(1);
    }
    let landed = std::fs::read_to_string(&path).unwrap_or_default();
    if let Err(e) = validate_json(
        &landed,
        &[
            "experiment",
            "tenants",
            "reduction",
            "bytes_per_route",
            "intern",
            "isolation",
            "reconciliation",
            "agg_mlps",
            "convergence_ns",
        ],
    ) {
        eprintln!("error: results/BENCH_vrf.json is malformed: {e}");
        std::process::exit(1);
    }
    println!("wrote results/BENCH_vrf.json");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("error: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "[vrf] OK: {tenants} tenants, {:.1}% bytes/route reduction, exact reconciliation, \
         isolation oracle-exact",
        reduction * 100.0
    );
}

fn latency_json(l: &poptrie_engine::LatencySummary) -> String {
    format!(
        "{{\"samples\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \
         \"mean_cycles\": {}, \"p50_cycles\": {}, \"p99_cycles\": {}, \"p999_cycles\": {}}}",
        l.samples,
        l.mean_ns,
        l.p50_ns,
        l.p99_ns,
        l.p999_ns,
        l.mean_cycles,
        l.p50_cycles,
        l.p99_cycles,
        l.p999_cycles
    )
}

/// Minimal structural validation of a handwritten JSON document:
/// brackets balance outside string literals and every `required` key is
/// present. Catches a truncated or mangled write (the failure mode of
/// hand-assembled JSON) without needing a parser.
fn validate_json(text: &str, required: &[&str]) -> Result<(), String> {
    let mut stack: Vec<char> = Vec::new();
    let mut in_str = false;
    let mut escaped = false;
    for (at, c) in text.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => stack.push(c),
            '}' if stack.pop() != Some('{') => return Err(format!("unbalanced '}}' at byte {at}")),
            ']' if stack.pop() != Some('[') => return Err(format!("unbalanced ']' at byte {at}")),
            _ => {}
        }
    }
    if in_str {
        return Err("unterminated string literal".into());
    }
    if !stack.is_empty() {
        return Err(format!("{} unclosed bracket(s)", stack.len()));
    }
    for key in required {
        if !text.contains(&format!("\"{key}\"")) {
            return Err(format!("missing key \"{key}\""));
        }
    }
    Ok(())
}

/// `repro slo [--threads N] [--quick]`: the tail-latency SLO matrix.
///
/// Sweeps traffic pattern (uniform, Zipf flow mix, microburst,
/// adversarial worst-depth) x worker count x churn on/off through the
/// forwarding engine under the deadline-drop QoS policy, and reports
/// p50/p99/p99.9 queue-wait and service latency per cell from the
/// engine's per-worker `Log2Histogram`s. Every cell is reconciled
/// against the driver's own offered-load tallies — an accounting
/// mismatch or a malformed `results/BENCH_slo.json` exits nonzero, so CI
/// can run `repro slo --quick` as a smoke gate.
fn slo(ctx: &mut Ctx, threads: usize) {
    use poptrie::sync::SharedFib;
    use poptrie_traffic::{MicroburstSchedule, WorstDepth, ZipfFlows};
    use std::sync::Arc;
    use std::time::Duration;

    let threads = threads.max(1);
    section(&format!(
        "SLO matrix: pattern x workers (1..={threads}) x churn, deadline QoS"
    ));
    let ds_name = if ctx.quick {
        "RV-sydney-p0"
    } else {
        "REAL-Tier1-A"
    };
    let dataset = ctx.dataset(ds_name).clone();
    let pcfg = PoptrieConfig::new().direct_bits(18).build().unwrap();

    // Pre-generated key pools, one per pattern (the microburst pattern
    // reuses the uniform keys — it differs in *timing*, not content).
    // Sized as in fig10 --live: an ingress batch is an rx-burst of 64
    // measurement batches so each queue handoff carries enough work.
    let batch = ctx.cfg.batch.max(1) * 64;
    let pool_of = |fill: &mut dyn FnMut(&mut [u32])| -> Vec<Arc<[u32]>> {
        (0..256)
            .map(|_| {
                let mut keys = vec![0u32; batch];
                fill(&mut keys);
                Arc::from(keys)
            })
            .collect()
    };
    let mut uniform_src = poptrie_traffic::fill::RandomV4::new(0x510_F00D);
    let uniform_pool = pool_of(&mut |k| uniform_src.fill(k));
    let mut zipf_src = ZipfFlows::random(4096, 1.0, 0x0510_21FF);
    let zipf_pool = pool_of(&mut |k| zipf_src.fill(k));
    let mut worst_src = WorstDepth::synthesize(&dataset.routes, 4096, 0x0510_DEEF);
    let worst_pool = pool_of(&mut |k| worst_src.fill(k));
    let worst_chain = worst_src.max_chain_depth();

    let events = churn_stream::<u32>(&ChurnConfig {
        seed: 0x510C,
        events: if ctx.quick { 2_000 } else { 20_000 },
        direct_bits: 18,
        ..ChurnConfig::default()
    });

    let duration = if ctx.quick {
        Duration::from_millis(150)
    } else {
        Duration::from_millis(600)
    };
    // Deadline on the order of a full 64-deep queue's worth of service:
    // mostly-idle cells serve everything, saturated cells must shed.
    let deadline = Duration::from_millis(1);
    let burst_schedule = MicroburstSchedule::new(Duration::from_millis(10), 0.3);

    let mut counts: Vec<usize> = [1usize, 2, 4]
        .into_iter()
        .filter(|&n| n <= threads)
        .collect();
    if !counts.contains(&threads) {
        counts.push(threads);
    }

    // Churn rewrites the FIB, so churn cells compile a fresh table each;
    // churn-free cells share one immutable build.
    let base_fib: Arc<SharedFib<u32>> = Arc::new(SharedFib::compile(dataset.to_rib(), pcfg));

    type Pattern<'a> = (&'a str, &'a [Arc<[u32]>], Option<MicroburstSchedule>);
    let patterns: [Pattern; 4] = [
        ("uniform", &uniform_pool, None),
        ("zipf", &zipf_pool, None),
        ("microburst", &uniform_pool, Some(burst_schedule)),
        ("worst_depth", &worst_pool, None),
    ];

    let mut t = Table::new(vec![
        "Pattern",
        "Workers",
        "Churn",
        "Rate [Mlps]",
        "Wait p50 [us]",
        "Wait p99 [us]",
        "Wait p99.9 [us]",
        "DL-dropped",
        "Refused",
    ]);
    let mut cells: Vec<String> = Vec::new();
    let mut failures = 0u32;
    // Run-level aggregates for the trajectory history (see below).
    let mut agg_packets = 0u64;
    let mut agg_elapsed = 0f64;
    let mut agg_deadline_dropped = 0u64;
    let mut agg_refused = 0u64;
    let mut max_wait_p999 = 0u64;
    let mut max_wait_p99 = 0u64;
    let mut max_service_p99 = 0u64;
    for (pattern, pool, burst) in patterns {
        for &workers in &counts {
            for churn_on in [false, true] {
                let fib = if churn_on {
                    Arc::new(SharedFib::compile(dataset.to_rib(), pcfg))
                } else {
                    Arc::clone(&base_fib)
                };
                let churn_slice: &[ChurnEvent<u32>] = if churn_on { &events } else { &[] };
                let run = slo_run(&fib, workers, pool, churn_slice, duration, deadline, burst);
                let r = &run.report;

                // The accounting identity, against the driver's tallies.
                let batches_ok = run.offered_batches
                    == r.batches + r.deadline_dropped_batches + r.dropped_batches;
                let packets_ok = run.offered_packets
                    == r.packets + r.deadline_dropped_packets + r.dropped_packets;
                let refused_ok = run.refused_batches == r.dropped_batches
                    && run.refused_packets == r.dropped_packets;
                let clean = r.drained_clean && r.leaked_threads == 0;
                if !(batches_ok && packets_ok && refused_ok && clean) {
                    eprintln!(
                        "FAIL {pattern}/{workers}w/churn={churn_on}: offered {}b/{}p, \
                         delivered {}b/{}p, deadline-dropped {}b/{}p, engine-refused {}b/{}p, \
                         driver-refused {}b/{}p, drained_clean={}, leaked={}",
                        run.offered_batches,
                        run.offered_packets,
                        r.batches,
                        r.packets,
                        r.deadline_dropped_batches,
                        r.deadline_dropped_packets,
                        r.dropped_batches,
                        r.dropped_packets,
                        run.refused_batches,
                        run.refused_packets,
                        r.drained_clean,
                        r.leaked_threads,
                    );
                    failures += 1;
                }

                let mlps = r.packets as f64 / r.elapsed.as_secs_f64() / 1e6;
                agg_packets += r.packets;
                agg_elapsed += r.elapsed.as_secs_f64();
                agg_deadline_dropped += r.deadline_dropped_batches;
                agg_refused += r.dropped_batches;
                max_wait_p999 = max_wait_p999.max(r.queue_wait.p999_ns);
                max_wait_p99 = max_wait_p99.max(r.queue_wait.p99_ns);
                max_service_p99 = max_service_p99.max(r.service.p99_ns);
                t.row(vec![
                    pattern.to_string(),
                    workers.to_string(),
                    if churn_on { "yes" } else { "no" }.to_string(),
                    format!("{mlps:.2}"),
                    format!("{:.1}", r.queue_wait.p50_ns as f64 / 1e3),
                    format!("{:.1}", r.queue_wait.p99_ns as f64 / 1e3),
                    format!("{:.1}", r.queue_wait.p999_ns as f64 / 1e3),
                    r.deadline_dropped_batches.to_string(),
                    r.dropped_batches.to_string(),
                ]);

                let per_worker: Vec<String> = r
                    .workers
                    .iter()
                    .enumerate()
                    .map(|(w, wr)| {
                        format!(
                            "{{\"worker\": {w}, \"batches\": {}, \"packets\": {}, \
                             \"deadline_dropped_batches\": {}, \"queue_wait_ns\": {}, \
                             \"service_ns\": {}}}",
                            wr.batches,
                            wr.packets,
                            wr.deadline_dropped_batches,
                            latency_json(&wr.queue_wait),
                            latency_json(&wr.service),
                        )
                    })
                    .collect();
                cells.push(format!(
                    "    {{\"pattern\": \"{pattern}\", \"workers\": {workers}, \
                     \"churn\": {churn_on},\n     \"offered_batches\": {}, \
                     \"offered_packets\": {}, \"delivered_batches\": {}, \
                     \"delivered_packets\": {},\n     \"deadline_dropped_batches\": {}, \
                     \"deadline_dropped_packets\": {}, \"refused_batches\": {}, \
                     \"refused_packets\": {},\n     \"mlps\": {mlps:.3}, \
                     \"publishes\": {}, \"update_events\": {},\n     \
                     \"queue_wait_ns\": {}, \"service_ns\": {},\n     \
                     \"per_worker\": [{}]}}",
                    run.offered_batches,
                    run.offered_packets,
                    r.batches,
                    r.packets,
                    r.deadline_dropped_batches,
                    r.deadline_dropped_packets,
                    r.dropped_batches,
                    r.dropped_packets,
                    r.publishes,
                    r.update_events,
                    latency_json(&r.queue_wait),
                    latency_json(&r.service),
                    per_worker.join(", "),
                ));
            }
        }
    }
    print!("{}", t.render());
    println!(
        "({} cells of {} ms each, deadline {} us; DL-dropped batches \
         exceeded their queue-wait deadline, refused batches found every \
         queue full)",
        cells.len(),
        duration.as_millis(),
        deadline.as_micros(),
    );

    let json = format!(
        "{{\n  \"experiment\": \"slo\",\n  \"dataset\": \"{ds_name}\",\n  \
         \"batch\": {batch},\n  \"duration_ms\": {},\n  \"deadline_us\": {},\n  \
         \"quick\": {},\n  \"worst_depth_chain\": {worst_chain},\n  \
         \"cells\": [\n{}\n  ]\n}}\n",
        duration.as_millis(),
        deadline.as_micros(),
        ctx.quick,
        cells.join(",\n"),
    );
    let dir = std::path::Path::new("results");
    let path = dir.join("BENCH_slo.json");
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json.as_bytes()))
    {
        eprintln!("error: could not write results/BENCH_slo.json: {e}");
        std::process::exit(1);
    }
    // Re-read what actually landed on disk and validate it structurally:
    // the CI smoke gate fails on a truncated or malformed artifact.
    let landed = std::fs::read_to_string(&path).unwrap_or_default();
    if let Err(e) = validate_json(
        &landed,
        &[
            "experiment",
            "cells",
            "pattern",
            "queue_wait_ns",
            "service_ns",
            "p50_ns",
            "p99_ns",
            "p999_ns",
        ],
    ) {
        eprintln!("error: results/BENCH_slo.json is malformed: {e}");
        std::process::exit(1);
    }
    println!("wrote results/BENCH_slo.json");

    // Trajectory history: `BENCH_slo.json` is a snapshot that every run
    // overwrites, so regressions between runs were invisible. Append a
    // one-line summary per run to `BENCH_slo_history.jsonl` (never
    // truncated), compare against the last comparable entry, and — when
    // `SLO_GATE_FACTOR` is set (the CI smoke gate) — fail the run if
    // aggregate throughput fell by more than that factor. The factor is
    // generous because CI hosts are virtualized and noisy; the gate is
    // for cliffs, not percent-level drift.
    let agg_mlps = if agg_elapsed > 0.0 {
        agg_packets as f64 / agg_elapsed / 1e6
    } else {
        0.0
    };
    let history_path = dir.join("BENCH_slo_history.jsonl");
    let fingerprint = format!(
        "\"quick\": {}, \"dataset\": \"{ds_name}\", \"threads\": {threads}",
        ctx.quick
    );
    // The last comparable history line, kept whole so the gate can read
    // both the throughput and the latency fields out of it.
    let previous_line = std::fs::read_to_string(&history_path).ok().and_then(|h| {
        h.lines()
            .rfind(|l| l.contains(&fingerprint))
            .map(str::to_string)
    });
    let previous = previous_line
        .as_deref()
        .and_then(|l| json_field_f64(l, "agg_mlps"));
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let entry = format!(
        "{{\"ts\": {ts}, {fingerprint}, \"cells\": {}, \"agg_mlps\": {agg_mlps:.3}, \
         \"deadline_dropped_batches\": {agg_deadline_dropped}, \
         \"refused_batches\": {agg_refused}, \"max_wait_p999_ns\": {max_wait_p999}, \
         \"wait_p99_ns\": {max_wait_p99}, \"service_p99_ns\": {max_service_p99}}}\n",
        cells.len(),
    );
    use std::io::Write as _;
    if let Err(e) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history_path)
        .and_then(|mut f| f.write_all(entry.as_bytes()))
    {
        eprintln!("error: could not append results/BENCH_slo_history.jsonl: {e}");
        std::process::exit(1);
    }
    match previous {
        Some(prev) => {
            let ratio = if prev > 0.0 { agg_mlps / prev } else { 1.0 };
            println!(
                "appended results/BENCH_slo_history.jsonl: {agg_mlps:.2} aggregate Mlps \
                 (previous comparable run {prev:.2}, x{ratio:.2})"
            );
            if let Some(factor) = std::env::var("SLO_GATE_FACTOR")
                .ok()
                .and_then(|v| v.parse::<f64>().ok())
            {
                if factor > 1.0 && prev > 0.0 && agg_mlps * factor < prev {
                    eprintln!(
                        "error: aggregate throughput fell more than {factor}x below the \
                         previous comparable run ({agg_mlps:.2} vs {prev:.2} Mlps)"
                    );
                    std::process::exit(1);
                }
                // The latency side of the same gate: the worst per-cell
                // p99 queue wait and p99 service time must not *rise*
                // past factor x the previous comparable run. Throughput
                // can hold steady while tail latency cliffs (a stalled
                // worker still serves batches late); tracking both
                // catches that class of regression.
                if factor > 1.0 {
                    let worse = |name: &str, now: u64, prev: Option<f64>| {
                        if let Some(prev) = prev.filter(|&p| p > 0.0) {
                            if now as f64 > prev * factor {
                                eprintln!(
                                    "error: {name} p99 rose more than {factor}x above the \
                                     previous comparable run ({now} ns vs {prev:.0} ns)"
                                );
                                return true;
                            }
                        }
                        false
                    };
                    let prev_wait = previous_line
                        .as_deref()
                        .and_then(|l| json_field_f64(l, "wait_p99_ns"));
                    let prev_service = previous_line
                        .as_deref()
                        .and_then(|l| json_field_f64(l, "service_p99_ns"));
                    let bad = worse("queue-wait", max_wait_p99, prev_wait)
                        | worse("service", max_service_p99, prev_service);
                    if bad {
                        std::process::exit(1);
                    }
                }
            }
        }
        None => println!(
            "appended results/BENCH_slo_history.jsonl: {agg_mlps:.2} aggregate Mlps \
             (no previous comparable run)"
        ),
    }

    if failures > 0 {
        eprintln!("error: {failures} cell(s) failed accounting reconciliation");
        std::process::exit(1);
    }
}

// ------------------------------------------------------------------ bgp

struct BgpOpts {
    mrt: Option<String>,
    write_fixture: Option<String>,
    speedup: f64,
    threads: usize,
}

/// Deterministically synthesize a BGP4MP update trace: a full-table
/// announcement of `n_base` random prefixes followed by `n_churn`
/// churn events (path-change re-announcements and withdrawals), one
/// UPDATE message per event, timestamped at 10k updates/s recorded
/// rate.
fn synth_bgp_trace(n_base: usize, n_churn: usize, seed: u64) -> tablegen::mrt::UpdateTrace {
    use poptrie_bgp::wire::{Message, UpdateMsg};
    use poptrie_rib::Prefix;
    use poptrie_rng::prelude::*;
    use std::net::Ipv4Addr;

    let mut rng = StdRng::seed_from_u64(seed);
    let nh_pool: Vec<Ipv4Addr> = (1u32..=8)
        .map(|i| Ipv4Addr::from(0xC633_6400 + i))
        .collect();
    let mut seen = std::collections::HashSet::new();
    let mut base: Vec<Prefix<u32>> = Vec::with_capacity(n_base);
    while base.len() < n_base {
        let len = rng.gen_range(8..=24u8);
        let p = Prefix::new(rng.gen::<u32>(), len);
        if seen.insert(p) {
            base.push(p);
        }
    }
    let mut records = Vec::with_capacity(n_base + n_churn);
    let mut push = |i: usize, msg: Message| {
        records.push(tablegen::mrt::UpdateRecord {
            timestamp_us: 1_700_000_000_000_000 + i as u64 * 100,
            peer_asn: 65_001,
            peer_address: std::net::IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1)),
            message: msg.encode(),
        });
    };
    let mut present = base.clone();
    for (i, p) in base.iter().enumerate() {
        push(
            i,
            Message::Update(UpdateMsg {
                announced_v4: vec![*p],
                next_hop_v4: Some(nh_pool[i % nh_pool.len()]),
                ..UpdateMsg::default()
            }),
        );
    }
    for i in 0..n_churn {
        let withdraw = !present.is_empty() && rng.gen_bool(0.3);
        let msg = if withdraw {
            let at = rng.gen_range(0..present.len());
            let p = present.swap_remove(at);
            Message::Update(UpdateMsg {
                withdrawn_v4: vec![p],
                ..UpdateMsg::default()
            })
        } else {
            let p = *base.choose(&mut rng).expect("non-empty base");
            if !present.contains(&p) {
                present.push(p);
            }
            Message::Update(UpdateMsg {
                announced_v4: vec![p],
                next_hop_v4: Some(*nh_pool.choose(&mut rng).expect("non-empty pool")),
                ..UpdateMsg::default()
            })
        };
        push(n_base + i, msg);
    }
    tablegen::mrt::UpdateTrace { records }
}

/// `repro bgp`: replay a BGP4MP update trace through the RFC 4271
/// session FSM into the engine's control plane, with a seeded
/// mid-replay session flap, while a feeder thread keeps lookups flowing
/// against the served snapshots.
///
/// The run gates hard (nonzero exit) on: exact announce/withdraw
/// accounting against the trace, zero parse errors, lookups served
/// during the flap's down window, a non-empty convergence-lag
/// histogram, and the final FIB matching a RIB oracle built from the
/// parsed trace — route for route.
fn bgp(ctx: &mut Ctx, opts: &BgpOpts) {
    use poptrie::sync::{RouteUpdate, SharedFib};
    use poptrie_bgp::wire::{Message, OpenMsg};
    use poptrie_bgp::{Event, NextHopInterner, RouteEvent, Session, SessionConfig, State};
    use poptrie_engine::{Engine, EngineConfig};
    use poptrie_rib::{NextHop, Prefix, RadixTree, NO_ROUTE};
    use std::net::IpAddr;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    // Fixture emission is its own mode: write the deterministic trace CI
    // replays and exit.
    if let Some(path) = &opts.write_fixture {
        let trace = synth_bgp_trace(48, 36, 0xB9F0_57A6);
        let (a, w) = trace.accounting();
        if let Err(e) = std::fs::write(path, trace.encode()) {
            eprintln!("error: could not write {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "wrote {path}: {} BGP4MP records ({a} announced, {w} withdrawn)",
            trace.records.len()
        );
        return;
    }

    section("BGP control-plane replay: session FSM -> engine writer, with mid-replay flap");
    let (source, trace) = match &opts.mrt {
        Some(path) => {
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("error: could not read {path}: {e}");
                    std::process::exit(1);
                }
            };
            match tablegen::mrt::parse_bgp4mp(&bytes) {
                Ok(t) => (path.clone(), t),
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => {
            let (n_base, n_churn) = if ctx.quick {
                (2_000, 1_000)
            } else {
                (20_000, 10_000)
            };
            (
                "synthetic".to_string(),
                synth_bgp_trace(n_base, n_churn, 0xB9F0_0001),
            )
        }
    };
    if trace.records.is_empty() {
        eprintln!("error: trace has no BGP4MP message records");
        std::process::exit(1);
    }
    let (expect_announced, expect_withdrawn) = trace.accounting();
    println!(
        "[bgp] {source}: {} records, {expect_announced} announces, {expect_withdrawn} withdraws",
        trace.records.len()
    );

    // The RIB oracle: every parseable v4 route applied in trace order,
    // with next hops densified exactly as the replay does.
    let mut oracle: RadixTree<u32, NextHop> = RadixTree::new();
    let mut oracle_interner = NextHopInterner::new();
    let mut touched: std::collections::HashSet<Prefix<u32>> = std::collections::HashSet::new();
    let mut v6_routes = 0u64;
    for r in &trace.records {
        if let Ok(Message::Update(u)) = r.parse() {
            v6_routes += (u.announced_v6.len() + u.withdrawn_v6.len()) as u64;
            if let Some(nh) = u.next_hop_v4 {
                let id = oracle_interner.intern(IpAddr::V4(nh));
                for p in &u.announced_v4 {
                    oracle.insert(*p, id);
                    touched.insert(*p);
                }
            }
            for p in &u.withdrawn_v4 {
                oracle.remove(*p);
                touched.insert(*p);
            }
        }
    }
    if v6_routes > 0 {
        println!("[bgp] note: {v6_routes} IPv6 routes in the trace are not replayed (v4 engine)");
    }

    // Engine over an initially empty FIB: the trace's full-table
    // announcement *is* the table.
    let pcfg = PoptrieConfig::new().direct_bits(18).build().unwrap();
    let fib: Arc<SharedFib<u32>> = Arc::new(SharedFib::compile(RadixTree::new(), pcfg));
    let engine = Engine::start(
        Arc::clone(&fib),
        EngineConfig::new(opts.threads.max(1))
            .pin_workers(false)
            .control_capacity(8192)
            .coalesce_window(512),
    );
    let control = engine.control();
    let telemetry = engine.telemetry();

    // Lookup feeder: keeps the dataplane busy for the whole replay,
    // including the flap's down window.
    let stop = Arc::new(AtomicBool::new(false));
    let feeder = {
        let ingress = engine.ingress();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut x = 0x9E37_79B9_u32;
            let pool: Vec<Arc<[u32]>> = (0..64)
                .map(|_| {
                    let keys: Vec<u32> = (0..4096)
                        .map(|_| {
                            x ^= x << 13;
                            x ^= x >> 17;
                            x ^= x << 5;
                            x
                        })
                        .collect();
                    Arc::from(keys)
                })
                .collect();
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                if ingress
                    .try_submit(Arc::clone(&pool[i % pool.len()]))
                    .is_err()
                {
                    std::thread::sleep(Duration::from_micros(20));
                }
                i += 1;
            }
        })
    };

    // The session under test. Short, test-scale retry timers so the
    // flap's backoff costs milliseconds, not seconds.
    let retry_base = if ctx.quick { 5_000_000 } else { 20_000_000 };
    let mut session = Session::new(SessionConfig {
        retry_base,
        retry_max: retry_base * 16,
        jitter_seed: 0x51F0_0D11,
        ..SessionConfig::default()
    });
    let stats = session.stats();
    let started = Instant::now();
    let now_ns = |started: &Instant| started.elapsed().as_nanos() as u64;
    let peer_open = Message::Open(OpenMsg {
        version: 4,
        asn: 65_001,
        hold_time: 90,
        bgp_id: 0xC000_0201,
        params: Vec::new(),
    })
    .encode();
    let keepalive = Message::Keepalive.encode();

    let mut interner = NextHopInterner::new();
    let mut sent_updates = 0u64;
    // Drain session events and forward route events into the engine's
    // control channel, retrying when the bounded channel pushes back
    // (correctness needs every update to land).
    let mut pump = |session: &mut Session, sent: &mut u64| {
        session.drain_actions(); // OPEN/KEEPALIVE/NOTIFICATION tx: no wire to write to
        for ev in session.drain_events() {
            if let Event::Routes { span, routes } = ev {
                for r in routes {
                    let update = match r {
                        RouteEvent::AnnounceV4(p, nh) => {
                            RouteUpdate::Announce(p, interner.intern(IpAddr::V4(nh)))
                        }
                        RouteEvent::WithdrawV4(p) => RouteUpdate::Withdraw(p),
                        RouteEvent::AnnounceV6(..) | RouteEvent::WithdrawV6(..) => continue,
                    };
                    let mut u = update;
                    loop {
                        // Carry the session's span ID so a trace-enabled
                        // engine can attribute the apply to this UPDATE.
                        match control.send_spanned(span, u) {
                            Ok(()) => break,
                            Err(back) => {
                                u = back;
                                std::thread::sleep(Duration::from_micros(50));
                            }
                        }
                    }
                    *sent += 1;
                }
            }
        }
    };
    let handshake = |session: &mut Session, started: &Instant| {
        session.connected(now_ns(started));
        session.recv(now_ns(started), &peer_open);
        session.recv(now_ns(started), &keepalive);
        assert_eq!(session.state(), State::Established, "handshake failed");
    };

    session.start(now_ns(&started));
    handshake(&mut session, &started);
    pump(&mut session, &mut sent_updates);

    // Replay phase 1: messages up to the flap point, then tear the wire
    // mid-message.
    let offsets = trace.replay_offsets_us(opts.speedup);
    let cut = if trace.records.len() >= 8 {
        trace.records.len() / 2
    } else {
        trace.records.len() // too short to flap
    };
    let deliver = |session: &mut Session,
                   sent: &mut u64,
                   pump: &mut dyn FnMut(&mut Session, &mut u64),
                   range: std::ops::Range<usize>,
                   started: &Instant| {
        for i in range {
            if opts.speedup > 0.0 {
                let due = Duration::from_micros(offsets[i]);
                while started.elapsed() < due {
                    std::hint::spin_loop();
                }
            }
            session.recv(now_ns(started), &trace.records[i].message);
            session.tick(now_ns(started));
            pump(session, sent);
        }
    };
    deliver(&mut session, &mut sent_updates, &mut pump, 0..cut, &started);

    let mut flapped = false;
    let mut staleness_ns_max = 0u64;
    let mut down_window_lookups = 0u64;
    if cut < trace.records.len() {
        flapped = true;
        // Half the cut record arrives, then the transport dies.
        let msg = &trace.records[cut].message;
        session.recv(now_ns(&started), &msg[..msg.len() / 2]);
        assert!(session.mid_message(), "flap must land mid-message");
        let packets_at_cut = telemetry.total_packets();
        let down_at = Instant::now();
        session.disconnected(now_ns(&started));
        pump(&mut session, &mut sent_updates);
        // Honor the ConnectRetry backoff on the real clock, publishing
        // staleness while the FIB serves the pre-flap snapshot. The
        // down window is held open for at least 50ms so the bench can
        // observe lookups served against the stale snapshot.
        let min_down = Duration::from_millis(50);
        loop {
            let stale = down_at.elapsed().as_nanos() as u64;
            stats.staleness_ns.set(stale);
            staleness_ns_max = staleness_ns_max.max(stale);
            session.tick(now_ns(&started));
            if session.state() == State::Connect && down_at.elapsed() >= min_down {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        handshake(&mut session, &started);
        pump(&mut session, &mut sent_updates);
        down_window_lookups = telemetry.total_packets() - packets_at_cut;
        // Replay phase 2: the peer (per RFC 4271) re-sends everything
        // from the first message the flap swallowed.
        deliver(
            &mut session,
            &mut sent_updates,
            &mut pump,
            cut..trace.records.len(),
            &started,
        );
        stats.staleness_ns.set(0);
    }
    let replay_elapsed = started.elapsed();
    assert_eq!(session.state(), State::Established);

    // Let the writer drain everything we sent, then stop.
    let drain_deadline = Instant::now() + Duration::from_secs(10);
    while telemetry.update_events.get() < sent_updates && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::Relaxed);
    let _ = feeder.join();
    let report = engine.shutdown(Duration::from_secs(30));

    // Oracle check: every touched prefix plus a seeded probe sweep must
    // agree between the served FIB and the RIB oracle.
    let mut mismatches = 0u64;
    let mut checked = 0u64;
    let mut probe = 0xDEAD_BEEF_u32;
    let probes = (0..4096).map(|_| {
        probe ^= probe << 13;
        probe ^= probe >> 17;
        probe ^= probe << 5;
        probe
    });
    for key in touched.iter().map(|p| p.first_addr()).chain(probes) {
        let want = oracle.lookup(key).copied().unwrap_or(NO_ROUTE);
        let got = fib.lookup(key).unwrap_or(NO_ROUTE);
        checked += 1;
        if want != got {
            if mismatches < 8 {
                eprintln!("FAIL oracle mismatch at {key:#010x}: fib {got}, oracle {want}");
            }
            mismatches += 1;
        }
    }

    let announced = stats.routes_announced.get();
    let withdrawn = stats.routes_withdrawn.get();
    let updates_per_sec = stats.updates_rx.get() as f64 / replay_elapsed.as_secs_f64();
    let lookups_per_sec = report.packets as f64 / report.elapsed.as_secs_f64();
    let mut t = Table::new(vec!["Metric", "Value"]);
    t.row(vec![
        "updates replayed".into(),
        stats.updates_rx.get().to_string(),
    ]);
    t.row(vec![
        "updates/s sustained".into(),
        format!("{updates_per_sec:.0}"),
    ]);
    t.row(vec![
        "convergence p50/p99/p99.9 [us]".into(),
        format!(
            "{:.1} / {:.1} / {:.1}",
            report.convergence.p50_ns as f64 / 1e3,
            report.convergence.p99_ns as f64 / 1e3,
            report.convergence.p999_ns as f64 / 1e3
        ),
    ]);
    t.row(vec!["lookups served".into(), report.packets.to_string()]);
    t.row(vec!["lookups/s".into(), format!("{:.0}", lookups_per_sec)]);
    t.row(vec![
        "lookups in down window".into(),
        down_window_lookups.to_string(),
    ]);
    t.row(vec![
        "session resets / reconnects".into(),
        format!("{} / {}", stats.resets.get(), stats.to_established.get()),
    ]);
    t.row(vec![
        "backoff applied [ms]".into(),
        format!("{:.1}", stats.backoff_ns.get() as f64 / 1e6),
    ]);
    t.row(vec![
        "staleness max [ms]".into(),
        format!("{:.1}", staleness_ns_max as f64 / 1e6),
    ]);
    t.row(vec!["oracle prefixes checked".into(), checked.to_string()]);
    print!("{}", t.render());
    print!("{}", stats.registry().render_prometheus());

    // The gates. Every one is a hard failure: this subcommand is the CI
    // smoke proof that the BGP path is lossless end to end.
    let mut failures: Vec<String> = Vec::new();
    if announced != expect_announced || withdrawn != expect_withdrawn {
        failures.push(format!(
            "accounting: session saw {announced}a/{withdrawn}w, trace has \
             {expect_announced}a/{expect_withdrawn}w"
        ));
    }
    if stats.parse_errors.get() != 0 {
        failures.push(format!("{} parse errors", stats.parse_errors.get()));
    }
    if telemetry.update_events.get() != sent_updates {
        failures.push(format!(
            "writer drained {} of {sent_updates} updates",
            telemetry.update_events.get()
        ));
    }
    if report.convergence.samples == 0 {
        failures.push("convergence-lag histogram is empty".into());
    }
    if mismatches != 0 {
        failures.push(format!(
            "{mismatches} oracle mismatches of {checked} checked"
        ));
    }
    if report.packets == 0 {
        failures.push("no lookups served during replay".into());
    }
    if flapped {
        if stats.resets.get() != 1 || stats.to_established.get() != 2 {
            failures.push(format!(
                "flap shape: {} resets, {} establishments (want 1 and 2)",
                stats.resets.get(),
                stats.to_established.get()
            ));
        }
        if down_window_lookups == 0 {
            failures.push("no lookups served during the down window".into());
        }
    }

    let json = format!(
        "{{\n  \"experiment\": \"bgp\",\n  \"source\": \"{source}\",\n  \
         \"quick\": {},\n  \"records\": {},\n  \"speedup\": {},\n  \
         \"expected\": {{\"announced\": {expect_announced}, \"withdrawn\": {expect_withdrawn}}},\n  \
         \"observed\": {{\"announced\": {announced}, \"withdrawn\": {withdrawn}, \
         \"updates\": {}}},\n  \
         \"updates_per_sec\": {updates_per_sec:.1},\n  \
         \"convergence_ns\": {},\n  \
         \"lookups\": {},\n  \"lookups_per_sec\": {lookups_per_sec:.1},\n  \
         \"flap\": {{\"enabled\": {flapped}, \"cut_record\": {cut}, \"resets\": {}, \
         \"reconnects\": {}, \"backoff_ns\": {}, \"staleness_ns_max\": {staleness_ns_max}, \
         \"down_window_lookups\": {down_window_lookups}}},\n  \
         \"oracle\": {{\"checked\": {checked}, \"mismatches\": {mismatches}}},\n  \
         \"engine\": {{\"publishes\": {}, \"update_events\": {}, \"updates_coalesced\": {}, \
         \"writer_respawns\": {}}}\n}}\n",
        ctx.quick,
        trace.records.len(),
        opts.speedup,
        stats.updates_rx.get(),
        latency_json(&report.convergence),
        report.packets,
        stats.resets.get(),
        stats.to_established.get(),
        stats.backoff_ns.get(),
        report.publishes,
        report.update_events,
        report.updates_coalesced,
        report.writer_respawns,
    );
    let dir = std::path::Path::new("results");
    let path = dir.join("BENCH_bgp.json");
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json.as_bytes()))
    {
        eprintln!("error: could not write results/BENCH_bgp.json: {e}");
        std::process::exit(1);
    }
    let landed = std::fs::read_to_string(&path).unwrap_or_default();
    if let Err(e) = validate_json(
        &landed,
        &[
            "experiment",
            "updates_per_sec",
            "convergence_ns",
            "p50_ns",
            "p99_ns",
            "p999_ns",
            "lookups_per_sec",
            "flap",
            "oracle",
        ],
    ) {
        eprintln!("error: results/BENCH_bgp.json is malformed: {e}");
        std::process::exit(1);
    }
    println!("wrote results/BENCH_bgp.json");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("error: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "[bgp] OK: lossless replay, {} updates, flap survived with exact reconvergence",
        sent_updates
    );
}

/// Extract a numeric field from a single-line JSON object without a JSON
/// parser: finds `"key": <number>` and parses the number. Good enough
/// for the history lines this binary writes itself.
fn json_field_f64(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

// ----------------------------------------------------------------- fig 11

fn fig11(ctx: &mut Ctx) {
    section("Figure 11: per-lookup cycles by binary radix depth (REAL-Tier1-A)");
    let n = ctx.cfg.cycle_samples;
    let rib = ctx.dataset("REAL-Tier1-A").to_rib();
    for algo in CYCLE_ALGOS {
        let BuildOutcome::Ok(fib) = build_v4(algo, &rib) else {
            continue;
        };
        let samples = cycle_samples(fib.as_ref(), n);
        // Bucket by the binary radix depth of each key.
        let mut buckets: HashMap<u32, Vec<u64>> = HashMap::new();
        for CycleSample { key, cycles } in samples {
            let (_, depth, _) = rib.lookup_with_depth(key);
            buckets.entry(depth).or_default().push(cycles);
        }
        println!("\n{}:", algo_label(algo));
        let mut t = Table::new(vec!["depth", "n", "5%", "q1", "median", "q3", "95%"]);
        let mut depths: Vec<u32> = buckets.keys().copied().collect();
        depths.sort_unstable();
        for d in depths {
            let b = &buckets[&d];
            if b.len() < 16 {
                continue; // too few samples for stable quartiles
            }
            let c = Candlestick::from_samples(b).expect("non-empty");
            t.row(vec![
                d.to_string(),
                b.len().to_string(),
                c.p5.to_string(),
                c.q1.to_string(),
                c.median.to_string(),
                c.q3.to_string(),
                c.p95.to_string(),
            ]);
        }
        print!("{}", t.render());
    }
}

// ----------------------------------------------------------------- fig 12

fn fig12(ctx: &mut Ctx) {
    section("Figure 12: average lookup rate for real-trace on REAL-RENET");
    let cfg = ctx.cfg;
    let dataset = ctx.dataset("REAL-RENET").clone();
    let trace = RealTrace::synthesize(&dataset, TraceConfig::default());
    let packets = trace.packet_array(if ctx.quick { 1 << 20 } else { 1 << 24 });
    let rib = dataset.to_rib();
    let mut t = Table::new(vec![
        "Algorithm",
        "Scalar (std.) [Mlps]",
        "Batched (std.) [Mlps]",
    ]);
    for algo in [
        Algo::TreeBitmap,
        Algo::Sail,
        Algo::D16r,
        Algo::Poptrie16,
        Algo::D18r,
        Algo::Poptrie18,
    ] {
        match build_v4(algo, &rib) {
            BuildOutcome::Ok(fib) => {
                let rate = measure_mlps_keys(fib.as_ref(), &packets, &cfg);
                let brate = measure_mlps_keys_batch(fib.as_ref(), &packets, &cfg);
                t.row(vec![
                    algo_label(algo).to_string(),
                    mean_std_cell(rate),
                    mean_std_cell(brate),
                ]);
            }
            BuildOutcome::StructuralLimit(e) => {
                t.row(vec![
                    algo_label(algo).to_string(),
                    format!("N/A ({e})"),
                    "N/A".into(),
                ]);
            }
        }
    }
    print!("{}", t.render());
}

// --------------------------------------------------------- §4.5 locality

/// The §4.5 locality-pattern numbers: "For REAL-Tier1-B where Poptrie
/// performed worse, the average lookup rate for sequential of SAIL,
/// D16R, D18R, Poptrie16, and Poptrie18 were 1264, 628, 911, 955, and
/// 1122 Mlps ... for repeated ... 492, 382, 454, 470, and 480 Mlps."
fn locality(ctx: &mut Ctx) {
    use poptrie_traffic::{repeated_v4, sequential_v4};
    section("§4.5: lookup rate under locality patterns (REAL-Tier1-B)");
    let cfg = ctx.cfg;
    let dataset = ctx.dataset("REAL-Tier1-B").clone();
    // Materialized key arrays, as the paper feeds them.
    let seq: Vec<u32> = sequential_v4(0, 1 << 22).collect();
    let rep: Vec<u32> = repeated_v4(0xBEEF, 1 << 22, 16).collect();
    let mut t = Table::new(vec![
        "Algorithm",
        "sequential [Mlps]",
        "repeated [Mlps]",
        "random [Mlps]",
    ]);
    for (algo, outcome) in build_all_v4(
        &[
            Algo::Sail,
            Algo::D16r,
            Algo::D18r,
            Algo::Poptrie16,
            Algo::Poptrie18,
        ],
        &dataset,
    ) {
        let BuildOutcome::Ok(fib) = outcome else {
            t.row(vec![algo_label(algo).to_string(), "N/A".into()]);
            continue;
        };
        let (s, _) = measure_mlps_keys(fib.as_ref(), &seq, &cfg);
        let (r, _) = measure_mlps_keys(fib.as_ref(), &rep, &cfg);
        let (x, _) = measure_mlps(fib.as_ref(), &cfg);
        t.row(vec![
            algo_label(algo).to_string(),
            format!("{s:.2}"),
            format!("{r:.2}"),
            format!("{x:.2}"),
        ]);
    }
    print!("{}", t.render());
    println!("(paper, same order — sequential: 1264/628/911/955/1122;");
    println!(" repeated: 492/382/454/470/480; both far above random — locality");
    println!(" lets every structure ride its caches)");
}

// ------------------------------------------------------- serial ablation

/// Dependent-lookup comparison (not a paper figure — an ablation): each
/// key is perturbed by the previous result, so lookups cannot overlap in
/// the memory pipeline. This is the latency-bound regime of a
/// run-to-completion forwarding loop, and the regime where structure
/// depth (Poptrie's advantage) matters most; the paper's single-task-OS
/// cycle analysis (§4.6) measures the same effect differently.
fn serial(ctx: &mut Ctx) {
    use poptrie_bench::measure::measure_mlps_serial;
    section("Ablation: independent vs dependent (serialized) lookup rate");
    let cfg = ctx.cfg;
    let mut t = Table::new(vec!["Algorithm", "independent [Mlps]", "dependent [Mlps]"]);
    let dataset = ctx.dataset("REAL-Tier1-A").clone();
    let mut algos: Vec<Algo> = Algo::table3().to_vec();
    algos.push(Algo::Dir248);
    algos.push(Algo::Lulea);
    for (algo, outcome) in build_all_v4(&algos, &dataset) {
        let BuildOutcome::Ok(fib) = outcome else {
            t.row(vec![
                algo_label(algo).to_string(),
                "N/A".into(),
                "N/A".into(),
            ]);
            continue;
        };
        let (ind, _) = measure_mlps(fib.as_ref(), &cfg);
        let (dep, _) = measure_mlps_serial(fib.as_ref(), &cfg);
        t.row(vec![
            algo_label(algo).to_string(),
            format!("{ind:.2}"),
            format!("{dep:.2}"),
        ]);
    }
    print!("{}", t.render());
}

// ------------------------------------------------------- batch ablation

/// Scalar vs batched+prefetch lookup rate (not a paper figure — an
/// ablation for this reproduction's batched mode): random traffic on
/// REAL-Tier1-A across every algorithm in the workspace. Algorithms
/// without an interleaved override (the radix tree's pointer-chasing
/// nodes give a prefetch nothing to run ahead of) fall back to the
/// scalar loop, so their two columns should agree within noise.
fn batch(ctx: &mut Ctx) {
    section("Ablation: scalar vs batched+prefetch lookup rate (REAL-Tier1-A, random)");
    let cfg = ctx.cfg;
    println!(
        "({} keys per lookup_batch call, 8 interleaved lanes)",
        cfg.batch
    );
    let mut t = Table::new(vec![
        "Algorithm",
        "Scalar [Mlps]",
        "Batched [Mlps]",
        "Speedup",
    ]);
    let dataset = ctx.dataset("REAL-Tier1-A").clone();
    let mut algos: Vec<Algo> = Algo::table3().to_vec();
    algos.push(Algo::Dir248);
    algos.push(Algo::Lulea);
    for (algo, outcome) in build_all_v4(&algos, &dataset) {
        let BuildOutcome::Ok(fib) = outcome else {
            t.row(vec![
                algo_label(algo).to_string(),
                "N/A".into(),
                "N/A".into(),
                "-".into(),
            ]);
            continue;
        };
        let (scalar, _) = measure_mlps(fib.as_ref(), &cfg);
        let (batched, _) = measure_mlps_batch(fib.as_ref(), &cfg);
        t.row(vec![
            algo_label(algo).to_string(),
            format!("{scalar:.2}"),
            format!("{batched:.2}"),
            format!("{:.2}x", batched / scalar),
        ]);
    }
    print!("{}", t.render());
}

// ------------------------------------------------------------ diagnostics

/// `repro stats`: with a dataset argument, structural diagnostics of the
/// dataset; with none, the live-telemetry replay (`observe` feature).
/// `repro trace [--quick] [--threads N]`: the flight-recorder run.
///
/// Three phases:
///
/// 1. **Perf attribution.** Traffic against REAL-Tier1-A is partitioned
///    by [`poptrie::telemetry::LookupPhase`] (direct-point hit vs. trie
///    descent) and each partition is measured per dispatch tier under a
///    `perf_event_open` counter group, attributing cycles,
///    instructions, L1d/LLC read misses and branch misses per lookup to
///    each phase. The partition is cross-checked against the phase
///    split of the live lookup counters — a mismatch means the
///    instrumentation lies, and exits nonzero.
/// 2. **Convergence spans.** A BGP session replays a synthetic UPDATE
///    trace into a recorder-equipped engine (2 NUMA replicas); every
///    accepted span must surface as writer apply, per-replica publish
///    and a worker snapshot adoption covering its version. The drained
///    rings export as Chrome trace-event JSON
///    (`results/BENCH_trace_events.json`, loadable in Perfetto).
/// 3. **Overhead.** The same lookup workload runs with the recorder
///    absent and attached at 1-in-64 sampling; the throughput delta is
///    the price of leaving the recorder on.
///
/// Everything lands in `results/BENCH_trace.json`; a malformed document
/// or a broken span chain exits nonzero so CI can gate on it.
#[cfg(feature = "observe")]
fn trace_cmd(ctx: &mut Ctx, threads: usize) {
    use poptrie::sync::{RouteUpdate, SharedFib};
    use poptrie::telemetry::{self, LookupPhase};
    use poptrie::BatchBackend;
    use poptrie_bgp::wire::{Message, OpenMsg};
    use poptrie_bgp::{Event, NextHopInterner, RouteEvent, Session, SessionConfig, State};
    use poptrie_engine::{Engine, EngineConfig};
    use poptrie_rib::RadixTree;
    use poptrie_trace::{
        chrome_trace_json, EventKind, PerfCounts, PerfGroup, Recorder,
        TraceConfig as RecorderConfig,
    };
    use std::collections::{HashMap, HashSet};
    use std::net::IpAddr;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    section("Flight recorder: perf attribution, convergence spans, recorder overhead");
    let mut gate_failures = 0u32;

    // ------------------------------------------------- phase attribution
    let dataset = ctx.dataset("REAL-Tier1-A").clone();
    let pcfg = PoptrieConfig::new().direct_bits(18).build().unwrap();
    let mut fib = Fib::compile(dataset.to_rib(), pcfg);
    let trace = RealTrace::synthesize(&dataset, TraceConfig::default());
    let packets = trace.packet_array(if ctx.quick { 1 << 16 } else { 1 << 19 });

    let mut direct_keys: Vec<u32> = Vec::new();
    let mut descent_keys: Vec<u32> = Vec::new();
    for &k in &packets {
        match fib.poptrie().lookup_phase(k) {
            LookupPhase::Direct => direct_keys.push(k),
            LookupPhase::Descent(_) => descent_keys.push(k),
        }
    }
    println!(
        "[trace] {} packets: {} direct-point hits, {} trie descents",
        packets.len(),
        direct_keys.len(),
        descent_keys.len()
    );

    let mut tiers = vec![BatchBackend::Scalar];
    for t in [BatchBackend::Avx2, BatchBackend::Avx512] {
        if t.is_available() {
            tiers.push(t);
        }
    }

    // Cross-check the live lookup counters against the static partition
    // on every tier: each key must be counted exactly once, on the same
    // side `lookup_phase` predicted, by scalar and SIMD walkers alike.
    for &tier in &tiers {
        fib.set_batch_backend(tier);
        telemetry::reset();
        let mut out = vec![0 as poptrie::NextHop; packets.len()];
        fib.poptrie().lookup_batch(&packets, &mut out);
        let ts = telemetry::snapshot();
        let ok = ts.direct_hits == direct_keys.len() as u64
            && ts.descents() == descent_keys.len() as u64;
        println!(
            "[trace] phase counters on {:<6}: {} direct, {} descents (mean depth {:.2})  {}",
            tier.name(),
            ts.direct_hits,
            ts.descents(),
            ts.mean_descent_depth(),
            if ok { "ok" } else { "MISMATCH" }
        );
        if !ok {
            gate_failures += 1;
        }
    }
    let mean_descent_depth = {
        fib.set_batch_backend(BatchBackend::Scalar);
        telemetry::reset();
        let mut out = vec![0 as poptrie::NextHop; packets.len()];
        fib.poptrie().lookup_batch(&packets, &mut out);
        telemetry::snapshot().mean_descent_depth()
    };

    // One measured cell: `rounds` batched passes over `keys` under the
    // perf counter group, timed with the monotonic clock as well so a
    // PMU-less host still reports cycles via the TSC calibration.
    fn measure_cell(fib: &Fib<u32>, keys: &[u32], target: usize) -> (u64, f64, Option<PerfCounts>) {
        let rounds = (target / keys.len().max(1)).max(1);
        let mut out = vec![0 as poptrie::NextHop; keys.len()];
        let t0 = Instant::now();
        let ((), counts) = PerfGroup::measure(|| {
            for _ in 0..rounds {
                fib.poptrie().lookup_batch(keys, &mut out);
            }
        });
        let ns = t0.elapsed().as_nanos() as f64;
        ((keys.len() * rounds) as u64, ns, counts)
    }
    fn cell_json(lookups: u64, ns: f64, counts: &Option<PerfCounts>) -> String {
        let per = |v: Option<u64>| match v {
            Some(v) => format!("{:.4}", v as f64 / lookups as f64),
            None => "null".to_string(),
        };
        let ns_per = ns / lookups as f64;
        let cycles = match counts.as_ref().and_then(|c| c.cycles) {
            Some(c) => format!("{:.2}", c as f64 / lookups as f64),
            // No PMU: fall back to wall time times the TSC calibration.
            None => format!("{:.2}", ns_per * poptrie_cycles::tsc::cycles_per_ns()),
        };
        format!(
            "{{\"lookups\": {lookups}, \"ns_per_lookup\": {ns_per:.4}, \
             \"cycles_per_lookup\": {cycles}, \
             \"instructions_per_lookup\": {}, \"l1d_misses_per_lookup\": {}, \
             \"llc_misses_per_lookup\": {}, \"branch_misses_per_lookup\": {}, \
             \"perf_counters\": {}}}",
            per(counts.as_ref().and_then(|c| c.instructions)),
            per(counts.as_ref().and_then(|c| c.l1d_misses)),
            per(counts.as_ref().and_then(|c| c.llc_misses)),
            per(counts.as_ref().and_then(|c| c.branch_misses)),
            counts.is_some()
        )
    }

    let target = if ctx.quick { 1 << 18 } else { 1 << 21 };
    let mut phase_json = String::from("{");
    println!(
        "\n{:<10} {:<8} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "phase", "tier", "lookups", "ns/lkp", "cyc/lkp", "L1d/lkp", "LLC/lkp"
    );
    for (pi, (pname, keys)) in [("direct", &direct_keys), ("descent", &descent_keys)]
        .iter()
        .enumerate()
    {
        if pi > 0 {
            phase_json.push(',');
        }
        phase_json.push_str(&format!("\"{pname}\": {{"));
        for (ti, &tier) in tiers.iter().enumerate() {
            fib.set_batch_backend(tier);
            let (lookups, ns, counts) = if keys.is_empty() {
                (0, 0.0, None)
            } else {
                measure_cell(&fib, keys, target)
            };
            if ti > 0 {
                phase_json.push(',');
            }
            if lookups == 0 {
                phase_json.push_str(&format!("\"{}\": null", tier.name()));
                continue;
            }
            phase_json.push_str(&format!(
                "\"{}\": {}",
                tier.name(),
                cell_json(lookups, ns, &counts)
            ));
            let f = |v: Option<u64>| match v {
                Some(v) => format!("{:.3}", v as f64 / lookups as f64),
                None => "-".to_string(),
            };
            println!(
                "{:<10} {:<8} {:>12} {:>10.2} {:>10} {:>10} {:>10}",
                pname,
                tier.name(),
                lookups,
                ns / lookups as f64,
                f(counts.as_ref().and_then(|c| c.cycles)),
                f(counts.as_ref().and_then(|c| c.l1d_misses)),
                f(counts.as_ref().and_then(|c| c.llc_misses)),
            );
        }
        phase_json.push('}');
    }
    phase_json.push('}');
    if PerfGroup::open().is_none() {
        println!(
            "[trace] note: no PMU access (perf_event_paranoid/container); cycles are TSC-derived"
        );
    }

    // --------------------------------------------- cross-layer span run
    println!();
    let rec = Recorder::new(RecorderConfig {
        capacity: 1 << 15,
        sample: 1,
    });
    let bgp_ring = rec.register("bgp");
    let replicas = 2usize;
    let span_fib: Arc<SharedFib<u32>> = Arc::new(SharedFib::compile(RadixTree::new(), pcfg));
    let engine = Engine::start(
        Arc::clone(&span_fib),
        EngineConfig::new(threads.max(1))
            .pin_workers(false)
            .control_capacity(8192)
            .coalesce_window(64)
            .numa_replicas(replicas)
            .recorder(rec.clone()),
    );
    let control = engine.control();

    let stop = Arc::new(AtomicBool::new(false));
    let feeder = {
        let ingress = engine.ingress();
        let stop = Arc::clone(&stop);
        let keys: Arc<[u32]> = Arc::from(packets[..packets.len().min(4096)].to_vec());
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if ingress.try_submit(Arc::clone(&keys)).is_err() {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        })
    };

    fn state_code(s: State) -> u64 {
        match s {
            State::Idle => 0,
            State::Connect => 1,
            State::OpenSent => 2,
            State::OpenConfirm => 3,
            State::Established => 4,
        }
    }

    let (n_base, n_churn) = if ctx.quick {
        (400, 300)
    } else {
        (4_000, 2_000)
    };
    let bgp_trace = synth_bgp_trace(n_base, n_churn, 0xF11C_47B1);
    let mut session = Session::new(SessionConfig::default());
    let started = Instant::now();
    let now_ns = |s: &Instant| s.elapsed().as_nanos() as u64;
    let mut last_state = session.state();
    let mut interner = NextHopInterner::new();
    let mut accepted_routes = 0u64;

    {
        let mut step = |session: &mut Session| {
            session.drain_actions();
            let s = session.state();
            if s != last_state {
                bgp_ring.record(
                    EventKind::BgpTransition,
                    0,
                    state_code(s),
                    state_code(last_state) as u32,
                );
                last_state = s;
            }
            for ev in session.drain_events() {
                if let Event::Routes { span, routes } = ev {
                    bgp_ring.record(EventKind::SpanAccept, span, routes.len() as u64, 0);
                    for r in routes {
                        let update = match r {
                            RouteEvent::AnnounceV4(p, nh) => {
                                RouteUpdate::Announce(p, interner.intern(IpAddr::V4(nh)))
                            }
                            RouteEvent::WithdrawV4(p) => RouteUpdate::Withdraw(p),
                            RouteEvent::AnnounceV6(..) | RouteEvent::WithdrawV6(..) => continue,
                        };
                        let mut u = update;
                        loop {
                            match control.send_spanned(span, u) {
                                Ok(()) => break,
                                Err(back) => {
                                    u = back;
                                    std::thread::sleep(Duration::from_micros(50));
                                }
                            }
                        }
                        accepted_routes += 1;
                    }
                }
            }
        };
        session.start(now_ns(&started));
        session.connected(now_ns(&started));
        step(&mut session);
        session.recv(
            now_ns(&started),
            &Message::Open(OpenMsg {
                version: 4,
                asn: 65_001,
                hold_time: 90,
                bgp_id: 0xC000_0201,
                params: Vec::new(),
            })
            .encode(),
        );
        step(&mut session);
        session.recv(now_ns(&started), &Message::Keepalive.encode());
        step(&mut session);
        assert_eq!(session.state(), State::Established, "handshake failed");
        for r in &bgp_trace.records {
            session.recv(now_ns(&started), &r.message);
            step(&mut session);
        }
    }
    let spans_allocated = session.spans_allocated();

    // Let the writer drain, then touch every worker so each adopts the
    // final snapshot version (the last link of every span chain).
    while control.pending() > 0 {
        std::thread::sleep(Duration::from_micros(200));
    }
    std::thread::sleep(Duration::from_millis(20));
    let tail: Arc<[u32]> = Arc::from(packets[..packets.len().min(1024)].to_vec());
    for w in 0..engine.workers() {
        let mut batch = Arc::clone(&tail);
        while let Err(back) = engine.ingress().try_submit_to(w, batch) {
            batch = back;
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    std::thread::sleep(Duration::from_millis(20));
    stop.store(true, Ordering::Relaxed);
    feeder.join().expect("feeder panicked");
    let span_report = engine.shutdown(Duration::from_secs(30));

    let rings = rec.drain();
    let (mut recorded, mut overwritten, mut sampled_out) = (0u64, 0u64, 0u64);
    for r in &rings {
        recorded += r.recorded;
        overwritten += r.overwritten;
        sampled_out += r.sampled_out;
    }
    let mut accepted: HashSet<u64> = HashSet::new();
    let mut applied: HashMap<u64, u64> = HashMap::new();
    let mut adopted_max = 0u64;
    let mut replica_publishes = 0u64;
    for ring in &rings {
        for ev in &ring.events {
            match ev.event_kind() {
                Some(EventKind::SpanAccept) => {
                    accepted.insert(ev.span);
                }
                Some(EventKind::UpdateApply) => {
                    applied.insert(ev.span, ev.arg);
                }
                Some(EventKind::ReplicaPublish) => replica_publishes += 1,
                Some(EventKind::SnapshotAdopt) => adopted_max = adopted_max.max(ev.arg),
                _ => {}
            }
        }
    }
    let applied_of_accepted = accepted.iter().filter(|s| applied.contains_key(s)).count();
    let served = applied.values().filter(|&&v| v <= adopted_max).count();
    println!(
        "[trace] spans: {spans_allocated} allocated, {} accepted, {applied_of_accepted} applied, \
         {served} covered by an adopted snapshot (max adopted version {adopted_max}, \
         {replica_publishes} replica publishes over {} replicas)",
        accepted.len(),
        span_report.fib_replicas
    );
    println!(
        "[trace] rings: {} rings, {recorded} events recorded, {overwritten} overwritten, \
         {sampled_out} sampled out",
        rings.len()
    );
    // The continuity gate only holds when nothing was overwritten (the
    // rings are sized for this workload, so overwrite means a bug or a
    // --full-scale rerun with undersized rings — warn, don't lie).
    if overwritten == 0 {
        let complete = accepted.len() as u64 == spans_allocated
            && applied_of_accepted == accepted.len()
            && served == applied.len();
        println!(
            "[trace] span continuity (accept -> apply -> publish -> adopt): {}",
            if complete { "ok" } else { "BROKEN" }
        );
        if !complete {
            gate_failures += 1;
        }
    } else {
        println!("[trace] span continuity: skipped ({overwritten} events overwritten)");
    }

    let chrome = chrome_trace_json(&rings);
    let results = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(results)
        .and_then(|()| std::fs::write(results.join("BENCH_trace_events.json"), &chrome))
    {
        eprintln!("error: could not write results/BENCH_trace_events.json: {e}");
        std::process::exit(1);
    }
    if let Err(e) = validate_json(
        &chrome,
        &["traceEvents", "trace/lookup_batch", "trace/span_accept"],
    ) {
        eprintln!("error: results/BENCH_trace_events.json is malformed: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote results/BENCH_trace_events.json ({} bytes; load in https://ui.perfetto.dev)",
        chrome.len()
    );

    // ------------------------------------------------- recorder overhead
    fn engine_mlps(
        fib: &Arc<SharedFib<u32>>,
        threads: usize,
        recorder: Option<Recorder>,
        batches: usize,
        pool: &[Arc<[u32]>],
    ) -> f64 {
        let mut cfg = EngineConfig::new(threads).pin_workers(false);
        if let Some(r) = recorder {
            cfg = cfg.recorder(r);
        }
        let engine = Engine::start(Arc::clone(fib), cfg);
        let ingress = engine.ingress();
        let t0 = Instant::now();
        for i in 0..batches {
            let mut batch = Arc::clone(&pool[i % pool.len()]);
            while let Err(back) = ingress.try_submit(batch) {
                batch = back;
                std::thread::sleep(Duration::from_micros(20));
            }
        }
        let report = engine.shutdown(Duration::from_secs(120));
        report.packets as f64 / t0.elapsed().as_secs_f64() / 1e6
    }

    let overhead_sample = 64u64;
    let bench_fib: Arc<SharedFib<u32>> = Arc::new(SharedFib::compile(dataset.to_rib(), pcfg));
    let pool: Vec<Arc<[u32]>> = packets
        .chunks(4096)
        .take(16)
        .map(|c| Arc::from(c.to_vec()))
        .collect();
    let batches = if ctx.quick { 500 } else { 4_000 };
    // One discarded warmup (page cache, thread spawn, frequency ramp),
    // then best-of-two per configuration: engine start/stop noise at
    // this scale otherwise dwarfs the effect being measured.
    engine_mlps(&bench_fib, threads.max(1), None, batches / 4, &pool);
    let run_traced = || {
        engine_mlps(
            &bench_fib,
            threads.max(1),
            Some(Recorder::new(RecorderConfig {
                capacity: 4096,
                sample: overhead_sample,
            })),
            batches,
            &pool,
        )
    };
    let run_base = || engine_mlps(&bench_fib, threads.max(1), None, batches, &pool);
    let baseline_mlps = run_base().max(run_base());
    let traced_mlps = run_traced().max(run_traced());
    let overhead_pct = (1.0 - traced_mlps / baseline_mlps) * 100.0;
    println!(
        "\n[trace] recorder overhead at 1-in-{overhead_sample} sampling: \
         {baseline_mlps:.2} Mlps untraced vs {traced_mlps:.2} Mlps traced ({overhead_pct:+.2}%)"
    );

    // ------------------------------------------------------ the artifact
    let json = format!(
        "{{\n  \"schema\": \"poptrie-trace/1\",\n  \"quick\": {},\n  \"threads\": {},\n  \
         \"phases\": {phase_json},\n  \"mean_descent_depth\": {mean_descent_depth:.3},\n  \
         \"spans\": {{\"allocated\": {spans_allocated}, \"accepted\": {}, \"applied\": \
         {applied_of_accepted}, \"served\": {served}, \"replicas\": {}, \
         \"replica_publishes\": {replica_publishes}, \"routes\": {accepted_routes}}},\n  \
         \"events\": {{\"rings\": {}, \"recorded\": {recorded}, \"overwritten\": \
         {overwritten}, \"sampled_out\": {sampled_out}}},\n  \
         \"overhead\": {{\"sample\": {overhead_sample}, \"baseline_mlps\": \
         {baseline_mlps:.3}, \"traced_mlps\": {traced_mlps:.3}, \"overhead_pct\": \
         {overhead_pct:.3}}}\n}}\n",
        ctx.quick,
        threads.max(1),
        accepted.len(),
        span_report.fib_replicas,
        rings.len(),
    );
    if let Err(e) = std::fs::write(results.join("BENCH_trace.json"), &json) {
        eprintln!("error: could not write results/BENCH_trace.json: {e}");
        std::process::exit(1);
    }
    if let Err(e) = validate_json(
        &json,
        &[
            "phases",
            "cycles_per_lookup",
            "l1d_misses_per_lookup",
            "spans",
            "overhead",
        ],
    ) {
        eprintln!("error: results/BENCH_trace.json is malformed: {e}");
        std::process::exit(1);
    }
    println!("wrote results/BENCH_trace.json");

    if gate_failures > 0 {
        eprintln!("{gate_failures} trace gate failure(s)");
        std::process::exit(1);
    }
}

fn stats(ctx: &mut Ctx, args: &[String]) {
    let unified = args.iter().any(|a| a == "--prometheus");
    match args.iter().filter(|a| !a.starts_with("--")).nth(1).cloned() {
        Some(name) => dataset_stats(ctx, &name),
        None => telemetry_stats(ctx, unified),
    }
}

/// Structural statistics of a dataset: prefix-length histogram, SAIL
/// chunk pressure, DXR range pressure. Not a paper artifact — a tool for
/// verifying that synthesized tables sit on the right side of each
/// algorithm's structural limits.
fn dataset_stats(ctx: &mut Ctx, name: &str) {
    let dataset = if let Some(base) = name.strip_prefix("SYN1-") {
        tablegen::expand_syn1(ctx.dataset(&format!("REAL-{base}")))
    } else if let Some(base) = name.strip_prefix("SYN2-") {
        tablegen::expand_syn2(ctx.dataset(&format!("REAL-{base}")))
    } else {
        ctx.dataset(name).clone()
    };
    section(&format!("Structural statistics: {}", dataset.name));
    println!(
        "routes: {}   next hops: {}",
        dataset.len(),
        dataset.next_hop_count()
    );
    let mut hist = [0usize; 33];
    let mut chunks16 = std::collections::HashSet::new();
    let mut chunks24 = std::collections::HashSet::new();
    for (p, _) in &dataset.routes {
        hist[p.len() as usize] += 1;
        if p.len() > 16 {
            chunks16.insert(p.addr() >> 16);
        }
        if p.len() > 24 {
            chunks24.insert(p.addr() >> 8);
        }
    }
    for (len, n) in hist.iter().enumerate() {
        if *n > 0 {
            println!("  /{len:<2} {n}");
        }
    }
    println!(
        "SAIL chunk pressure: level-24 {} / 32768, level-32 {} / 32768",
        chunks16.len(),
        chunks24.len()
    );
    let rib = dataset.to_rib();
    for (label, cfg) in [
        ("D16R", poptrie_dxr::DxrConfig::d16r()),
        ("D18R", poptrie_dxr::DxrConfig::d18r()),
        (
            "D18R (modified)",
            poptrie_dxr::DxrConfig {
                direct_bits: 18,
                extended_index: true,
            },
        ),
    ] {
        match poptrie_dxr::Dxr::from_rib(&rib, cfg) {
            Ok(d) => println!("{label} ranges: {}", d.range_count()),
            Err(e) => println!("{label}: N/A ({e})"),
        }
    }
    match poptrie_sail::Sail::from_rib(&rib) {
        Ok(s) => {
            let (c24, c32) = s.chunk_counts();
            println!("SAIL: ok ({c24} level-24 chunks, {c32} level-32 chunks)");
        }
        Err(e) => println!("SAIL: N/A ({e})"),
    }
}

/// The live-telemetry replay: a seeded lookup + churn workload against a
/// `SharedFib`, with every process-wide counter reconciled against what
/// the script did, a Prometheus-format dump, and a machine-readable
/// `results/BENCH_telemetry.json`. The churn phase is the Fig. 12 regime
/// (lookups served while updates land); the reconciliation is the
/// acceptance check that the instrumentation counts what it claims to.
///
/// With `--prometheus` the dump additionally exercises the forwarding
/// engine and a BGP session and merges their registries into the core
/// FIB registry, so one scrape covers the whole stack
/// (`poptrie_*` + `poptrie_engine_*` + `poptrie_bgp_*`).
#[cfg(feature = "observe")]
fn telemetry_stats(ctx: &mut Ctx, unified: bool) {
    use poptrie::sync::SharedFib;
    use poptrie::telemetry;

    section("Live telemetry: seeded lookup + churn replay (REAL-RENET)");
    telemetry::reset();
    let dataset = ctx.dataset("REAL-RENET").clone();
    let shared = SharedFib::compile(
        dataset.to_rib(),
        PoptrieConfig::new()
            .direct_bits(18)
            .aggregate(false)
            .build()
            .unwrap(),
    );

    // Lookup phase: half the trace scalar, half batched, one snapshot.
    let trace = RealTrace::synthesize(&dataset, TraceConfig::default());
    let packets = trace.packet_array(if ctx.quick { 1 << 16 } else { 1 << 20 });
    let half = packets.len() / 2;
    let snap = shared.snapshot();
    let mut acc = 0u64;
    for &k in &packets[..half] {
        acc = acc.wrapping_add(snap.lookup_raw(k) as u64);
    }
    let mut out = vec![0 as poptrie::NextHop; packets.len() - half];
    snap.lookup_batch(&packets[half..], &mut out);
    acc = acc.wrapping_add(out.iter().map(|&nh| nh as u64).sum::<u64>());
    drop(snap);

    // Churn phase: an adversarial seeded stream through the RCU writer,
    // with a reader parked on a pre-churn snapshot for the first half so
    // the outstanding-snapshot gauge sees real pinning.
    let events = churn_stream::<u32>(&ChurnConfig {
        seed: 0xF1612,
        events: if ctx.quick { 2_000 } else { 20_000 },
        direct_bits: 18,
        ..ChurnConfig::default()
    });
    let parked = shared.snapshot();
    let (mut announces, mut withdraws, mut publishes) = (0u64, 0u64, 0u64);
    for (i, ev) in events.iter().enumerate() {
        if i == events.len() / 2 {
            drop(shared.snapshot()); // touch, then release
        }
        match *ev {
            ChurnEvent::Announce(p, nh) => {
                // `SharedFib::insert` publishes unconditionally; the
                // update counter moves only when the RIB changed.
                if shared.insert(p, nh).unwrap().changed() {
                    announces += 1;
                }
                publishes += 1;
            }
            ChurnEvent::Withdraw(p) => {
                // A withdraw of an absent prefix publishes nothing.
                if shared.remove(p).unwrap().changed() {
                    withdraws += 1;
                    publishes += 1;
                }
            }
        }
    }
    drop(parked);

    // Reconcile every scripted total against the counters.
    let snap = telemetry::snapshot().attach_structure(&*shared.snapshot());
    let mut failures = 0u32;
    let mut check = |label: &str, got: u64, want: u64| {
        let ok = got == want;
        println!(
            "  {:<38} {:>12} want {:>12}  {}",
            label,
            got,
            want,
            if ok { "ok" } else { "MISMATCH" }
        );
        if !ok {
            failures += 1;
        }
    };
    println!("reconciliation (counter vs script):");
    check("lookups (scalar)", snap.lookups_scalar, half as u64);
    check(
        "lookups (batched)",
        snap.lookups_batched,
        (packets.len() - half) as u64,
    );
    check(
        "depth histogram mass",
        snap.depth.iter().sum::<u64>(),
        packets.len() as u64,
    );
    check(
        "direct hits + leaf resolutions",
        snap.direct_hits + snap.leafvec_resolutions + snap.vector_resolutions,
        packets.len() as u64,
    );
    check("applied announces", snap.announces, announces);
    check("applied withdraws", snap.withdraws, withdraws);
    check(
        "update latency histogram mass",
        snap.update_latency.iter().sum::<u64>(),
        announces + withdraws,
    );
    check("rcu publishes", snap.rcu_publishes, publishes);
    println!(
        "  (lookup checksum {acc:#x}, peak outstanding snapshots {})",
        snap.rcu_outstanding_peak
    );

    println!();
    let mut reg = snap.registry();
    if unified {
        println!("[stats] --prometheus: merging engine and BGP registries into the scrape");
        reg.merge(whole_stack_registry(ctx.quick));
    }
    print!("{}", reg.render_prometheus());

    let json = reg.render_json();
    let path = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(path)
        .and_then(|()| std::fs::write(path.join("BENCH_telemetry.json"), &json))
    {
        eprintln!("warning: could not write results/BENCH_telemetry.json: {e}");
    } else {
        println!("\nwrote results/BENCH_telemetry.json");
    }

    if failures > 0 {
        eprintln!("{failures} reconciliation mismatch(es)");
        std::process::exit(1);
    }
}

/// One scrape for the whole stack: briefly exercise the forwarding
/// engine (lookups + one control-plane announce) and a BGP session
/// (handshake + one UPDATE), then return their telemetry registries
/// merged, so `repro stats --prometheus` emits core, engine and BGP
/// metric families in a single Prometheus document.
#[cfg(feature = "observe")]
fn whole_stack_registry(quick: bool) -> poptrie_telemetry::TelemetryRegistry {
    use poptrie::sync::SharedFib;
    use poptrie_bgp::wire::{Message, OpenMsg, UpdateMsg};
    use poptrie_bgp::{Session, SessionConfig, State};
    use poptrie_engine::{Engine, EngineConfig};
    use poptrie_rib::{Prefix, RadixTree};
    use std::net::Ipv4Addr;
    use std::sync::Arc;
    use std::time::Duration;

    // A small FIB is enough: the point is populating every metric
    // family, not load-testing.
    let mut rib: RadixTree<u32, poptrie::NextHop> = RadixTree::new();
    for i in 0..64u32 {
        rib.insert(Prefix::new(i << 24, 8), (i % 8 + 1) as poptrie::NextHop);
    }
    let pcfg = PoptrieConfig::new().direct_bits(18).build().unwrap();
    let fib: Arc<SharedFib<u32>> = Arc::new(SharedFib::compile(rib, pcfg));
    let engine = Engine::start(Arc::clone(&fib), EngineConfig::new(2).pin_workers(false));
    let ingress = engine.ingress();
    let keys: Arc<[u32]> = Arc::from(
        (0..1024u32)
            .map(|i| i.wrapping_mul(0x9E37_79B9))
            .collect::<Vec<u32>>(),
    );
    for _ in 0..(if quick { 8 } else { 64 }) {
        let mut batch = Arc::clone(&keys);
        while let Err(back) = ingress.try_submit(batch) {
            batch = back;
            std::thread::sleep(Duration::from_micros(20));
        }
    }
    let control = engine.control();
    let mut u = poptrie::sync::RouteUpdate::Announce(Prefix::new(0xC633_6400, 24), 3);
    while let Err(back) = control.send(u) {
        u = back;
        std::thread::sleep(Duration::from_micros(20));
    }
    let engine_telemetry = engine.telemetry();
    engine.shutdown(Duration::from_secs(10));
    let mut reg = engine_telemetry.registry();

    // The BGP side: an in-memory handshake plus one UPDATE populates the
    // session, message and route counters.
    let mut session = Session::new(SessionConfig::default());
    let session_stats = session.stats();
    session.start(0);
    session.connected(1);
    session.recv(
        2,
        &Message::Open(OpenMsg {
            version: 4,
            asn: 65_001,
            hold_time: 90,
            bgp_id: 0xC000_0201,
            params: Vec::new(),
        })
        .encode(),
    );
    session.recv(3, &Message::Keepalive.encode());
    debug_assert_eq!(session.state(), State::Established);
    session.recv(
        4,
        &Message::Update(UpdateMsg {
            announced_v4: vec![Prefix::new(0xCB00_7100, 24)],
            next_hop_v4: Some(Ipv4Addr::new(192, 0, 2, 9)),
            ..UpdateMsg::default()
        })
        .encode(),
    );
    session.drain_actions();
    session.drain_events();
    reg.merge(session_stats.registry());
    reg
}

/// Without the `observe` feature neither the counters nor the recorder
/// exist, so `repro trace` and the live `repro stats` replay cannot run;
/// say how to get them and exit 2.
#[cfg(not(feature = "observe"))]
mod observe_stub {
    use super::Ctx;

    pub(super) fn trace_cmd(_ctx: &mut Ctx, _threads: usize) {
        needs_observe("trace --quick");
    }

    pub(super) fn telemetry_stats(_ctx: &mut Ctx, _unified: bool) {
        needs_observe("stats --quick");
    }

    fn needs_observe(cmd: &str) -> ! {
        eprintln!(
            "repro {cmd} needs the instrumentation compiled in:\n\
             \n    cargo run --release -p poptrie-bench --features observe --bin repro -- {cmd}\n\
             \nThe default build deliberately contains none (see DESIGN.md §7); \
             `repro stats <dataset>` prints structural diagnostics without it."
        );
        std::process::exit(2);
    }
}
#[cfg(not(feature = "observe"))]
use observe_stub::{telemetry_stats, trace_cmd};

// ----------------------------------------------------------------- §4.9

fn updates(ctx: &mut Ctx) {
    section("§4.9: update performance (Poptrie18, incremental)");
    // BGP update replay against RV-linx-p52 (the paper's dataset), with
    // the paper's announce/withdraw mix.
    let base = ctx.dataset("RV-linx-p52").clone();
    let stream = tablegen::synthesize_update_stream(&base, 18_141, 5_305);
    let pcfg = PoptrieConfig::new()
        .direct_bits(18)
        .aggregate(false)
        .build()
        .unwrap();
    let mut fib = Fib::compile(base.to_rib(), pcfg);
    let before = fib.stats();
    let start = Instant::now();
    for ev in &stream {
        match *ev {
            tablegen::UpdateEvent::Announce(p, nh) => {
                fib.insert(p, nh).unwrap();
            }
            tablegen::UpdateEvent::Withdraw(p) => {
                fib.remove(p).unwrap();
            }
        }
    }
    let elapsed = start.elapsed();
    let after = fib.stats();
    let n = stream.len() as f64;
    println!(
        "replayed {} updates (18,141 announce / 5,305 withdraw) in {:.2} ms",
        stream.len(),
        elapsed.as_secs_f64() * 1e3
    );
    println!(
        "  {:.2} us/update; per update: {:.3} direct slots, {:.2} nodes built, {:.2} leaves built",
        elapsed.as_secs_f64() * 1e6 / n,
        (after.direct_replacements - before.direct_replacements) as f64 / n,
        (after.nodes_allocated - before.nodes_allocated) as f64 / n,
        (after.leaves_allocated - before.leaves_allocated) as f64 / n,
    );

    // Full-route insertion in randomized order (the paper's second
    // §4.9 input).
    for ds in ["REAL-Tier1-A", "REAL-Tier1-B"] {
        let dataset = ctx.dataset(ds).clone();
        let mut routes = dataset.routes.clone();
        // Deterministic shuffle ("the order of the entries is randomized").
        let mut rng = Xorshift128::new(0x5405);
        for i in (1..routes.len()).rev() {
            routes.swap(i, rng.next_u32() as usize % (i + 1));
        }
        let mut fib: Fib<u32> = Fib::with_config(pcfg);
        let start = Instant::now();
        for (p, nh) in routes {
            fib.insert(p, nh).unwrap();
        }
        let dt = start.elapsed().as_secs_f64();
        println!(
            "full-route randomized insertion, {}: {:.2} s total, {:.2} us/prefix",
            ds,
            dt,
            dt * 1e6 / dataset.len() as f64
        );
    }
}

// --------------------------------------------------------------- audit

fn print_report(label: &str, r: poptrie::AuditReport) {
    println!(
        "  {label}: audit ok — {} inodes / {} leaves in {} node + {} leaf blocks \
         ({} + {} rounded slots), depth {}",
        r.inodes,
        r.leaves,
        r.node_blocks,
        r.leaf_blocks,
        r.node_slots_rounded,
        r.leaf_slots_rounded,
        r.max_depth
    );
}

/// Replay a seeded adversarial churn stream against a fresh FIB and a
/// RIB oracle, probing the touched prefix's address range after every
/// event and auditing the structure periodically.
fn churn_audit<K: poptrie_bitops::Bits>(label: &str, cfg: &ChurnConfig, audit_every: usize) {
    let stream = churn_stream::<K>(cfg);
    let mut oracle: poptrie_rib::RadixTree<K, poptrie_rib::NextHop> = poptrie_rib::RadixTree::new();
    let mut fib: Fib<K> = Fib::with_config(
        PoptrieConfig::new()
            .direct_bits(cfg.direct_bits)
            .aggregate(false)
            .build()
            .unwrap(),
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0b5e_55ed);
    let (mut effective, mut checked) = (0u64, 0u64);
    let start = Instant::now();
    for (i, ev) in stream.iter().enumerate() {
        match *ev {
            ChurnEvent::Announce(p, nh) => {
                if fib.insert(p, nh).unwrap().changed() {
                    effective += 1;
                }
                oracle.insert(p, nh);
            }
            ChurnEvent::Withdraw(p) => {
                if fib.remove(p).unwrap().changed() {
                    effective += 1;
                }
                oracle.remove(p);
            }
        }
        let p = ev.prefix();
        let inside = K::from_u128(
            p.first_addr().to_u128()
                | (rng.gen::<u128>() & !K::prefix_mask(p.len() as u32).to_u128()),
        );
        for key in [p.first_addr(), p.last_addr(), inside] {
            let want = Lpm::lookup(&oracle, key);
            assert_eq!(
                fib.lookup(key),
                want,
                "seed {} event {i}: key {:#x} diverged from the RIB oracle",
                cfg.seed,
                key.to_u128()
            );
            checked += 1;
        }
        if (i + 1) % audit_every == 0 {
            fib.poptrie()
                .audit()
                .unwrap_or_else(|e| panic!("seed {} event {i}: {e}", cfg.seed));
        }
    }
    let r = fib
        .poptrie()
        .audit()
        .unwrap_or_else(|e| panic!("seed {}: final audit: {e}", cfg.seed));
    println!(
        "  {label}: {} events ({} effective), {} oracle-checked lookups in {:.2} s",
        stream.len(),
        effective,
        checked,
        start.elapsed().as_secs_f64()
    );
    print_report(label, r);
}

fn audit(ctx: &mut Ctx) {
    section("structural audit: fresh builds, §4.9 replay, churn fuzz");

    // 1. Fresh compilations must audit clean, IPv4 and IPv6.
    let names: &[&str] = if ctx.quick {
        &["RV-sydney-p0"]
    } else {
        &["REAL-Tier1-A", "RV-linx-p52"]
    };
    for name in names {
        let rib = ctx.dataset(name).clone().to_rib();
        let t: Poptrie<u32> = Builder::new().direct_bits(18).aggregate(false).build(&rib);
        print_report(name, t.audit().expect("fresh v4 build must audit clean"));
    }
    let d6 = tablegen::ipv6_dataset("RV6-linx-p0");
    let t6: Poptrie<u128> = Builder::new()
        .direct_bits(16)
        .aggregate(false)
        .build(&d6.to_rib());
    print_report(
        "RV6-linx-p0",
        t6.audit().expect("fresh v6 build must audit clean"),
    );

    // 2. The §4.9 update replay, audited every 2k events, under both
    // update strategies.
    let base = ctx
        .dataset(if ctx.quick {
            "RV-sydney-p0"
        } else {
            "RV-linx-p52"
        })
        .clone();
    let (ann, wd) = if ctx.quick {
        (2_000, 600)
    } else {
        (18_141, 5_305)
    };
    let stream = tablegen::synthesize_update_stream(&base, ann, wd);
    for (label, strategy) in [
        ("replay/NodeRefresh", UpdateStrategy::NodeRefresh),
        ("replay/SubtreeRebuild", UpdateStrategy::SubtreeRebuild),
    ] {
        let mut fib = Fib::compile(
            base.to_rib(),
            PoptrieConfig::new()
                .direct_bits(18)
                .aggregate(false)
                .build()
                .unwrap(),
        );
        fib.set_update_strategy(strategy);
        for (i, ev) in stream.iter().enumerate() {
            match *ev {
                tablegen::UpdateEvent::Announce(p, nh) => {
                    fib.insert(p, nh).unwrap();
                }
                tablegen::UpdateEvent::Withdraw(p) => {
                    fib.remove(p).unwrap();
                }
            }
            if (i + 1) % 2_000 == 0 {
                fib.poptrie()
                    .audit()
                    .unwrap_or_else(|e| panic!("{label} event {i}: {e}"));
            }
        }
        print_report(label, fib.poptrie().audit().expect("post-replay audit"));
    }

    // 3. Seeded adversarial churn, cross-checked against the RIB oracle
    // on every event (the bounded CI variant of tests/churn_fuzz.rs).
    let events = if ctx.quick { 10_000 } else { 100_000 };
    churn_audit::<u32>(
        "churn/u32",
        &ChurnConfig {
            seed: 0x0417_0001,
            events,
            direct_bits: 8,
            pool: 256,
            max_nh: 13,
        },
        2_000,
    );
    churn_audit::<u128>(
        "churn/u128",
        &ChurnConfig {
            seed: 0x0417_0002,
            events,
            direct_bits: 8,
            pool: 256,
            max_nh: 13,
        },
        2_000,
    );
}
