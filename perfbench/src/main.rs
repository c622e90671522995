//! End-to-end and per-layer benchmark of the Poptrie forwarding stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload tier1-zipf-bgp --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process runs the serving stack as a library: a RIB and FIB (or a
//! VRF group), the forwarding engine with one pinned worker, and a BGP
//! session on the update path. The calling thread is the only load
//! thread, pinned to the other core. A run goes through set-up (repeated,
//! median reported), a closed-loop saturation phase, an open-loop
//! fixed-rate phase and a control-plane saturation phase, then checks
//! every sampled answer and the final state against a RIB oracle.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` is a separate
//! run that times each layer from outside (spans around the benchmark's
//! own calls, plus standalone calibration calls) and prints the
//! per-layer metrics. The last stdout line is the JSON result; the run
//! exits non-zero on any oracle mismatch, on a bad argument, and on an
//! invalid run (a pin that failed, a generator that fell behind, or a
//! control phase that did not finish its stream).

mod calib;
mod check;
mod host;
mod inputs;
mod load;
mod spans;
mod stack;
mod util;

use std::sync::Arc;
use std::time::Duration;

use poptrie::VrfId;

use crate::calib::Metric;
use crate::inputs::Plan;
use crate::load::{Accepted, Peer};
use crate::spans::SpanLog;
use crate::stack::{lock, Probe, SetupTimes, Stack, TenantMap};
use crate::util::{median, quantile, windowed_quantile, Obj};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A REAL-Tier1-A-shaped table, Zipf(1) over 100k flows in 64-key
    /// batches, and a BGP UPDATE stream beside it: per-batch and
    /// per-publish costs.
    ZipfBgp,
    /// 1024 shared-leaf tenants, 256-key batches to random tenants, and
    /// per-tenant churn: VRF resolution and tiny publishes.
    Vrf,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "tier1-zipf-bgp" => Some(Workload::ZipfBgp),
            "vrf-1024" => Some(Workload::Vrf),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ZipfBgp => "tier1-zipf-bgp",
            Workload::Vrf => "vrf-1024",
        }
    }

    /// Packet rates sit below half of each workload's saturated rate on
    /// a quiet 2-vCPU Sapphire Rapids KVM guest (78 and 66 Mlps) and
    /// below the saturated rate when other guests load the machine (seen
    /// as low as 45% of quiet), so the open-loop generator keeps its
    /// schedule. The
    /// tier1-zipf-bgp rate is lower still: at half its saturated rate a
    /// whole-trie publish on a shared core overflows the engine's default
    /// 64-batch queue. Update rates keep the writer a small share of the
    /// core it shares with the load thread.
    fn plan(self) -> Plan {
        match self {
            Workload::ZipfBgp => Plan {
                batch_keys: 64,
                pool_batches: 8192,
                pkt_rate: 8e6,
                upd_rate: 100.0,
            },
            Workload::Vrf => Plan {
                batch_keys: 256,
                pool_batches: 4096,
                pkt_rate: 12e6,
                upd_rate: 1000.0,
            },
        }
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Routes of the control-saturation stream per second of `--seconds`:
/// a few seconds of writer work on either workload, the same number on
/// every run of one length so the final tables depend on the seed alone.
const CTRL_ROUTES_PER_S: f64 = 15_000.0;
/// Time-ordered windows of the convergence samples; `conv_p50_us` is the
/// median of the windows' medians.
const CONV_WINDOWS: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or(format!("unknown workload {val:?}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must be within 1..=600".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload tier1-zipf-bgp|vrf-1024 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    std::process::exit(run(&args));
}

/// Share of `--seconds` each phase gets. The traced run splits the
/// saturation time between an untraced and a traced half and leaves
/// time for the calibration calls.
struct Split {
    sat: f64,
    fixed: f64,
    calib_each: f64,
}

fn split(s: f64, trace: bool) -> Split {
    // Twelve calibrations share a fifth of a traced run.
    let calib_each = if trace { s * 0.2 / 12.0 } else { 0.0 };
    let scale = if trace { 0.8 } else { 1.0 };
    Split {
        sat: s * 0.40 * scale,
        fixed: s * 0.45 * scale,
        calib_each,
    }
}

fn run(args: &Args) -> i32 {
    let w = args.workload;
    let plan = w.plan();
    let sp = split(args.seconds, args.trace);
    let host = host::Host::detect();
    // The load thread takes the last core and the engine pins its single
    // worker to core 0. The engine's writer inherits the affinity of the
    // thread that starts the engine, so it shares the load thread's core;
    // the load thread yields whenever it is idle.
    let feeder_core = host.cores.saturating_sub(1);
    let feeder_pin = poptrie_engine::pin_current_thread(feeder_core);

    let inputs = inputs::generate(
        w,
        &plan,
        args.seed,
        sp.fixed,
        (CTRL_ROUTES_PER_S * args.seconds) as usize,
    );
    let vrf = w == Workload::Vrf;

    // Set-up, repeated; the last stack serves the run.
    let lat_capacity = ((sp.fixed * plan.pkt_rate / plan.batch_keys as f64) * 1.2) as usize + 1024;
    let mut setups: Vec<SetupTimes> = Vec::with_capacity(SETUP_REPS);
    let mut stack: Option<Stack> = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = stack.take() {
            old.engine.shutdown(Duration::from_secs(10));
        }
        let last = rep + 1 == SETUP_REPS;
        let tenants = (last && vrf && args.trace).then(|| TenantMap::new(&inputs));
        let probe = Probe::new(
            plan.batch_keys,
            if last { lat_capacity } else { 0 },
            vrf,
            tenants,
        );
        let (s, t) = Stack::build(&inputs, probe);
        setups.push(t);
        stack = Some(s);
    }
    let mut stack = stack.expect("at least one set-up");
    let setup_med =
        |f: fn(&SetupTimes) -> f64| median(&mut setups.iter().map(f).collect::<Vec<_>>());
    let backend = stack
        .vrfs
        .as_ref()
        .and_then(|v| v.snapshot(VrfId::new(0)))
        .unwrap_or_else(|| stack.fib.snapshot())
        .batch_backend();

    let mut cursor = 1usize;
    let mut feed_pos = 0usize;
    let mut accepted = Accepted::default();
    let mut peer =
        matches!(inputs.feed, inputs::Feed::Bgp(_)).then(|| Peer::established(inputs.max_nh));
    let mut log = SpanLog::default();

    // Saturation: closed loop, writer idle.
    let (sat, sat_traced) = if args.trace {
        let u = load::saturation(&mut stack, &inputs, &mut cursor, sp.sat / 2.0, None);
        let t = load::saturation(
            &mut stack,
            &inputs,
            &mut cursor,
            sp.sat / 2.0,
            Some(&mut log),
        );
        (u, Some(t))
    } else {
        (
            load::saturation(&mut stack, &inputs, &mut cursor, sp.sat, None),
            None,
        )
    };

    // Traced runs time the packet path's layers standalone on the FIB
    // state the saturation phase served.
    let mut cal = if args.trace {
        calib::packet_path(
            &inputs,
            &stack.fib,
            stack.vrfs.as_ref(),
            sp.calib_each,
            &mut log,
        )
    } else {
        Vec::new()
    };

    // Fixed rate: open loop, updates beside it.
    let traced = args.trace.then_some(&mut log);
    let fixed = load::fixed_rate(
        &mut stack,
        &inputs,
        &plan,
        &mut cursor,
        &mut feed_pos,
        &mut peer,
        &mut accepted,
        sp.fixed,
        traced,
    );
    println!(
        "# phase fixed: offered_pkts={} refusals={} offered_upds={} refused_upds={} \
         late_p99_us={:.1} late_max_us={:.1} busy_threads={:.2} behind={}",
        fixed.offered_pkts,
        fixed.refusals,
        fixed.offered_upds,
        fixed.refused_upds,
        fixed.late_p99_us,
        fixed.late_max_us,
        fixed.busy_threads,
        fixed.behind
    );
    stack.drain_updates((accepted.engine.len() + accepted.vrf.len()) as u64);

    // Churn reached each tenant one update per publish, so tenant
    // versions count accepted updates exactly; the oracle relies on it.
    let mut version_errors = 0u64;
    if let Some(v) = &stack.vrfs {
        let mut per = vec![0u64; v.len()];
        for (t, _) in &accepted.vrf {
            per[t.index()] += 1;
        }
        for (t, &n) in per.iter().enumerate() {
            if stack.tenant_fib(VrfId::new(t as u32)).version() != n {
                version_errors += 1;
            }
        }
    }

    // Control saturation: dataplane idle, routes as fast as accepted.
    let versions_before = tenant_versions(&stack);
    let ctrl = load::control_saturation(
        &mut stack,
        &inputs,
        &mut feed_pos,
        &mut peer,
        &mut accepted,
        feeder_core,
    );
    let tenant_publishes: u64 = tenant_versions(&stack)
        .iter()
        .zip(&versions_before)
        .map(|(a, b)| a - b)
        .sum();

    // Convergence of the fixed-rate updates: hand-over to the first answer
    // (engine FIB) or snapshot (tenant) reflecting the update.
    let publishes = lock(&stack.probe.publishes).clone();
    let adopts = lock(&stack.probe.adopts).clone();
    let chains = check::engine_chains(&fixed.conv, &publishes, &adopts);
    let mut conv_us: Vec<f64> = if vrf {
        fixed.vrf_conv_us.clone()
    } else {
        // One sample per update handed over: the routes of one BGP UPDATE
        // share its hand-over time and converge with the last of them.
        let mut per_update: Vec<f64> = Vec::new();
        let mut last_t0 = None;
        for &(i, _, adopt) in &chains {
            let t0 = fixed.conv[i].t0;
            let us = (adopt - t0) as f64 / 1e3;
            match per_update.last_mut() {
                Some(v) if last_t0 == Some(t0) => *v = v.max(us),
                _ => per_update.push(us),
            }
            last_t0 = Some(t0);
        }
        per_update
    };
    let mut adopt_us: Vec<f64> = if vrf {
        tenant_adoption(&stack, &fixed.vrf_visible)
    } else {
        chains
            .iter()
            .map(|&(_, p, a)| (a as f64 - p.t_ns as f64) / 1e3)
            .collect()
    };
    if args.trace {
        log.update_chains(&fixed.conv, &chains);
    }

    // The oracle.
    let samples = std::mem::take(&mut *lock(&stack.probe.samples));
    let verdict = if vrf {
        check::check_vrf(&inputs, &stack, &accepted.vrf, samples)
    } else {
        check::check_engine(&inputs, &stack, &accepted.engine, &publishes, samples)
    };

    // Memory after the workload's updates.
    let (bytes_per_route, node_b, leaf_b, direct_b) = match &stack.vrfs {
        Some(v) => {
            let m = v.memory();
            let used = m.node_bytes + m.direct_bytes + m.shared_used_bytes;
            (
                used as f64 / m.routes as f64,
                m.node_bytes,
                m.shared_used_bytes,
                m.direct_bytes,
            )
        }
        None => {
            let s = stack.fib.snapshot().stats();
            let routes = stack.fib.with_fib(|f| f.rib().len());
            let leaf = s.leaves * 2;
            let direct = s.direct_slots * 4;
            (
                s.memory_bytes as f64 / routes as f64,
                s.memory_bytes - leaf - direct,
                leaf,
                direct,
            )
        }
    };

    let feeder_cpus = host::allowed_cpus();
    let worker_cpus = host::thread_cpus("fwd-worker-0");
    let writer_cpus = host::thread_cpus("fib-writer");
    let (fib, vrfs) = (Arc::clone(&stack.fib), stack.vrfs.clone());
    let report = stack.engine.shutdown(Duration::from_secs(10));

    // Run-condition record.
    let single = |s: &str| !s.is_empty() && s.parse::<usize>().is_ok();
    let pinned =
        feeder_pin && single(&feeder_cpus) && single(&worker_cpus) && feeder_cpus != worker_cpus;
    let behind = fixed.behind;
    let valid = pinned && !behind && ctrl.complete;
    let run_record = Obj::default()
        .str("workload", w.name())
        .int("seed", args.seed)
        .num("seconds", args.seconds)
        .bool("trace", args.trace)
        .raw("host", host.to_json().render())
        .str("fib_backend", backend.name())
        .str("feeder_cpus", &feeder_cpus)
        .str("worker_cpus", &worker_cpus)
        .str("writer_cpus", &writer_cpus)
        .bool("pinned", pinned)
        .bool("generator_behind", behind)
        .bool("control_complete", ctrl.complete)
        .bool("valid", valid)
        .raw(
            "busy_threads",
            Obj::default()
                .num("saturation", sat.busy_threads)
                .num("fixed_rate", fixed.busy_threads)
                .num("control_saturation", ctrl.busy_threads)
                .render(),
        )
        .int("sat_windows", sat.rates.len() as u64)
        .int("lat_samples", fixed.lat_samples as u64)
        .int("conv_samples", conv_us.len() as u64)
        .int("ctrl_windows", ctrl.rates.len() as u64)
        .int("ctrl_routes", ctrl.routes)
        .int("oracle_checked", verdict.checked)
        .int("oracle_mismatches", verdict.mismatches)
        .int("oracle_churn_checked", verdict.churned)
        .int("version_errors", version_errors)
        .int("engine_packets", report.packets)
        .int("engine_refused_batches", report.dropped_batches)
        .int("fixed_rate_refusals", fixed.refusals)
        .render();
    println!("# run {run_record}");
    for (name, rates) in [("saturation", &sat.rates), ("control", &ctrl.rates)] {
        let q = |p| quantile(&mut rates.clone(), p);
        println!(
            "# windows {name}: n={} p10={:.4} p25={:.4} p50={:.4} p75={:.4} p90={:.4}",
            rates.len(),
            q(0.1),
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.9)
        );
    }

    let decode_mismatches = fixed.decode_mismatches + ctrl.decode_mismatches;
    let attempted = fixed.offered_pkts + fixed.offered_upds + ctrl.routes + verdict.checked;
    let failed = fixed.refused_upds + decode_mismatches + verdict.mismatches + version_errors;
    let correct = verdict.mismatches == 0 && decode_mismatches == 0 && version_errors == 0;

    let mut metrics: Vec<Metric> = Vec::new();
    let mut put = |name: &'static str, value: f64, unit: &'static str| {
        metrics.push(Metric { name, value, unit })
    };
    if !args.trace {
        put("setup_s", setup_med(|t| t.total_s), "s");
        put("fwd_mlps", sat.mlps, "Mlps");
        put("lat_p50_us", fixed.lat_p50_us, "us");
        put("upd_per_s", ctrl.upd_per_s, "routes/s");
        put("bytes_per_route", bytes_per_route, "B");
    } else {
        let sat_t = sat_traced.expect("traced runs time a traced saturation");
        put("rib.build_s", setup_med(|t| t.rib_s), "s");
        put(
            if vrf {
                "vrf.compile_s"
            } else {
                "builder.compile_s"
            },
            setup_med(|t| t.compile_s),
            "s",
        );
        put("engine.start_s", setup_med(|t| t.start_s), "s");
        put(
            "engine.submit_ns",
            log.trimmed_mean_ns("engine.submit"),
            "ns",
        );
        put(
            "engine.refused_per_submit",
            sat_t.refused as f64 / sat_t.attempts.max(1) as f64,
            "ratio",
        );
        put("engine.adopt_us_p50", quantile(&mut adopt_us, 0.5), "us");
        // Tenant publishes do not reach the publish hook; count them from
        // the tenants' snapshot versions.
        let publishes = if vrf {
            tenant_publishes
        } else {
            ctrl.publishes
        };
        put(
            "writer.updates_per_publish",
            ctrl.events as f64 / publishes.max(1) as f64,
            "count",
        );
        put(
            "writer.coalesced_ratio",
            ctrl.coalesced as f64 / ctrl.events.max(1) as f64,
            "ratio",
        );
        put("mem.node_bytes", node_b as f64, "B");
        put("mem.leaf_bytes", leaf_b as f64, "B");
        put("mem.direct_bytes", direct_b as f64, "B");
        // Tails: on a 2-vCPU KVM guest, stalls of 1-8 ms several times a
        // second per vCPU decide them, so they are layer figures here.
        // Convergence waits for the writer, which shares the load thread's
        // core, to be scheduled: its median moved by a third between runs
        // of the same code, so it is a layer figure too.
        put("lat_p99_us", fixed.lat_p99_us, "us");
        put(
            "conv_p50_us",
            windowed_quantile(&conv_us, CONV_WINDOWS, 0.5),
            "us",
        );
        put("conv_p99_us", quantile(&mut conv_us, 0.99), "us");
        put("gen.late_p99_us", fixed.late_p99_us, "us");
        put("input.direct_share", check::direct_share(&inputs), "ratio");
        put("trace.overhead", 1.0 - sat_t.mlps / sat.mlps, "ratio");
        cal.extend(calib::control_path(
            &inputs,
            &fib,
            vrfs.as_ref(),
            &accepted,
            sp.calib_each,
            &mut log,
        ));
        let get = |n: &str| {
            cal.iter()
                .find(|m| m.name == n)
                .map_or(f64::NAN, |m| m.value)
        };
        // The packet-path budget: what the engine delivers per packet is
        // the serving path measured standalone plus the engine's own cost.
        let (path, path_ns) = if vrf {
            ("vrf.batch_ns_per_pkt", get("vrf.batch_ns_per_pkt"))
        } else {
            ("sync.batch_ns_per_pkt", get("sync.batch_ns_per_pkt"))
        };
        let per_pkt = 1000.0 / sat.mlps;
        let residual = per_pkt - path_ns;
        let tier = match backend {
            poptrie::BatchBackend::Scalar => "trie.batch_ns_per_pkt.scalar",
            poptrie::BatchBackend::Avx2 => "trie.batch_ns_per_pkt.avx2",
            poptrie::BatchBackend::Avx512 => "trie.batch_ns_per_pkt.avx512",
        };
        println!(
            "# budget: 1000/fwd_mlps = {per_pkt:.3} ns/pkt = {path} {path_ns:.3} \
             + engine.residual_ns_per_pkt {residual:.3} ({:.1}%); {path} = {tier} {:.3} \
             + snapshot {:.3} + rest",
            100.0 * residual / per_pkt,
            get(tier),
            get(if vrf {
                "vrf.resolve_ns"
            } else {
                "sync.snapshot_ns"
            }) / plan.batch_keys as f64,
        );
        metrics.extend(cal);
        metrics.push(Metric {
            name: "engine.residual_ns_per_pkt",
            value: residual,
            unit: "ns/pkt",
        });
        for (name, n, total, own) in log.self_times() {
            println!("# span {name}: n={n} median_total_ns={total:.0} median_self_ns={own:.0}");
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.jsonl", w.name(), args.seed));
        match log.write(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# spans not written: {e}"),
        }
    }

    for m in &metrics {
        println!("# {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if !valid {
        eprintln!(
            "perfbench: invalid run (pinned={pinned}, generator_behind={behind}, \
             control_complete={})",
            ctrl.complete
        );
        return 3;
    }
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} has no value", bad.name);
        return 4;
    }
    let mut obj = Obj::default();
    for m in &metrics {
        obj = obj.raw(
            m.name,
            Obj::default()
                .num("value", m.value)
                .str("unit", m.unit)
                .render(),
        );
    }
    let result = Obj::default()
        .bool("correct", correct)
        .int("attempted", attempted)
        .int("failed", failed)
        .raw("metrics", obj.render())
        .render();
    println!("{result}");
    if correct {
        0
    } else {
        1
    }
}

/// Every tenant's current snapshot version (empty without a VRF group).
fn tenant_versions(stack: &Stack) -> Vec<u64> {
    stack.vrfs.as_ref().map_or(Vec::new(), |v| {
        (0..v.len())
            .map(|t| stack.tenant_fib(VrfId::new(t as u32)).version())
            .collect()
    })
}

/// Traced VRF runs: from the moment the feeder saw a tenant's new
/// version to the first batch the worker served for that tenant on it, µs.
fn tenant_adoption(stack: &Stack, visible: &[(u32, u64, u64)]) -> Vec<f64> {
    let Some(map) = &stack.probe.tenants else {
        return Vec::new();
    };
    let mut served: std::collections::HashMap<u32, Vec<(u64, u64)>> = Default::default();
    for &(t, v, at) in lock(&map.log).iter() {
        served.entry(t).or_default().push((v, at));
    }
    visible
        .iter()
        .filter_map(|&(t, v, seen)| {
            let log = served.get(&t)?;
            let first = log.iter().find(|&&(sv, _)| sv >= v)?;
            Some((first.1 as f64 - seen as f64) / 1e3)
        })
        .collect()
}
