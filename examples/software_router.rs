//! A miniature software router, dataplane and control plane.
//!
//! The scenario the paper's introduction motivates: an NFV-style software
//! router on a commodity CPU, forwarding packets at wire rate with the
//! routing table lookup as the hot path. This example runs the full
//! `poptrie-engine` pipeline — a synthetic ingress feeding packet batches
//! into per-worker bounded queues, pinned workers looking each batch up
//! against an RCU snapshot of a shared Poptrie FIB, and a concurrent BGP
//! session pushing route updates through the single control-plane
//! writer — then prints per-interface counters, the achieved rate, and
//! the engine's own accounting.
//!
//! ```text
//! cargo run --release --example software_router
//! ```
//!
//! With the `observe` feature the router also behaves like a production
//! data plane with a metrics endpoint, dumping the full Prometheus-format
//! page at shutdown:
//!
//! ```text
//! cargo run --release --features observe --example software_router
//! ```

use poptrie_suite::poptrie::sync::SharedFib;
use poptrie_suite::poptrie::PoptrieConfig;
use poptrie_suite::prelude::{Engine, EngineConfig};
use poptrie_suite::tablegen::{TableKind, TableSpec};
use poptrie_suite::traffic::Xorshift128;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An egress interface with its counters. Updated from the engine's
/// `on_batch` hook, which runs on the worker threads — hence atomics.
#[derive(Debug, Default)]
struct Interface {
    packets: AtomicU64,
    bytes: AtomicU64,
}

const WORKERS: usize = 2;
const BATCH: usize = 1024;
const BATCHES: u64 = 4_000;

fn main() {
    // A realistic mid-size table: 50K routes across 24 next hops
    // (interfaces), production-router shape (IGP deep routes included).
    let table = TableSpec {
        name: "router-demo".into(),
        prefixes: 50_000,
        next_hops: 24,
        kind: TableKind::Real,
    }
    .generate();
    let config = PoptrieConfig::new()
        .direct_bits(18)
        .build()
        .expect("config");
    let fib = Arc::new(SharedFib::compile(table.to_rib(), config));
    println!(
        "FIB: {} routes, {} next hops, version {} ({:?})",
        table.len(),
        table.next_hop_count(),
        fib.version(),
        fib.snapshot().stats()
    );

    // Interface 0 is the drop counter (no matching route).
    let interfaces: Arc<Vec<Interface>> = Arc::new((0..25).map(|_| Interface::default()).collect());
    let engine = Engine::start(
        Arc::clone(&fib),
        EngineConfig::new(WORKERS).on_batch({
            let interfaces = Arc::clone(&interfaces);
            Arc::new(move |_worker, keys: &[u32], out, _version| {
                for (dst, &egress) in keys.iter().zip(out) {
                    // IPv4 minimum frame is 64 bytes; synthetic size mix.
                    let ifc = &interfaces[egress as usize];
                    ifc.packets.fetch_add(1, Ordering::Relaxed);
                    ifc.bytes
                        .fetch_add(64 + (dst & 0x3FF) as u64, Ordering::Relaxed);
                }
            })
        }),
    );

    // The BGP session: a route source on its own thread, announcing and
    // withdrawing a flapping prefix through the control plane while the
    // dataplane forwards. Each send is non-blocking; the engine's writer
    // coalesces each burst into one published snapshot.
    let control = engine.control();
    let bgp = std::thread::spawn(move || {
        let flap: poptrie_suite::Prefix<u32> = "203.0.113.0/24".parse().unwrap();
        let mut published = 0u64;
        for round in 0..50 {
            let sent = if round % 2 == 0 {
                control.announce(flap, 7)
            } else {
                control.withdraw(flap)
            };
            if sent.is_ok() {
                published += 1;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        published
    });

    // The ingress: pre-generated batches submitted round-robin. A full
    // queue is backpressure — the batch is shed and counted, exactly
    // what a NIC rx ring does when the host cannot keep up.
    let ingress = engine.ingress();
    let mut rng = Xorshift128::new(0xDA7A);
    let pool: Vec<Arc<[u32]>> = (0..64)
        .map(|_| {
            (0..BATCH)
                .map(|_| rng.next_u32())
                .collect::<Vec<_>>()
                .into()
        })
        .collect();
    let start = Instant::now();
    for i in 0..BATCHES {
        if ingress
            .try_submit(Arc::clone(&pool[i as usize % pool.len()]))
            .is_err()
        {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    let report = engine.shutdown(Duration::from_secs(10));
    let dt = start.elapsed().as_secs_f64();
    let flaps = bgp.join().expect("BGP thread");

    let forwarded: u64 = interfaces[1..]
        .iter()
        .map(|i| i.packets.load(Ordering::Relaxed))
        .sum();
    println!(
        "\n{WORKERS} workers forwarded {forwarded} packets in {:.2} ms ({:.1} Mpps aggregate)",
        dt * 1e3,
        report.packets as f64 / dt / 1e6
    );
    println!(
        "engine: {} batches served, {} shed at ingress, {} snapshots published \
         ({} route events sent, {} coalesced away)",
        report.batches, report.dropped_batches, report.publishes, flaps, report.updates_coalesced
    );
    println!(
        "shutdown: drained_clean={}, leaked_threads={}, final FIB version {}",
        report.drained_clean,
        report.leaked_threads,
        fib.version()
    );
    println!(
        "dropped (no route): {}",
        interfaces[0].packets.load(Ordering::Relaxed)
    );
    println!("\nbusiest egress interfaces:");
    let mut busiest: Vec<(usize, u64, u64)> = interfaces
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, ifc)| {
            (
                i,
                ifc.packets.load(Ordering::Relaxed),
                ifc.bytes.load(Ordering::Relaxed),
            )
        })
        .collect();
    busiest.sort_by_key(|&(_, packets, _)| std::cmp::Reverse(packets));
    for (idx, packets, bytes) in busiest.iter().take(5) {
        println!("  if{idx:<2}  {packets:>9} packets  {bytes:>12} bytes");
    }

    // Shutdown dump: the full metrics page a scraper would have fetched.
    #[cfg(feature = "observe")]
    {
        use poptrie_suite::poptrie::telemetry;
        println!("\n# final telemetry (Prometheus text format)");
        print!(
            "{}",
            telemetry::snapshot()
                .attach_structure(&fib.snapshot())
                .render_prometheus()
        );
    }
}
