//! End-to-end integration test of the sharded forwarding engine.
//!
//! A 4-worker engine is driven by a real feeder (bounded queues,
//! backpressure, retries) while a seeded BGP churn stream runs through
//! the control-plane writer. Every served batch is recorded by the
//! `on_batch` hook together with the snapshot version it ran against;
//! every published update burst is recorded by the `on_publish` hook.
//! After drain-shutdown the test replays the publish log through a
//! [`RadixTree`] oracle and asserts each batch's next hops are **exactly**
//! what the oracle says the FIB contained at that version — the RCU
//! epoch-consistency contract, checked per batch, under concurrency.
//!
//! The driver also keeps its own tallies of everything it submitted, so
//! the engine's telemetry is reconciled against ground truth: no packet,
//! batch, drop, publish or control event is lost or double counted.

use poptrie_suite::poptrie::sync::{RouteUpdate, SharedFib};
use poptrie_suite::poptrie::{BatchBackend, PoptrieConfig};
use poptrie_suite::prelude::{Engine, EngineConfig, VrfId, VrfTable};
use poptrie_suite::tablegen::{churn_stream, ChurnConfig, ChurnEvent};
use poptrie_suite::{NextHop, RadixTree};
use std::sync::{Arc, Mutex};
use std::time::Duration;

mod common;

use common::{Publish, ServedBatch};

fn pcfg() -> PoptrieConfig {
    PoptrieConfig::new()
        .direct_bits(8)
        .aggregate(false)
        .build()
        .unwrap()
}

/// The seeded churn stream: the first `seed_events` announces become the
/// initial table, the rest replays through the engine's control plane.
fn stream() -> Vec<ChurnEvent<u32>> {
    churn_stream::<u32>(&ChurnConfig {
        seed: 0xE2E_0001,
        events: 2_000,
        direct_bits: 8,
        pool: 192,
        max_nh: 13,
    })
}

#[test]
fn four_workers_under_churn_are_oracle_exact_and_reconcile() {
    let events = stream();
    let (seed_events, live_events) = events.split_at(400);

    // Initial table: replay the seed slice into both the engine's FIB
    // and the oracle's starting RIB.
    let mut rib: RadixTree<u32, NextHop> = RadixTree::new();
    let mut oracle: RadixTree<u32, NextHop> = RadixTree::new();
    for ev in seed_events {
        match *ev {
            ChurnEvent::Announce(p, nh) => {
                rib.insert(p, nh);
                oracle.insert(p, nh);
            }
            ChurnEvent::Withdraw(p) => {
                rib.remove(p);
                oracle.remove(p);
            }
        }
    }
    let fib = Arc::new(SharedFib::compile(rib, pcfg()));
    // The workers serve whichever dispatch tier is forced on the FIB.
    let widest = BatchBackend::widest_available();
    for tier in [BatchBackend::Scalar, widest] {
        assert_eq!(fib.set_batch_backend(tier), tier, "forced tier installed");
    }
    let v0 = fib.version();

    let served: Arc<Mutex<Vec<ServedBatch>>> = Arc::new(Mutex::new(Vec::new()));
    let published: Arc<Mutex<Vec<Publish>>> = Arc::new(Mutex::new(Vec::new()));
    let engine = Engine::start(
        Arc::clone(&fib),
        EngineConfig::new(4)
            .queue_capacity(8) // small queues: backpressure really fires
            .coalesce_window(32)
            .on_batch({
                let served = Arc::clone(&served);
                Arc::new(move |_, keys: &[u32], out: &[NextHop], version| {
                    served
                        .lock()
                        .unwrap()
                        .push((keys.to_vec(), out.to_vec(), version));
                })
            })
            .on_publish({
                let published = Arc::clone(&published);
                Arc::new(move |outcome, updates: &[RouteUpdate<u32>]| {
                    published
                        .lock()
                        .unwrap()
                        .push((outcome.version, updates.to_vec()));
                })
            }),
    );

    // Drive it: 600 batches of 256 keys, a burst of churn every 4th
    // batch. The feeder retries shed batches (each refusal is a counted
    // drop), so everything submitted is eventually served.
    let ingress = engine.ingress();
    let control = engine.control();
    let mut submitted_batches = 0u64;
    let mut submitted_packets = 0u64;
    let mut driver_drops = 0u64;
    let mut sent_events = 0u64;
    let mut churn_iter = live_events.iter().cycle();
    for i in 0..600u32 {
        if i % 4 == 0 {
            for _ in 0..4 {
                let update = match *churn_iter.next().unwrap() {
                    ChurnEvent::Announce(p, nh) => RouteUpdate::Announce(p, nh),
                    ChurnEvent::Withdraw(p) => RouteUpdate::Withdraw(p),
                };
                assert!(control.send(update).is_ok(), "control channel overflowed");
                sent_events += 1;
            }
        }
        let keys: Vec<u32> = (0..256u32)
            .map(|j| i.wrapping_mul(0x9E37_79B9) ^ (j << 8))
            .collect();
        let mut batch: Arc<[u32]> = keys.into();
        loop {
            match ingress.try_submit(batch) {
                Ok(_) => break,
                Err(refused) => {
                    driver_drops += 1;
                    batch = refused;
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
        submitted_batches += 1;
        submitted_packets += 256;
    }

    let report = engine.shutdown(Duration::from_secs(30));

    // --- shutdown contract: everything drained, nothing leaked.
    assert!(report.drained_clean, "shutdown left queued work behind");
    assert_eq!(report.leaked_threads, 0, "threads failed to join");

    // --- telemetry reconciles exactly with the driver's own tallies.
    assert_eq!(report.batches, submitted_batches, "served == submitted");
    assert_eq!(
        report.packets, submitted_packets,
        "packets == submitted keys"
    );
    assert_eq!(report.dropped_batches, driver_drops, "drop accounting");
    assert_eq!(report.update_events, sent_events, "control events consumed");
    assert_eq!(report.control_dropped, 0, "no control events refused");
    assert_eq!(
        report.workers.iter().map(|w| w.batches).sum::<u64>(),
        report.batches,
        "per-worker batches sum to the total"
    );
    assert_eq!(report.workers.len(), 4);
    for (i, w) in report.workers.iter().enumerate() {
        assert!(w.batches > 0, "worker {i} never served a batch");
        assert_eq!(w.respawns, 0, "worker {i} panicked");
    }

    // --- the hooks saw the same totals.
    let served = Arc::try_unwrap(served).unwrap().into_inner().unwrap();
    let published = Arc::try_unwrap(published).unwrap().into_inner().unwrap();
    assert_eq!(
        served.len() as u64,
        report.batches,
        "on_batch fired per batch"
    );
    assert_eq!(
        published.len() as u64,
        report.publishes,
        "on_publish fired per publish"
    );
    assert_eq!(
        fib.version(),
        v0 + report.publishes,
        "one version per publish"
    );
    assert!(
        report.publishes > 10,
        "churn produced too few publishes to be a real test"
    );
    let coalesced_survivors: u64 = published.iter().map(|(_, u)| u.len() as u64).sum();
    assert_eq!(
        coalesced_survivors + report.updates_coalesced,
        report.update_events,
        "survivors + merged == events"
    );

    // --- oracle replay: every batch is exact for the version it served.
    common::assert_version_exact(served, &published, oracle, v0);
}

/// A worker panic mid-run is isolated: the faulting batch is the only
/// loss, the worker respawns on the same thread, and shutdown still
/// drains clean.
#[test]
fn panic_isolation_respawns_and_drains_clean() {
    let mut rib: RadixTree<u32, NextHop> = RadixTree::new();
    rib.insert("0.0.0.0/0".parse().unwrap(), 1);
    let fib = Arc::new(SharedFib::compile(rib, pcfg()));
    let engine = Engine::start(Arc::clone(&fib), EngineConfig::new(2).queue_capacity(8));

    let ingress = engine.ingress();
    let batch: Arc<[u32]> = (0..64u32).collect::<Vec<_>>().into();
    for _ in 0..10 {
        while ingress.try_submit_to(0, Arc::clone(&batch)).is_err() {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    engine.inject_panic(0).unwrap();
    for _ in 0..10 {
        while ingress.try_submit_to(0, Arc::clone(&batch)).is_err() {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    let report = engine.shutdown(Duration::from_secs(30));
    assert!(report.drained_clean);
    assert_eq!(report.leaked_threads, 0);
    assert_eq!(report.workers[0].respawns, 1, "exactly one respawn");
    // The panicking batch is consumed but not served; every other batch is.
    assert_eq!(report.workers[0].batches, 19);
    assert_eq!(report.workers[0].packets, 19 * 64);
}

/// VRF-keyed batches fan out over 16 tenants while the control plane
/// churns tenant 0. Tenant 1 keeps its snapshot version and its oracle's
/// answers throughout, tenant 0 ends oracle-exact, every update drains,
/// every VRF packet is served, and the group audit passes.
#[test]
fn vrf_churn_through_the_engine_leaves_other_tenants_untouched() {
    const TENANTS: u32 = 16;
    let events = stream();
    let mut base: RadixTree<u32, NextHop> = RadixTree::new();
    for ev in &events[..400] {
        if let ChurnEvent::Announce(p, nh) = *ev {
            base.insert(p, nh);
        }
    }
    let vrfs = Arc::new(VrfTable::<u32>::shared(pcfg(), 1 << 16));
    for _ in 0..TENANTS {
        vrfs.create_from(base.clone());
    }
    let (churned, untouched) = (VrfId::new(0), VrfId::new(1));
    let version = vrfs.snapshot(untouched).unwrap().version();
    let engine = Engine::start(
        Arc::new(SharedFib::with_config(pcfg())),
        EngineConfig::new(2)
            .pin_workers(false)
            .vrfs(Arc::clone(&vrfs)),
    );
    let (control, ingress, telemetry) = (engine.control(), engine.ingress(), engine.telemetry());
    let probes: Vec<u32> = (0..4096u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    let keys: Arc<[u32]> = probes[..256].into();
    let mut oracle = base.clone();
    let (mut sent, mut packets) = (0u64, 0u64);
    for chunk in events[400..].chunks(100) {
        for ev in chunk {
            let mut u = match *ev {
                ChurnEvent::Announce(p, nh) => {
                    oracle.insert(p, nh);
                    RouteUpdate::Announce(p, nh)
                }
                ChurnEvent::Withdraw(p) => {
                    oracle.remove(p);
                    RouteUpdate::Withdraw(p)
                }
            };
            while let Err(back) = control.send_vrf(churned, u) {
                u = back;
                std::thread::sleep(Duration::from_micros(50));
            }
            sent += 1;
        }
        for t in 0..TENANTS {
            let mut batch = Arc::clone(&keys);
            while let Err(back) = ingress.try_submit_vrf(VrfId::new(t), batch) {
                batch = back;
                std::thread::sleep(Duration::from_micros(50));
            }
            packets += keys.len() as u64;
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while telemetry.update_events.get() < sent && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let snap = vrfs.snapshot(untouched).unwrap();
        assert_eq!(snap.version(), version, "the untouched tenant published");
        for &k in &probes {
            assert_eq!(
                snap.lookup(k),
                base.lookup(k).copied(),
                "tenant 1 at {k:#x}"
            );
        }
    }
    let report = engine.shutdown(Duration::from_secs(30));
    assert_eq!(report.update_events, sent, "every update drained");
    assert_eq!(report.vrf_packets, packets, "every VRF packet served");
    assert!(
        report.convergence.samples > 0,
        "convergence histogram empty"
    );
    let snap = vrfs.snapshot(churned).unwrap();
    for ev in &events[400..] {
        let (ChurnEvent::Announce(p, _) | ChurnEvent::Withdraw(p)) = *ev;
        for k in [p.first_addr(), p.last_addr()] {
            assert_eq!(
                snap.lookup(k),
                oracle.lookup(k).copied(),
                "tenant 0 at {k:#x}"
            );
        }
    }
    vrfs.audit().unwrap();
}
