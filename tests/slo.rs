//! SLO-harness integration test: deadline-drop QoS with exact packet
//! accounting, under concurrent churn.
//!
//! The engine runs with [`QosPolicy::Deadline`]: admitted batches whose
//! queue wait exceeds the deadline are dropped at pop instead of served
//! late. The driver offers far more load than two stalled workers can
//! serve, so the engine must shed — and every shed packet must be
//! accounted for exactly once:
//!
//! ```text
//! offered == delivered + dropped-by-deadline + refused-at-ingress
//! ```
//!
//! at both batch and packet granularity, with the per-worker breakdown
//! summing to the totals. Delivered batches are additionally spot-checked
//! against a [`RadixTree`] oracle advanced through the publish log — a
//! batch that survived the deadline must still be *correct* for the FIB
//! version it was served against, even while churn rewrites the table.

use poptrie_suite::poptrie::sync::{RouteUpdate, SharedFib};
use poptrie_suite::poptrie::PoptrieConfig;
use poptrie_suite::prelude::{Engine, EngineConfig, QosPolicy};
use poptrie_suite::tablegen::{churn_stream, ChurnConfig, ChurnEvent};
use poptrie_suite::traffic::ZipfFlows;
use poptrie_suite::{NextHop, RadixTree};
use std::sync::{Arc, Mutex};
use std::time::Duration;

mod common;

use common::{Publish, ServedBatch};

const BATCH_KEYS: usize = 64;

#[test]
fn deadline_drops_account_every_packet_exactly_once_under_churn() {
    let events = churn_stream::<u32>(&ChurnConfig {
        seed: 0x510_0001,
        events: 1_200,
        direct_bits: 8,
        pool: 128,
        max_nh: 13,
    });
    let (seed_events, live_events) = events.split_at(300);

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
    let pcfg = PoptrieConfig::new()
        .direct_bits(8)
        .aggregate(false)
        .build()
        .unwrap();
    let fib = Arc::new(SharedFib::compile(rib, pcfg));
    let v0 = fib.version();

    let served: Arc<Mutex<Vec<ServedBatch>>> = Arc::new(Mutex::new(Vec::new()));
    let published: Arc<Mutex<Vec<Publish>>> = Arc::new(Mutex::new(Vec::new()));
    // Two workers, each stalled 20 ms after every served batch (a slow
    // egress path in the batch hook), with a 50 ms deadline: the driver
    // offers ~10x the service capacity, so the surplus must be
    // deadline-dropped (stale batches drain instantly at pop, so the
    // queues rarely refuse).
    let engine = Engine::start(
        Arc::clone(&fib),
        EngineConfig::new(2)
            .pin_workers(false)
            .queue_capacity(8)
            .coalesce_window(16)
            .qos(QosPolicy::Deadline(Duration::from_millis(50)))
            .on_batch({
                let served = Arc::clone(&served);
                Arc::new(move |_, keys: &[u32], out: &[NextHop], version| {
                    served
                        .lock()
                        .unwrap()
                        .push((keys.to_vec(), out.to_vec(), version));
                    std::thread::sleep(Duration::from_millis(20));
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

    // Drive: a Zipf flow mix (the SLO harness's skewed pattern), four
    // batches per round with churn interleaved, NO retry on refusal —
    // under a deadline policy a refused batch is a counted loss, not
    // something to block the feeder on.
    let mut zipf = ZipfFlows::random(512, 1.0, 0xF10_0001);
    let ingress = engine.ingress();
    let control = engine.control();
    let mut offered_batches = 0u64;
    let mut offered_packets = 0u64;
    let mut refused_batches = 0u64;
    let mut refused_packets = 0u64;
    let mut sent_events = 0u64;
    let mut churn_iter = live_events.iter().cycle();
    for _round in 0..80 {
        for _ in 0..2 {
            let update = match *churn_iter.next().unwrap() {
                ChurnEvent::Announce(p, nh) => RouteUpdate::Announce(p, nh),
                ChurnEvent::Withdraw(p) => RouteUpdate::Withdraw(p),
            };
            assert!(control.send(update).is_ok(), "control channel overflowed");
            sent_events += 1;
        }
        for _ in 0..4 {
            let mut keys = vec![0u32; BATCH_KEYS];
            zipf.fill(&mut keys);
            let batch: Arc<[u32]> = keys.into();
            offered_batches += 1;
            offered_packets += BATCH_KEYS as u64;
            if ingress.try_submit(batch).is_err() {
                refused_batches += 1;
                refused_packets += BATCH_KEYS as u64;
            }
        }
        std::thread::sleep(Duration::from_millis(4));
    }

    let report = engine.shutdown(Duration::from_secs(30));

    // --- shutdown contract.
    assert!(report.drained_clean, "shutdown left queued work behind");
    assert_eq!(report.leaked_threads, 0, "threads failed to join");

    // --- the test is real: both regimes actually happened.
    assert!(report.batches > 0, "no batch survived the deadline");
    assert!(
        report.deadline_dropped_batches > 0,
        "overload produced no deadline drops"
    );

    // --- exact accounting, batch granularity.
    assert_eq!(report.dropped_batches, refused_batches, "refusals agree");
    assert_eq!(
        offered_batches,
        report.batches + report.deadline_dropped_batches + report.dropped_batches,
        "offered == delivered + deadline-dropped + refused (batches)"
    );

    // --- exact accounting, packet granularity.
    assert_eq!(report.dropped_packets, refused_packets);
    assert_eq!(
        offered_packets,
        report.packets + report.deadline_dropped_packets + report.dropped_packets,
        "offered == delivered + deadline-dropped + refused (packets)"
    );

    // --- per-worker breakdown sums to the totals.
    assert_eq!(
        report.workers.iter().map(|w| w.batches).sum::<u64>(),
        report.batches
    );
    assert_eq!(
        report
            .workers
            .iter()
            .map(|w| w.deadline_dropped_batches)
            .sum::<u64>(),
        report.deadline_dropped_batches
    );
    assert_eq!(
        report
            .workers
            .iter()
            .map(|w| w.deadline_dropped_packets)
            .sum::<u64>(),
        report.deadline_dropped_packets
    );

    // --- every popped batch left a queue-wait sample; every served
    // batch left a service sample.
    assert_eq!(
        report.queue_wait.samples,
        report.batches + report.deadline_dropped_batches
    );
    assert_eq!(report.service.samples, report.batches);
    assert!(report.queue_wait.p50_ns <= report.queue_wait.p99_ns);
    assert!(report.queue_wait.p99_ns <= report.queue_wait.p999_ns);

    // --- control plane consumed everything.
    assert_eq!(report.update_events, sent_events);
    assert_eq!(report.control_dropped, 0);

    // --- RIB-oracle spot check: delivered batches are exact for the
    // version they were served against, churn notwithstanding.
    let served = Arc::try_unwrap(served).unwrap().into_inner().unwrap();
    let published = Arc::try_unwrap(published).unwrap().into_inner().unwrap();
    assert_eq!(served.len() as u64, report.batches, "hook fired per batch");
    common::assert_version_exact(served, &published, oracle, v0);
}
