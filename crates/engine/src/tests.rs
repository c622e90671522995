use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use poptrie::prelude::*;
use poptrie::VrfId;

use crate::queue::{ring, PushError, Ring, WORKER_IDLE};
use crate::{BatchHook, Engine, EngineConfig, QosPolicy, VrfTable};

fn p4(s: &str) -> Prefix<u32> {
    s.parse().unwrap()
}

/// Batches recorded by an `on_batch` hook: `(worker, next_hops)`.
type Served = Arc<Mutex<Vec<(usize, Vec<u16>)>>>;

/// Publishes recorded by an `on_publish` hook: `(version, updates)`.
type Published = Arc<Mutex<Vec<(u64, Vec<RouteUpdate<u32>>)>>>;

fn shared(routes: &[(&str, u16)]) -> Arc<SharedFib<u32>> {
    let cfg = PoptrieConfig::new().direct_bits(16).build().unwrap();
    let fib = Arc::new(SharedFib::with_config(cfg));
    for &(p, nh) in routes {
        fib.insert(p4(p), nh).unwrap();
    }
    fib
}

/// An `on_batch` hook that stalls the worker for `d` after every served
/// batch: a slow egress path, so the batches behind it queue
/// deterministically.
fn stall(d: Duration) -> BatchHook<u32> {
    Arc::new(move |_: usize, _: &[u32], _: &[NextHop], _: u64| std::thread::sleep(d))
}

mod queue {
    use super::*;
    use poptrie_rng::prelude::*;
    use poptrie_telemetry::Counter;
    use std::time::Instant;

    /// A short idle budget, so a consumer parks soon after it runs dry.
    const IDLE: Duration = Duration::from_micros(20);

    #[test]
    fn bounded_push_pop_fifo() {
        let (q, mut rx) = ring::<u32>(3, IDLE);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.try_push(3).unwrap();
        assert!(matches!(q.try_push(4), Err(PushError::Full(4))));
        assert_eq!(rx.pop(), Some(1));
        q.try_push(4).unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), Some(3));
        assert_eq!(rx.pop(), Some(4));
        assert!(q.is_empty());
    }

    #[test]
    fn close_refuses_producers_but_drains_consumers() {
        let (q, mut rx) = ring::<u32>(8, IDLE);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert!(matches!(q.try_push(3), Err(PushError::Closed(3))));
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let (q, mut rx) = ring::<u32>(8, IDLE);
        let consumer = std::thread::spawn(move || rx.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn pop_entry_reports_the_depth_left_behind() {
        for k in 1..=6usize {
            let (q, mut rx) = ring::<usize>(8, IDLE);
            for i in 0..k {
                q.try_push(i).unwrap();
            }
            for j in 1..=k {
                let (item, depth) = rx.pop_entry(None).unwrap();
                assert_eq!((item, depth), (j - 1, k - j), "k={k} j={j}");
            }
        }
    }

    #[test]
    fn pop_up_to_respects_window() {
        let (q, mut rx) = ring::<u32>(8, IDLE);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        let mut buf = Vec::new();
        assert!(rx.pop_up_to(3, &mut buf, None));
        assert_eq!(buf, vec![0, 1, 2]);
        buf.clear();
        assert!(rx.pop_up_to(3, &mut buf, None));
        assert_eq!(buf, vec![3, 4]);
        q.close();
        buf.clear();
        assert!(!rx.pop_up_to(3, &mut buf, None));
    }

    /// Push `item` until it is taken or the ring closes; `true` when
    /// taken.
    fn push_until_taken<T>(q: &Ring<T>, mut item: T) -> bool {
        loop {
            match q.try_push(item) {
                Ok(()) => return true,
                Err(PushError::Full(back)) => {
                    item = back;
                    std::thread::yield_now();
                }
                Err(PushError::Closed(_)) => return false,
            }
        }
    }

    #[test]
    fn ring_is_exactly_once_and_fifo_per_producer() {
        const PRODUCERS: usize = 4;
        const ITEMS: usize = 100_000;
        let (q, mut rx) = ring::<(usize, usize)>(8, WORKER_IDLE);
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..ITEMS {
                        assert!(push_until_taken(&q, (p, i)));
                    }
                })
            })
            .collect();
        let mut next = [0usize; PRODUCERS];
        for _ in 0..PRODUCERS * ITEMS {
            let (p, i) = rx.pop().expect("open ring");
            assert_eq!(i, next[p], "producer {p} out of order or duplicated");
            next[p] += 1;
        }
        for h in producers {
            h.join().unwrap();
        }
        assert_eq!(next, [ITEMS; PRODUCERS]);
        assert!(q.is_empty());
    }

    #[test]
    fn push_racing_close_is_delivered_or_refused() {
        poptrie_rng::check(
            "push_racing_close_is_delivered_or_refused",
            200,
            |rng| {
                (
                    rng.gen_range(1..=16usize),
                    rng.gen_range(1..=3usize),
                    rng.gen_range(1..=400usize),
                    rng.gen_range(0..20_000u32),
                )
            },
            |(capacity, producers, items, close_after)| {
                let (q, mut rx) = ring::<(usize, usize)>(capacity, IDLE);
                let consumer = std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = rx.pop() {
                        got.push(item);
                    }
                    got
                });
                let handles: Vec<_> = (0..producers)
                    .map(|p| {
                        let q = Arc::clone(&q);
                        std::thread::spawn(move || {
                            let taken: Vec<_> = (0..items)
                                .filter(|&i| push_until_taken(&q, (p, i)))
                                .collect();
                            (p, taken)
                        })
                    })
                    .collect();
                for _ in 0..close_after {
                    std::hint::spin_loop();
                }
                q.close();
                let mut accepted: Vec<(usize, usize)> = Vec::new();
                for h in handles {
                    let (p, taken) = h.join().unwrap();
                    accepted.extend(taken.into_iter().map(|i| (p, i)));
                }
                let mut delivered = consumer.join().unwrap();
                let refused = producers * items - accepted.len();
                assert_eq!(delivered.len() + refused, producers * items);
                delivered.sort_unstable();
                accepted.sort_unstable();
                assert_eq!(delivered, accepted, "every accepted push is delivered once");
            },
        );
    }

    #[test]
    fn no_lost_wakeup_after_park() {
        let (q, mut rx) = ring::<u64>(4, IDLE);
        let parks = Arc::new(Counter::new());
        // The last item popped; the main thread spins on it rather than
        // parking, so each round times the consumer's wake-up alone.
        let popped = Arc::new(AtomicU64::new(u64::MAX));
        let consumer = {
            let (parks, popped) = (Arc::clone(&parks), Arc::clone(&popped));
            std::thread::spawn(move || {
                while let Some((item, _)) = rx.pop_entry(Some(&parks)) {
                    popped.store(item, Ordering::Release);
                }
            })
        };
        // Yield while spinning: on a small host the consumer may share
        // this thread's core.
        let spin_until = |done: &dyn Fn() -> bool, limit: Duration| {
            let until = Instant::now() + limit;
            while !done() && Instant::now() < until {
                std::thread::yield_now();
            }
            done()
        };
        let mut rng = StdRng::seed_from_u64(7);
        for round in 0..2_000u64 {
            if round % 2 == 0 {
                // Push the moment the consumer counts its park, before
                // or after it reaches the wait.
                let before = parks.get();
                spin_until(&|| parks.get() > before, Duration::from_secs(1));
            } else {
                // Push somewhere in the idle budget or just past it.
                let past = IDLE * rng.gen_range(0..=2u32) / 2;
                spin_until(&|| false, past);
            }
            q.try_push(round).unwrap();
            assert!(
                spin_until(
                    &|| popped.load(Ordering::Acquire) == round,
                    Duration::from_secs(1)
                ),
                "round {round}: item not popped within 1 s"
            );
        }
        q.close();
        consumer.join().unwrap();
        assert!(
            parks.get() >= 1000,
            "the consumer parked {} times",
            parks.get()
        );
    }
}

mod engine {
    use super::*;

    #[test]
    fn serves_batches_and_counts_packets() {
        let fib = shared(&[("10.0.0.0/8", 1), ("11.0.0.0/8", 2)]);
        let served: Served = Arc::new(Mutex::new(Vec::new()));
        let hook = {
            let served = Arc::clone(&served);
            Arc::new(move |w: usize, _k: &[u32], out: &[u16], _v: u64| {
                served.lock().unwrap().push((w, out.to_vec()));
            })
        };
        let engine = Engine::start(
            Arc::clone(&fib),
            EngineConfig::new(2).pin_workers(false).on_batch(hook),
        );
        let ingress = engine.ingress();
        let batch: Arc<[u32]> = Arc::from(vec![0x0A00_0001u32, 0x0B00_0001, 0x0C00_0001]);
        for _ in 0..10 {
            let mut b = Arc::clone(&batch);
            loop {
                match ingress.try_submit(b) {
                    Ok(_) => break,
                    Err(back) => {
                        b = back;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
        }
        let report = engine.shutdown(Duration::from_secs(10));
        assert_eq!(report.leaked_threads, 0);
        assert!(report.drained_clean);
        assert_eq!(report.packets, 30);
        assert_eq!(report.batches, 10);
        let served = served.lock().unwrap();
        assert_eq!(served.len(), 10);
        for (_, out) in served.iter() {
            assert_eq!(out, &vec![1, 2, NO_ROUTE]);
        }
    }

    #[test]
    fn idle_worker_parks_and_the_next_batch_wakes_it() {
        let fib = shared(&[("10.0.0.0/8", 1)]);
        let engine = Engine::start(Arc::clone(&fib), EngineConfig::new(1).pin_workers(false));
        let telemetry = engine.telemetry();
        let waited = |done: &dyn Fn() -> bool, limit: Duration| {
            let until = std::time::Instant::now() + limit;
            while !done() && std::time::Instant::now() < until {
                std::thread::sleep(Duration::from_micros(100));
            }
            done()
        };
        assert!(
            waited(
                &|| telemetry.worker(0).parks.get() >= 1,
                Duration::from_millis(20)
            ),
            "an idle worker parks within 20 ms"
        );
        let prom = telemetry.registry().render_prometheus();
        assert!(
            prom.contains("poptrie_engine_worker_parks_total{worker=\"0\"}"),
            "{prom}"
        );
        let batch: Arc<[u32]> = Arc::from(vec![0x0A00_0001u32, 0x0B00_0001]);
        engine.ingress().try_submit(batch).unwrap();
        assert!(
            waited(&|| telemetry.total_packets() == 2, Duration::from_secs(1)),
            "the parked worker was not woken by the submit"
        );
        let report = engine.shutdown(Duration::from_secs(10));
        assert_eq!(report.packets, 2);
        assert!(report.drained_clean);
    }

    #[test]
    fn backpressure_drops_are_counted_deterministically() {
        let fib = shared(&[("10.0.0.0/8", 1)]);
        // One worker, queue of 1, and a 200 ms stall after each batch:
        // with the worker stalled, the second queued batch and the
        // overflow are deterministic.
        let engine = Engine::start(
            Arc::clone(&fib),
            EngineConfig::new(1)
                .pin_workers(false)
                .queue_capacity(1)
                .on_batch(stall(Duration::from_millis(200))),
        );
        let ingress = engine.ingress();
        let batch: Arc<[u32]> = Arc::from(vec![0x0A00_0001u32]);
        // First submit is taken by the worker (it blocks in the stall);
        // second fills the queue; keep submitting until a drop occurs.
        let mut drops = 0;
        for _ in 0..8 {
            if ingress.try_submit(Arc::clone(&batch)).is_err() {
                drops += 1;
            }
        }
        assert!(drops > 0, "an 8-deep burst must overflow a 1-deep queue");
        assert_eq!(engine.telemetry().dropped_batches.get(), drops);
        let report = engine.shutdown(Duration::from_secs(10));
        assert_eq!(report.dropped_batches, drops);
        assert_eq!(report.packets + drops, 8);
        assert!(report.drained_clean);
        // The stall runs after the service stamp: it is nobody's service.
        assert!(report.service.p50_ns < 20_000_000, "{:?}", report.service);
    }

    #[test]
    fn worker_panic_is_isolated_and_respawned() {
        let fib = shared(&[("10.0.0.0/8", 1)]);
        let engine = Engine::start(
            Arc::clone(&fib),
            EngineConfig::new(1).pin_workers(false).queue_capacity(8),
        );
        let ingress = engine.ingress();
        let batch: Arc<[u32]> = Arc::from(vec![0x0A00_0001u32]);

        engine.inject_panic(0).unwrap();
        ingress.try_submit(Arc::clone(&batch)).unwrap(); // consumed by the panic
        ingress.try_submit(Arc::clone(&batch)).unwrap(); // served after respawn
        ingress.try_submit(Arc::clone(&batch)).unwrap();

        let report = engine.shutdown(Duration::from_secs(10));
        assert_eq!(report.leaked_threads, 0);
        assert_eq!(report.workers[0].respawns, 1);
        // The panicking batch is lost; the remaining two are served.
        assert_eq!(report.packets, 2);
        assert!(report.drained_clean);
    }

    #[test]
    fn deadline_policy_drops_stale_batches_with_exact_accounting() {
        let fib = shared(&[("10.0.0.0/8", 1)]);
        // One worker with a 200 ms stall after each batch and a 100 ms
        // deadline: the first batch is popped fresh and served; the three
        // queued behind it wait >= 200 ms and are dropped at pop, so the
        // counts are exact.
        let engine = Engine::start(
            Arc::clone(&fib),
            EngineConfig::new(1)
                .pin_workers(false)
                .queue_capacity(8)
                .on_batch(stall(Duration::from_millis(200)))
                .qos(QosPolicy::Deadline(Duration::from_millis(100))),
        );
        let ingress = engine.ingress();
        let batch: Arc<[u32]> = Arc::from(vec![0x0A00_0001u32, 0x0A00_0002]);
        for _ in 0..4 {
            ingress.try_submit(Arc::clone(&batch)).unwrap();
        }
        let report = engine.shutdown(Duration::from_secs(10));
        assert!(report.drained_clean);
        assert_eq!(report.batches, 1, "only the fresh batch is served");
        assert_eq!(report.packets, 2);
        assert_eq!(report.deadline_dropped_batches, 3);
        assert_eq!(report.deadline_dropped_packets, 6);
        assert_eq!(report.dropped_batches, 0, "nothing was refused");
        // The packet accounting identity: offered == delivered +
        // deadline-dropped + refused.
        assert_eq!(
            4 * 2,
            report.packets + report.deadline_dropped_packets + report.dropped_packets
        );
        // Every popped batch (served or dropped) has a queue-wait
        // sample; only served batches have a service sample.
        assert_eq!(report.queue_wait.samples, 4);
        assert_eq!(report.service.samples, 1);
        assert_eq!(report.workers[0].deadline_dropped_batches, 3);
        // The stall is queue wait for the batches behind it, not service.
        assert!(report.service.p50_ns < 20_000_000, "{:?}", report.service);
    }

    #[test]
    fn refuse_policy_never_deadline_drops() {
        let fib = shared(&[("10.0.0.0/8", 1)]);
        let engine = Engine::start(
            Arc::clone(&fib),
            EngineConfig::new(1)
                .pin_workers(false)
                .queue_capacity(8)
                .on_batch(stall(Duration::from_millis(50))),
        );
        let ingress = engine.ingress();
        let batch: Arc<[u32]> = Arc::from(vec![0x0A00_0001u32]);
        for _ in 0..4 {
            ingress.try_submit(Arc::clone(&batch)).unwrap();
        }
        let report = engine.shutdown(Duration::from_secs(10));
        assert_eq!(report.batches, 4);
        assert_eq!(report.deadline_dropped_batches, 0);
        assert_eq!(report.queue_wait.samples, 4);
        assert_eq!(report.service.samples, 4);
        // Tail quantiles are monotone by construction.
        let qw = report.queue_wait;
        assert!(qw.p50_ns <= qw.p99_ns && qw.p99_ns <= qw.p999_ns);
    }

    #[test]
    fn every_submit_path_records_batch_size() {
        let fib = shared(&[("10.0.0.0/8", 1)]);
        let vrfs = Arc::new(VrfTable::<u32>::shared(
            PoptrieConfig::new().direct_bits(16).build().unwrap(),
            0,
        ));
        let tenant = vrfs.create();
        let engine = Engine::start(
            Arc::clone(&fib),
            EngineConfig::new(2).pin_workers(false).vrfs(vrfs),
        );
        let ingress = engine.ingress();
        let batch: Arc<[u32]> = Arc::from(vec![0x0A00_0001u32; 4]);
        for i in 0..30 {
            let mut b = Arc::clone(&batch);
            loop {
                let sent = match i % 3 {
                    0 => ingress.try_submit(b).map(|_| ()),
                    1 => ingress.try_submit_to(i % 2, b),
                    _ => ingress.try_submit_vrf(tenant, b).map(|_| ()),
                };
                match sent {
                    Ok(()) => break,
                    Err(back) => {
                        b = back;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
        }
        let t = engine.telemetry();
        assert_eq!(t.submitted_batches.get(), 30);
        assert_eq!(
            t.batch_size.counts().iter().sum::<u64>(),
            30,
            "one size sample per accepted batch"
        );
        assert_eq!(t.batch_size.sum(), 120);
        let report = engine.shutdown(Duration::from_secs(10));
        assert_eq!(report.batches, 30);
    }

    #[test]
    fn out_of_range_worker_is_a_counted_refusal() {
        let fib = shared(&[("10.0.0.0/8", 1)]);
        let engine = Engine::start(Arc::clone(&fib), EngineConfig::new(2).pin_workers(false));
        let ingress = engine.ingress();
        let batch: Arc<[u32]> = Arc::from(vec![0x0A00_0001u32; 3]);
        for worker in [2, 3, usize::MAX] {
            let back = ingress
                .try_submit_to(worker, Arc::clone(&batch))
                .expect_err("no such worker");
            assert_eq!(back.len(), 3, "the batch is handed back");
        }
        while ingress.try_submit_to(1, Arc::clone(&batch)).is_err() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = engine.shutdown(Duration::from_secs(10));
        assert!(report.drained_clean);
        assert_eq!(report.dropped_batches, 3);
        // offered = delivered + deadline-dropped + refused, in packets.
        assert_eq!(
            report.packets + report.deadline_dropped_packets + report.dropped_packets,
            4 * 3
        );
        assert_eq!(report.packets, 3);
    }

    #[test]
    fn report_counts_publish_work() {
        // A reserved node arena: no burst grows the node array, which
        // would make its publish and the next copy the whole FIB.
        let cfg = PoptrieConfig::new()
            .direct_bits(16)
            .node_capacity(1 << 12)
            .build()
            .unwrap();
        let fib = Arc::new(SharedFib::with_config(cfg));
        fib.insert(p4("11.0.0.0/25"), 1).unwrap();
        fib.update_batch(std::iter::empty());
        let work0 = fib.publish_stats();
        let engine = Engine::start(Arc::clone(&fib), EngineConfig::new(1).pin_workers(false));
        let control = engine.control();
        let t = engine.telemetry();
        for i in 0..5u32 {
            control
                .announce(Prefix::new(0x0B00_0000 + (i << 8), 24), 2)
                .unwrap();
            while t.update_events.get() <= i as u64 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let report = engine.shutdown(Duration::from_secs(10));
        let work = fib.publish_stats().since(work0);
        assert_eq!(report.publishes, 5);
        assert_eq!(
            report.publish_full_copies + report.publish_incremental,
            report.publishes
        );
        // Idle workers hold no snapshot, so every retired snapshot was
        // recycled and no publish cloned the FIB.
        assert_eq!(report.publish_full_copies, 0);
        assert!(report.publish_bytes_copied > 0);
        assert_eq!(
            (
                report.publish_full_copies,
                report.publish_incremental,
                report.publish_bytes_copied
            ),
            (work.full_copies, work.incremental, work.bytes_copied)
        );
    }

    #[test]
    fn writer_coalesces_duplicate_prefixes() {
        let fib = shared(&[]);
        let publishes: Published = Arc::new(Mutex::new(Vec::new()));
        let hook = {
            let publishes = Arc::clone(&publishes);
            Arc::new(
                move |outcome: poptrie::sync::BatchOutcome, ups: &[RouteUpdate<u32>]| {
                    publishes
                        .lock()
                        .unwrap()
                        .push((outcome.version, ups.to_vec()));
                },
            )
        };
        let engine = Engine::start(
            Arc::clone(&fib),
            EngineConfig::new(1).pin_workers(false).on_publish(hook),
        );
        let control = engine.control();
        // Four updates to the same prefix plus one to another, queued
        // before the writer can drain: one publish, two survivors.
        let burst = vec![
            RouteUpdate::Announce(p4("10.0.0.0/8"), 1),
            RouteUpdate::Announce(p4("10.0.0.0/8"), 2),
            RouteUpdate::Announce(p4("11.0.0.0/8"), 7),
            RouteUpdate::Announce(p4("10.0.0.0/8"), 3),
            RouteUpdate::Announce(p4("10.0.0.0/8"), 4),
        ];
        for u in burst {
            control.send(u).unwrap();
        }
        // Wait until the writer has consumed the burst.
        let t = engine.telemetry();
        while t.update_events.get() < 5 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = engine.shutdown(Duration::from_secs(10));
        assert_eq!(fib.lookup(0x0A00_0001), Some(4), "last announce wins");
        assert_eq!(fib.lookup(0x0B00_0001), Some(7));
        assert_eq!(report.update_events, 5);
        // The writer may drain the burst in one gulp or several, but the
        // coalesced + surviving events always account for all five.
        let published = publishes.lock().unwrap();
        let survivors: usize = published.iter().map(|(_, ups)| ups.len()).sum();
        assert_eq!(survivors as u64 + report.updates_coalesced, 5);
        if report.publishes == 1 {
            // Single-gulp case: exactly the last update per prefix, in
            // arrival order of the survivors.
            assert_eq!(
                published[0].1,
                vec![
                    RouteUpdate::Announce(p4("11.0.0.0/8"), 7),
                    RouteUpdate::Announce(p4("10.0.0.0/8"), 4),
                ]
            );
            assert_eq!(report.updates_coalesced, 3);
        }
    }

    #[test]
    fn workers_observe_new_snapshots_between_batches() {
        let fib = shared(&[("10.0.0.0/8", 1)]);
        let seen_versions = Arc::new(AtomicU64::new(0));
        let hook = {
            let seen = Arc::clone(&seen_versions);
            Arc::new(move |_w: usize, _k: &[u32], _o: &[u16], v: u64| {
                seen.fetch_max(v, Ordering::Relaxed);
            })
        };
        let engine = Engine::start(
            Arc::clone(&fib),
            EngineConfig::new(1).pin_workers(false).on_batch(hook),
        );
        let ingress = engine.ingress();
        let control = engine.control();
        let batch: Arc<[u32]> = Arc::from(vec![0x0A00_0001u32]);

        control.announce(p4("12.0.0.0/8"), 3).unwrap();
        let t = engine.telemetry();
        while t.publishes.get() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let published = t.published_version.get();
        assert!(published >= 2, "initial insert + announce");
        // A batch served after the publish must see that version.
        while ingress.try_submit(Arc::clone(&batch)).is_err() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = engine.shutdown(Duration::from_secs(10));
        assert!(report.drained_clean);
        assert_eq!(seen_versions.load(Ordering::Relaxed), published);
    }

    #[test]
    fn vrf_batches_and_updates_route_to_the_addressed_tenant() {
        let fib = shared(&[("10.0.0.0/8", 1)]);
        let cfg = PoptrieConfig::new().direct_bits(16).build().unwrap();
        let vrfs = Arc::new(VrfTable::<u32>::shared(cfg, 1 << 16));
        let a = vrfs.create();
        let b = vrfs.create();

        let served: Served = Arc::new(Mutex::new(Vec::new()));
        let hook = {
            let served = Arc::clone(&served);
            Arc::new(move |w: usize, _k: &[u32], out: &[u16], _v: u64| {
                served.lock().unwrap().push((w, out.to_vec()));
            })
        };
        let engine = Engine::start(
            Arc::clone(&fib),
            EngineConfig::new(1)
                .pin_workers(false)
                .vrfs(Arc::clone(&vrfs))
                .on_batch(hook),
        );
        let control = engine.control();
        let ingress = engine.ingress();

        // Same prefix, three tables, three different answers: the (VRF,
        // prefix) coalescing key must keep all three.
        control
            .send_vrf(a, RouteUpdate::Announce(p4("10.0.0.0/8"), 11))
            .unwrap();
        control
            .send_vrf(b, RouteUpdate::Announce(p4("10.0.0.0/8"), 22))
            .unwrap();
        control.announce(p4("11.0.0.0/8"), 7).unwrap();
        // Hostile ids are refused at the edge, drop counted.
        assert!(control
            .send_vrf(VrfId::new(99), RouteUpdate::Announce(p4("12.0.0.0/8"), 9))
            .is_err());

        let t = engine.telemetry();
        while t.update_events.get() < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(vrfs.get(a).unwrap().lookup(0x0A00_0001), Some(11));
        assert_eq!(vrfs.get(b).unwrap().lookup(0x0A00_0001), Some(22));
        assert_eq!(fib.lookup(0x0A00_0001), Some(1), "engine FIB untouched");
        assert_eq!(fib.lookup(0x0B00_0001), Some(7));

        let batch: Arc<[u32]> = Arc::from(vec![0x0A00_0001u32]);
        while ingress.try_submit_vrf(a, Arc::clone(&batch)).is_err() {
            std::thread::sleep(Duration::from_millis(1));
        }
        while ingress.try_submit_vrf(b, Arc::clone(&batch)).is_err() {
            std::thread::sleep(Duration::from_millis(1));
        }
        while ingress.try_submit(Arc::clone(&batch)).is_err() {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(ingress
            .try_submit_vrf(VrfId::new(99), Arc::clone(&batch))
            .is_err());

        let report = engine.shutdown(Duration::from_secs(10));
        assert!(report.drained_clean);
        let answers: Vec<u16> = served
            .lock()
            .unwrap()
            .iter()
            .map(|(_, out)| out[0])
            .collect();
        // One batch per table, each answered from its own snapshot.
        assert_eq!(answers.len(), 3);
        for nh in [11, 22, 1] {
            assert!(answers.contains(&nh), "missing answer {nh} in {answers:?}");
        }
        assert_eq!(report.vrf_batches, 2);
        assert_eq!(report.vrf_packets, 2);
        assert_eq!(report.vrf_updates, 2);
        assert_eq!(report.updates_applied, 1, "only the engine announce");
        assert_eq!(report.update_events, 3);
        assert_eq!(report.convergence.samples, 3);
        assert_eq!(report.control_dropped, 1, "the hostile send_vrf");
        assert_eq!(report.dropped_batches, 1, "the hostile try_submit_vrf");
        vrfs.audit().unwrap();
    }
}
