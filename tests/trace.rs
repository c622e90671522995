//! End-to-end flight-recorder tests (DESIGN.md §7), compiled only
//! with `--features observe`.
//!
//! The ring-level invariants (wraparound, writer-vs-drainer race,
//! deterministic sampling gate) live in `poptrie-trace`'s own suite;
//! these tests exercise the cross-crate promises: a convergence span
//! allocated by the BGP session must surface in the drained rings as
//! writer apply, a publish of its version and a worker snapshot adoption
//! covering it, and in the Chrome trace export of those rings; and the
//! engine's per-batch sampling must be
//! deterministic — the same offered batch count yields the same event
//! count, full or sampled.

#![cfg(feature = "observe")]

use poptrie::sync::{RouteUpdate, SharedFib};
use poptrie::PoptrieConfig;
use poptrie_bgp::wire::{Message, OpenMsg, UpdateMsg};
use poptrie_bgp::{Event, NextHopInterner, RouteEvent, Session, SessionConfig, State};
use poptrie_engine::{Engine, EngineConfig};
use poptrie_rib::{Prefix, RadixTree};
use poptrie_telemetry::json::Json;
use poptrie_trace::{chrome_trace_json, EventKind, Recorder, TraceConfig};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;
use std::time::Duration;

fn empty_fib() -> Arc<SharedFib<u32>> {
    let pcfg = PoptrieConfig::new().direct_bits(16).build().unwrap();
    Arc::new(SharedFib::compile(RadixTree::new(), pcfg))
}

/// Establish a session with an in-memory handshake.
fn established_session() -> Session {
    let mut session = Session::new(SessionConfig::default());
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
    assert_eq!(session.state(), State::Established);
    session
}

#[test]
fn span_chain_reaches_a_publish_and_a_lookup() {
    const UPDATES: u32 = 32;
    let rec = Recorder::new(TraceConfig {
        capacity: 1 << 12,
        sample: 1,
    });
    let driver = rec.register("driver");
    let engine = Engine::start(
        empty_fib(),
        EngineConfig::new(2)
            .pin_workers(false)
            .coalesce_window(8)
            .recorder(rec.clone()),
    );
    let control = engine.control();
    let ingress = engine.ingress();

    // The session allocates the spans; the driver forwards them.
    let mut session = established_session();
    for i in 1..=UPDATES {
        session.recv(
            10 + u64::from(i),
            &Message::Update(UpdateMsg {
                announced_v4: vec![Prefix::new(i << 16, 16)],
                next_hop_v4: Some(Ipv4Addr::new(192, 0, 2, (i % 250 + 1) as u8)),
                ..UpdateMsg::default()
            })
            .encode(),
        );
    }
    let mut interner = NextHopInterner::new();
    let mut forwarded = 0u64;
    for ev in session.drain_events() {
        if let Event::Routes { span, routes } = ev {
            driver.record(EventKind::SpanAccept, span, routes.len() as u64, 0);
            for r in routes {
                let mut u = match r {
                    RouteEvent::AnnounceV4(p, nh) => {
                        RouteUpdate::Announce(p, interner.intern(IpAddr::V4(nh)))
                    }
                    RouteEvent::WithdrawV4(p) => RouteUpdate::Withdraw(p),
                    _ => continue,
                };
                loop {
                    match control.send_spanned(span, u) {
                        Ok(()) => break,
                        Err(back) => {
                            u = back;
                            std::thread::sleep(Duration::from_micros(50));
                        }
                    }
                }
                forwarded += 1;
            }
        }
    }
    assert_eq!(forwarded, u64::from(UPDATES));
    assert_eq!(session.spans_allocated(), u64::from(UPDATES));

    // Let the writer apply everything, then serve one batch per worker
    // so each adopts the final version.
    while control.pending() > 0 {
        std::thread::sleep(Duration::from_micros(200));
    }
    std::thread::sleep(Duration::from_millis(20));
    let keys: Arc<[u32]> = Arc::from((0..256u32).map(|i| i << 16).collect::<Vec<u32>>());
    for w in 0..engine.workers() {
        let mut batch = Arc::clone(&keys);
        while let Err(back) = ingress.try_submit_to(w, batch) {
            batch = back;
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    std::thread::sleep(Duration::from_millis(20));
    engine.shutdown(Duration::from_secs(30));

    let rings = rec.drain();
    assert_eq!(
        rings.iter().map(|r| r.overwritten).sum::<u64>(),
        0,
        "rings sized for the workload must not overwrite"
    );
    let mut accepted = std::collections::HashSet::new();
    let mut applied = std::collections::HashMap::new();
    let mut published = std::collections::HashSet::new();
    let mut adopted_max = 0u64;
    for ring in &rings {
        for ev in &ring.events {
            match ev.event_kind() {
                Some(EventKind::SpanAccept) => {
                    accepted.insert(ev.span);
                }
                Some(EventKind::UpdateApply) => {
                    applied.insert(ev.span, ev.arg);
                }
                Some(EventKind::Publish) => {
                    published.insert(ev.arg);
                }
                Some(EventKind::SnapshotAdopt) => adopted_max = adopted_max.max(ev.arg),
                _ => {}
            }
        }
    }
    assert_eq!(accepted.len(), UPDATES as usize, "every span accepted");
    for span in &accepted {
        let version = applied
            .get(span)
            .unwrap_or_else(|| panic!("span {span} accepted but never applied"));
        assert!(
            published.contains(version),
            "span {span} applied at version {version} but no publish recorded it"
        );
        assert!(
            *version <= adopted_max,
            "span {span} published as version {version} but max adopted is {adopted_max}"
        );
    }

    // The Perfetto-loadable export names each of those events, one
    // `trace/publish` per publish the span summary counts.
    let chrome = chrome_trace_json(&rings);
    let events = chrome.pointer("/traceEvents").and_then(Json::as_array);
    let named = |name: &str| {
        let is = |ev: &&Json| ev.get("name").and_then(Json::as_str) == Some(name);
        events.expect("traceEvents").iter().filter(is).count()
    };
    assert!(named("trace/lookup_batch") > 0 && named("trace/span_accept") > 0);
    assert_eq!(named("trace/publish"), published.len());
    assert!(!published.is_empty());
}

/// The same deterministic batch count through a one-worker engine must
/// produce exactly the expected number of lookup slices: all of them at
/// sample 1, one in four at sample 4, with the complement accounted in
/// the ring's sampled-out counter.
#[test]
fn engine_sampling_is_deterministic() {
    const BATCHES: u64 = 256;

    fn lookup_starts(sample: u64) -> (u64, u64) {
        let rec = Recorder::new(TraceConfig {
            capacity: 1 << 12,
            sample,
        });
        let engine = Engine::start(
            empty_fib(),
            EngineConfig::new(1)
                .pin_workers(false)
                .recorder(rec.clone()),
        );
        let ingress = engine.ingress();
        let keys: Arc<[u32]> = Arc::from((0..64u32).collect::<Vec<u32>>());
        for _ in 0..BATCHES {
            let mut batch = Arc::clone(&keys);
            while let Err(back) = ingress.try_submit_to(0, batch) {
                batch = back;
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        engine.shutdown(Duration::from_secs(30));
        let rings = rec.drain();
        assert_eq!(rings.iter().map(|r| r.overwritten).sum::<u64>(), 0);
        let starts = rings
            .iter()
            .flat_map(|r| r.events.iter())
            .filter(|ev| ev.event_kind() == Some(EventKind::LookupStart))
            .count() as u64;
        let sampled_out = rings.iter().map(|r| r.sampled_out).sum::<u64>();
        (starts, sampled_out)
    }

    let (full, full_out) = lookup_starts(1);
    assert_eq!((full, full_out), (BATCHES, 0));
    let (sampled, sampled_out) = lookup_starts(4);
    assert_eq!(
        (sampled, sampled_out),
        (BATCHES / 4, BATCHES - BATCHES / 4),
        "1-in-4 sampling must keep exactly every fourth batch"
    );
}
