//! End-to-end tests of the BGP control-plane path: the checked-in
//! BGP4MP fixture parses with exact announce/withdraw accounting, a
//! session-driven replay through the engine's writer survives a
//! mid-message session flap and reconverges to the RIB oracle exactly,
//! the writer survives a poisoned publish
//! burst (panic is caught, counted and the writer resumes), and the
//! out-of-range engine entry points return errors instead of
//! panicking.

use poptrie_suite::bgp::wire::{Message, OpenMsg};
use poptrie_suite::bgp::{Event, NextHopInterner, RouteEvent, Session, SessionConfig, State};
use poptrie_suite::engine::{BadIndex, Engine, EngineConfig};
use poptrie_suite::poptrie::sync::{RouteUpdate, SharedFib};
use poptrie_suite::poptrie::PoptrieConfig;
use poptrie_suite::rib::NO_ROUTE;
use poptrie_suite::tablegen::mrt::parse_bgp4mp;
use poptrie_suite::{NextHop, RadixTree};
use std::net::IpAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FIXTURE: &str = "tests/data/updates.bgp4mp";

fn pcfg() -> PoptrieConfig {
    PoptrieConfig::new().direct_bits(8).build().unwrap()
}

fn handshake(s: &mut Session, now: u64) {
    s.connected(now);
    s.recv(
        now,
        &Message::Open(OpenMsg {
            version: 4,
            asn: 65_001,
            hold_time: 90,
            bgp_id: 0xC000_0201,
            params: Vec::new(),
        })
        .encode(),
    );
    s.recv(now, &Message::Keepalive.encode());
    assert_eq!(s.state(), State::Established);
}

/// The fixture is a fixed, checked-in artifact: 48 announced prefixes,
/// then 36 churn UPDATEs. The replay below gates on this accounting.
#[test]
fn fixture_parses_with_exact_accounting() {
    let bytes = std::fs::read(FIXTURE).expect("checked-in fixture");
    let trace = parse_bgp4mp(&bytes).expect("fixture is well-formed");
    assert_eq!(trace.records.len(), 84);
    assert_eq!(trace.accounting(), (73, 11));
    // Encode/parse round trip preserves every record.
    let again = parse_bgp4mp(&trace.encode()).unwrap();
    assert_eq!(again.records, trace.records);
    // Replay offsets are monotone and anchored at zero.
    let offsets = trace.replay_offsets_us(1.0);
    assert_eq!(offsets[0], 0);
    assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
}

/// Replay the fixture through the session FSM into the engine writer,
/// with the session torn down halfway through a message and lookups
/// served while it is down. The peer reconnects and resends from that
/// message: the session counts every route exactly once, the writer
/// drains every update, and the served FIB matches a RIB oracle route
/// for route, with a non-empty convergence-lag histogram.
#[test]
fn session_replay_reconverges_exactly() {
    let bytes = std::fs::read(FIXTURE).expect("checked-in fixture");
    let trace = parse_bgp4mp(&bytes).unwrap();

    // Oracle: the trace applied to a RadixTree, next hops densified in
    // arrival order — the same procedure the replay uses.
    let mut oracle: RadixTree<u32, NextHop> = RadixTree::new();
    let mut oracle_interner = NextHopInterner::new();
    let mut touched = Vec::new();
    for r in &trace.records {
        if let Ok(Message::Update(u)) = r.parse() {
            if let Some(nh) = u.next_hop_v4 {
                let id = oracle_interner.intern(IpAddr::V4(nh));
                for p in &u.announced_v4 {
                    oracle.insert(*p, id);
                    touched.push(*p);
                }
            }
            for p in &u.withdrawn_v4 {
                oracle.remove(*p);
                touched.push(*p);
            }
        }
    }

    let fib: Arc<SharedFib<u32>> = Arc::new(SharedFib::compile(RadixTree::new(), pcfg()));
    let engine = Engine::start(
        Arc::clone(&fib),
        EngineConfig::new(1).pin_workers(false).coalesce_window(8),
    );
    let control = engine.control();
    let ingress = engine.ingress();
    let telemetry = engine.telemetry();

    let mut session = Session::new(SessionConfig::default());
    session.start(0);
    handshake(&mut session, 0);
    let mut interner = NextHopInterner::new();
    let mut sent = 0u64;
    let (mut now, cut) = (0u64, trace.records.len() / 2);
    let mut down_window_lookups = 0;
    for (i, r) in trace.records.iter().enumerate() {
        now += 1_000_000;
        if i == cut {
            session.recv(now, &r.message[..r.message.len() / 2]);
            assert!(session.mid_message(), "the flap lands mid-message");
            session.disconnected(now);
            let before = telemetry.total_packets();
            let keys: Arc<[u32]> = (0..256u32).map(|k| k << 20).collect::<Vec<_>>().into();
            assert!(
                ingress.try_submit(keys).is_ok(),
                "an idle engine takes a batch"
            );
            let deadline = Instant::now() + Duration::from_secs(10);
            while telemetry.total_packets() == before && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            down_window_lookups = telemetry.total_packets() - before;
            now = session.next_deadline().expect("ConnectRetry is armed");
            session.tick(now);
            assert_eq!(session.state(), State::Connect);
            handshake(&mut session, now);
        }
        session.recv(now, &r.message);
        session.drain_actions();
        for ev in session.drain_events() {
            if let Event::Routes { routes, .. } = ev {
                for route in routes {
                    let update = match route {
                        RouteEvent::AnnounceV4(p, nh) => {
                            RouteUpdate::Announce(p, interner.intern(IpAddr::V4(nh)))
                        }
                        RouteEvent::WithdrawV4(p) => RouteUpdate::Withdraw(p),
                        _ => continue,
                    };
                    let mut u = update;
                    while let Err(back) = control.send(u) {
                        u = back;
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    sent += 1;
                }
            }
        }
    }
    assert_eq!(session.state(), State::Established);
    let stats = session.stats();
    assert_eq!(stats.parse_errors.get(), 0);
    let counted = (stats.routes_announced.get(), stats.routes_withdrawn.get());
    assert_eq!(counted, trace.accounting(), "announce/withdraw accounting");
    assert_eq!((stats.resets.get(), stats.to_established.get()), (1, 2));
    assert!(
        down_window_lookups > 0,
        "no lookups while the session was down"
    );
    assert!(sent > 0);

    let deadline = Instant::now() + Duration::from_secs(10);
    while telemetry.update_events.get() < sent && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let report = engine.shutdown(Duration::from_secs(10));
    assert_eq!(report.update_events, sent);
    assert!(
        report.convergence.samples > 0,
        "convergence histogram empty"
    );
    assert_eq!(report.writer_respawns, 0);
    assert!(report.packets >= down_window_lookups);

    for p in &touched {
        let key = p.first_addr();
        let want = oracle.lookup(key).copied().unwrap_or(NO_ROUTE);
        let got = fib.lookup(key).unwrap_or(NO_ROUTE);
        assert_eq!(got, want, "FIB diverged from oracle at {p}");
    }
}

/// A publish hook that panics poisons the writer thread; the engine
/// must catch it, count the respawn in the report, and keep applying
/// later updates.
#[test]
fn writer_respawns_after_poisoned_publish_burst() {
    let poison = Arc::new(AtomicBool::new(true));
    let hook_poison = Arc::clone(&poison);
    let fib: Arc<SharedFib<u32>> = Arc::new(SharedFib::compile(RadixTree::new(), pcfg()));
    let engine = Engine::start(
        Arc::clone(&fib),
        EngineConfig::new(1)
            .pin_workers(false)
            .coalesce_window(4)
            .on_publish(Arc::new(move |_, _| {
                if hook_poison.load(Ordering::Relaxed) {
                    panic!("poisoned publish burst");
                }
            })),
    );
    let control = engine.control();
    let telemetry = engine.telemetry();

    control
        .send(RouteUpdate::Announce("10.0.0.0/8".parse().unwrap(), 7))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while telemetry.writer_respawns.get() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        telemetry.writer_respawns.get() >= 1,
        "writer never respawned"
    );

    // The writer is back: a clean burst must still land in the FIB.
    poison.store(false, Ordering::Relaxed);
    control
        .send(RouteUpdate::Announce("192.0.2.0/24".parse().unwrap(), 9))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while fib.lookup(0xC000_0201).is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(fib.lookup(0xC000_0201), Some(9));

    let report = engine.shutdown(Duration::from_secs(10));
    assert!(report.writer_respawns >= 1);
    // The poisoned burst was applied before the hook panicked; nothing
    // is lost across the respawn.
    assert_eq!(fib.lookup(0x0A00_0001), Some(7));
}

/// An out-of-range worker index is rejected with a typed error, never a
/// panic: this entry point takes operator input.
#[test]
fn out_of_range_indices_are_errors_not_panics() {
    let fib: Arc<SharedFib<u32>> = Arc::new(SharedFib::compile(RadixTree::new(), pcfg()));
    let engine = Engine::start(Arc::clone(&fib), EngineConfig::new(2).pin_workers(false));

    let err = engine.inject_panic(usize::MAX).unwrap_err();
    assert_eq!(
        err,
        BadIndex {
            index: usize::MAX,
            len: 2
        }
    );
    assert!(err.to_string().contains("out of range"));
    engine.inject_panic(1).unwrap(); // in range still works

    engine.shutdown(Duration::from_secs(10));
}
