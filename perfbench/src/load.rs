//! The load thread: a closed-loop saturation feeder, an open-loop
//! fixed-rate generator and a control-plane saturation sender. All three
//! run on the calling thread, which `main` pins to its own core.

use std::net::IpAddr;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use poptrie::sync::{RouteUpdate, SharedFib};
use poptrie::VrfId;
use poptrie_bgp::{Event, Message, NextHopInterner, OpenMsg, RouteEvent, Session, SessionConfig};

use crate::inputs::{nh_addr, Feed, Inputs, Plan};
use crate::spans::SpanLog;
use crate::stack::{Stack, MODE_COUNT, MODE_LATENCY};
use crate::util::{median, now_ns, quantile, spin_ns, windowed_quantile};

/// Throughput windows: rates are the median of many short windows, not
/// one long mean, so a stall of the shared host moves one window only.
const SAT_WINDOW_NS: u64 = 100_000_000;
const CTRL_WINDOW_NS: u64 = 50_000_000;
/// Windows dropped at the start of a saturation phase while caches warm.
const WARMUP_WINDOWS: usize = 2;
/// Latency windows of the fixed-rate phase: each window's quantile is
/// taken, then the median across windows.
pub const LAT_WINDOWS: usize = 20;
/// Back-off after a refused submit, ns: a few batches' service time, and
/// spent without touching memory the worker writes.
const BACKOFF_NS: u64 = 2_000;
/// Batches the saturation feeder keeps queued or in service: half the
/// engine's default 64-batch queue, tens of microseconds of work, so the
/// worker never idles. Waiting on the served count instead of retrying a
/// full queue keeps the feeder off the queue's lock: retries contending
/// for it made the delivered rate depend on where the host placed the
/// two vCPUs.
const SAT_IN_FLIGHT: u64 = 32;
/// Poll interval of the saturation feeder while its batches are in
/// flight, ns.
const SAT_POLL_NS: u64 = 250;
/// After a refused control send, the sender waits for the writer to drain
/// this many events: one default coalesce window.
const REFILL_EVENTS: u64 = 256;
/// The fixed-rate generator yields its core while the next send is at
/// least this far off, ns.
const YIELD_NS: u64 = 5_000;
/// The control-saturation phase replays the whole rest of the feed, so
/// the final tables (and `bytes_per_route`) depend on the seed alone; a
/// phase that has not finished by this deadline makes the run invalid.
const CTRL_DEADLINE_NS: u64 = 60_000_000_000;

/// A BGP peer session in Established, its next-hop interner seeded so
/// the dense index of `10.0.0.n` is `n`.
pub struct Peer {
    session: Session,
    interner: NextHopInterner,
}

impl Peer {
    pub fn established(max_nh: u16) -> Peer {
        let mut session = Session::new(SessionConfig::default());
        let t = now_ns();
        session.start(t);
        session.connected(t);
        let open = Message::Open(OpenMsg {
            version: 4,
            asn: 65_001,
            hold_time: 90,
            bgp_id: 0xC000_0202,
            params: Vec::new(),
        });
        session.recv(t, &open.encode());
        session.recv(t, &Message::Keepalive.encode());
        assert_eq!(
            session.state(),
            poptrie_bgp::State::Established,
            "BGP handshake failed"
        );
        session.drain_actions();
        session.drain_events();
        let mut interner = NextHopInterner::new();
        for nh in 1..=max_nh {
            interner.intern(IpAddr::V4(nh_addr(nh)));
        }
        Peer { session, interner }
    }

    /// Feed one message; returns the decoded routes (IPv4 only) and the
    /// session's span id for them.
    pub fn decode(&mut self, bytes: &[u8], out: &mut Vec<RouteUpdate<u32>>) -> u64 {
        self.session.recv(now_ns(), bytes);
        out.clear();
        let mut span = 0;
        for ev in self.session.drain_events() {
            if let Event::Routes { span: s, routes } = ev {
                span = s;
                for r in routes {
                    match r {
                        RouteEvent::AnnounceV4(p, nh) => out.push(RouteUpdate::Announce(
                            p,
                            self.interner.intern(IpAddr::V4(nh)),
                        )),
                        RouteEvent::WithdrawV4(p) => out.push(RouteUpdate::Withdraw(p)),
                        RouteEvent::AnnounceV6(..) | RouteEvent::WithdrawV6(..) => {}
                    }
                }
            }
        }
        span
    }
}

/// Everything the control plane accepted, in acceptance order: the
/// oracle replays exactly this.
#[derive(Default)]
pub struct Accepted {
    pub engine: Vec<RouteUpdate<u32>>,
    pub vrf: Vec<(VrfId, RouteUpdate<u32>)>,
}

pub struct SatResult {
    pub mlps: f64,
    /// Window rates after warm-up, Mlps, in time order.
    pub rates: Vec<f64>,
    pub attempts: u64,
    pub refused: u64,
    pub busy_threads: f64,
}

/// Closed loop: keep `SAT_IN_FLIGHT` batches queued or in service for
/// `secs`, cycling the batch pool from `cursor`.
pub fn saturation(
    stack: &mut Stack,
    inputs: &Inputs,
    cursor: &mut usize,
    secs: f64,
    spans: Option<&mut SpanLog>,
) -> SatResult {
    let cpu0 = crate::util::process_cpu_s();
    let start = now_ns();
    let end = start + (secs * 1e9) as u64;
    let mut next_win = start;
    let mut last: Option<(u64, u64)> = None;
    let mut rates = Vec::new();
    let (mut attempts, mut refused) = (0u64, 0u64);
    let mut spans = spans;
    let served = &Arc::clone(&stack.probe).served;
    for poll in 1u64.. {
        if stack.accepted - served.load(Relaxed) >= SAT_IN_FLIGHT {
            spin_ns(SAT_POLL_NS);
        } else {
            let t0 = if spans.is_some() { now_ns() } else { 0 };
            let ok = stack.submit(inputs, *cursor);
            if let Some(log) = spans.as_deref_mut() {
                log.sampled("engine.submit", t0, now_ns(), attempts);
            }
            attempts += 1;
            if ok {
                *cursor += 1;
            } else {
                refused += 1;
                spin_ns(BACKOFF_NS);
            }
        }
        if poll % 32 == 0 {
            let t = now_ns();
            if t >= next_win {
                let pk = stack.telemetry.total_packets();
                if let Some((t_prev, pk_prev)) = last {
                    rates.push((pk - pk_prev) as f64 / (t - t_prev) as f64 * 1e3);
                }
                last = Some((t, pk));
                next_win += SAT_WINDOW_NS;
            }
            if t >= end {
                break;
            }
        }
    }
    let wall = (now_ns() - start) as f64 / 1e9;
    stack.drain_batches();
    let kept: Vec<f64> = rates.iter().skip(WARMUP_WINDOWS).copied().collect();
    SatResult {
        mlps: median(&mut kept.clone()),
        rates: kept,
        attempts,
        refused,
        busy_threads: (crate::util::process_cpu_s() - cpu0) / wall,
    }
}

/// One update handed to the control plane in the fixed-rate phase.
#[derive(Clone, Copy)]
pub struct ConvRec {
    /// Index among all engine-FIB update events accepted since start
    /// (the writer drains them in this order).
    pub idx: u64,
    /// When it was handed to `Session::recv` / `Control::send`.
    pub t0: u64,
    /// When `Control::send` returned (the decode ends where send starts).
    pub t_send: u64,
    pub t_sent: u64,
}

pub struct FixedResult {
    pub lat_p50_us: f64,
    pub lat_p99_us: f64,
    pub lat_samples: usize,
    pub late_p99_us: f64,
    pub late_max_us: f64,
    /// The generator ended its phase more than 1% of its schedule behind.
    pub behind: bool,
    pub offered_pkts: u64,
    /// Submits the engine refused (each retried until accepted).
    pub refusals: u64,
    pub offered_upds: u64,
    pub refused_upds: u64,
    pub decode_mismatches: u64,
    /// Engine-FIB updates: one record per accepted route.
    pub conv: Vec<ConvRec>,
    /// VRF updates: handed-to-visible convergence, µs, and when each
    /// new tenant version became visible (tenant, version, ns).
    pub vrf_conv_us: Vec<f64>,
    pub vrf_visible: Vec<(u32, u64, u64)>,
    pub busy_threads: f64,
}

/// Open loop at a constant packet rate, plus the plan's update rate, for
/// `secs`. Each batch is timed from the moment it
/// was due, so a stalled generator or worker shows as latency.
#[allow(clippy::too_many_arguments)]
pub fn fixed_rate(
    stack: &mut Stack,
    inputs: &Inputs,
    plan: &Plan,
    cursor: &mut usize,
    feed_pos: &mut usize,
    peer: &mut Option<Peer>,
    accepted: &mut Accepted,
    secs: f64,
    mut spans: Option<&mut SpanLog>,
) -> FixedResult {
    let probe = Arc::clone(&stack.probe);
    let period = (plan.batch_keys as f64 / plan.pkt_rate * 1e9) as u64;
    // Updates are counted in routes; a BGP message carries several.
    let upd_period = match &inputs.feed {
        Feed::Bgp(m) => {
            let per_msg = m.iter().map(|m| m.routes.len()).sum::<usize>() as f64 / m.len() as f64;
            (per_msg / plan.upd_rate * 1e9) as u64
        }
        _ => (1.0 / plan.upd_rate * 1e9) as u64,
    };
    let batches_planned = (secs * 1e9 / period as f64) as usize;
    probe.lat_base.store(stack.accepted, Relaxed);
    probe.mode.store(MODE_LATENCY, Relaxed);
    let lat_base = stack.accepted;
    let cpu0 = crate::util::process_cpu_s();
    let start = now_ns();
    let end = start + (secs * 1e9) as u64;
    let mut next_due = start;
    let mut next_upd = start + upd_period / 2;
    let mut late: Vec<f64> = Vec::with_capacity(batches_planned + 16);
    let mut r = FixedResult {
        lat_p50_us: f64::NAN,
        lat_p99_us: f64::NAN,
        lat_samples: 0,
        late_p99_us: f64::NAN,
        late_max_us: f64::NAN,
        behind: false,
        offered_pkts: 0,
        refusals: 0,
        offered_upds: 0,
        refused_upds: 0,
        decode_mismatches: 0,
        conv: Vec::new(),
        vrf_conv_us: Vec::new(),
        vrf_visible: Vec::new(),
        busy_threads: 0.0,
    };
    let mut decoded = Vec::new();
    // VRF convergence probes: (tenant FIB, version that shows the
    // update, tenant, handed-over time), oldest first.
    let mut pending: std::collections::VecDeque<(Arc<SharedFib<u32>>, u64, u32, u64)> =
        Default::default();
    let mut tenant_version: Vec<u64> = match &stack.vrfs {
        Some(v) => (0..v.len())
            .map(|t| stack.tenant_fib(VrfId::new(t as u32)).version())
            .collect(),
        None => Vec::new(),
    };
    loop {
        let now = now_ns();
        if now >= end {
            break;
        }
        if now >= next_due {
            // A refused batch stays due and is offered again: the
            // generator stands for a NIC ring in front of the engine, so
            // back-pressure shows as latency from the due time.
            probe.set_due(stack.accepted, next_due);
            let ok = stack.submit(inputs, *cursor);
            if ok {
                let sent = now_ns();
                late.push((now - next_due) as f64);
                if let Some(log) = spans.as_deref_mut() {
                    log.sampled_batch(stack.accepted - 1, next_due, now, sent);
                }
                *cursor += 1;
                r.offered_pkts += plan.batch_keys as u64;
                next_due += period;
                continue;
            }
            r.refusals += 1;
            spin_ns(BACKOFF_NS);
        }
        if now >= next_upd && *feed_pos < inputs.fixed_items {
            next_upd += upd_period;
            let i = *feed_pos;
            *feed_pos += 1;
            match &inputs.feed {
                Feed::Bgp(msgs) => {
                    let peer = peer.as_mut().expect("the BGP workload has a peer");
                    let span = peer.decode(&msgs[i].bytes, &mut decoded);
                    if decoded != msgs[i].routes {
                        r.decode_mismatches += 1;
                    }
                    for &u in &decoded {
                        r.offered_upds += 1;
                        let t_send = now_ns();
                        if stack.control.send_spanned(span, u).is_ok() {
                            r.conv.push(ConvRec {
                                idx: accepted.engine.len() as u64,
                                t0: now,
                                t_send,
                                t_sent: now_ns(),
                            });
                            accepted.engine.push(u);
                        } else {
                            r.refused_upds += 1;
                        }
                    }
                }
                Feed::Vrf(v) => {
                    let (vrf, u) = v[i];
                    r.offered_upds += 1;
                    if stack.control.send_vrf(vrf, u).is_ok() {
                        let t = vrf.index();
                        tenant_version[t] += 1;
                        pending.push_back((
                            stack.tenant_fib(vrf),
                            tenant_version[t],
                            t as u32,
                            now,
                        ));
                        accepted.vrf.push((vrf, u));
                    } else {
                        r.refused_upds += 1;
                    }
                }
            }
            continue;
        }
        if let Some((fib, want, t, t0)) = pending.front() {
            if fib.version() >= *want {
                let seen = now_ns();
                r.vrf_conv_us.push((seen - t0) as f64 / 1e3);
                r.vrf_visible.push((*t, *want, seen));
                pending.pop_front();
                continue;
            }
        }
        // Idle until the next due time. Yielding rather than spinning
        // lets the engine's writer, which has no core of its own, run at
        // once when the scheduler placed it on this core.
        if next_due.min(next_upd) > now + YIELD_NS {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
    let wall = (now_ns() - start) as f64 / 1e9;
    // Schedule slack: the generator may end a few batches short; more
    // than 1% short means it could not keep its schedule.
    let sent = late.len();
    r.behind = sent + (batches_planned / 100).max(16) < batches_planned;
    stack.drain_batches();
    probe.mode.store(MODE_COUNT, Relaxed);
    r.busy_threads = (crate::util::process_cpu_s() - cpu0) / wall;
    r.late_p99_us = quantile(&mut late, 0.99) / 1e3;
    r.late_max_us = late.last().copied().unwrap_or(0.0) / 1e3;
    let n = ((stack.accepted - lat_base) as usize).min(probe.lat.len());
    let lat: Vec<f64> = probe.lat[..n]
        .iter()
        .map(|a| a.load(Relaxed) as f64 / 1e3)
        .collect();
    r.lat_samples = n;
    r.lat_p50_us = windowed_quantile(&lat, LAT_WINDOWS, 0.5);
    r.lat_p99_us = windowed_quantile(&lat, LAT_WINDOWS, 0.99);
    if let Some(log) = spans {
        log.close_batches(lat_base, &lat);
    }
    // Outstanding VRF probes still converge; wait for them briefly.
    let deadline = now_ns() + 1_000_000_000;
    while let Some((fib, want, t, t0)) = pending.front() {
        if fib.version() >= *want {
            let seen = now_ns();
            r.vrf_conv_us.push((seen - t0) as f64 / 1e3);
            r.vrf_visible.push((*t, *want, seen));
            pending.pop_front();
        } else if now_ns() > deadline {
            break;
        } else {
            std::hint::spin_loop();
        }
    }
    r
}

pub struct CtrlResult {
    pub upd_per_s: f64,
    /// Window rates after the first, routes/s, in time order.
    pub rates: Vec<f64>,
    pub routes: u64,
    pub busy_threads: f64,
    /// Engine-FIB publishes and update events during the phase (from the
    /// engine's counters), and coalesced events.
    pub publishes: u64,
    pub events: u64,
    pub coalesced: u64,
    pub decode_mismatches: u64,
    /// The whole feed was sent before the deadline.
    pub complete: bool,
}

/// Replay the rest of the feed as fast as the control channel accepts
/// it, the dataplane idle. A refused send is back-pressure here: the
/// sender backs off and retries.
pub fn control_saturation(
    stack: &mut Stack,
    inputs: &Inputs,
    feed_pos: &mut usize,
    peer: &mut Option<Peer>,
    accepted: &mut Accepted,
    home_core: usize,
) -> CtrlResult {
    // The dataplane is idle: the load thread moves to the worker's core
    // so the writer, which shares the load thread's core otherwise, has
    // a core to itself.
    let moved = poptrie_engine::pin_current_thread(0);
    let tel = Arc::clone(&stack.telemetry);
    let events0 = tel.update_events.get();
    let publishes0 = tel.publishes.get();
    let coalesced0 = tel.updates_coalesced.get();
    let cpu0 = crate::util::process_cpu_s();
    let start = now_ns();
    let end = start + CTRL_DEADLINE_NS;
    let mut next_win = start;
    let mut last: Option<(u64, u64)> = None;
    let mut rates = Vec::new();
    let mut routes = 0u64;
    let mut decode_mismatches = 0u64;
    let mut decoded = Vec::new();
    // A refused send waits until the writer has drained one burst, so
    // the sender does not contend for the channel lock while it works.
    let send = |stack: &Stack, vrf: Option<VrfId>, mut u: RouteUpdate<u32>, span: u64| loop {
        let r = match vrf {
            Some(v) => stack.control.send_vrf(v, u),
            None => stack.control.send_spanned(span, u),
        };
        match r {
            Ok(()) => return,
            Err(back) => {
                u = back;
                let want = stack.telemetry.update_events.get() + REFILL_EVENTS;
                let give_up = now_ns() + 10_000_000;
                while stack.telemetry.update_events.get() < want && now_ns() < give_up {
                    spin_ns(1_000);
                }
            }
        }
    };
    while *feed_pos < inputs.feed.len() {
        let i = *feed_pos;
        *feed_pos += 1;
        match &inputs.feed {
            Feed::Bgp(msgs) => {
                let peer = peer.as_mut().expect("the BGP workload has a peer");
                let span = peer.decode(&msgs[i].bytes, &mut decoded);
                if decoded != msgs[i].routes {
                    decode_mismatches += 1;
                }
                for &u in &decoded {
                    send(stack, None, u, span);
                    accepted.engine.push(u);
                    routes += 1;
                }
            }
            Feed::Vrf(v) => {
                let (vrf, u) = v[i];
                send(stack, Some(vrf), u, 0);
                accepted.vrf.push((vrf, u));
                routes += 1;
            }
        }
        if i.is_multiple_of(16) {
            let t = now_ns();
            if t >= next_win {
                let ev = tel.update_events.get();
                if let Some((t_prev, ev_prev)) = last {
                    rates.push((ev - ev_prev) as f64 / (t - t_prev) as f64 * 1e9);
                }
                last = Some((t, ev));
                next_win += CTRL_WINDOW_NS;
            }
            if t >= end {
                break;
            }
        }
    }
    let sent_total = (accepted.engine.len() + accepted.vrf.len()) as u64;
    stack.drain_updates(sent_total);
    let wall = (now_ns() - start) as f64 / 1e9;
    if moved {
        poptrie_engine::pin_current_thread(home_core);
    }
    let kept: Vec<f64> = rates.iter().skip(1).copied().collect();
    CtrlResult {
        upd_per_s: median(&mut kept.clone()),
        rates: kept,
        routes,
        busy_threads: (crate::util::process_cpu_s() - cpu0) / wall,
        complete: *feed_pos == inputs.feed.len(),
        publishes: tel.publishes.get() - publishes0,
        events: tel.update_events.get() - events0,
        coalesced: tel.updates_coalesced.get() - coalesced0,
        decode_mismatches,
    }
}
