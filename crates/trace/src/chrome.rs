//! Chrome trace-event JSON export (Perfetto-loadable).
//!
//! The drained rings become one JSON object in the [Trace Event
//! Format]: each ring is a synthetic thread (`tid` = ring order,
//! named by a metadata event), `LookupStart`/`LookupEnd` pairs fold
//! into complete (`"ph":"X"`) slices with real durations, and every
//! other event is an instant (`"ph":"i"`). Span IDs, snapshot
//! versions and counts ride in `args`, so following one convergence
//! span in the Perfetto UI is a query on `args.span`.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! Timestamps are microseconds (the format's unit) with nanosecond
//! decimals preserved.

use crate::event::{unpack_worker_tier, EventKind, TraceEvent};
use crate::ring::RingSnapshot;
use poptrie_telemetry::json;
use poptrie_telemetry::json::Json;

/// Human names for the dispatch-tier codes packed into lookup events.
fn tier_name(tier: u32) -> &'static str {
    match tier {
        1 => "avx2",
        2 => "avx512",
        _ => "scalar",
    }
}

/// Nanoseconds as the format's microseconds.
fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// The event name emitted for each kind. These literals exist only in
/// this crate, so the CI gate can grep release artifacts for
/// `trace/lookup_batch` to prove a default (trace-disabled) build
/// links no recorder code.
fn kind_name(kind: EventKind) -> &'static str {
    match kind {
        EventKind::IngressEnqueue => "trace/ingress_enqueue",
        EventKind::BatchDequeue => "trace/batch_dequeue",
        EventKind::LookupStart | EventKind::LookupEnd => "trace/lookup_batch",
        EventKind::WriterBurst => "trace/writer_burst",
        EventKind::UpdateApply => "trace/update_apply",
        EventKind::Publish => "trace/publish",
        EventKind::SnapshotAdopt => "trace/snapshot_adopt",
        EventKind::SpanAccept => "trace/span_accept",
        EventKind::BgpTransition => "trace/bgp_transition",
    }
}

fn instant(ev: &TraceEvent, kind: EventKind, tid: usize) -> Json {
    let aux = ev.aux;
    let args = match kind {
        EventKind::IngressEnqueue => json!({"packets": ev.arg, "worker": aux}),
        EventKind::BatchDequeue => json!({"wait_ns": ev.arg, "worker": aux}),
        EventKind::WriterBurst => json!({"events": ev.arg, "coalesced": aux}),
        EventKind::UpdateApply => json!({"span": ev.span, "version": ev.arg}),
        EventKind::Publish => json!({"version": ev.arg}),
        EventKind::SnapshotAdopt => json!({"version": ev.arg, "worker": aux}),
        EventKind::SpanAccept => json!({"span": ev.span, "routes": ev.arg}),
        EventKind::BgpTransition => json!({"to": ev.arg, "from": aux}),
        EventKind::LookupStart | EventKind::LookupEnd => unreachable!("folded into slices"),
    };
    json!({
        "name": kind_name(kind), "ph": "i", "pid": 1, "tid": tid, "ts": us(ev.ts_ns),
        "s": "t", "args": args,
    })
}

/// Drained rings as one Chrome trace-event JSON document.
pub fn chrome_trace_json(rings: &[RingSnapshot]) -> Json {
    let mut events = Vec::new();
    for (tid, ring) in rings.iter().enumerate() {
        let tid = tid + 1;
        events.push(json!({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": json!({"name": ring.name.as_str()}),
        }));
        // Fold Start/End pairs into complete slices; a Start without
        // its End (overwritten, or sampling raced the drain) degrades
        // to an instant-free skip rather than a malformed slice.
        let mut pending_start: Option<&TraceEvent> = None;
        for ev in &ring.events {
            let Some(kind) = ev.event_kind() else {
                continue;
            };
            match kind {
                EventKind::LookupStart => pending_start = Some(ev),
                EventKind::LookupEnd => {
                    if let Some(start) = pending_start.take() {
                        let (worker, tier) = unpack_worker_tier(ev.aux);
                        events.push(json!({
                            "name": kind_name(kind), "ph": "X", "pid": 1, "tid": tid,
                            "ts": us(start.ts_ns), "dur": us(ev.ts_ns.saturating_sub(start.ts_ns)),
                            "cat": tier_name(tier),
                            "args": json!({
                                "keys": start.arg, "service_ns": ev.arg,
                                "worker": worker, "tier": tier,
                            }),
                        }));
                    }
                }
                other => events.push(instant(ev, other, tid)),
            }
        }
    }
    json!({"displayTimeUnit": "ns", "traceEvents": events})
}
