//! Recorder unit tests: event wire format, ring overwrite semantics,
//! drainer-vs-writer racing, sampling determinism, export shapes.

use super::*;
use poptrie_telemetry::json::Json;

#[test]
fn event_words_round_trip() {
    let ev = TraceEvent::new(
        0x0123_4567_89AB_CDEF,
        EventKind::SnapshotAdopt,
        42,
        u64::MAX - 7,
        pack_worker_tier(3, 2),
    );
    let back = TraceEvent::from_words(ev.to_words());
    assert_eq!(back, ev);
    assert_eq!(back.event_kind(), Some(EventKind::SnapshotAdopt));
    assert_eq!(unpack_worker_tier(back.aux), (3, 2));
}

#[test]
fn unknown_kind_decodes_to_none() {
    let ev = TraceEvent {
        kind: 9999,
        ..TraceEvent::default()
    };
    assert_eq!(ev.event_kind(), None);
}

#[test]
fn ring_records_in_order_below_capacity() {
    let rec = Recorder::new(TraceConfig {
        capacity: 64,
        sample: 1,
    });
    let w = rec.register("t");
    for i in 0..50u64 {
        w.record(EventKind::WriterBurst, 0, i, 0);
    }
    let snaps = rec.drain();
    assert_eq!(snaps.len(), 1);
    assert_eq!(snaps[0].name, "t");
    assert_eq!(snaps[0].recorded, 50);
    assert_eq!(snaps[0].overwritten, 0);
    let args: Vec<u64> = snaps[0].events.iter().map(|e| e.arg).collect();
    assert_eq!(args, (0..50).collect::<Vec<_>>());
    let ts: Vec<u64> = snaps[0].events.iter().map(|e| e.ts_ns).collect();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "timestamps monotonic");
}

#[test]
fn ring_wraparound_keeps_newest_events() {
    let cap = 64usize; // already a power of two
    let rec = Recorder::new(TraceConfig {
        capacity: cap,
        sample: 1,
    });
    let w = rec.register("wrap");
    let total = 10 * cap as u64 + 17;
    for i in 0..total {
        w.record(EventKind::WriterBurst, 0, i, 0);
    }
    let snap = &rec.drain()[0];
    assert_eq!(snap.recorded, total);
    assert_eq!(snap.overwritten, total - cap as u64);
    // Overwrite-oldest: exactly the last `cap` events survive, in order.
    let args: Vec<u64> = snap.events.iter().map(|e| e.arg).collect();
    assert_eq!(args, (total - cap as u64..total).collect::<Vec<_>>());
}

/// The satellite-required race test: a writer wrapping the ring many
/// times over while a drainer snapshots concurrently. Every drained
/// event must be **whole** — its words consistent with a single push —
/// and in record order; torn slots must be skipped, not surfaced.
#[test]
fn ring_drain_races_writer_without_tearing() {
    let rec = Recorder::new(TraceConfig {
        capacity: 32,
        sample: 1,
    });
    let w = rec.register("race");
    let total: u64 = 200_000;
    let writer = std::thread::spawn(move || {
        for i in 0..total {
            // Every word derived from i: a torn event (words from two
            // different pushes) is detectable by cross-checking.
            w.record_at(i, EventKind::UpdateApply, i.wrapping_mul(3), i, i as u32);
        }
    });
    let mut drains = 0u64;
    let mut seen = 0u64;
    // Race drains against the writer, then always drain once more after
    // it finishes — a release-mode writer can complete before the first
    // racing drain lands, and the final pass deterministically holds the
    // last `capacity` events.
    loop {
        let finished = writer.is_finished();
        for snap in rec.drain() {
            let mut last = None;
            for ev in &snap.events {
                assert_eq!(ev.span, ev.ts_ns.wrapping_mul(3), "torn event surfaced");
                assert_eq!(ev.arg, ev.ts_ns, "torn event surfaced");
                assert_eq!(ev.aux, ev.ts_ns as u32, "torn event surfaced");
                assert_eq!(ev.event_kind(), Some(EventKind::UpdateApply));
                if let Some(prev) = last {
                    assert!(ev.ts_ns > prev, "drained events out of order");
                }
                last = Some(ev.ts_ns);
                seen += 1;
            }
        }
        drains += 1;
        if finished {
            break;
        }
    }
    writer.join().unwrap();
    assert!(seen >= 32, "drainer never observed a completed event");
    assert!(drains > 0);
    // Quiescent drain sees exactly the last `capacity` events.
    let snap = &rec.drain()[0];
    assert_eq!(snap.events.len(), 32);
    assert_eq!(snap.events.last().unwrap().ts_ns, total - 1);
}

#[test]
fn sampling_gate_is_deterministic() {
    for (n, offered, expect) in [
        (1u64, 100u64, 100u64),
        (4, 103, 26),
        (64, 64, 1),
        (64, 65, 2),
    ] {
        let rec = Recorder::new(TraceConfig {
            capacity: 256,
            sample: n,
        });
        let w = rec.register("s");
        let mut recorded = 0u64;
        for _ in 0..offered {
            if w.tick() {
                w.record(EventKind::WriterBurst, 0, 0, 0);
                recorded += 1;
            }
        }
        assert_eq!(recorded, expect, "sample 1-in-{n} over {offered}");
        let snap = &rec.drain()[0];
        assert_eq!(snap.recorded, expect);
        assert_eq!(snap.sampled_out, offered - expect);
    }
}

#[test]
fn span_ids_start_at_one_and_increase() {
    let rec = Recorder::with_defaults();
    assert_eq!(rec.next_span(), 1);
    assert_eq!(rec.next_span(), 2);
    let clone = rec.clone();
    assert_eq!(clone.next_span(), 3, "clones share the allocator");
}

#[test]
fn chrome_export_folds_lookup_slices() {
    let rec = Recorder::with_defaults();
    let w = rec.register("worker0");
    w.record_at(1_000, EventKind::IngressEnqueue, 0, 32, 0);
    w.record_at(2_000, EventKind::BatchDequeue, 0, 1_000, 0);
    w.record_at(2_100, EventKind::LookupStart, 0, 32, pack_worker_tier(0, 1));
    w.record_at(
        3_100,
        EventKind::LookupEnd,
        0,
        1_000,
        pack_worker_tier(0, 1),
    );
    w.record_at(3_500, EventKind::Publish, 0, 7, 0);
    w.record_at(4_000, EventKind::SnapshotAdopt, 0, 7, 3);
    // Through the rendered text, as the artifact is read back.
    let json = Json::parse(&chrome_trace_json(&rec.drain()).to_string()).unwrap();
    let events = json
        .pointer("/traceEvents")
        .and_then(Json::as_array)
        .unwrap();
    let named = |name: &str| {
        events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no {name} event"))
    };
    let slice = named("trace/lookup_batch");
    assert_eq!(
        slice.get("ph").and_then(Json::as_str),
        Some("X"),
        "slice event present"
    );
    assert_eq!(
        slice.get("dur").and_then(Json::as_f64),
        Some(1.0),
        "1000ns = 1.000us duration"
    );
    assert_eq!(slice.get("cat").and_then(Json::as_str), Some("avx2"));
    assert_eq!(
        named("trace/publish").get("args"),
        Some(&poptrie_telemetry::json!({"version": 7u64})),
        "a publish carries its version only"
    );
    assert_eq!(
        named("trace/snapshot_adopt").get("args"),
        Some(&poptrie_telemetry::json!({"version": 7u64, "worker": 3u64})),
        "an adoption carries its version and worker"
    );
    assert_eq!(
        named("thread_name")
            .pointer("/args/name")
            .and_then(Json::as_str),
        Some("worker0"),
        "thread metadata"
    );
}

#[test]
fn recorder_registry_exports_trace_families() {
    let rec = Recorder::new(TraceConfig {
        capacity: 16,
        sample: 2,
    });
    let w = rec.register("r");
    for _ in 0..10 {
        if w.tick() {
            w.record(EventKind::WriterBurst, 0, 0, 0);
        }
    }
    let text = rec.registry().render_prometheus();
    assert!(text.contains("poptrie_trace_events_total 5"));
    assert!(text.contains("poptrie_trace_sampled_out_total 5"));
    assert!(text.contains("poptrie_trace_sample 2"));
    assert!(text.contains("poptrie_trace_rings 1"));
}

#[test]
fn perf_group_degrades_gracefully() {
    // The group may or may not open (kernel policy, container seccomp,
    // non-Linux hosts). Both outcomes must be well-formed.
    match PerfGroup::open() {
        None => {
            let ((), counts) = PerfGroup::measure(|| ());
            assert!(counts.is_none());
        }
        Some(group) => {
            group.enable();
            let mut acc = 0u64;
            for i in 0..100_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            std::hint::black_box(acc);
            group.disable();
            let counts = group.read();
            let cycles = counts.cycles.unwrap_or(0);
            assert!(cycles > 0, "an open group must count cycles");
            let later = group.read();
            assert!(later.delta(&counts).cycles.unwrap_or(u64::MAX) < cycles);
        }
    }
}
