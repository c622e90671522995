//! The fixed-size binary event record.
//!
//! Every event is exactly four 64-bit words — small enough that a
//! recording thread writes a handful of relaxed atomic stores per event,
//! and fixed-size so the ring buffer needs no allocation, no length
//! prefix, and no torn variable-length records. The words are:
//!
//! | word | field   | meaning                                          |
//! |------|---------|--------------------------------------------------|
//! | 0    | `ts_ns` | nanoseconds since the recorder epoch             |
//! | 1    | `span`  | convergence span ID (0 = not part of a span)     |
//! | 2    | `arg`   | kind-specific payload (version, packets, nanos…) |
//! | 3    | `kind` + `aux` | event kind (low 32) and small payload (high 32) |

/// What happened. The discriminants are stable wire values: they appear
/// verbatim in drained events and in `results/trace.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum EventKind {
    /// A packet batch was accepted into a worker queue. Recorded by the
    /// worker at pop time from the batch's ingress timestamp, so the
    /// event carries the true enqueue instant without instrumenting the
    /// feeder threads. `arg` = packets in the batch, `aux` = worker.
    IngressEnqueue = 1,
    /// A worker popped a batch off its queue. `arg` = queue-wait
    /// nanoseconds, `aux` = worker.
    BatchDequeue = 2,
    /// `lookup_batch` began. `arg` = keys in the batch, `aux` = worker
    /// in the low 24 bits, dispatch tier in the high 8
    /// (see [`pack_worker_tier`]).
    LookupStart = 3,
    /// `lookup_batch` returned. `arg` = service nanoseconds, `aux` as
    /// [`EventKind::LookupStart`].
    LookupEnd = 4,
    /// The control-plane writer drained one burst. `arg` = events
    /// drained, `aux` = events coalesced away.
    WriterBurst = 5,
    /// One spanned route update was applied and published. `span` = the
    /// update's span, `arg` = the published snapshot version.
    UpdateApply = 6,
    /// The writer published the snapshot of one burst. `arg` = the
    /// published snapshot version.
    Publish = 7,
    /// A worker's per-batch snapshot acquisition first observed a new
    /// snapshot version — the first lookup served against that
    /// published state. `arg` = the adopted version, `aux` = worker.
    SnapshotAdopt = 8,
    /// A BGP UPDATE was accepted in Established and its route events
    /// handed to the control plane. `span` = the span allocated for the
    /// update, `arg` = route events it carried.
    SpanAccept = 9,
    /// A BGP session FSM transition. `arg` = state entered, `aux` =
    /// state left (both as [`crate::event::EventKind`]-independent
    /// small codes chosen by the driver).
    BgpTransition = 10,
}

impl EventKind {
    /// Decode a wire discriminant; `None` for an unknown value (a torn
    /// or corrupt slot can never panic the drainer).
    pub fn from_u32(v: u32) -> Option<EventKind> {
        Some(match v {
            1 => EventKind::IngressEnqueue,
            2 => EventKind::BatchDequeue,
            3 => EventKind::LookupStart,
            4 => EventKind::LookupEnd,
            5 => EventKind::WriterBurst,
            6 => EventKind::UpdateApply,
            7 => EventKind::Publish,
            8 => EventKind::SnapshotAdopt,
            9 => EventKind::SpanAccept,
            10 => EventKind::BgpTransition,
            _ => return None,
        })
    }
}

/// Pack a worker index and a dispatch-tier code into an `aux` word
/// (worker in the low 24 bits, tier in the high 8).
pub fn pack_worker_tier(worker: u32, tier: u32) -> u32 {
    (worker & 0x00FF_FFFF) | (tier << 24)
}

/// Invert [`pack_worker_tier`]: `(worker, tier)`.
pub fn unpack_worker_tier(aux: u32) -> (u32, u32) {
    (aux & 0x00FF_FFFF, aux >> 24)
}

/// One recorded event. See the module docs for the wire layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder epoch.
    pub ts_ns: u64,
    /// Convergence span this event belongs to (0 = none).
    pub span: u64,
    /// Kind-specific payload (see [`EventKind`]).
    pub arg: u64,
    /// Event kind discriminant ([`EventKind`] wire value).
    pub kind: u32,
    /// Kind-specific small payload (worker, tier…).
    pub aux: u32,
}

impl TraceEvent {
    /// Construct an event of `kind`.
    pub fn new(ts_ns: u64, kind: EventKind, span: u64, arg: u64, aux: u32) -> Self {
        TraceEvent {
            ts_ns,
            span,
            arg,
            kind: kind as u32,
            aux,
        }
    }

    /// The decoded kind, if the discriminant is known.
    pub fn event_kind(&self) -> Option<EventKind> {
        EventKind::from_u32(self.kind)
    }

    /// Encode into the ring's four-word slot format.
    pub fn to_words(&self) -> [u64; 4] {
        [
            self.ts_ns,
            self.span,
            self.arg,
            (self.kind as u64) | ((self.aux as u64) << 32),
        ]
    }

    /// Decode from the ring's four-word slot format.
    pub fn from_words(w: [u64; 4]) -> Self {
        TraceEvent {
            ts_ns: w[0],
            span: w[1],
            arg: w[2],
            kind: w[3] as u32,
            aux: (w[3] >> 32) as u32,
        }
    }
}
