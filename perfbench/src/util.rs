//! Statistics, clocks and JSON output shared by every phase.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process: one monotonic time
/// base for the feeder, the engine hooks and the span log.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Linear-interpolation quantile (`q` in 0..=1) of `v`, which it sorts.
/// Returns NaN for an empty slice.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let h = (v.len() - 1) as f64 * q;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (h - lo as f64)
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Split time-ordered samples into `windows` equal windows (dropping the
/// remainder), take quantile `q` of each and return their median, so a
/// stall of the shared host moves one window rather than the figure.
pub fn windowed_quantile(v: &[f64], windows: usize, q: f64) -> f64 {
    let chunk = (v.len() / windows).max(1);
    let mut per: Vec<f64> = v
        .chunks_exact(chunk)
        .map(|w| quantile(&mut w.to_vec(), q))
        .collect();
    median(&mut per)
}

/// Busy-wait for `ns` nanoseconds: the feeder's back-off after a refused
/// submit. Spinning keeps the feeder on its core instead of handing the
/// core to the scheduler.
pub fn spin_ns(ns: u64) {
    let until = now_ns() + ns;
    while now_ns() < until {
        std::hint::spin_loop();
    }
}

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`.
/// Divided by wall time it gives the number of busy threads in a phase.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100 Hz on Linux).
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}

/// A flat JSON object built field by field.
#[derive(Default)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    pub fn num(mut self, k: &str, v: f64) -> Self {
        let s = if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        };
        self.0.push((k.into(), s));
        self
    }
    pub fn int(mut self, k: &str, v: u64) -> Self {
        self.0.push((k.into(), v.to_string()));
        self
    }
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.0.push((k.into(), v.to_string()));
        self
    }
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.0.push((k.into(), quote(v)));
        self
    }
    pub fn raw(mut self, k: &str, json: String) -> Self {
        self.0.push((k.into(), json));
        self
    }
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
