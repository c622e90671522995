//! Spans recorded by the traced run around the benchmark's own calls
//! into each layer. They stay in memory until the run ends.

use std::collections::HashMap;
use std::io::Write;

use crate::load::ConvRec;
use crate::stack::Publish;
use crate::util::{median, Obj};

pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// Submits are timed on every call but kept 1 in `SAMPLE_EVERY`, so the
/// log stays small at millions of batches per second.
const SAMPLE_EVERY: u64 = 64;

#[derive(Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
    next_id: u64,
    /// Batches whose submit was sampled: (sequence, due, submit start,
    /// submit end), closed once their serve time is known.
    open_batches: Vec<(u64, u64, u64, u64)>,
}

impl SpanLog {
    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    pub fn push(&mut self, parent: u64, name: &'static str, start: u64, end: u64) -> u64 {
        let id = self.id();
        self.spans.push(Span {
            id,
            parent,
            name,
            start,
            end,
        });
        id
    }

    pub fn sampled(&mut self, name: &'static str, start: u64, end: u64, n: u64) {
        if n.is_multiple_of(SAMPLE_EVERY) {
            self.push(0, name, start, end);
        }
    }

    pub fn sampled_batch(&mut self, seq: u64, due: u64, start: u64, end: u64) {
        if seq.is_multiple_of(SAMPLE_EVERY) {
            self.open_batches.push((seq, due, start, end));
        }
    }

    /// Close the sampled batches of a latency window: each becomes an
    /// `engine.batch` span from its due time to its serve hook, with its
    /// submit as a child. `lat_us[j]` is batch `base + j`'s sojourn.
    pub fn close_batches(&mut self, base: u64, lat_us: &[f64]) {
        for (seq, due, s0, s1) in std::mem::take(&mut self.open_batches) {
            let Some(&lat) = lat_us.get((seq - base) as usize) else {
                continue;
            };
            let root = self.push(0, "engine.batch", due, due + (lat * 1e3) as u64);
            self.push(root, "engine.submit", s0, s1);
        }
    }

    /// One span chain per accepted update: `update` from hand-over to the
    /// first batch served on a snapshot holding it, split into decode,
    /// send, writer (queue, apply, publish) and worker adoption.
    pub fn update_chains(&mut self, conv: &[ConvRec], chains: &[(usize, Publish, u64)]) {
        for &(i, p, adopt) in chains {
            let c = conv[i];
            let root = self.push(0, "update", c.t0, adopt);
            if c.t_send > c.t0 {
                self.push(root, "bgp.decode", c.t0, c.t_send);
            }
            self.push(root, "engine.send", c.t_send, c.t_sent);
            self.push(root, "writer.apply_publish", c.t_sent, p.t_ns.max(c.t_sent));
            self.push(
                root,
                "worker.adopt",
                p.t_ns.max(c.t_sent),
                adopt.max(p.t_ns),
            );
        }
    }

    /// Self time of every span (its duration minus the part its children
    /// cover), summarised per name as (count, median total ns, median
    /// self ns).
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start, s.end));
            }
        }
        let mut by_name: HashMap<&'static str, (Vec<f64>, Vec<f64>)> = HashMap::new();
        for s in &self.spans {
            let dur = s.end.saturating_sub(s.start);
            let mut covered = 0u64;
            if let Some(kids) = children.get(&s.id) {
                let mut iv: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                    .filter(|(a, b)| a < b)
                    .collect();
                iv.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for (a, b) in iv {
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            cur = Some((a, b));
                        }
                        None => cur = Some((a, b)),
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            let e = by_name.entry(s.name).or_default();
            e.0.push(dur as f64);
            e.1.push((dur - covered) as f64);
        }
        let mut out: Vec<_> = by_name
            .into_iter()
            .map(|(name, (mut total, mut own))| {
                (name, total.len(), median(&mut total), median(&mut own))
            })
            .collect();
        out.sort_by_key(|r| r.0);
        out
    }

    /// Mean duration of the spans called `name`, ns, leaving out the
    /// slowest 1% (preemptions of the load thread, not the layer).
    pub fn trimmed_mean_ns(&self, name: &str) -> f64 {
        let mut d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end.saturating_sub(s.start) as f64)
            .collect();
        d.sort_by(|a, b| a.total_cmp(b));
        d.truncate(d.len() - d.len() / 100);
        d.iter().sum::<f64>() / d.len() as f64
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Obj::default()
                .int("id", s.id)
                .int("parent", s.parent)
                .str("name", s.name)
                .int("start_ns", s.start)
                .int("end_ns", s.end)
                .render();
            writeln!(f, "{line}")?;
        }
        f.flush()
    }
}
