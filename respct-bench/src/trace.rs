//! In-memory spans around the calls into each layer, written to
//! `trace.json` when a traced run ends.
//!
//! Every thread of a traced run owns a [`ThreadTrace`]. Long spans (a
//! window, a checkpoint call, a recovery) are opened and closed explicitly
//! and nest; short per-operation spans go through [`ThreadTrace::leaf`],
//! which folds them into a log2-bucket histogram per name and keeps the
//! span itself only when it lasted [`KEEP_NS`] or more — stalls, preempted
//! operations, checkpoints. That keeps a run of millions of operations in a
//! few MiB. A span's parent is the span open on the same thread when it
//! started, so a layer's self time is its span minus its children.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// Leaf spans shorter than this are only counted, not kept.
pub const KEEP_NS: u64 = 20_000;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub thread: u32,
}

/// Count, exact sum and log2 buckets of every leaf span of one name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Folded {
    pub count: u64,
    pub sum_ns: u64,
    /// `buckets[i]` counts durations whose highest set bit is `i - 1`
    /// (bucket 0 holds zero-length spans).
    pub buckets: Vec<u64>,
}

impl Folded {
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns += ns;
        let b = (64 - ns.leading_zeros()) as usize;
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
    }

    fn merge(&mut self, other: &Folded) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Mean duration in nanoseconds (0 when nothing was recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }
}

/// The run-wide sink the per-thread traces merge into.
pub struct Tracer {
    t0: Instant,
    next_thread: AtomicU32,
    merged: Mutex<(Vec<Span>, BTreeMap<&'static str, Folded>)>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            next_thread: AtomicU32::new(0),
            merged: Mutex::new((Vec::new(), BTreeMap::new())),
        }
    }

    /// A trace for the calling thread; merged back when dropped.
    pub fn thread(&self) -> ThreadTrace<'_> {
        ThreadTrace {
            tracer: self,
            thread: self.next_thread.fetch_add(1, Ordering::Relaxed),
            spans: Vec::new(),
            open: Vec::new(),
            folded: Vec::new(),
        }
    }

    /// Every kept span so far, in merge order.
    pub fn spans(&self) -> Vec<Span> {
        self.merged.lock().expect("tracer lock").0.clone()
    }

    /// The folded histogram of `name` (empty if nothing was recorded).
    pub fn folded(&self, name: &str) -> Folded {
        self.merged
            .lock()
            .expect("tracer lock")
            .1
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    /// Durations (ns) of every kept span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.merged
            .lock()
            .expect("tracer lock")
            .0
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str) -> Json {
        let m = self.merged.lock().expect("tracer lock");
        let spans =
            m.0.iter()
                .map(|s| {
                    Json::obj(vec![
                        ("id", Json::Num(s.id as f64)),
                        ("name", Json::str(s.name)),
                        ("workload", Json::str(workload)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("thread", Json::Num(f64::from(s.thread))),
                    ])
                })
                .collect();
        let folded =
            m.1.iter()
                .map(|(name, f)| {
                    (
                        (*name).to_string(),
                        Json::obj(vec![
                            ("count", Json::Num(f.count as f64)),
                            ("sum_ns", Json::Num(f.sum_ns as f64)),
                            (
                                "log2_buckets",
                                Json::Arr(f.buckets.iter().map(|&b| Json::Num(b as f64)).collect()),
                            ),
                        ]),
                    )
                })
                .collect();
        Json::obj(vec![
            ("workload", Json::str(workload)),
            ("keep_ns", Json::Num(KEEP_NS as f64)),
            ("spans", Json::Arr(spans)),
            ("folded", Json::Obj(folded)),
        ])
    }
}

/// Checks that every child span lies inside its parent on the same thread.
/// Returns one message per violation.
pub fn nesting_violations(spans: &[Span]) -> Vec<String> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut bad = Vec::new();
    for s in spans {
        if s.end_ns < s.start_ns {
            bad.push(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        let Some(pid) = s.parent else { continue };
        match by_id.get(&pid) {
            None => bad.push(format!("span {} ({}) names a missing parent", s.id, s.name)),
            Some(p) if p.thread != s.thread => {
                bad.push(format!("span {} ({}) crosses threads", s.id, s.name));
            }
            Some(p) if s.start_ns < p.start_ns || s.end_ns > p.end_ns => {
                bad.push(format!(
                    "span {} ({}) leaks out of {}",
                    s.id, s.name, p.name
                ));
            }
            Some(_) => {}
        }
    }
    bad
}

/// One thread's spans; see the module docs.
pub struct ThreadTrace<'a> {
    tracer: &'a Tracer,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    folded: Vec<(&'static str, Folded)>,
}

impl ThreadTrace<'_> {
    /// Nanoseconds since the tracer was created.
    #[inline]
    pub fn now(&self) -> u64 {
        self.tracer.t0.elapsed().as_nanos() as u64
    }

    fn id_of(&self, index: usize) -> u64 {
        (u64::from(self.thread) << 32) | index as u64
    }

    fn parent(&self) -> Option<u64> {
        self.open.last().map(|&i| self.id_of(i))
    }

    /// Opens a nesting span; close it with [`ThreadTrace::exit`].
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now();
        let index = self.spans.len();
        self.spans.push(Span {
            id: self.id_of(index),
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.parent(),
            thread: self.thread,
        });
        self.open.push(index);
    }

    /// Closes the innermost open span and returns its duration.
    pub fn exit(&mut self) -> u64 {
        let index = self.open.pop().expect("exit without enter");
        let end_ns = self.now();
        let s = &mut self.spans[index];
        s.end_ns = end_ns;
        end_ns - s.start_ns
    }

    /// Mean of what this thread has folded under `name` so far.
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.folded
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, f)| f.mean_ns())
    }

    /// Counts a duration under `name` without keeping a span — for spans
    /// that overlap on one thread (pipelined requests) and so cannot nest.
    #[inline]
    pub fn fold(&mut self, name: &'static str, ns: u64) {
        match self.folded.iter_mut().find(|(n, _)| std::ptr::eq(*n, name)) {
            Some((_, f)) => f.record(ns),
            None => {
                let mut f = Folded::default();
                f.record(ns);
                self.folded.push((name, f));
            }
        }
    }

    /// Records a finished span `[start_ns, end_ns]` with no children.
    #[inline]
    pub fn leaf(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        let ns = end_ns - start_ns;
        self.fold(name, ns);
        if ns >= KEEP_NS {
            let index = self.spans.len();
            self.spans.push(Span {
                id: self.id_of(index),
                name,
                start_ns,
                end_ns,
                parent: self.parent(),
                thread: self.thread,
            });
        }
    }
}

impl Drop for ThreadTrace<'_> {
    fn drop(&mut self) {
        // A span still open here was abandoned by a panic; close it so the
        // file stays well formed.
        while !self.open.is_empty() {
            self.exit();
        }
        if let Ok(mut m) = self.tracer.merged.lock() {
            m.0.append(&mut self.spans);
            for (name, f) in &self.folded {
                m.1.entry(name).or_default().merge(f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_fold_and_only_long_ones_are_kept() {
        let tracer = Tracer::new();
        {
            let mut t = tracer.thread();
            t.enter("window");
            let base = t.now();
            t.leaf("op", base, base + 100);
            t.leaf("op", base + 100, base + 400);
            t.leaf("op", base + 400, base + 400 + KEEP_NS);
            std::thread::sleep(std::time::Duration::from_micros(2 * KEEP_NS / 1000));
            t.exit();
        }
        let f = tracer.folded("op");
        assert_eq!((f.count, f.sum_ns), (3, 400 + KEEP_NS));
        assert_eq!(f.buckets.iter().sum::<u64>(), 3);
        assert_eq!(tracer.durations("op"), vec![KEEP_NS]);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(nesting_violations(&spans).is_empty());
        let doc = tracer.to_json("unit");
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 2);
        assert!(Json::parse(&doc.to_string()).is_ok());
    }

    #[test]
    fn threads_get_their_own_ids_and_parents() {
        let tracer = Tracer::new();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut t = tracer.thread();
                    t.enter("outer");
                    t.enter("inner");
                    t.exit();
                    t.exit();
                });
            }
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert!(nesting_violations(&spans).is_empty());
        let threads: std::collections::BTreeSet<u32> = spans.iter().map(|s| s.thread).collect();
        assert_eq!(threads.len(), 2);
    }

    #[test]
    fn broken_nesting_is_reported() {
        let span = |id, start_ns, end_ns, parent, thread| Span {
            id,
            name: "s",
            start_ns,
            end_ns,
            parent,
            thread,
        };
        let spans = vec![
            span(1, 0, 100, None, 0),
            span(2, 50, 150, Some(1), 0), // leaks out
            span(3, 10, 20, Some(1), 1),  // other thread
            span(4, 10, 20, Some(9), 0),  // no such parent
            span(5, 10, 20, Some(1), 0),  // fine
        ];
        assert_eq!(nesting_violations(&spans).len(), 3);
    }
}
