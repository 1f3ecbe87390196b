//! The load generator for `respct-kvd`: one thread per connection,
//! interleaving due sends with non-blocking reads over the public
//! `kv::wire` codec.
//!
//! Open loop: requests fall due on a fixed-rate [`Schedule`] and latency
//! is taken from the *scheduled* time, so a server stall shows up in the
//! numbers instead of quietly slowing the arrival process; how late the
//! generator itself ran is recorded next to it. Closed loop: a fixed
//! number of requests stays outstanding. Either way a window has a
//! deadline, and a request unanswered at the deadline is counted as a
//! failure — the generator never waits for a response that is not coming.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::RngCore;
use respct_apps::kv::wire::{self, LEN_PREFIX, MAX_FRAME};
use respct_apps::kv::{fill_value, KvRequest, KvResponse};
use respct_apps::ycsb::{Op, Workload};

use crate::trace::ThreadTrace;

/// Longest a closed-loop connection blocks in one read before it looks at
/// its deadline again.
const WAIT_SLICE: Duration = Duration::from_millis(5);
/// How long an open-loop connection sleeps when nothing is due or arrived.
/// The kernel adds its timer slack (50 µs by default), so arrivals are
/// picked up about every 70 µs; `loadgen.late_p99_us` reports the effect.
const POLL_SLEEP: Duration = Duration::from_micros(20);

/// Most requests an open-loop connection keeps in flight. When this
/// process or the whole VM is descheduled for tens of milliseconds (it
/// happens on this host), hundreds of arrivals fall due at once; fired as
/// one burst they overflow the server's 1024-deep worker queue, which
/// answers BUSY and can drop responses. Held to half that depth, the
/// backlog drains through the connection instead and shows up as latency.
const MAX_OUTSTANDING: usize = 512;

/// Bytes at the head of every value that name the seed of the rest.
const VALUE_HEADER: usize = 8;

/// Builds the self-describing value of `key`: the value's own seed in the
/// first 8 bytes, then `fill_value(key, seed)`. Any reader can check it
/// without knowing which PUT wrote it.
pub fn make_value(key: u64, value_seed: u64, len: usize) -> Vec<u8> {
    assert!(len >= VALUE_HEADER, "value too short to describe itself");
    let mut v = vec![0u8; len];
    v[..VALUE_HEADER].copy_from_slice(&value_seed.to_le_bytes());
    fill_value(&mut v[VALUE_HEADER..], key, value_seed);
    v
}

/// Whether `value` is a complete, unmodified value of `key`.
pub fn value_is_intact(key: u64, value: &[u8], len: usize) -> bool {
    if value.len() != len {
        return false;
    }
    let seed = u64::from_le_bytes(value[..VALUE_HEADER].try_into().expect("8-byte header"));
    let mut want = vec![0u8; len - VALUE_HEADER];
    fill_value(&mut want, key, seed);
    value[VALUE_HEADER..] == want
}

/// Where a connection's requests come from.
pub enum Source {
    /// PUT of every key in `next..end`, once (the pre-load).
    Preload { next: u64, end: u64 },
    /// The measured stream: zipfian ranks, `workload.read_pct` % GETs. Rank
    /// `r` is key `r × stride + offset`, so each connection has keys of its
    /// own (see [`Source::mix`]).
    Mix {
        workload: Workload,
        rng: SmallRng,
        stride: u64,
        offset: u64,
    },
    /// PINGs, forever.
    Ping,
}

impl Source {
    /// The 50/50 zipfian stream of connection `offset` out of `stride`,
    /// over the keys congruent to `offset`. Connections are pinned to
    /// different workers, and the transient engine copies a value out
    /// without holding its lock: a GET racing another connection's PUT of
    /// the same key comes back torn (about 3 per million at saturation).
    /// With keys of its own, every connection can check every byte it
    /// reads on either engine.
    pub fn mix(keys: u64, seed: u64, stride: u64, offset: u64) -> Source {
        Source::Mix {
            workload: Workload::balanced(keys / stride),
            rng: Workload::rng(seed),
            stride,
            offset,
        }
    }

    /// The next request, or `None` once a pre-load has covered its keys.
    pub fn next_request(&mut self, value_len: usize) -> Option<KvRequest> {
        match self {
            Source::Preload { next, end } => (*next < *end).then(|| {
                let key = *next;
                *next += 1;
                KvRequest::Put {
                    key,
                    value: make_value(key, key ^ 0x5eed, value_len),
                }
            }),
            Source::Mix {
                workload,
                rng,
                stride,
                offset,
            } => {
                let key = |rank: u64| rank * *stride + *offset;
                Some(match workload.next(rng) {
                    Op::Get(rank) => KvRequest::Get { key: key(rank) },
                    Op::Put(rank) => KvRequest::Put {
                        key: key(rank),
                        value: make_value(key(rank), rng.next_u64(), value_len),
                    },
                })
            }
            Source::Ping => Some(KvRequest::Ping),
        }
    }
}

/// Fixed-rate arrivals: request `i` is due at `i × interval` after the
/// window opened, whatever the generator or the server are doing.
#[derive(Debug, Clone)]
pub struct Schedule {
    next_due_ns: u64,
    interval_ns: u64,
    end_ns: u64,
}

impl Schedule {
    pub fn new(interval_ns: u64, length: Duration) -> Schedule {
        Schedule {
            next_due_ns: 0,
            interval_ns,
            end_ns: length.as_nanos() as u64,
        }
    }

    /// The scheduled time of the next request if it is due at `now_ns`.
    /// Requests that fell due while the generator was held up come out one
    /// after the other, each with its own scheduled time.
    pub fn pop_due(&mut self, now_ns: u64) -> Option<u64> {
        (self.next_due_ns <= now_ns && self.next_due_ns < self.end_ns).then(|| {
            let due = self.next_due_ns;
            self.next_due_ns += self.interval_ns;
            due
        })
    }

    fn exhausted(&self) -> bool {
        self.next_due_ns >= self.end_ns
    }

    fn next_due_ns(&self) -> u64 {
        self.next_due_ns
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// One request every `interval_ns` on this connection.
    Open { interval_ns: u64 },
    /// `window` requests outstanding on this connection.
    Closed { window: usize },
}

/// What one connection saw in one window.
#[derive(Debug, Default, Clone)]
pub struct WindowStats {
    pub sent: u64,
    pub answered: u64,
    /// Answered with the right bytes.
    pub ok: u64,
    pub busy: u64,
    /// Error responses, wrong or damaged values, misses on pre-loaded keys.
    pub wrong: u64,
    /// Still outstanding when the window's deadline passed, or lost with
    /// the connection.
    pub unanswered: u64,
    /// Nanoseconds from scheduled send to response, per `ok` response.
    pub latency_ns: Vec<u64>,
    /// Nanoseconds the generator sent after the scheduled time.
    pub late_ns: Vec<u64>,
    /// From the window's start to its last response.
    pub secs: f64,
}

impl WindowStats {
    pub fn failed(&self) -> u64 {
        self.busy + self.wrong + self.unanswered
    }

    pub fn absorb(&mut self, other: WindowStats) {
        self.sent += other.sent;
        self.answered += other.answered;
        self.ok += other.ok;
        self.busy += other.busy;
        self.wrong += other.wrong;
        self.unanswered += other.unanswered;
        self.latency_ns.extend(other.latency_ns);
        self.late_ns.extend(other.late_ns);
        self.secs = self.secs.max(other.secs);
    }
}

/// The only right answer to a request in flight.
enum Expect {
    /// A GET: the intact value of this key.
    Value(u64),
    Ok,
    Pong,
}

struct Pending {
    sched_ns: u64,
    expect: Expect,
}

/// One non-blocking connection to the server.
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inb: Vec<u8>,
    in_len: usize,
    next_id: u32,
    pending: HashMap<u32, Pending>,
    broken: bool,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(WAIT_SLICE))?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            out_pos: 0,
            inb: vec![0u8; 64 * 1024],
            in_len: 0,
            next_id: 0,
            pending: HashMap::new(),
            broken: false,
        })
    }

    fn queue(&mut self, req: &KvRequest, sched_ns: u64) {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        wire::encode_request(&mut self.out, id, req);
        self.pending.insert(
            id,
            Pending {
                sched_ns,
                expect: match req {
                    KvRequest::Get { key } => Expect::Value(*key),
                    KvRequest::Put { .. } | KvRequest::Delete { .. } => Expect::Ok,
                    KvRequest::Ping => Expect::Pong,
                },
            },
        );
    }

    /// Writes as much of the queued bytes as the socket takes.
    fn flush(&mut self) -> bool {
        let mut progressed = false;
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    self.broken = true;
                    break;
                }
                Ok(n) => {
                    self.out_pos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.broken = true;
                    break;
                }
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        progressed
    }

    /// Reads whatever has arrived and hands every complete response to
    /// `on_response`. With `wait`, first blocks until something arrives or
    /// [`WAIT_SLICE`] passes. Returns whether any bytes arrived.
    fn poll(&mut self, wait: bool, mut on_response: impl FnMut(Pending, KvResponse)) -> bool {
        let mut progressed = false;
        let mut wait = wait && self.stream.set_nonblocking(false).is_ok();
        loop {
            if self.in_len == self.inb.len() {
                self.inb.resize(self.inb.len() * 2, 0);
            }
            match self.stream.read(&mut self.inb[self.in_len..]) {
                Ok(0) => {
                    self.broken = true;
                    break;
                }
                Ok(n) => {
                    self.in_len += n;
                    progressed = true;
                }
                // A blocking read that timed out reports WouldBlock too.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.broken = true;
                    break;
                }
            }
            if std::mem::take(&mut wait) && self.stream.set_nonblocking(true).is_err() {
                self.broken = true;
                break;
            }
        }
        if wait && self.stream.set_nonblocking(true).is_err() {
            self.broken = true;
        }
        let mut at = 0;
        while self.in_len - at >= LEN_PREFIX {
            let prefix: [u8; LEN_PREFIX] =
                self.inb[at..at + LEN_PREFIX].try_into().expect("prefix");
            let len = u32::from_le_bytes(prefix) as usize;
            if len > MAX_FRAME {
                self.broken = true;
                break;
            }
            if self.in_len - at < LEN_PREFIX + len {
                break;
            }
            let payload = &self.inb[at + LEN_PREFIX..at + LEN_PREFIX + len];
            at += LEN_PREFIX + len;
            match wire::decode_response(payload) {
                // A response to a request an earlier window already wrote
                // off as unanswered has no entry any more; it is dropped.
                Ok((id, resp)) => {
                    if let Some(p) = self.pending.remove(&id) {
                        on_response(p, resp);
                    }
                }
                Err(_) => {
                    self.broken = true;
                    break;
                }
            }
        }
        self.inb.copy_within(at..self.in_len, 0);
        self.in_len -= at;
        progressed
    }
}

/// Drives `conn` for one window of `length` and returns what it saw.
///
/// Sending stops at `length` (or when `source` runs dry); responses are
/// awaited until everything is answered or `2 × length` has passed, at
/// which point whatever is still outstanding is written off as unanswered.
pub fn drive(
    conn: &mut Conn,
    source: &mut Source,
    pace: &Pace,
    length: Duration,
    value_len: usize,
    mut trace: Option<&mut ThreadTrace<'_>>,
) -> WindowStats {
    let mut w = WindowStats::default();
    let t0 = Instant::now();
    let length_ns = length.as_nanos() as u64;
    let deadline_ns = 2 * length_ns;
    let mut schedule = match pace {
        Pace::Open { interval_ns } => Some(Schedule::new(*interval_ns, length)),
        Pace::Closed { .. } => None,
    };
    let mut dry = false;
    let mut last_response_ns = 0;
    // Set when an iteration moved nothing: the next read may block.
    let mut idle = false;
    loop {
        let now = t0.elapsed().as_nanos() as u64;
        let mut progressed = false;

        // 1. Whatever is due goes out.
        let mut burst = 0;
        while !dry && !conn.broken && burst < 256 {
            let sched_ns = match (&mut schedule, pace) {
                // Past the cap, due requests wait here; their latency still
                // runs from the scheduled time.
                (Some(_), _) if conn.pending.len() >= MAX_OUTSTANDING => break,
                (Some(s), _) => match s.pop_due(now) {
                    Some(due) => due,
                    None => break,
                },
                (None, Pace::Closed { window })
                    if conn.pending.len() < *window && now < length_ns =>
                {
                    now
                }
                _ => break,
            };
            let Some(req) = source.next_request(value_len) else {
                dry = true;
                break;
            };
            w.late_ns.push(now - sched_ns);
            conn.queue(&req, sched_ns);
            w.sent += 1;
            burst += 1;
        }
        progressed |= burst > 0;
        progressed |= conn.flush();

        // 2. Whatever has been answered comes in.
        let wait = idle && matches!(pace, Pace::Closed { .. }) && !conn.pending.is_empty();
        progressed |= conn.poll(wait, |p, resp| {
            let done = t0.elapsed().as_nanos() as u64;
            last_response_ns = done;
            w.answered += 1;
            let good = match (&resp, p.expect) {
                (KvResponse::Busy, _) => {
                    w.busy += 1;
                    return;
                }
                (KvResponse::Pong, Expect::Pong) | (KvResponse::Ok, Expect::Ok) => true,
                (KvResponse::Value(v), Expect::Value(key)) => value_is_intact(key, v, value_len),
                // Every key is pre-loaded and nothing deletes: a miss, an
                // error or a mismatched response kind is a wrong answer.
                _ => false,
            };
            if good {
                w.ok += 1;
                let ns = done.saturating_sub(p.sched_ns);
                w.latency_ns.push(ns);
                if let Some(tt) = trace.as_deref_mut() {
                    tt.fold("kv.request", ns);
                }
            } else {
                w.wrong += 1;
            }
        });

        // 3. Done, dead, or out of time?
        let sending_over = dry
            || conn.broken
            || match &schedule {
                Some(s) => s.exhausted(),
                None => now >= length_ns,
            };
        if sending_over && conn.pending.is_empty() {
            break;
        }
        if conn.broken || now >= deadline_ns {
            w.unanswered += conn.pending.len() as u64;
            conn.pending.clear();
            break;
        }

        // 4. Nothing moved: give the processor to the server, which shares
        // two processors with this generator. A closed loop has nothing to
        // do until a response arrives, so its next read blocks; an open
        // loop sleeps to its next arrival, or briefly when one is near.
        idle = !progressed;
        if idle {
            if let Some(s) = &schedule {
                let until_due = s.next_due_ns().saturating_sub(now);
                let nap = if conn.pending.is_empty() && until_due > 200_000 {
                    Duration::from_nanos(until_due - 100_000)
                } else {
                    POLL_SLEEP
                };
                std::thread::sleep(nap);
            }
        }
    }
    w.secs = (last_response_ns.max(length_ns.min(t0.elapsed().as_nanos() as u64))) as f64 / 1e9;
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_byte_is_a_failure() {
        let v = make_value(42, 0xdead_beef, 256);
        assert_eq!(v.len(), 256);
        assert!(value_is_intact(42, &v, 256));
        for at in [0, 7, 8, 100, 255] {
            let mut bad = v.clone();
            bad[at] ^= 1;
            assert!(!value_is_intact(42, &bad, 256), "flip at {at} went unseen");
        }
        assert!(!value_is_intact(43, &v, 256), "value of another key");
        assert!(!value_is_intact(42, &v[..255], 256), "truncated value");
        // Two writes of one key differ and both check out.
        let w = make_value(42, 0xfeed, 256);
        assert_ne!(v, w);
        assert!(value_is_intact(42, &w, 256));
    }

    #[test]
    fn lateness_is_counted_from_the_schedule_not_from_the_send() {
        // 10 µs apart for 1 ms: 100 arrivals.
        let mut s = Schedule::new(10_000, Duration::from_millis(1));
        assert_eq!(s.pop_due(0), Some(0));
        assert_eq!(s.pop_due(0), None, "the second request is not due yet");
        assert_eq!(s.pop_due(9_999), None);
        assert_eq!(s.pop_due(10_000), Some(10_000));
        // The generator is held up until t = 55 µs: the four requests that
        // fell due meanwhile come out with their own scheduled times, so
        // their lateness is 35, 25, 15 and 5 µs — not zero.
        let now = 55_000;
        let late: Vec<u64> = std::iter::from_fn(|| s.pop_due(now))
            .map(|due| now - due)
            .collect();
        assert_eq!(late, vec![35_000, 25_000, 15_000, 5_000]);
        // Arrivals scheduled before the end still go out after it; nothing
        // is scheduled at or past the end.
        let all: Vec<u64> = std::iter::from_fn(|| s.pop_due(u64::MAX)).collect();
        assert_eq!(all.len(), 100 - 6);
        assert_eq!(all.last(), Some(&990_000));
        assert!(s.exhausted());
    }

    #[test]
    fn preload_source_runs_dry_and_mix_is_seeded() {
        let mut p = Source::Preload { next: 3, end: 5 };
        assert!(matches!(
            p.next_request(64),
            Some(KvRequest::Put { key: 3, .. })
        ));
        assert!(matches!(
            p.next_request(64),
            Some(KvRequest::Put { key: 4, .. })
        ));
        assert!(p.next_request(64).is_none());
        let draw = |seed, offset| {
            let mut s = Source::mix(1000, seed, 2, offset);
            (0..50)
                .map(|_| s.next_request(64).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(9, 0), draw(9, 0));
        assert_ne!(draw(9, 0), draw(10, 0));
        // Connections never share a key.
        let keys = |reqs: Vec<KvRequest>| -> Vec<u64> {
            reqs.iter()
                .map(|r| match r {
                    KvRequest::Get { key } | KvRequest::Put { key, .. } => *key,
                    other => panic!("unexpected {other:?}"),
                })
                .collect()
        };
        assert!(keys(draw(9, 0)).iter().all(|k| k % 2 == 0 && *k < 1000));
        assert!(keys(draw(9, 1)).iter().all(|k| k % 2 == 1 && *k < 1000));
    }
}
