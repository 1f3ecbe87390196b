//! The NVMM arena.
//!
//! A [`Region`] is a cache-line-aligned memory arena standing in for an
//! App-Direct NVMM mapping. Persistent data structures address it with
//! [`PAddr`] offsets (stable across crash + recovery), and every access goes
//! through its typed accessors so the persistence substrate can interpose.
//!
//! The bytes themselves are owned by one mapping ([`crate::mmap`]) under
//! one of three backends (see [`crate::backend`]): an anonymous arena with
//! modeled latency, the same arena under the PCSO simulator, or a file
//! mapping that outlives the process. The region caches the arena's base
//! pointer, latency model, and simulator handle, so the load and word-store
//! hot paths are identical for every backend; `pwb` and `psync` branch on
//! it. A sim-mode region takes its one simulator lock around each arena
//! write, `pwb`, `psync`, crash and restore, together with the trace event
//! that records it, so a recorded trace replays to the live model's state.
//!
//! All accesses are implemented as **relaxed atomic operations** of the
//! access width. On x86-64 these compile to plain `mov`s, so fast mode pays
//! nothing, while the API stays sound even if an application violates the
//! paper's race-freedom assumption (a race then yields an unexpected value,
//! not undefined behavior — mirroring what the hardware would do).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU16, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::backend::BackendKind;
use crate::error::RegionError;
use crate::latency::{charge_ns, drain_psync, note_pwbs, LatencyModel};
use crate::mmap::Mapping;
use crate::replay::Line;
use crate::sim::{CrashImage, CrashMode, LiveSim, SimConfig};
use crate::stats::PmemStats;
use crate::trace::{trace_tid, SyncToken, TraceEvent, TraceMarker, TraceSink};
use crate::{PAddr, Pod, CACHE_LINE};

/// Operating mode of a [`Region`] — which backend it runs on.
#[derive(Debug, Clone)]
pub enum RegionMode {
    /// Benchmark mode: direct accesses, accounting-only write-backs,
    /// modeled latency. No crash injection available.
    Fast(LatencyModel),
    /// Test mode: every access updates the PCSO simulator; crash injection
    /// and recovery are available.
    Sim(SimConfig),
    /// File-backed mode: a `MAP_SHARED` mapping of the given pool file;
    /// `pwb` issues the real `clwb` and the pool survives the process.
    Mmap(PathBuf),
}

/// Construction parameters for a [`Region`].
///
/// Build one with the named constructors ([`fast`](RegionConfig::fast),
/// [`optane`](RegionConfig::optane), [`sim`](RegionConfig::sim),
/// [`mmap`](RegionConfig::mmap)) or, for a mode chosen at run time,
/// [`new`](RegionConfig::new). [`Region::try_new`] validates it.
#[derive(Debug, Clone)]
pub struct RegionConfig {
    /// Arena size in bytes (rounded up to a whole number of cache lines).
    /// For an mmap region this is the size of a *newly created* pool file;
    /// an existing file is mapped at its own length.
    pub(crate) size: usize,
    pub(crate) mode: RegionMode,
}

impl RegionConfig {
    /// A region of `size` bytes in the given mode.
    pub fn new(size: usize, mode: RegionMode) -> Self {
        RegionConfig { size, mode }
    }

    /// A fast-mode region with no modeled latency (DRAM-like).
    pub fn fast(size: usize) -> Self {
        RegionConfig::new(size, RegionMode::Fast(LatencyModel::dram()))
    }

    /// A fast-mode region charging Optane-like latency.
    pub fn optane(size: usize) -> Self {
        RegionConfig::new(size, RegionMode::Fast(LatencyModel::optane()))
    }

    /// A sim-mode region with the given simulator configuration.
    pub fn sim(size: usize, cfg: SimConfig) -> Self {
        RegionConfig::new(size, RegionMode::Sim(cfg))
    }

    /// A file-backed region at `path` (create-or-recover; `size` applies
    /// only when the file does not exist yet).
    pub fn mmap(size: usize, path: impl Into<PathBuf>) -> Self {
        RegionConfig::new(size, RegionMode::Mmap(path.into()))
    }

    /// Configured arena size in bytes (before line rounding).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Configured operating mode.
    pub fn mode(&self) -> &RegionMode {
        &self.mode
    }
}

/// An NVMM arena over one of three backends. See the module docs.
pub struct Region {
    /// What `pwb`/`psync` mean on this region.
    kind: BackendKind,
    /// Owns the bytes (and, for the mmap backend, the pool file); held to
    /// be dropped with the region. Everything on the store/load hot paths
    /// is cached in the fields below.
    arena: Mapping,
    buf: *mut u8,
    size: usize,
    latency: LatencyModel,
    latency_free: bool,
    /// `Some` exactly when `kind` is [`BackendKind::Sim`]. Boxed so the
    /// simulator's tables do not spread the hot fields around it.
    sim: Option<Box<Mutex<LiveSim>>>,
    stats: Arc<PmemStats>,
    /// Optional persistency-event observer (set once, read on every access;
    /// a single relaxed-ish atomic load when unset).
    trace: std::sync::OnceLock<Arc<dyn TraceSink>>,
    /// When set (and a sink is attached), loads are reported as
    /// [`TraceEvent::Load`] events. Recovery enables this so the trace
    /// checker can see recovery-time reads; normal execution leaves it off
    /// (one predictable relaxed load per `load` call).
    trace_loads: std::sync::atomic::AtomicBool,
}

// SAFETY: the raw buffer is only accessed through atomic operations, and
// the backing mapping is owned by `arena`, which the `Region` keeps alive
// for its whole lifetime.
unsafe impl Send for Region {}
// SAFETY: as above.
unsafe impl Sync for Region {}

impl Region {
    /// Opens a region on the configured backend.
    ///
    /// Fast and Sim map a zero-filled anonymous arena whose pages exist
    /// once touched. [`RegionMode::Mmap`] resolves to create-or-recover: a
    /// missing or empty pool file is created at the configured size; an
    /// existing file is mapped as-is (check [`Region::was_created`] to know
    /// which happened).
    ///
    /// # Errors
    ///
    /// [`RegionError::InvalidConfig`] for a zero-sized anonymous region,
    /// [`RegionError::Alloc`] when the OS refuses to map one, plus the I/O
    /// and image errors of the mmap backend.
    pub fn try_new(cfg: RegionConfig) -> Result<Arc<Region>, RegionError> {
        let stats = Arc::new(PmemStats::default());
        let dram = LatencyModel::dram();
        let (kind, arena, latency, sim) = match cfg.mode {
            RegionMode::Fast(latency) => (
                BackendKind::Fast,
                Mapping::anonymous(cfg.size)?,
                latency,
                None,
            ),
            RegionMode::Sim(sim_cfg) => {
                let arena = Mapping::anonymous(cfg.size)?;
                let sim = Box::new(Mutex::new(LiveSim::new(sim_cfg, arena.size)));
                (BackendKind::Sim, arena, dram, Some(sim))
            }
            RegionMode::Mmap(path) => (
                BackendKind::Mmap,
                Mapping::open(&path, cfg.size)?,
                dram,
                None,
            ),
        };
        Ok(Arc::new(Region {
            kind,
            buf: arena.map,
            size: arena.size,
            arena,
            latency,
            latency_free: latency.is_free(),
            sim,
            stats,
            trace: std::sync::OnceLock::new(),
            trace_loads: std::sync::atomic::AtomicBool::new(false),
        }))
    }

    /// Opens a region, panicking on failure.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the backend fails to open
    /// (allocation failure, pool-file I/O error). Use [`Region::try_new`]
    /// to handle these as errors.
    pub fn new(cfg: RegionConfig) -> Arc<Region> {
        Region::try_new(cfg).expect("region open failed")
    }

    /// A deterministic (no-eviction) sim region holding `image`, every byte
    /// of it already persisted — so what recovery makes of it is a pure
    /// function of the image.
    ///
    /// # Panics
    ///
    /// Panics unless the image is a positive cache-line multiple in size
    /// (all region images are).
    pub fn from_image(image: &[u8]) -> Arc<Region> {
        let region = Region::new(RegionConfig::sim(image.len(), SimConfig::no_eviction(0)));
        region.restore(&CrashImage::from_bytes(image.to_vec()));
        region
    }

    /// Region size in bytes.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Which backend this region runs on.
    #[inline]
    pub fn backend_kind(&self) -> BackendKind {
        self.kind
    }

    /// Path of the backing pool file, if the backend has one.
    pub fn path(&self) -> Option<&Path> {
        self.arena.path()
    }

    /// Whether the backend created its arena from scratch (`true`) or
    /// mapped existing content that may need recovery (`false`). Anonymous
    /// arenas always report `true`.
    pub fn was_created(&self) -> bool {
        self.arena.was_created()
    }

    /// Flushes the arena to its backing store (`msync` for an mmap region;
    /// no-op for anonymous arenas). This is the machine-crash durability
    /// point for pool files on non-DAX filesystems — `pwb`/`psync` alone
    /// only reach the kernel's copy of the pages there.
    pub fn sync_data(&self) -> Result<(), RegionError> {
        self.arena.sync()
    }

    /// Whether the persistence simulator is active.
    #[inline]
    pub fn is_sim(&self) -> bool {
        self.sim.is_some()
    }

    /// Instruction/event counters.
    pub fn stats(&self) -> &Arc<PmemStats> {
        &self.stats
    }

    /// Attaches a persistency-event observer. Every subsequent store, `pwb`,
    /// `psync`, eviction, crash/restore, and runtime marker is reported to
    /// `sink` (from the emitting thread). Works in both fast and sim mode.
    ///
    /// # Panics
    ///
    /// Panics if a sink is already attached (a region carries at most one
    /// observer for its lifetime; create a fresh region per checked run).
    pub fn set_trace_sink(&self, sink: Arc<dyn TraceSink>) {
        assert!(self.trace.set(sink).is_ok(), "trace sink already attached");
    }

    /// Whether a trace sink is attached.
    #[inline]
    pub fn is_traced(&self) -> bool {
        self.trace.get().is_some()
    }

    /// Reports a semantic runtime marker to the attached sink, if any.
    /// Called by the ResPCT runtime at epoch/checkpoint/recovery boundaries.
    #[inline]
    pub fn trace_marker(&self, marker: TraceMarker) {
        if let Some(sink) = self.trace.get() {
            sink.event(&TraceEvent::Marker {
                tid: trace_tid(),
                marker,
            });
        }
    }

    /// Reports a happens-before release edge on `token` to the attached
    /// sink, if any. Call *before* performing the releasing store so a
    /// matching acquire can never be observed first in the trace.
    #[inline]
    pub fn sync_release(&self, token: SyncToken) {
        self.emit(|| TraceEvent::SyncRel {
            tid: trace_tid(),
            token,
        });
    }

    /// Reports a happens-before acquire edge on `token` to the attached
    /// sink, if any. Call *after* observing the released value.
    #[inline]
    pub fn sync_acquire(&self, token: SyncToken) {
        self.emit(|| TraceEvent::SyncAcq {
            tid: trace_tid(),
            token,
        });
    }

    /// Enables or disables load tracing ([`TraceEvent::Load`] events).
    /// Recovery turns this on around its read phase; it is off otherwise.
    pub fn set_trace_loads(&self, on: bool) {
        self.trace_loads
            .store(on, std::sync::atomic::Ordering::SeqCst);
    }

    /// Emits one [`TraceEvent::Load`] per cache line covered by
    /// `[addr, addr + len)` when load tracing is enabled.
    #[inline]
    fn emit_load(&self, addr: PAddr, len: usize) {
        if len == 0 || !self.trace_loads.load(std::sync::atomic::Ordering::Relaxed) {
            return;
        }
        if self.trace.get().is_some() {
            let tid = trace_tid();
            let last = PAddr(addr.0 + len as u64 - 1).line();
            for line in addr.line()..=last {
                self.emit(|| TraceEvent::Load { tid, line });
            }
        }
    }

    #[inline]
    fn emit(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.trace.get() {
            sink.event(&f());
        }
    }

    /// Reports the store of `data` at `addr`, one event per
    /// [`MAX_STORE_DATA`](crate::trace::MAX_STORE_DATA)-byte chunk in
    /// program order, so the payload fits the events' inline buffers.
    fn emit_store(&self, addr: PAddr, data: &[u8]) {
        if self.trace.get().is_some() {
            let tid = trace_tid();
            for (i, chunk) in data.chunks(crate::trace::MAX_STORE_DATA).enumerate() {
                let off = (i * crate::trace::MAX_STORE_DATA) as u64;
                self.emit(|| TraceEvent::store(tid, addr.0 + off, chunk));
            }
        }
    }

    #[inline]
    fn check(&self, addr: PAddr, size: usize, align: usize) {
        let off = addr.0 as usize;
        assert!(
            off.checked_add(size).is_some_and(|end| end <= self.size),
            "pmem access out of bounds: {addr:?} + {size} > {}",
            self.size
        );
        assert!(
            off.is_multiple_of(align),
            "misaligned pmem access: {addr:?} align {align}"
        );
    }

    #[inline]
    fn ptr(&self, addr: PAddr) -> *mut u8 {
        // Bounds were validated by `check` on every public path.
        self.buf.wrapping_add(addr.0 as usize)
    }

    /// Stores `val` at `addr`.
    ///
    /// `addr` must be aligned for `T` and in bounds (checked). Values of up
    /// to 8 bytes are written with a single atomic store; larger `Pod`s are
    /// written as multiple word stores (callers that need the InCLL
    /// same-line guarantee keep such values within one cache line).
    #[inline]
    pub fn store<T: Pod>(&self, addr: PAddr, val: T) {
        let size = std::mem::size_of::<T>();
        self.check(addr, size, std::mem::align_of::<T>());
        // Fast path: word-sized stores compile to a single relaxed mov
        // (plus the amortized latency charge in NVMM-latency mode).
        if size == 8 && self.sim.is_none() {
            let mut w = 0u64;
            // SAFETY: `T` is Pod with size 8; copying its representation.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    &val as *const T as *const u8,
                    &mut w as *mut u64 as *mut u8,
                    8,
                );
            };
            self.emit(|| TraceEvent::store(trace_tid(), addr.0, &w.to_ne_bytes()));
            // SAFETY: in-bounds, 8-aligned (checked above).
            unsafe { (*(self.ptr(addr) as *const AtomicU64)).store(w, Ordering::Relaxed) };
            if !self.latency_free {
                charge_ns(self.latency.store_ns);
            }
            return;
        }
        let mut bytes = [0u8; 16];
        assert!(size <= 16, "Pod types are at most 16 bytes");
        // SAFETY: `T: Pod` is plain data of `size <= 16` bytes; copying its
        // object representation into a byte buffer is valid.
        unsafe {
            std::ptr::copy_nonoverlapping(&val as *const T as *const u8, bytes.as_mut_ptr(), size);
        };
        self.write(addr, &bytes[..size]);
    }

    /// Loads a `T` from `addr` (aligned, in bounds — checked).
    #[inline]
    pub fn load<T: Pod>(&self, addr: PAddr) -> T {
        let size = std::mem::size_of::<T>();
        self.check(addr, size, std::mem::align_of::<T>());
        self.emit_load(addr, size);
        // Fast path: word-sized loads compile to a single relaxed mov
        // (plus the amortized latency charge in NVMM-latency mode).
        if size == 8 {
            // SAFETY: in-bounds, 8-aligned (checked above).
            let w = unsafe { (*(self.ptr(addr) as *const AtomicU64)).load(Ordering::Relaxed) };
            if !self.latency_free {
                charge_ns(self.latency.load_ns);
            }
            // SAFETY: `T` is Pod with size 8, valid for any bit pattern.
            return unsafe { std::ptr::read_unaligned(&w as *const u64 as *const T) };
        }
        let mut bytes = [0u8; 16];
        assert!(size <= 16, "Pod types are at most 16 bytes");
        // SAFETY: in-bounds, aligned (checked above).
        unsafe { atomic_load_raw(self.ptr(addr), &mut bytes[..size]) };
        if !self.latency_free {
            charge_ns(self.latency.load_ns);
        }
        // SAFETY: `T: Pod` is valid for any bit pattern of its size.

        unsafe { std::ptr::read_unaligned(bytes.as_ptr() as *const T) }
    }

    /// Bulk store (used for payload blocks, registry entries, app data).
    /// Traced as one event per [`MAX_STORE_DATA`]-byte chunk, in program
    /// order, so the payload fits the events' inline buffers.
    ///
    /// [`MAX_STORE_DATA`]: crate::trace::MAX_STORE_DATA
    pub fn store_bytes(&self, addr: PAddr, data: &[u8]) {
        self.check(addr, data.len(), 1);
        self.write(addr, data);
    }

    /// Traces and performs the store of `data` at `addr` (checked by the
    /// caller); a sim-mode region then marks every touched line dirty.
    fn write(&self, addr: PAddr, data: &[u8]) {
        let sim = self.lock_sim();
        self.emit_store(addr, data);
        // SAFETY: in-bounds (checked by the caller).
        unsafe { atomic_store_raw(self.ptr(addr), data) };
        let Some(mut sim) = sim else {
            if !self.latency_free {
                charge_ns(self.latency.store_ns);
            }
            return;
        };
        if let Some(last) = data.len().checked_sub(1) {
            for line in addr.line()..=PAddr(addr.0 + last as u64).line() {
                self.stored(&mut sim, line);
            }
        }
    }

    /// Bulk load.
    pub fn load_bytes(&self, addr: PAddr, out: &mut [u8]) {
        self.check(addr, out.len(), 1);
        self.emit_load(addr, out.len());
        // SAFETY: in-bounds (checked above).
        unsafe { atomic_load_raw(self.ptr(addr), out) };
        if !self.latency_free {
            charge_ns(self.latency.load_ns);
        }
    }

    /// Initiates a write-back of the cache line containing `addr` (paper's
    /// `pwb`, i.e. `clwb`). Asynchronous: complete only after [`psync`].
    ///
    /// [`psync`]: Region::psync
    #[inline]
    pub fn pwb(&self, addr: PAddr) {
        self.check(addr, 1, 1);
        let line = addr.line();
        let event = || TraceEvent::Pwb {
            tid: trace_tid(),
            line,
        };
        // What a write-back *is* depends on the backend: the fast backend
        // only accounts for it (flushing emulated-NVMM DRAM buys nothing
        // and costs ~150 ns/line of host overhead), the mmap backend issues
        // the real `clwb` on the mapped line, the simulator snapshots it.
        match self.kind {
            BackendKind::Sim => {
                let mut sim = self.sim().lock();
                self.emit(event);
                self.stats.count_pwbs(1);
                sim.pcso.pwb(trace_tid(), line, self.read_line(line));
            }
            BackendKind::Fast => {
                self.emit(event);
                self.stats.count_pwbs(1);
                if !self.latency_free {
                    note_pwbs(&self.latency, 1);
                }
            }
            BackendKind::Mmap => {
                self.emit(event);
                self.stats.count_pwbs(1);
                // SAFETY: `addr` is in bounds (checked above), so the
                // flushed address lies inside the live mapping.
                unsafe { crate::arch::pwb(self.ptr(addr)) };
            }
        }
    }

    /// Write-back by cache-line index (used by the flusher pool, whose
    /// tracking lists store line numbers).
    #[inline]
    pub fn pwb_line(&self, line: u64) {
        self.pwb(PAddr(line * CACHE_LINE as u64));
    }

    /// Write-back of every line in `lines` (any order): what a
    /// [`pwb_line`](Region::pwb_line) loop does, with the per-line host
    /// work batched. On the fast and mmap backends one bounds check covers
    /// the highest line, and the `pwb` counter and the modeled issue
    /// latency are charged once for the batch; the mmap backend still
    /// issues one real `clwb` per line. A sim-mode or traced region runs
    /// the per-line loop itself, so the simulator and the trace see exactly
    /// the events the loop produces.
    pub fn pwb_lines(&self, lines: &[u64]) {
        if self.sim.is_some() || self.is_traced() {
            for &line in lines {
                self.pwb_line(line);
            }
            return;
        }
        let Some(&max) = lines.iter().max() else {
            return;
        };
        self.check(PAddr(max.saturating_mul(CACHE_LINE as u64)), 1, 1);
        let n = lines.len() as u64;
        self.stats.count_pwbs(n);
        if !self.latency_free {
            note_pwbs(&self.latency, n);
        }
        if self.kind == BackendKind::Mmap {
            for &line in lines {
                // SAFETY: `line <= max`, whose first byte is in bounds
                // (checked above), so the flushed address lies inside the
                // live mapping.
                unsafe { crate::arch::pwb(self.ptr(PAddr(line * CACHE_LINE as u64))) };
            }
        }
    }

    /// Hints that the line holding `addr` is about to be accessed. Only a
    /// hint: no trace event, no latency charge, nothing counted, and an
    /// address outside the region (a garbage link word, say) is ignored
    /// rather than checked. A no-op off x86-64 and under Miri.
    #[inline]
    pub fn prefetch(&self, addr: PAddr) {
        if addr.0 < self.size as u64 {
            crate::arch::prefetch(self.ptr(addr));
        }
    }

    /// Drops this process's page mappings of a file-backed region: the
    /// bytes stay in the pool file's page cache, and the next access to
    /// each page faults it in afresh. A page read first and written later
    /// pays a read fault and then a read-only→writable upgrade; after the
    /// drop, its first write is one fresh write fault. Like
    /// [`prefetch`](Region::prefetch), only a hint: no trace event, no
    /// latency charge, and a failed call is ignored. A no-op on every
    /// backend but a Linux mmap region — on the anonymous arenas of Fast
    /// and Sim it would zero the data.
    pub fn drop_page_mappings(&self) {
        self.arena.drop_file_pages();
    }

    /// Drains this thread's outstanding write-backs (paper's `psync`,
    /// i.e. `sfence`).
    #[inline]
    pub fn psync(&self) {
        let event = || TraceEvent::Psync { tid: trace_tid() };
        match self.kind {
            BackendKind::Sim => {
                let mut sim = self.sim().lock();
                self.emit(event);
                self.stats.count_psync();
                sim.pcso.psync(trace_tid(), &|line| self.read_line(line));
            }
            BackendKind::Fast => {
                self.emit(event);
                self.stats.count_psync();
                // An `sfence` still orders our (relaxed atomic) stores
                // cheaply and mirrors the paper's instruction sequence.
                crate::arch::psync();
                if !self.latency_free {
                    drain_psync(&self.latency);
                }
            }
            BackendKind::Mmap => {
                self.emit(event);
                self.stats.count_psync();
                crate::arch::psync();
            }
        }
    }

    /// Flushes `len` bytes starting at `addr`: one `pwb` per covered line,
    /// then `psync`.
    pub fn flush_range(&self, addr: PAddr, len: usize) {
        if len == 0 {
            return;
        }
        let first = addr.line();
        let last = PAddr(addr.0 + len as u64 - 1).line();
        for line in first..=last {
            self.pwb_line(line);
        }
        self.psync();
    }

    /// Atomic compare-and-swap of a u64 (for lock-free persistent
    /// structures: MS-queue links, SOFT buckets). Returns `Ok(current)` on
    /// success, `Err(actual)` on mismatch. AcqRel/Acquire ordering.
    pub fn cas_u64(&self, addr: PAddr, current: u64, new: u64) -> Result<u64, u64> {
        self.check(addr, 8, 8);
        let sim = self.lock_sim();
        // SAFETY: in-bounds, 8-aligned (checked); atomics alias plain
        // memory we own.
        let res = unsafe { &*(self.ptr(addr) as *const AtomicU64) }.compare_exchange(
            current,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        self.sync_acquire(SyncToken::Atomic { addr: addr.0 });
        if res.is_ok() {
            self.emit(|| TraceEvent::store(trace_tid(), addr.0, &new.to_ne_bytes()));
            self.sync_release(SyncToken::Atomic { addr: addr.0 });
            if let Some(mut sim) = sim {
                self.stored(&mut sim, addr.line());
            }
        }
        res
    }

    /// Acquire-ordered u64 load (pairs with [`Region::store_release_u64`] /
    /// [`Region::cas_u64`] for lock-free readers).
    #[inline]
    pub fn load_acquire_u64(&self, addr: PAddr) -> u64 {
        self.check(addr, 8, 8);
        // SAFETY: in-bounds, 8-aligned (checked).
        let v = unsafe { &*(self.ptr(addr) as *const AtomicU64) }.load(Ordering::Acquire);
        self.sync_acquire(SyncToken::Atomic { addr: addr.0 });
        v
    }

    /// Release-ordered u64 store.
    #[inline]
    pub fn store_release_u64(&self, addr: PAddr, val: u64) {
        self.check(addr, 8, 8);
        let sim = self.lock_sim();
        self.sync_release(SyncToken::Atomic { addr: addr.0 });
        self.emit(|| TraceEvent::store(trace_tid(), addr.0, &val.to_ne_bytes()));
        // SAFETY: in-bounds, 8-aligned (checked).
        unsafe { &*(self.ptr(addr) as *const AtomicU64) }.store(val, Ordering::Release);
        if let Some(mut sim) = sim {
            self.stored(&mut sim, addr.line());
        }
    }

    /// The simulator of a sim-mode region.
    fn sim(&self) -> &Mutex<LiveSim> {
        self.sim.as_deref().expect("requires a sim-mode region")
    }

    /// Locks the simulator of a sim-mode region, if this is one. Held
    /// across an arena write and the trace event that records it, so the
    /// trace orders both as the simulator did.
    #[inline]
    fn lock_sim(&self) -> Option<MutexGuard<'_, LiveSim>> {
        self.sim.as_deref().map(Mutex::lock)
    }

    /// The current content of `line`, read from the arena (under the
    /// simulator lock, which every sim-mode arena write holds).
    fn read_line(&self, line: u64) -> Line {
        let mut out = [0u8; CACHE_LINE];
        // SAFETY: only called with lines the region has checked or the
        // simulator recorded, all inside the arena.
        unsafe { atomic_load_raw(self.ptr(PAddr(line * CACHE_LINE as u64)), &mut out) };
        out
    }

    /// A store touched `line` of a sim-mode region: counts it, and reports
    /// the eviction the simulator's dice may have chosen.
    fn stored(&self, sim: &mut LiveSim, line: u64) {
        self.stats.count_store();
        if let Some(victim) = sim.store(line, &|l| self.read_line(l)) {
            self.stats.count_eviction();
            self.emit(|| TraceEvent::Eviction { line: victim });
        }
    }

    /// Simulates a crash, returning the persisted image.
    ///
    /// # Panics
    ///
    /// Panics in fast mode (no simulator).
    pub fn crash(&self, mode: CrashMode) -> CrashImage {
        let sim = self.sim().lock();
        self.emit(|| TraceEvent::Crash {
            all_persisted: mode == CrashMode::EvictAll,
        });
        sim.crash(mode, &|line| self.read_line(line))
    }

    /// Restores the volatile image from a crash image (simulated reboot of
    /// the same region) and resets the simulator so persisted == volatile.
    pub fn restore(&self, image: &CrashImage) {
        assert_eq!(image.bytes.len(), self.size, "crash image size mismatch");
        let mut sim = self.sim().lock();
        // SAFETY: copying the full image into the owned buffer; callers only
        // restore while no application threads are running (reboot).
        unsafe { atomic_store_raw(self.buf, &image.bytes) };
        sim.pcso.restore(&image.bytes);
        self.emit(|| TraceEvent::Restore);
    }

    /// Forces every dirty line to the persisted image (clean shutdown /
    /// test setup). No-op in fast mode.
    pub fn persist_all(&self) {
        if let Some(mut sim) = self.lock_sim() {
            sim.pcso.persist_all(&|line| self.read_line(line));
            self.emit(|| TraceEvent::PersistAll);
        }
    }
}

/// Relaxed atomic store of `data` at `ptr`, using the widest aligned lanes.
///
/// # Safety
///
/// `ptr .. ptr + data.len()` must be inside a live allocation.
unsafe fn atomic_store_raw(ptr: *mut u8, data: &[u8]) {
    let mut i = 0usize;
    let len = data.len();
    while i < len {
        let p = ptr.wrapping_add(i);
        let rem = len - i;
        let align = (p as usize).trailing_zeros();
        if rem >= 8 && align >= 3 {
            let v = u64::from_ne_bytes(data[i..i + 8].try_into().unwrap());
            // SAFETY: `p` is valid (caller contract), 8-aligned, and atomics
            // may alias plain memory we own.
            unsafe { (*(p as *const AtomicU64)).store(v, Ordering::Relaxed) };
            i += 8;
        } else if rem >= 4 && align >= 2 {
            let v = u32::from_ne_bytes(data[i..i + 4].try_into().unwrap());
            // SAFETY: as above, 4-aligned.
            unsafe { (*(p as *const AtomicU32)).store(v, Ordering::Relaxed) };
            i += 4;
        } else if rem >= 2 && align >= 1 {
            let v = u16::from_ne_bytes(data[i..i + 2].try_into().unwrap());
            // SAFETY: as above, 2-aligned.
            unsafe { (*(p as *const AtomicU16)).store(v, Ordering::Relaxed) };
            i += 2;
        } else {
            // SAFETY: as above, byte access.
            unsafe { (*(p as *const AtomicU8)).store(data[i], Ordering::Relaxed) };
            i += 1;
        }
    }
}

/// Relaxed atomic load into `out`. See [`atomic_store_raw`].
///
/// # Safety
///
/// `ptr .. ptr + out.len()` must be inside a live allocation.
unsafe fn atomic_load_raw(ptr: *const u8, out: &mut [u8]) {
    let mut i = 0usize;
    let len = out.len();
    while i < len {
        let p = ptr.wrapping_add(i);
        let rem = len - i;
        let align = (p as usize).trailing_zeros();
        if rem >= 8 && align >= 3 {
            // SAFETY: caller contract; 8-aligned.
            let v = unsafe { (*(p as *const AtomicU64)).load(Ordering::Relaxed) };
            out[i..i + 8].copy_from_slice(&v.to_ne_bytes());
            i += 8;
        } else if rem >= 4 && align >= 2 {
            // SAFETY: caller contract; 4-aligned.
            let v = unsafe { (*(p as *const AtomicU32)).load(Ordering::Relaxed) };
            out[i..i + 4].copy_from_slice(&v.to_ne_bytes());
            i += 4;
        } else if rem >= 2 && align >= 1 {
            // SAFETY: caller contract; 2-aligned.
            let v = unsafe { (*(p as *const AtomicU16)).load(Ordering::Relaxed) };
            out[i..i + 2].copy_from_slice(&v.to_ne_bytes());
            i += 2;
        } else {
            // SAFETY: caller contract; byte access.
            out[i] = unsafe { (*(p as *const AtomicU8)).load(Ordering::Relaxed) };
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_roundtrip() {
        let r = Region::new(RegionConfig::fast(4096));
        r.store(PAddr(64), 0xdead_beef_u64);
        assert_eq!(r.load::<u64>(PAddr(64)), 0xdead_beef);
        r.store(PAddr(72), 7u32);
        assert_eq!(r.load::<u32>(PAddr(72)), 7);
        r.store(PAddr(80), -5i64);
        assert_eq!(r.load::<i64>(PAddr(80)), -5);
        r.store(PAddr(96), 1.5f64);
        assert_eq!(r.load::<f64>(PAddr(96)), 1.5);
    }

    #[test]
    fn bytes_roundtrip() {
        let r = Region::new(RegionConfig::fast(4096));
        let data: Vec<u8> = (0..200).collect();
        r.store_bytes(PAddr(100), &data); // unaligned, crosses lines
        let mut out = vec![0u8; 200];
        r.load_bytes(PAddr(100), &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn sixteen_byte_pod() {
        let r = Region::new(RegionConfig::fast(4096));
        r.store(PAddr(128), (1u64, 2u64));
        assert_eq!(r.load::<(u64, u64)>(PAddr(128)), (1, 2));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_store_panics() {
        let r = Region::new(RegionConfig::fast(128));
        r.store(PAddr(128), 1u64);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_store_panics() {
        let r = Region::new(RegionConfig::fast(128));
        r.store(PAddr(4), 1u64);
    }

    #[test]
    fn sim_crash_loses_unflushed() {
        let r = Region::new(RegionConfig::sim(4096, SimConfig::no_eviction(42)));
        r.store(PAddr(64), 11u64);
        r.store(PAddr(1024), 22u64);
        r.flush_range(PAddr(64), 8);
        let img = r.crash(CrashMode::PowerFailure);
        let flushed = u64::from_ne_bytes(img.bytes()[64..72].try_into().unwrap());
        let lost = u64::from_ne_bytes(img.bytes()[1024..1032].try_into().unwrap());
        assert_eq!(flushed, 11);
        assert_eq!(lost, 0);
    }

    #[test]
    fn sim_restore_resumes() {
        let r = Region::new(RegionConfig::sim(4096, SimConfig::no_eviction(42)));
        r.store(PAddr(64), 11u64);
        r.flush_range(PAddr(64), 8);
        let img = r.crash(CrashMode::PowerFailure);
        r.restore(&img);
        assert_eq!(r.load::<u64>(PAddr(64)), 11);
        // Continue working after "reboot".
        r.store(PAddr(64), 12u64);
        assert_eq!(r.load::<u64>(PAddr(64)), 12);
        let img2 = r.crash(CrashMode::PowerFailure);
        // 12 was never flushed after the reboot: image still holds 11.
        let v = u64::from_ne_bytes(img2.bytes()[64..72].try_into().unwrap());
        assert_eq!(v, 11);
    }

    #[test]
    fn size_rounds_to_lines() {
        let r = Region::new(RegionConfig::fast(100));
        assert_eq!(r.size(), 128);
    }

    #[test]
    fn concurrent_distinct_words() {
        let r = Region::new(RegionConfig::fast(4096));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let r = &r;
                s.spawn(move || {
                    let addr = PAddr(512 + t * 8);
                    for i in 0..1000u64 {
                        r.store(addr, t * 1_000_000 + i);
                    }
                });
            }
        });
        for t in 0..4u64 {
            assert_eq!(r.load::<u64>(PAddr(512 + t * 8)), t * 1_000_000 + 999);
        }
    }
}

#[cfg(test)]
mod cas_tests {
    use super::*;

    #[test]
    fn cas_success_and_failure() {
        let r = Region::new(RegionConfig::fast(4096));
        r.store(PAddr(64), 5u64);
        assert_eq!(r.cas_u64(PAddr(64), 5, 6), Ok(5));
        assert_eq!(r.cas_u64(PAddr(64), 5, 7), Err(6));
        assert_eq!(r.load::<u64>(PAddr(64)), 6);
    }

    #[test]
    fn acquire_release_roundtrip() {
        let r = Region::new(RegionConfig::fast(4096));
        r.store_release_u64(PAddr(128), 42);
        assert_eq!(r.load_acquire_u64(PAddr(128)), 42);
    }

    #[test]
    fn sim_cas_marks_line_dirty() {
        let r = Region::new(RegionConfig::sim(4096, SimConfig::no_eviction(3)));
        r.store(PAddr(64), 1u64);
        r.cas_u64(PAddr(64), 1, 2).unwrap();
        r.flush_range(PAddr(64), 8);
        let img = r.crash(crate::sim::CrashMode::PowerFailure);
        let v = u64::from_ne_bytes(img.bytes()[64..72].try_into().unwrap());
        assert_eq!(v, 2);
    }

    #[test]
    fn concurrent_cas_counter() {
        let r = Region::new(RegionConfig::fast(4096));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = &r;
                s.spawn(move || {
                    for _ in 0..1000 {
                        loop {
                            let cur = r.load_acquire_u64(PAddr(256));
                            if r.cas_u64(PAddr(256), cur, cur + 1).is_ok() {
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(r.load::<u64>(PAddr(256)), 4000);
    }
}

/// What `Region::try_new` makes of a config: every backend, every
/// validation rule, one table. (The file-backed rows live in
/// `mmap_tests::mmap_try_new_table`, gated on a platform with `mmap`.)
#[cfg(test)]
mod try_new_tests {
    use super::*;

    /// The outcome a row expects.
    #[derive(Debug)]
    pub(super) enum Want {
        Open {
            kind: BackendKind,
            created: bool,
            size: usize,
        },
        InvalidConfig,
        BadImage(u64),
        Alloc(usize),
    }

    pub(super) fn check(name: &str, cfg: RegionConfig, want: Want) -> Option<Arc<Region>> {
        let path = match cfg.mode() {
            RegionMode::Mmap(p) => Some(p.clone()),
            _ => None,
        };
        match (Region::try_new(cfg), want) {
            (
                Ok(r),
                Want::Open {
                    kind,
                    created,
                    size,
                },
            ) => {
                assert_eq!(r.backend_kind(), kind, "{name}");
                assert_eq!(r.is_sim(), kind == BackendKind::Sim, "{name}");
                assert_eq!(r.was_created(), created, "{name}");
                assert_eq!(r.size(), size, "{name}");
                assert_eq!(r.path(), path.as_deref(), "{name}");
                r.sync_data().unwrap();
                Some(r)
            }
            (Err(RegionError::InvalidConfig(_)), Want::InvalidConfig) => None,
            (Err(RegionError::BadImage { len, .. }), Want::BadImage(want)) => {
                assert_eq!(len, want, "{name}");
                None
            }
            (Err(e @ RegionError::Alloc { size, .. }), Want::Alloc(want)) => {
                assert_eq!(size, want, "{name}");
                assert!(
                    e.to_string().contains(&format!("{want}-byte")),
                    "{name}: {e}"
                );
                None
            }
            (got, want) => panic!("{name}: wanted {want:?}, got {:?}", got.map(|r| r.size())),
        }
    }

    #[test]
    fn try_new_table() {
        use BackendKind::{Fast, Sim};
        let open = |kind, size| Want::Open {
            kind,
            created: true,
            size,
        };
        let sim = || SimConfig::no_eviction(7);
        for (name, cfg, want) in [
            ("fast", RegionConfig::fast(4096), open(Fast, 4096)),
            ("fast rounds up", RegionConfig::fast(100), open(Fast, 128)),
            ("optane", RegionConfig::optane(128), open(Fast, 128)),
            ("sim", RegionConfig::sim(4096, sim()), open(Sim, 4096)),
            (
                "run-time mode",
                RegionConfig::new(100, RegionMode::Sim(sim())),
                open(Sim, 128),
            ),
            ("fast, no size", RegionConfig::fast(0), Want::InvalidConfig),
            (
                "sim, no size",
                RegionConfig::sim(0, sim()),
                Want::InvalidConfig,
            ),
        ] {
            if let Some(r) = check(name, cfg, want) {
                // An anonymous arena starts zeroed.
                assert_eq!(r.load::<u64>(PAddr(0)), 0, "{name}");
                assert_eq!(r.load::<u8>(PAddr(r.size() as u64 - 1)), 0, "{name}");
            }
        }
    }

    /// An arena the OS will not map is a typed error naming its size, not
    /// a panic. (Not under Miri: asking its allocator for 4 EiB aborts the
    /// interpreter.)
    #[test]
    #[cfg(not(miri))]
    fn unmappable_arena_is_a_typed_error() {
        let huge = 1 << 62;
        check("fast", RegionConfig::fast(huge), Want::Alloc(huge));
        let sim = RegionConfig::sim(huge, SimConfig::no_eviction(7));
        check("sim", sim, Want::Alloc(huge));
    }

    #[test]
    fn write_backs_are_counted_on_heap_backends() {
        for cfg in [
            RegionConfig::fast(4096),
            RegionConfig::sim(4096, SimConfig::no_eviction(7)),
        ] {
            let r = Region::new(cfg);
            r.pwb_line(0);
            r.pwb_line(1);
            r.psync();
            let snap = r.stats().snapshot();
            assert_eq!((snap.pwb, snap.psync), (2, 1), "{:?}", r.backend_kind());
        }
    }

    /// `pwb_lines` is a `pwb_line` loop with the host work batched: the
    /// same counters on the fast backend, with and without modeled
    /// latency, and the same events in the same order on a traced sim
    /// region.
    #[test]
    fn pwb_lines_matches_a_pwb_line_loop() {
        let lines = [3u64, 0, 63, 3, 17];
        let looped = |r: &Region| lines.iter().for_each(|&l| r.pwb_line(l));
        for cfg in [RegionConfig::fast(4096), RegionConfig::optane(4096)] {
            let (a, b) = (Region::new(cfg.clone()), Region::new(cfg));
            a.pwb_lines(&lines);
            a.pwb_lines(&[]);
            looped(&b);
            a.psync();
            b.psync();
            assert_eq!(a.stats().snapshot(), b.stats().snapshot());
        }
        let traced = |write_back: &dyn Fn(&Region)| {
            let r = Region::new(RegionConfig::sim(4096, SimConfig::no_eviction(7)));
            let sink = Arc::new(crate::trace::VecSink::new());
            r.set_trace_sink(sink.clone());
            write_back(&r);
            (sink.drain(), r.stats().snapshot())
        };
        let (events, stats) = traced(&|r| r.pwb_lines(&lines));
        assert_eq!(events.len(), lines.len());
        assert_eq!((events, stats), traced(&looped));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn pwb_lines_checks_the_highest_line() {
        Region::new(RegionConfig::fast(4096)).pwb_lines(&[1, u64::MAX, 2]);
    }

    #[test]
    fn prefetch_ignores_any_address() {
        let r = Region::new(RegionConfig::fast(4096));
        for addr in [0, 4095, 4096, u64::MAX] {
            r.prefetch(PAddr(addr));
        }
        assert_eq!(r.stats().snapshot(), crate::stats::StatsSnapshot::default());
    }

    #[test]
    fn from_image_counts_the_image_as_persisted() {
        let r = Region::new(RegionConfig::fast(4096));
        r.store(PAddr(64), 7u64);
        let mut bytes = vec![0u8; 4096];
        r.load_bytes(PAddr(0), &mut bytes);
        let r2 = Region::from_image(&bytes);
        assert_eq!(r2.backend_kind(), BackendKind::Sim);
        assert_eq!(r2.load::<u64>(PAddr(64)), 7);
        // Nothing was flushed since: what survives a crash is the image.
        r2.store(PAddr(128), 9u64);
        let img = r2.crash(CrashMode::PowerFailure);
        assert_eq!(img.bytes()[..128], bytes[..128]);
        assert_eq!(img.bytes()[128..136], [0u8; 8]);
    }
}

#[cfg(all(test, unix, not(miri)))]
mod mmap_tests {
    use super::try_new_tests::{check, Want};
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("respct_region_mmap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Each row: the file's length before the open (`None` = no file), the
    /// size the config asks for, what `try_new` makes of it.
    #[test]
    fn mmap_try_new_table() {
        let open = |created, size| Want::Open {
            kind: BackendKind::Mmap,
            created,
            size,
        };
        for (name, before, ask, want) in [
            ("create", None, 8192, open(true, 8192)),
            ("create rounds up", None, 100, open(true, 128)),
            ("empty file is created", Some(0), 4096, open(true, 4096)),
            ("existing size wins", Some(4096), 1 << 20, open(false, 4096)),
            ("reopen needs no size", Some(8192), 0, open(false, 8192)),
            ("missing, no size", None, 0, Want::InvalidConfig),
            ("ragged file", Some(100), 0, Want::BadImage(100)),
        ] {
            let path = tmp("table.pool");
            if let Some(len) = before {
                std::fs::write(&path, vec![0u8; len]).unwrap();
            }
            if let Some(r) = check(name, RegionConfig::mmap(ask, &path), want) {
                let on_disk = std::fs::metadata(&path).unwrap().len();
                assert_eq!(on_disk, r.size() as u64, "{name}");
            }
            let _ = std::fs::remove_file(&path);
        }
        let nowhere = RegionConfig::mmap(4096, PathBuf::new());
        check("empty path", nowhere, Want::InvalidConfig);
    }

    #[test]
    fn mmap_region_survives_reopen() {
        let path = tmp("reopen.pool");
        {
            let r = Region::new(RegionConfig::mmap(8192, &path));
            r.store(PAddr(256), 0xcafe_f00d_u64);
            r.flush_range(PAddr(256), 8);
            let snap = r.stats().snapshot();
            assert_eq!((snap.pwb, snap.psync), (1, 1));
            r.sync_data().unwrap();
        }
        let r = Region::new(RegionConfig::mmap(0, &path));
        assert!(!r.was_created());
        assert_eq!(r.load::<u64>(PAddr(256)), 0xcafe_f00d);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mmap_pwb_lines_counts_like_a_loop() {
        let path = tmp("pwb_lines.pool");
        let r = Region::new(RegionConfig::mmap(8192, &path));
        let lines = [5u64, 1, 5, 127];
        r.pwb_lines(&lines);
        let batched = r.stats().snapshot();
        lines.iter().for_each(|&l| r.pwb_line(l));
        let looped = r.stats().snapshot().since(&batched);
        assert_eq!(batched, looped);
        assert_eq!(batched.pwb, 4);
        std::fs::remove_file(&path).unwrap();
    }

    /// Dropping the page mappings loses nothing: not on a pool file, where
    /// the pages refault from the page cache — also after a reopen — and
    /// not on the anonymous arenas of Fast and Sim, which it must leave
    /// alone.
    #[test]
    fn mmap_drop_page_mappings_keeps_the_data() {
        const PAGE: u64 = 4096;
        let words = |salt: u64| (0..8u64).map(move |p| (PAddr(p * PAGE + 8 * p), salt ^ p));
        let round_trip = |r: &Region, salt| {
            words(salt).for_each(|(at, v)| r.store(at, v));
            r.drop_page_mappings();
            for (at, v) in words(salt) {
                assert_eq!(r.load::<u64>(at), v, "{:?} at {at:?}", r.backend_kind());
            }
        };
        let path = tmp("drop_pages.pool");
        {
            let r = Region::new(RegionConfig::mmap(8 * PAGE as usize, &path));
            round_trip(&r, 0xa5);
            words(0x5a).for_each(|(at, v)| r.store(at, v));
            r.drop_page_mappings();
        }
        let r = Region::new(RegionConfig::mmap(0, &path));
        assert!(!r.was_created());
        for (at, v) in words(0x5a) {
            assert_eq!(r.load::<u64>(at), v, "reopened, at {at:?}");
        }
        drop(r);
        std::fs::remove_file(&path).unwrap();
        for r in [
            Region::new(RegionConfig::fast(8 * PAGE as usize)),
            Region::new(RegionConfig::sim(
                8 * PAGE as usize,
                SimConfig::no_eviction(3),
            )),
        ] {
            round_trip(&r, 0xc3);
        }
    }

    #[test]
    #[should_panic(expected = "requires a sim-mode region")]
    fn mmap_region_has_no_crash_injection() {
        let path = tmp("nocrash.pool");
        let r = Region::new(RegionConfig::mmap(4096, &path));
        r.crash(CrashMode::PowerFailure);
    }
}
