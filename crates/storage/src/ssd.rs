//! The simulated solid-state drive.
//!
//! This is the substitute for the paper testbed's SATA SSD (see DESIGN.md
//! §1). The device holds a real in-heap disk image and services requests
//! with `channels` worker threads. Timing follows a service model:
//!
//! * every request pays a per-operation **base latency** (flash read/program
//!   time + controller overhead),
//! * all requests share an aggregate **bandwidth** budget: the SATA link,
//!   where each transfer reserves its own interval,
//! * at most `queue_depth` requests may be queued at the device (NCQ), and
//!   at most `channels` are in service concurrently (internal parallelism).
//!
//! Each channel worker schedules on virtual time
//! ([`gnndrive_sync::vclock`]). A request starts at `max(channel free,
//! Request.submitted)`, never at the moment the worker picked it up; its
//! link transfer is reserved from `min(start, now)` (no earlier than
//! [`vclock::LINK_HISTORY`] before now); its deadline is
//! `max(start + base latency, link done)` plus any injected latency.
//! [`Completion::queue_ns`] and [`Completion::service_ns`] are the virtual
//! `start − submitted` and `deadline − start`. So a worker that wakes late
//! costs the device no capacity: the schedule absorbs the lateness, and
//! `storage.ssd.behind_ns` counts it (the sum over requests of pickup −
//! virtual start).
//!
//! What still takes wall time is delivery. A worker sleeps until the
//! deadline when nothing else is queued (a lone synchronous caller sees
//! its full modeled latency) or once it runs `sleep_granularity` ahead of
//! wall time, and otherwise delivers early, so sleep syscalls stay
//! amortized. Data movement is real: reads copy bytes out of the image
//! into the request buffer.

use crate::error::IoError;
use crate::fault::{mix_unit, FaultInjector, FaultPlan, FaultVerdict, SilentCorruption};
use crate::integrity::{crc32, IntegrityError, SectorChecksums};
use crate::stats::IoStats;
use crate::wcache::{DirtySector, PowerCutReport, WriteCache};
use gnndrive_sync::channel::{bounded, Sender};
use gnndrive_sync::vclock::{self, Link, Server};
use gnndrive_sync::{LockRank, OrderedCondvar, OrderedMutex, OrderedRwLock};
use gnndrive_telemetry as telemetry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::Counter;

/// Legacy disk sector size; direct I/O must be aligned to this (paper §4.4).
pub const SECTOR_SIZE: u64 = 512;

/// Timing and shape parameters of a simulated device.
#[derive(Debug, Clone)]
pub struct SsdProfile {
    pub name: &'static str,
    /// Base service latency of a read request.
    pub read_latency: Duration,
    /// Base service latency of a write request.
    pub write_latency: Duration,
    /// Aggregate device bandwidth in bytes/second.
    pub bandwidth: u64,
    /// Number of parallel internal service units (≈ NCQ effective depth).
    pub channels: usize,
    /// Capacity of the device submission queue; submitting beyond it stalls.
    pub queue_depth: usize,
    /// Workers may run at most this far ahead of wall time before sleeping.
    pub sleep_granularity: Duration,
}

impl SsdProfile {
    /// SAMSUNG PM883-like SATA SSD (the paper's main testbed device).
    pub fn pm883() -> Self {
        SsdProfile {
            name: "pm883",
            read_latency: Duration::from_micros(85),
            write_latency: Duration::from_micros(70),
            bandwidth: 520 * 1024 * 1024,
            channels: 16,
            queue_depth: 64,
            sleep_granularity: Duration::from_micros(400),
        }
    }

    /// Intel DC S3510-like SATA SSD (the paper's multi-GPU machine device,
    /// an older and slower drive).
    pub fn s3510() -> Self {
        SsdProfile {
            name: "s3510",
            read_latency: Duration::from_micros(110),
            write_latency: Duration::from_micros(95),
            bandwidth: 420 * 1024 * 1024,
            channels: 12,
            queue_depth: 64,
            sleep_granularity: Duration::from_micros(400),
        }
    }

    /// The pm883 slowed ~4× for experiment runs: the datasets are scaled
    /// ÷1000 but mini-batch neighborhoods only shrink ~÷30 (fanout
    /// expansion is scale-invariant), so a proportionally slower device
    /// keeps the paper's extract-dominates-epoch shape. See DESIGN.md.
    pub fn pm883_repro() -> Self {
        SsdProfile {
            name: "pm883-repro",
            read_latency: Duration::from_micros(340),
            write_latency: Duration::from_micros(280),
            bandwidth: 130 * 1024 * 1024,
            channels: 16,
            queue_depth: 64,
            sleep_granularity: Duration::from_micros(500),
        }
    }

    /// The s3510 slowed ~4× (multi-GPU machine experiments).
    pub fn s3510_repro() -> Self {
        SsdProfile {
            name: "s3510-repro",
            read_latency: Duration::from_micros(440),
            write_latency: Duration::from_micros(380),
            bandwidth: 105 * 1024 * 1024,
            channels: 12,
            queue_depth: 64,
            sleep_granularity: Duration::from_micros(500),
        }
    }

    /// Zero-latency device for unit tests: data movement without timing.
    pub fn instant() -> Self {
        SsdProfile {
            name: "instant",
            read_latency: Duration::ZERO,
            write_latency: Duration::ZERO,
            bandwidth: u64::MAX / 4,
            channels: 2,
            queue_depth: 1024,
            sleep_granularity: Duration::ZERO,
        }
    }

    /// A uniformly time-scaled copy (for fast CI-sized experiments):
    /// latencies divided by `factor`, bandwidth multiplied by it.
    pub fn scaled_down(mut self, factor: u32) -> Self {
        self.read_latency /= factor;
        self.write_latency /= factor;
        self.bandwidth = self.bandwidth.saturating_mul(factor as u64);
        self
    }

    /// Bytes the link moves in the time the op limit charges one read:
    /// `bandwidth × read_latency / channels`. A request costs
    /// `max(start + read_latency, link transfer done)`, so a batch of reads
    /// takes `max(ops × read_latency / channels, bytes / bandwidth)`; while
    /// its bytes stay under `ops × read_op_bytes()` the device is op-bound
    /// and one larger read is cheaper than two small ones. About 2.9 KB on
    /// `pm883_repro` (unchanged by [`SsdProfile::scaled_down`]), 0 on
    /// `instant`.
    pub fn read_op_bytes(&self) -> u64 {
        let bytes = self.bandwidth as u128 * self.read_latency.as_nanos()
            / 1_000_000_000
            / self.channels.max(1) as u128;
        bytes.min(u64::MAX as u128) as u64
    }
}

/// Handle to a file (extent) on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileHandle {
    pub id: u32,
    pub len: u64,
}

/// Operation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    Read,
    Write,
}

/// QoS lane of a submitted request (DESIGN.md §11).
///
/// The device keeps one submission FIFO per lane and its channel workers
/// always drain the [`IoPriority::Serve`] FIFO first, so latency-critical
/// online-inference reads jump ahead of bulk training reads that are
/// already queued (but never preempt a request in service). Everything
/// that predates the serving tier submits [`IoPriority::Bulk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoPriority {
    /// Latency-critical serving reads; drained ahead of the bulk lane.
    Serve,
    /// Throughput-oriented training / maintenance traffic.
    #[default]
    Bulk,
}

/// A completed request, delivered on the submitter's completion channel.
#[derive(Debug)]
pub struct Completion {
    /// Caller-chosen tag, as in io_uring's `user_data`.
    pub user_data: u64,
    /// For reads, the buffer now filled with data; for writes, the buffer
    /// handed back. `Err` only for device shutdown races — validation errors
    /// are reported synchronously at submission.
    pub result: Result<Vec<u8>, IoError>,
    /// Modeled request latency (submission to completion deadline).
    pub latency: Duration,
    /// Queueing share of `latency`, in virtual time: from submission until
    /// its channel was free to start it (`start − submitted`). Together
    /// with `service_ns` this is the per-completion congestion/service
    /// split the attribution layer consumes (DESIGN.md §10).
    pub queue_ns: u64,
    /// Service share (`deadline − start`): what the device model charged
    /// (base latency, bandwidth reservation, injected fault latency).
    pub service_ns: u64,
}

pub(crate) struct Request {
    pub file: u32,
    pub offset: u64,
    pub op: IoOp,
    pub buf: Vec<u8>,
    pub user_data: u64,
    pub reply: Sender<Completion>,
    pub submitted: Instant,
    pub prio: IoPriority,
}

struct FileMeta {
    base: u64,
    len: u64,
}

/// The disk image plus its per-sector CRC table, kept in lockstep by every
/// legitimate write path (`create_file`, `import`, serviced writes). The
/// image is always sector-padded — `create_file` rounds both the base and
/// the allocation up to [`SECTOR_SIZE`] — so every table entry covers a
/// full sector.
struct DiskImage {
    bytes: Vec<u8>,
    crcs: SectorChecksums,
}

/// Device-side integrity bookkeeping. The *intent ledger* records what torn
/// writes meant to persist (the simulated analog of the controller's
/// journal/NVRAM redundancy the scrubber repairs from); the *quarantine*
/// set fences sectors whose media bytes are known-bad, so reads fail
/// decisively until the sector is repaired or rewritten.
#[derive(Default)]
struct IntegrityState {
    /// Absolute image sector index → intended full-sector contents.
    intents: HashMap<u64, Vec<u8>>,
    /// Absolute image sector indices fenced off from reads.
    quarantined: HashSet<u64>,
}

/// Cached `storage.integrity.*` counters (one registry lookup at device
/// creation, not per request).
struct IntegrityCounters {
    /// Effective silent corruptions injected (bytes actually changed).
    injected: Counter,
    bit_flips: Counter,
    misdirects: Counter,
    torn_writes: Counter,
    /// Verification boundaries that caught a mismatch.
    detected: Counter,
    /// Ground-truth tripwire: corrupt bytes that passed every CRC check.
    escaped: Counter,
    /// Sectors fenced off as persistently bad.
    quarantined: Counter,
}

impl IntegrityCounters {
    fn new() -> Self {
        IntegrityCounters {
            injected: telemetry::counter("storage.integrity.injected"),
            bit_flips: telemetry::counter("storage.integrity.bit_flips"),
            misdirects: telemetry::counter("storage.integrity.misdirects"),
            torn_writes: telemetry::counter("storage.integrity.torn_writes"),
            detected: telemetry::counter("storage.integrity.detected"),
            escaped: telemetry::counter("storage.integrity.escaped"),
            quarantined: telemetry::counter("storage.integrity.quarantined"),
        }
    }
}

/// Result of one [`SimSsd::scrub_chunk`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScrubChunk {
    /// Sectors examined this pass.
    pub scanned: u64,
    /// Sectors whose media bytes disagreed with the CRC table and were
    /// restored from the intent ledger.
    pub repaired: u64,
    /// Mismatched sectors with no ledger entry to repair from; they stay
    /// quarantined.
    pub unrecoverable: u64,
    /// Where the next pass should start (wraps to 0 at the end of the
    /// image).
    pub next_sector: u64,
    /// Total sectors the image currently spans.
    pub total_sectors: u64,
}

struct Shared {
    profile: SsdProfile,
    queue: SubmitQueue,
    image: OrderedRwLock<DiskImage>,
    files: OrderedMutex<Vec<FileMeta>>,
    /// Intent ledger + quarantine set; always acquired *after* `image`
    /// (same rank — equal-rank nesting is allowed, order is conventional).
    integrity: OrderedMutex<IntegrityState>,
    /// Volatile write-back cache undo log; always acquired *after*
    /// `integrity` (same conventional ordering).
    wcache: OrderedMutex<WriteCache>,
    im: IntegrityCounters,
    stats: IoStats,
    /// The shared link, on virtual time: reserving `b` bytes holds it for
    /// `b / bandwidth`.
    link: OrderedMutex<Link>,
    /// Active fault-injection schedule, consulted by workers per request.
    fault: OrderedRwLock<Option<FaultInjector>>,
    /// Set once [`SimSsd::shutdown`] begins; workers stop servicing and
    /// reply [`IoError::DeviceClosed`] to anything still queued.
    closed: AtomicBool,
}

/// The device's submission queue: one FIFO per QoS lane, each capped at
/// the NCQ depth, both under one lock. Submission and the workers' pop
/// share that lock, so the pop after a serve submission always takes the
/// serve request, ahead of every bulk request already queued.
struct SubmitQueue {
    lanes: OrderedMutex<Lanes>,
    /// Per-lane capacity (the device's queue depth).
    cap: usize,
    /// Raised when a request lands (for idle workers) and, while a
    /// submitter is parked on a full lane, when a slot frees.
    changed: OrderedCondvar,
}

struct Lanes {
    serve: VecDeque<Request>,
    bulk: VecDeque<Request>,
    /// Set by [`SimSsd::shutdown`]: no more submissions; workers drain
    /// what is queued and exit.
    closed: bool,
    /// Submitters parked on a full lane. While non-zero, every change
    /// wakes all waiters, since workers and submitters share `changed`.
    parked: usize,
}

impl Lanes {
    fn lane(&mut self, prio: IoPriority) -> &mut VecDeque<Request> {
        match prio {
            IoPriority::Serve => &mut self.serve,
            IoPriority::Bulk => &mut self.bulk,
        }
    }
}

/// Why [`SubmitQueue::enqueue`] handed a request back.
enum Rejected {
    Full(Request),
    Closed(Request),
}

impl SubmitQueue {
    fn new(cap: usize) -> Self {
        SubmitQueue {
            lanes: OrderedMutex::new(
                LockRank::Storage,
                Lanes {
                    serve: VecDeque::new(),
                    bulk: VecDeque::new(),
                    closed: false,
                    parked: 0,
                },
            ),
            cap: cap.max(1),
            changed: OrderedCondvar::new(),
        }
    }

    /// Queue `req` on its lane. With `wait`, park while the lane is full;
    /// without, hand the request back as `Full`.
    fn enqueue(&self, req: Request, wait: bool) -> Result<(), Rejected> {
        let mut lanes = self.lanes.lock();
        loop {
            if lanes.closed {
                return Err(Rejected::Closed(req));
            }
            if lanes.lane(req.prio).len() < self.cap {
                break;
            }
            if !wait {
                return Err(Rejected::Full(req));
            }
            lanes.parked += 1;
            self.changed.wait(&mut lanes);
            lanes.parked -= 1;
        }
        lanes.lane(req.prio).push_back(req);
        if lanes.parked > 0 {
            self.changed.notify_all();
        } else {
            self.changed.notify_one();
        }
        Ok(())
    }

    /// Pop the next request, serve lane first. Blocks while both lanes are
    /// empty; `None` once the queue is closed and drained. Requests still
    /// queued at shutdown are delivered so they get their `DeviceClosed`
    /// reply.
    fn next_request(&self) -> Option<Request> {
        let mut lanes = self.lanes.lock();
        loop {
            if let Some(req) = lanes.serve.pop_front().or_else(|| lanes.bulk.pop_front()) {
                if lanes.parked > 0 {
                    self.changed.notify_all();
                }
                return Some(req);
            }
            if lanes.closed {
                return None;
            }
            self.changed.wait(&mut lanes);
        }
    }

    fn is_drained(&self) -> bool {
        let lanes = self.lanes.lock();
        lanes.serve.is_empty() && lanes.bulk.is_empty()
    }

    fn close(&self) {
        self.lanes.lock().closed = true;
        self.changed.notify_all();
    }
}

/// The simulated SSD. See module docs for the timing model.
pub struct SimSsd {
    shared: Arc<Shared>,
    workers: OrderedMutex<Vec<JoinHandle<()>>>,
}

/// Outcome of a non-blocking submission attempt.
pub(crate) enum SubmitOutcome {
    Accepted,
    /// Device queue full: the request is handed back for requeueing.
    Full(Request),
    /// Device shut down: the request was consumed and its reply channel
    /// got a [`IoError::DeviceClosed`] completion.
    Closed,
}

impl SimSsd {
    /// Bring up a device with the given profile.
    pub fn new(profile: SsdProfile) -> Arc<Self> {
        let created = Instant::now();
        let shared = Arc::new(Shared {
            profile: profile.clone(),
            queue: SubmitQueue::new(profile.queue_depth),
            image: OrderedRwLock::new(
                LockRank::Storage,
                DiskImage {
                    bytes: Vec::new(),
                    crcs: SectorChecksums::default(),
                },
            ),
            files: OrderedMutex::new(LockRank::Storage, Vec::new()),
            integrity: OrderedMutex::new(LockRank::Storage, IntegrityState::default()),
            wcache: OrderedMutex::new(LockRank::Storage, WriteCache::new()),
            im: IntegrityCounters::new(),
            stats: IoStats::default(),
            link: OrderedMutex::new(LockRank::Storage, Link::new(profile.bandwidth)),
            fault: OrderedRwLock::new(LockRank::Storage, None),
            closed: AtomicBool::new(false),
        });
        let mut workers = Vec::with_capacity(profile.channels);
        for i in 0..profile.channels {
            let sh = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("simssd-{}-{}", profile.name, i))
                    .spawn(move || channel_worker(sh, Server::new(created)))
                    .expect("spawn ssd worker"),
            );
        }
        Arc::new(SimSsd {
            shared,
            workers: OrderedMutex::new(LockRank::Storage, workers),
        })
    }

    pub fn profile(&self) -> &SsdProfile {
        &self.shared.profile
    }

    pub fn stats(&self) -> &IoStats {
        &self.shared.stats
    }

    /// Install a fault-injection schedule; replaces any active plan and
    /// resets its operation counters.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.shared.fault.write() = if plan.is_active() {
            Some(FaultInjector::new(plan))
        } else {
            None
        };
    }

    /// Remove any active fault plan (the device becomes healthy again).
    pub fn clear_faults(&self) {
        *self.shared.fault.write() = None;
    }

    /// Fault injection: make every `n`-th read fail with
    /// [`IoError::DeviceFault`] (0 disables). Compatibility shim over
    /// [`SimSsd::set_fault_plan`]; used by failure-path tests.
    pub fn inject_read_faults(&self, n: u64) {
        self.set_fault_plan(FaultPlan::new(0).with_read_fault_every(n));
    }

    /// Like [`SimSsd::inject_read_faults`] but only reads of `file` fail —
    /// lets tests break the feature table while topology stays healthy.
    pub fn inject_read_faults_on(&self, file: FileHandle, n: u64) {
        self.set_fault_plan(FaultPlan::new(0).with_read_fault_every(n).on_file(file.id));
    }

    /// Whether the device has been shut down (or is shutting down).
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }

    /// Shut the device down: in-flight and queued requests complete with
    /// [`IoError::DeviceClosed`], workers exit, and all later submissions
    /// fail fast. Idempotent; `Drop` calls it too.
    pub fn shutdown(&self) {
        self.shared.closed.store(true, Ordering::Release);
        // Closing the queue lets workers drain it and exit.
        self.shared.queue.close();
        // Take the handles out and release the lock before joining:
        // joining with the `workers` guard held would deadlock anyone
        // touching the worker list while a worker winds down.
        let mut workers = self.workers.lock();
        let handles = std::mem::take(&mut *workers);
        drop(workers);
        for h in handles {
            let _ = h.join();
        }
    }

    /// Allocate a zero-filled file of `len` bytes on the device. The base
    /// and the allocation are both rounded up to [`SECTOR_SIZE`], so
    /// file-relative sector offsets map to whole image sectors and every
    /// CRC table entry covers a full sector.
    pub fn create_file(&self, len: u64) -> FileHandle {
        let mut files = self.shared.files.lock();
        let mut image = self.shared.image.write();
        let base = (image.bytes.len() as u64).next_multiple_of(SECTOR_SIZE);
        let alloc = len.next_multiple_of(SECTOR_SIZE);
        image.bytes.resize((base + alloc) as usize, 0);
        let image_len = image.bytes.len();
        image.crcs.grow_to(image_len);
        let id = files.len() as u32;
        files.push(FileMeta { base, len });
        FileHandle { id, len }
    }

    /// Instantly place `data` at `offset` of `file`, bypassing the timing
    /// model. This stands in for preparing the dataset on disk before the
    /// experiment starts (the paper does not count dataset installation).
    pub fn import(&self, file: FileHandle, offset: u64, data: &[u8]) -> Result<(), IoError> {
        if data.is_empty() {
            return Ok(());
        }
        let base = self.locate(file.id, offset, data.len() as u64)? as usize;
        let mut image = self.shared.image.write();
        let end = base + data.len();
        image.bytes[base..end].copy_from_slice(data);
        let img = &mut *image;
        img.crcs.refresh(&img.bytes, base, end);
        // An import is a complete legitimate write: it heals fenced sectors.
        let sec = SECTOR_SIZE as usize;
        let lo = (base / sec) as u64;
        let hi = ((end - 1) / sec) as u64 + 1;
        let mut st = self.shared.integrity.lock();
        for s in lo..hi {
            st.quarantined.remove(&s);
            st.intents.remove(&s);
        }
        // Imports bypass the write cache entirely (dataset installation is
        // durable by definition), superseding any unflushed state.
        self.shared.wcache.lock().write_through(lo, hi);
        Ok(())
    }

    /// Instantly read without the timing model (verification/debug only).
    pub fn peek(&self, file: FileHandle, offset: u64, out: &mut [u8]) -> Result<(), IoError> {
        let base = self.locate(file.id, offset, out.len() as u64)?;
        let image = self.shared.image.read();
        out.copy_from_slice(&image.bytes[base as usize..base as usize + out.len()]);
        Ok(())
    }

    /// Verify `data`, claimed to be the contents of `file` at `offset`,
    /// against the device's per-sector CRC table. Hosts call this at every
    /// read boundary (page-cache fill, extractor ring completion); only
    /// fully-covered sectors can be checked, which for the aligned page and
    /// feature reads this stack issues is every byte.
    ///
    /// On mismatch the first failing sector is reported as a typed
    /// [`IntegrityError`]; *persistent* mismatches (the image itself
    /// disagrees with the table — media corruption, e.g. a torn write) are
    /// quarantined so later reads fail decisively until the scrubber
    /// repairs the sector or a rewrite replaces it. As a ground-truth
    /// tripwire, bytes that pass every CRC but still differ from the image
    /// bump `storage.integrity.escaped` (the simulator knows the truth; a
    /// real device would not).
    pub fn verify(&self, file: FileHandle, offset: u64, data: &[u8]) -> Result<(), IntegrityError> {
        if data.is_empty() {
            return Ok(());
        }
        let Ok(base) = self.locate(file.id, offset, data.len() as u64) else {
            // Out-of-range reads fail at the device; they never produce
            // data for anyone to verify.
            return Ok(());
        };
        let sec = SECTOR_SIZE;
        let start = base;
        let end = base + data.len() as u64;
        let first = start.div_ceil(sec);
        let last = end / sec;
        if first >= last {
            return Ok(());
        }
        let image = self.shared.image.read();
        // Checksum the data before taking the device-global integrity
        // mutex: it guards only the quarantine set and the counters, so
        // concurrent verifiers do not serialise on each other's CRC loops.
        let actuals: Vec<u32> = (first..last)
            .map(|s| {
                let lo = (s * sec - start) as usize;
                crc32(&data[lo..lo + sec as usize])
            })
            .collect();
        let mut st = self.shared.integrity.lock();
        for (s, &actual) in (first..last).zip(&actuals) {
            let expected = image.crcs.get(s as usize);
            let fenced = st.quarantined.contains(&s);
            if actual != expected || fenced {
                self.shared.im.detected.inc();
                let ilo = (s * sec) as usize;
                let persistent = fenced || crc32(&image.bytes[ilo..ilo + sec as usize]) != expected;
                if persistent && st.quarantined.insert(s) {
                    self.shared.im.quarantined.inc();
                }
                return Err(IntegrityError {
                    file: file.id,
                    offset: s * sec - (base - offset),
                    expected,
                    actual,
                    persistent,
                });
            }
        }
        drop(st);
        if data != &image.bytes[start as usize..end as usize] {
            self.shared.im.escaped.inc();
        }
        Ok(())
    }

    /// One scrubber pass over up to `max_sectors` sectors starting at
    /// `start_sector`. Sectors whose media bytes disagree with the CRC
    /// table are restored from the intent ledger when possible; mismatches
    /// with no ledger entry are unrecoverable and stay fenced. Driven by
    /// [`crate::Scrubber`], but callable directly for tests and tools.
    pub fn scrub_chunk(&self, start_sector: u64, max_sectors: u64) -> ScrubChunk {
        // Crash-schedule coverage for ledger repair: a cut here models the
        // process dying mid scrub pass. Repair is idempotent and media
        // state is only ever improved sector-at-a-time under the image
        // lock, so aborting the pass wholesale is always safe.
        if telemetry::crash::point("scrub.repair").is_err() {
            return ScrubChunk::default();
        }
        let mut image = self.shared.image.write();
        let total = image.crcs.sectors() as u64;
        let start = start_sector.min(total);
        let end = (start + max_sectors).min(total);
        let mut report = ScrubChunk {
            scanned: end.saturating_sub(start),
            repaired: 0,
            unrecoverable: 0,
            next_sector: if end >= total { 0 } else { end },
            total_sectors: total,
        };
        if start >= end {
            return report;
        }
        let sec = SECTOR_SIZE as usize;
        let DiskImage { bytes, crcs } = &mut *image;
        let mut st = self.shared.integrity.lock();
        let mut wc = self.shared.wcache.lock();
        for s in start..end {
            let lo = s as usize * sec;
            if crc32(&bytes[lo..lo + sec]) == crcs.get(s as usize) {
                continue;
            }
            match st.intents.remove(&s) {
                Some(intended) => {
                    bytes[lo..lo + sec].copy_from_slice(&intended);
                    st.quarantined.remove(&s);
                    // Ledger repairs go straight to media: the repaired
                    // sector is durable, not pending in the write cache.
                    wc.write_through(s, s + 1);
                    report.repaired += 1;
                }
                None => {
                    // No redundancy to repair from: fence the sector so
                    // reads fail decisively instead of serving rot.
                    if st.quarantined.insert(s) {
                        self.shared.im.quarantined.inc();
                    }
                    report.unrecoverable += 1;
                }
            }
        }
        report
    }

    /// Number of sectors the image currently spans (scrubber pacing).
    pub fn sector_count(&self) -> u64 {
        self.shared.image.read().crcs.sectors() as u64
    }

    /// Flush barrier over one file: every unflushed sector in `file`'s
    /// extent becomes durable (a power cut can no longer disturb it).
    /// Returns how many sectors drained. Flush timing is not modeled —
    /// the barrier is about *ordering*, which is what crash consistency
    /// depends on, not about latency.
    pub fn flush(&self, file: FileHandle) -> u64 {
        let (lo, hi) = {
            let files = self.shared.files.lock();
            let Some(meta) = files.get(file.id as usize) else {
                return 0;
            };
            let lo = meta.base / SECTOR_SIZE;
            let hi = (meta.base + meta.len.next_multiple_of(SECTOR_SIZE)) / SECTOR_SIZE;
            (lo, hi)
        };
        self.shared.wcache.lock().flush_range(lo, hi)
    }

    /// Whole-device flush barrier; returns how many sectors drained.
    pub fn flush_all(&self) -> u64 {
        self.shared.wcache.lock().drain_all()
    }

    /// Unflushed sectors currently at risk from a power cut.
    pub fn dirty_sector_count(&self) -> u64 {
        self.shared.wcache.lock().dirty_len()
    }

    /// Simulate power loss: every unflushed sector independently (and
    /// deterministically under `seed`) either drained in time (**kept**),
    /// is rolled back wholesale to its durable snapshot (**dropped**), or
    /// is left **torn** — a seeded prefix of the pending bytes over the
    /// durable suffix, with the CRC table still holding the pending
    /// checksum and the (equally volatile) intent-ledger entry lost, so
    /// every later read surfaces a typed persistent
    /// [`IntegrityError`] until the sector is rewritten. The device
    /// itself stays up — restart semantics (what the *host* lost) are the
    /// crash-point registry's job.
    pub fn power_cut(&self, seed: u64) -> PowerCutReport {
        let mut image = self.shared.image.write();
        let DiskImage { bytes, crcs } = &mut *image;
        let mut st = self.shared.integrity.lock();
        let mut wc = self.shared.wcache.lock();
        let dirty = wc.take_sorted();
        let mut report = PowerCutReport {
            dirty: dirty.len() as u64,
            ..Default::default()
        };
        wc.counters.power_cuts.inc();
        let sec = SECTOR_SIZE as usize;
        for (s, snap) in dirty {
            let lo = s as usize * sec;
            let u = mix_unit(seed, s, 29);
            if u < 1.0 / 3.0 {
                // Kept: the cache line had drained; pending state (bytes,
                // CRC, ledger, fence — all already in place) is durable.
                report.kept += 1;
                wc.counters.sectors_kept.inc();
                continue;
            }
            if u < 2.0 / 3.0 {
                // Dropped: restore the durable snapshot wholesale so the
                // sector reads back as its consistent old version.
                bytes[lo..lo + sec].copy_from_slice(&snap.durable);
                crcs.set(s as usize, snap.durable_crc);
                match snap.durable_intent {
                    Some(intent) => {
                        st.intents.insert(s, intent);
                    }
                    None => {
                        st.intents.remove(&s);
                    }
                }
                if snap.durable_quarantined {
                    if st.quarantined.insert(s) {
                        self.shared.im.quarantined.inc();
                    }
                } else {
                    st.quarantined.remove(&s);
                }
                report.dropped += 1;
                wc.counters.sectors_dropped.inc();
                continue;
            }
            // Torn: a seeded prefix of the pending bytes made it to media
            // before the cut (same prefix machinery as injected torn
            // writes), the rest reverts to the durable suffix.
            let keep = ((mix_unit(seed, s, 31) * sec as f64) as usize).min(sec);
            let mut mixed = bytes[lo..lo + sec].to_vec();
            mixed[keep..].copy_from_slice(&snap.durable[keep..]);
            let effectively_clean = crc32(&mixed) == crcs.get(s as usize);
            bytes[lo..lo + sec].copy_from_slice(&mixed);
            if effectively_clean {
                // The durable suffix equals the pending one — the tear
                // changed nothing observable; the sector persisted intact.
                report.kept += 1;
                wc.counters.sectors_kept.inc();
                continue;
            }
            // The CRC table keeps the pending checksum, so the mismatch is
            // persistent and every read detects it; the controller journal
            // (intent ledger) lived in the same volatile domain, so there
            // is nothing to repair from — only fencing remains.
            st.intents.remove(&s);
            report.torn += 1;
            wc.counters.sectors_torn.inc();
        }
        report
    }

    /// Translate (file, offset, len) to an image offset, validating range.
    fn locate(&self, file: u32, offset: u64, len: u64) -> Result<u64, IoError> {
        let files = self.shared.files.lock();
        let meta = files.get(file as usize).ok_or(IoError::NoSuchFile(file))?;
        if offset + len > meta.len {
            return Err(IoError::OutOfRange {
                file,
                offset,
                len,
                file_len: meta.len,
            });
        }
        Ok(meta.base + offset)
    }

    /// Validate a prospective request; shared by sync and ring paths.
    pub(crate) fn validate(
        &self,
        file: u32,
        offset: u64,
        len: u64,
        direct: bool,
    ) -> Result<(), IoError> {
        if direct && (!offset.is_multiple_of(SECTOR_SIZE) || !len.is_multiple_of(SECTOR_SIZE)) {
            return Err(IoError::Misaligned { offset, len });
        }
        self.locate(file, offset, len).map(|_| ())
    }

    /// Reply `DeviceClosed` on a request's completion channel (the device
    /// can no longer service it).
    fn refuse(req: Request) {
        let _ = req.reply.send(Completion {
            user_data: req.user_data,
            result: Err(IoError::DeviceClosed),
            latency: Duration::ZERO,
            queue_ns: 0,
            service_ns: 0,
        });
    }

    /// Submit without blocking; gives the request back if the device queue
    /// is full (the ring keeps it in its software SQ). A shut-down device
    /// consumes the request and completes it with `DeviceClosed`.
    pub(crate) fn try_submit(&self, req: Request) -> SubmitOutcome {
        match self.shared.queue.enqueue(req, false) {
            Ok(()) => SubmitOutcome::Accepted,
            Err(Rejected::Full(r)) => {
                self.shared.stats.add_queue_full_stall();
                SubmitOutcome::Full(r)
            }
            Err(Rejected::Closed(r)) => {
                Self::refuse(r);
                SubmitOutcome::Closed
            }
        }
    }

    /// Submit, stalling (in I/O-wait) if the device queue is full.
    pub(crate) fn submit_blocking(&self, req: Request) -> Result<(), IoError> {
        let req = match self.try_submit(req) {
            SubmitOutcome::Accepted => return Ok(()),
            SubmitOutcome::Closed => return Err(IoError::DeviceClosed),
            SubmitOutcome::Full(r) => r,
        };
        let _io = telemetry::state(telemetry::State::IoWait);
        match self.shared.queue.enqueue(req, true) {
            Ok(()) => Ok(()),
            Err(Rejected::Closed(r) | Rejected::Full(r)) => {
                Self::refuse(r);
                Err(IoError::DeviceClosed)
            }
        }
    }

    /// Synchronous read: submit one request and block until it completes.
    ///
    /// The blocking time is real (the paper's synchronous-I/O baseline
    /// behaviour) and is attributed to I/O wait.
    pub fn read_blocking(
        &self,
        file: FileHandle,
        offset: u64,
        out: &mut [u8],
        direct: bool,
    ) -> Result<(), IoError> {
        self.read_blocking_prio(file, offset, out, direct, IoPriority::Bulk)
    }

    /// [`SimSsd::read_blocking`] on an explicit QoS lane. Serving paths use
    /// [`IoPriority::Serve`] so their reads bypass queued bulk traffic.
    pub fn read_blocking_prio(
        &self,
        file: FileHandle,
        offset: u64,
        out: &mut [u8],
        direct: bool,
        prio: IoPriority,
    ) -> Result<(), IoError> {
        if out.is_empty() {
            return Ok(());
        }
        self.validate(file.id, offset, out.len() as u64, direct)?;
        let (reply, done) = bounded(1);
        let started = Instant::now();
        self.submit_blocking(Request {
            file: file.id,
            offset,
            op: IoOp::Read,
            buf: vec![0u8; out.len()],
            user_data: 0,
            reply,
            submitted: started,
            prio,
        })?;
        let completion = {
            let _io = telemetry::state(telemetry::State::IoWait);
            done.recv().map_err(|_| IoError::DeviceClosed)?
        };
        self.shared
            .stats
            .add_io_wait(started.elapsed().as_nanos() as u64);
        let buf = completion.result?;
        out.copy_from_slice(&buf);
        Ok(())
    }

    /// Synchronous write: block until the device has absorbed the data.
    pub fn write_blocking(
        &self,
        file: FileHandle,
        offset: u64,
        data: &[u8],
        direct: bool,
    ) -> Result<(), IoError> {
        if data.is_empty() {
            return Ok(());
        }
        self.validate(file.id, offset, data.len() as u64, direct)?;
        let (reply, done) = bounded(1);
        let started = Instant::now();
        self.submit_blocking(Request {
            file: file.id,
            offset,
            op: IoOp::Write,
            buf: data.to_vec(),
            user_data: 0,
            reply,
            submitted: started,
            prio: IoPriority::Bulk,
        })?;
        let completion = {
            let _io = telemetry::state(telemetry::State::IoWait);
            done.recv().map_err(|_| IoError::DeviceClosed)?
        };
        self.shared
            .stats
            .add_io_wait(started.elapsed().as_nanos() as u64);
        completion.result.map(|_| ())
    }
}

impl Drop for SimSsd {
    fn drop(&mut self) {
        // Close the queue and join workers so no thread outlives the device.
        self.shutdown();
    }
}

fn channel_worker(shared: Arc<Shared>, mut channel: Server) {
    while let Some(req) = shared.queue.next_request() {
        if shared.closed.load(Ordering::Acquire) {
            // Shutdown in progress: fail queued requests fast instead of
            // servicing them.
            SimSsd::refuse(req);
            continue;
        }
        let now = Instant::now();
        let base = match req.op {
            IoOp::Read => shared.profile.read_latency,
            IoOp::Write => shared.profile.write_latency,
        };
        // Fault injection happens at service time: the verdict may inflate
        // the request's latency (spikes, stalls) and/or doom its outcome.
        let verdict = shared
            .fault
            .read()
            .as_ref()
            .map(|inj| inj.assess(req.file, req.offset, req.buf.len(), req.op))
            .unwrap_or_default();
        let slot = channel.schedule(req.submitted, now, |start| {
            let link_done = shared.link.lock().reserve(req.buf.len() as u64, start, now);
            (start + base).max(link_done) + verdict.extra_latency
        });
        let service_ns = slot.service().as_nanos() as u64;
        let queue_ns = slot.queue().as_nanos() as u64;
        shared.stats.record_op(service_ns, queue_ns);
        shared.stats.record_lane(req.prio, queue_ns);
        shared.stats.add_behind(slot.behind().as_nanos() as u64);

        // Real data movement (unless the injector doomed this request —
        // media errors still pay their modeled latency below).
        let result = match verdict.fail {
            Some(e) => Err(e),
            None => do_copy(&shared, &req, &verdict),
        };

        vclock::pace(
            slot.deadline,
            shared.queue.is_drained(),
            shared.profile.sleep_granularity,
        );

        match req.op {
            IoOp::Read => shared.stats.add_read(req.buf.len() as u64),
            IoOp::Write => shared.stats.add_write(req.buf.len() as u64),
        }
        let _ = req.reply.send(Completion {
            user_data: req.user_data,
            result,
            latency: slot.latency(),
            queue_ns,
            service_ns,
        });
    }
}

/// Snapshot the durable state of every sector overlapping `[lo, hi)` into
/// the write cache's undo log (no-op for sectors already dirty). Callers
/// hold the image write lock; integrity then wcache are taken here in the
/// conventional order.
fn capture_dirty(shared: &Shared, image: &DiskImage, lo: usize, hi: usize) {
    let sec = SECTOR_SIZE as usize;
    let st = shared.integrity.lock();
    let mut wc = shared.wcache.lock();
    for s in lo / sec..=(hi - 1) / sec {
        let slo = s * sec;
        wc.capture(s as u64, || DirtySector {
            durable: image.bytes[slo..slo + sec].to_vec(),
            durable_crc: image.crcs.get(s),
            durable_intent: st.intents.get(&(s as u64)).cloned(),
            durable_quarantined: st.quarantined.contains(&(s as u64)),
        });
    }
}

fn do_copy(shared: &Shared, req: &Request, verdict: &FaultVerdict) -> Result<Vec<u8>, IoError> {
    let (base, file_base, file_len) = {
        let files = shared.files.lock();
        let meta = files
            .get(req.file as usize)
            .ok_or(IoError::NoSuchFile(req.file))?;
        if req.offset + req.buf.len() as u64 > meta.len {
            return Err(IoError::OutOfRange {
                file: req.file,
                offset: req.offset,
                len: req.buf.len() as u64,
                file_len: meta.len,
            });
        }
        (meta.base + req.offset, meta.base, meta.len)
    };
    let base = base as usize;
    let len = req.buf.len();
    match req.op {
        IoOp::Read => {
            let mut buf = vec![0u8; len];
            let image = shared.image.read();
            buf.copy_from_slice(&image.bytes[base..base + len]);
            match verdict.corrupt {
                Some(SilentCorruption::BitFlip { bit }) => {
                    let byte = (bit / 8) as usize;
                    if byte < len {
                        buf[byte] ^= 1 << (bit % 8);
                        shared.im.injected.inc();
                        shared.im.bit_flips.inc();
                    }
                }
                Some(SilentCorruption::MisdirectedRead { shift }) => {
                    // Serve from `shift` sectors away, clamped inside the
                    // file's extent. If the clamp lands back on the true
                    // bytes the misdirect is a no-op and not counted.
                    let lo = file_base as i64;
                    let hi = ((file_base + file_len) as i64 - len as i64).max(lo);
                    let src = (base as i64 + shift * SECTOR_SIZE as i64).clamp(lo, hi) as usize;
                    if src != base && image.bytes[src..src + len] != buf[..] {
                        buf.copy_from_slice(&image.bytes[src..src + len]);
                        shared.im.injected.inc();
                        shared.im.misdirects.inc();
                    }
                }
                _ => {}
            }
            Ok(buf)
        }
        IoOp::Write => {
            let mut image = shared.image.write();
            // Before the write mutates anything, snapshot the durable
            // state of every sector it touches into the volatile write
            // cache's undo log (first-dirty wins, so the snapshot is the
            // state as of the last flush). A later power cut rolls back
            // to these snapshots; a flush discards them.
            capture_dirty(shared, &image, base, base + len);
            if let Some(SilentCorruption::TornWrite { keep }) = verdict.corrupt {
                let keep = keep as usize;
                // A tear only matters if the dropped suffix would have
                // changed the image.
                if keep < len && image.bytes[base + keep..base + len] != req.buf[keep..] {
                    return do_torn_write(shared, &mut image, base, &req.buf, keep);
                }
            }
            image.bytes[base..base + len].copy_from_slice(&req.buf);
            let img = &mut *image;
            img.crcs.refresh(&img.bytes, base, base + len);
            // A complete rewrite heals fenced sectors.
            let sec = SECTOR_SIZE as usize;
            let mut st = shared.integrity.lock();
            for s in (base / sec) as u64..=((base + len - 1) / sec) as u64 {
                st.quarantined.remove(&s);
                st.intents.remove(&s);
            }
            Ok(Vec::new())
        }
    }
}

/// Apply a torn write: only `keep` bytes of `data` reach the image, while
/// the CRC table records the CRCs of the *intended* sector contents and the
/// intent ledger keeps those contents (the simulated analog of the
/// controller journal the scrubber repairs from). Every later read of a
/// torn sector fails verification until repair or rewrite.
fn do_torn_write(
    shared: &Shared,
    image: &mut DiskImage,
    base: usize,
    data: &[u8],
    keep: usize,
) -> Result<Vec<u8>, IoError> {
    let sec = SECTOR_SIZE as usize;
    let len = data.len();
    image.bytes[base..base + keep].copy_from_slice(&data[..keep]);
    let DiskImage { bytes, crcs } = image;
    let mut st = shared.integrity.lock();
    for s in base / sec..=(base + len - 1) / sec {
        let slo = s * sec;
        // The intended contents of this sector: its current bytes overlaid
        // with the full write (the kept prefix is already applied, so only
        // the dropped suffix can differ).
        let mut intended = bytes[slo..slo + sec].to_vec();
        let olo = slo.max(base);
        let ohi = (slo + sec).min(base + len);
        intended[olo - slo..ohi - slo].copy_from_slice(&data[olo - base..ohi - base]);
        crcs.set(s, crc32(&intended));
        if bytes[slo..slo + sec] == intended[..] {
            // Fully inside the kept prefix — this sector persisted intact.
            st.intents.remove(&(s as u64));
        } else {
            st.intents.insert(s as u64, intended);
        }
        // The ledger (or a clean persist) supersedes any earlier fencing.
        st.quarantined.remove(&(s as u64));
    }
    shared.im.injected.inc();
    shared.im.torn_writes.inc();
    Ok(Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_returns_imported_data() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(4096);
        let data: Vec<u8> = (0..255).collect();
        ssd.import(f, 100, &data).unwrap();
        let mut out = vec![0u8; 255];
        ssd.read_blocking(f, 100, &mut out, false).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn write_then_read_round_trips() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(8192);
        let data = vec![7u8; 1024];
        ssd.write_blocking(f, 512, &data, true).unwrap();
        let mut out = vec![0u8; 1024];
        ssd.read_blocking(f, 512, &mut out, true).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn out_of_range_is_rejected_synchronously() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(1024);
        let mut out = vec![0u8; 512];
        let err = ssd.read_blocking(f, 1024, &mut out, false).unwrap_err();
        assert!(matches!(err, IoError::OutOfRange { .. }));
    }

    #[test]
    fn direct_io_requires_sector_alignment() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(4096);
        let mut out = vec![0u8; 100];
        let err = ssd.read_blocking(f, 0, &mut out, true).unwrap_err();
        assert!(matches!(err, IoError::Misaligned { .. }));
        // Same access is fine buffered.
        ssd.read_blocking(f, 0, &mut out, false).unwrap();
    }

    #[test]
    fn sync_read_pays_base_latency() {
        let mut profile = SsdProfile::pm883();
        profile.read_latency = Duration::from_millis(2);
        profile.sleep_granularity = Duration::from_micros(100);
        let ssd = SimSsd::new(profile);
        let f = ssd.create_file(65536);
        let mut out = vec![0u8; 512];
        let t0 = Instant::now();
        for i in 0..5 {
            ssd.read_blocking(f, i * 512, &mut out, true).unwrap();
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_millis(9),
            "5 serial reads at 2ms base should take >=9ms, took {elapsed:?}"
        );
    }

    #[test]
    fn bandwidth_bounds_large_transfers() {
        let mut profile = SsdProfile::instant();
        profile.bandwidth = 10 * 1024 * 1024; // 10 MiB/s
        profile.sleep_granularity = Duration::from_micros(100);
        let ssd = SimSsd::new(profile);
        let f = ssd.create_file(2 * 1024 * 1024);
        let mut out = vec![0u8; 1024 * 1024];
        let t0 = Instant::now();
        ssd.read_blocking(f, 0, &mut out, false).unwrap();
        let elapsed = t0.elapsed();
        // 1 MiB at 10 MiB/s = 100 ms.
        assert!(
            elapsed >= Duration::from_millis(80),
            "bandwidth cap not enforced: {elapsed:?}"
        );
    }

    #[test]
    fn read_op_bytes_balances_op_and_link_time() {
        // 130 MiB/s × 340 µs / 16 channels = 2896 B.
        assert_eq!(SsdProfile::pm883_repro().read_op_bytes(), 2896);
        assert_eq!(
            SsdProfile::pm883_repro().scaled_down(50).read_op_bytes(),
            2896
        );
        assert_eq!(SsdProfile::instant().read_op_bytes(), 0);
    }

    /// 32 reads submitted at one instant to 16 channels, asserted on the
    /// virtual times they report, which hold however late the workers run
    /// within the link's history window.
    #[test]
    fn simultaneous_reads_are_scheduled_on_virtual_time() {
        let profile = SsdProfile::pm883_repro();
        let (base, channels) = (profile.read_latency, profile.channels);
        let ssd = SimSsd::new(profile);
        let f = ssd.create_file(64 * 512);
        let (reply, done) = bounded(32);
        let submitted = Instant::now();
        for i in 0..32u64 {
            let req = Request {
                file: f.id,
                offset: i * 512,
                op: IoOp::Read,
                buf: vec![0u8; 512],
                user_data: i,
                reply: reply.clone(),
                submitted,
                prio: IoPriority::Bulk,
            };
            assert!(matches!(ssd.try_submit(req), SubmitOutcome::Accepted));
        }
        let completions: Vec<Completion> = (0..32).map(|_| done.recv().unwrap()).collect();
        assert_eq!(ssd.stats().snapshot().read_ops, 32);
        // The link keeps `LINK_HISTORY` of reservations, so a read picked
        // up later than that after its start is charged the excess. Every
        // pickup came before the last completion: when the whole run fit
        // in the window (it takes about two services unless the host
        // stalls a worker for that long), the schedule is exact.
        if submitted.elapsed() >= vclock::LINK_HISTORY {
            for c in &completions {
                assert!(c.service_ns >= base.as_nanos() as u64);
            }
            return;
        }
        // How many reads started k services after submission.
        let mut waves = [0usize; 32];
        for c in &completions {
            assert_eq!(c.service_ns, base.as_nanos() as u64, "the link never binds");
            let k = c.queue_ns / base.as_nanos() as u64;
            assert_eq!(
                c.queue_ns,
                k * base.as_nanos() as u64,
                "starts back to back"
            );
            assert_eq!(c.latency, base * (k as u32 + 1));
            waves[k as usize] += 1;
        }
        // Each channel starts its first read at submission and the rest
        // back to back: at most one read per channel per wave.
        assert!(waves[0] <= channels, "{waves:?}");
        assert!(waves.windows(2).all(|w| w[1] <= w[0]), "{waves:?}");
    }

    #[test]
    fn injected_faults_fail_deterministically() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(8192);
        ssd.inject_read_faults(3);
        let mut out = vec![0u8; 512];
        let mut failures = 0;
        for i in 0..9u64 {
            if ssd.read_blocking(f, (i % 8) * 512, &mut out, true).is_err() {
                failures += 1;
            }
        }
        assert_eq!(failures, 3, "every 3rd read fails");
        ssd.inject_read_faults(0);
        assert!(ssd.read_blocking(f, 0, &mut out, true).is_ok());
    }

    #[test]
    fn shutdown_fails_blocking_io_without_panicking() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(4096);
        ssd.shutdown();
        assert!(ssd.is_closed());
        let mut out = vec![0u8; 512];
        assert_eq!(
            ssd.read_blocking(f, 0, &mut out, true).unwrap_err(),
            IoError::DeviceClosed
        );
        assert_eq!(
            ssd.write_blocking(f, 0, &out, true).unwrap_err(),
            IoError::DeviceClosed
        );
        // Idempotent.
        ssd.shutdown();
    }

    #[test]
    fn fault_plan_probabilistic_reads_fail_and_clear() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(64 * 512);
        ssd.set_fault_plan(crate::FaultPlan::new(42).with_read_fault_prob(0.5));
        let mut out = vec![0u8; 512];
        let failures = (0..64u64)
            .filter(|i| ssd.read_blocking(f, (i % 8) * 512, &mut out, true).is_err())
            .count();
        assert!(
            (10..=54).contains(&failures),
            "~50% should fail: {failures}"
        );
        ssd.clear_faults();
        assert!(ssd.read_blocking(f, 0, &mut out, true).is_ok());
    }

    #[test]
    fn latency_spikes_slow_requests_down() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(4096);
        ssd.set_fault_plan(
            crate::FaultPlan::new(1).with_latency_spikes(1.0, Duration::from_millis(5)),
        );
        let mut out = vec![0u8; 512];
        let t0 = Instant::now();
        ssd.read_blocking(f, 0, &mut out, true).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(4),
            "spike should add ~5ms, took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn bit_flips_are_detected_and_heal_on_reread() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(16 * 512);
        let data: Vec<u8> = (0..16 * 512u32).map(|i| (i % 251) as u8).collect();
        ssd.import(f, 0, &data).unwrap();
        ssd.set_fault_plan(crate::FaultPlan::new(7).with_bit_flips(1.0));
        let mut out = vec![0u8; 512];
        ssd.read_blocking(f, 0, &mut out, true).unwrap();
        let err = ssd.verify(f, 0, &out).unwrap_err();
        assert!(!err.persistent, "in-flight corruption is not media damage");
        assert_ne!(out, data[..512], "the read really was corrupted");
        // A clean re-read heals it: the image and CRC table are intact.
        ssd.clear_faults();
        ssd.read_blocking(f, 0, &mut out, true).unwrap();
        ssd.verify(f, 0, &out).unwrap();
        assert_eq!(out, data[..512]);
    }

    #[test]
    fn misdirected_reads_are_detected() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(64 * 512);
        // Every sector distinct so a misdirect always changes bytes.
        let data: Vec<u8> = (0..64 * 512u32).map(|i| (i / 512) as u8).collect();
        ssd.import(f, 0, &data).unwrap();
        ssd.set_fault_plan(crate::FaultPlan::new(3).with_misdirected_reads(1.0));
        let mut out = vec![0u8; 512];
        ssd.read_blocking(f, 16 * 512, &mut out, true).unwrap();
        let err = ssd.verify(f, 16 * 512, &out).unwrap_err();
        assert!(!err.persistent);
        ssd.clear_faults();
        ssd.read_blocking(f, 16 * 512, &mut out, true).unwrap();
        ssd.verify(f, 16 * 512, &out).unwrap();
    }

    #[test]
    fn torn_writes_quarantine_until_scrub_repairs() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(8 * 512);
        ssd.set_fault_plan(crate::FaultPlan::new(5).with_torn_writes(1.0));
        let data = vec![0xABu8; 4 * 512];
        ssd.write_blocking(f, 0, &data, true).unwrap();
        ssd.clear_faults();
        // The tear persisted only a prefix; reads of the torn range fail
        // verification *persistently* (the image disagrees with the table).
        let mut out = vec![0u8; 4 * 512];
        ssd.read_blocking(f, 0, &mut out, true).unwrap();
        let err = ssd.verify(f, 0, &out).unwrap_err();
        assert!(err.persistent, "a torn write is media corruption");
        assert_ne!(out, data);
        // The scrubber repairs it from the intent ledger…
        let report = ssd.scrub_chunk(0, ssd.sector_count());
        assert!(report.repaired >= 1, "{report:?}");
        assert_eq!(report.unrecoverable, 0, "{report:?}");
        // …after which the read round-trips and verifies.
        ssd.read_blocking(f, 0, &mut out, true).unwrap();
        ssd.verify(f, 0, &out).unwrap();
        assert_eq!(out, data);
        // A second pass finds nothing left to do.
        let report = ssd.scrub_chunk(0, ssd.sector_count());
        assert_eq!((report.repaired, report.unrecoverable), (0, 0));
    }

    #[test]
    fn rewrite_heals_torn_sectors_without_scrub() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(4 * 512);
        ssd.set_fault_plan(crate::FaultPlan::new(9).with_torn_writes(1.0));
        ssd.write_blocking(f, 0, &vec![1u8; 2 * 512], true).unwrap();
        ssd.clear_faults();
        // A clean full rewrite of the same range supersedes the tear.
        let fresh = vec![2u8; 2 * 512];
        ssd.write_blocking(f, 0, &fresh, true).unwrap();
        let mut out = vec![0u8; 2 * 512];
        ssd.read_blocking(f, 0, &mut out, true).unwrap();
        ssd.verify(f, 0, &out).unwrap();
        assert_eq!(out, fresh);
    }

    #[test]
    fn verify_skips_partial_sectors_and_passes_clean_reads() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(4096);
        let data: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
        ssd.import(f, 0, &data).unwrap();
        let mut out = vec![0u8; 4096];
        ssd.read_blocking(f, 0, &mut out, true).unwrap();
        ssd.verify(f, 0, &out).unwrap();
        // Sub-sector reads have no fully covered sector; verify is a no-op
        // even if the bytes are wrong (the device never corrupts them).
        let garbage = vec![0xFFu8; 100];
        ssd.verify(f, 10, &garbage).unwrap();
    }

    /// Submitters parked on a full lane share the queue's condvar with the
    /// workers: a pop must wake one so it is admitted, and a close must
    /// answer one still parked.
    #[test]
    fn a_submitter_parked_on_a_full_lane_is_admitted_or_answered() {
        let (reply, _completions) = bounded(1);
        let request = |user_data: u64, prio: IoPriority| Request {
            file: 0,
            offset: 0,
            op: IoOp::Read,
            buf: Vec::new(),
            user_data,
            reply: reply.clone(),
            submitted: Instant::now(),
            prio,
        };
        let park_until_waiting = |q: &SubmitQueue| {
            while q.lanes.lock().parked == 0 {
                std::thread::yield_now();
            }
        };
        let q = SubmitQueue::new(1);
        assert!(q.enqueue(request(10, IoPriority::Bulk), false).is_ok());
        assert!(q.enqueue(request(1, IoPriority::Serve), false).is_ok());
        std::thread::scope(|s| {
            let parked = s.spawn(|| q.enqueue(request(11, IoPriority::Bulk), true).is_ok());
            park_until_waiting(&q);
            let popped: Vec<u64> = (0..3)
                .map(|_| q.next_request().expect("queued").user_data)
                .collect();
            assert_eq!(popped, [1, 10, 11], "serve first, then bulk in order");
            assert!(parked.join().expect("submitter"));
        });

        assert!(q.enqueue(request(12, IoPriority::Bulk), false).is_ok());
        std::thread::scope(|s| {
            let parked = s.spawn(|| q.enqueue(request(13, IoPriority::Bulk), true));
            park_until_waiting(&q);
            q.close();
            let handed_back = parked.join().expect("submitter");
            assert!(matches!(handed_back, Err(Rejected::Closed(r)) if r.user_data == 13));
        });
        assert_eq!(q.next_request().map(|r| r.user_data), Some(12));
        assert!(q.next_request().is_none(), "closed and drained");
    }

    #[test]
    fn serve_reads_jump_ahead_of_queued_bulk_reads() {
        use gnndrive_sync::{LockRank, OrderedMutex};

        // One channel, 20 ms per read: completion order == service order.
        let mut profile = SsdProfile::instant();
        profile.channels = 1;
        profile.read_latency = Duration::from_millis(20);
        profile.sleep_granularity = Duration::from_micros(100);
        let ssd = SimSsd::new(profile);
        let f = ssd.create_file(64 * 512);

        let order: Arc<OrderedMutex<Vec<&'static str>>> =
            Arc::new(OrderedMutex::new(LockRank::Buffer, Vec::new()));
        let read = move |ssd: &Arc<SimSsd>, prio: IoPriority| {
            let mut out = vec![0u8; 512];
            ssd.read_blocking_prio(f, 0, &mut out, true, prio)
                .expect("read");
        };

        // Occupy the single channel with a bulk read…
        let mut handles = Vec::new();
        {
            let (ssd, order) = (Arc::clone(&ssd), Arc::clone(&order));
            handles.push(std::thread::spawn(move || {
                read(&ssd, IoPriority::Bulk);
                order.lock().push("head");
            }));
        }
        std::thread::sleep(Duration::from_millis(5));
        // …queue three more bulk reads behind it…
        for _ in 0..3 {
            let (ssd, order) = (Arc::clone(&ssd), Arc::clone(&order));
            handles.push(std::thread::spawn(move || {
                read(&ssd, IoPriority::Bulk);
                order.lock().push("bulk");
            }));
        }
        std::thread::sleep(Duration::from_millis(5));
        // …then a serve read, submitted LAST but queued in the serve lane.
        {
            let (ssd, order) = (Arc::clone(&ssd), Arc::clone(&order));
            handles.push(std::thread::spawn(move || {
                read(&ssd, IoPriority::Serve);
                order.lock().push("serve");
            }));
        }
        for h in handles {
            h.join().expect("reader thread");
        }

        let order = order.lock().clone();
        assert_eq!(order[0], "head", "the in-service read finishes first");
        assert_eq!(
            order[1], "serve",
            "the serve read must overtake queued bulk reads: {order:?}"
        );
        // And the lane split is visible in the stats counters.
        let snap = ssd.stats().snapshot();
        assert_eq!(snap.serve_ops, 1);
        assert_eq!(snap.bulk_ops, 4);
    }

    #[test]
    fn iowait_is_accounted() {
        let mut profile = SsdProfile::pm883();
        profile.read_latency = Duration::from_millis(1);
        let ssd = SimSsd::new(profile);
        let f = ssd.create_file(4096);
        let mut out = vec![0u8; 512];
        ssd.read_blocking(f, 0, &mut out, true).unwrap();
        assert!(ssd.stats().snapshot().io_wait_nanos >= 500_000);
    }
}
