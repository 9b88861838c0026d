//! Device-level I/O counters.
//!
//! [`IoStats`] is the per-device instrument. Every increment is mirrored
//! into the process-wide metrics registry under the `ssd.` prefix
//! (`ssd.read_bytes`, `ssd.service` ...), so run reports see the storage
//! stack without threading device handles around; the typed
//! [`IoStatsSnapshot`] stays as the cheap per-device view the pipeline's
//! epoch accounting diffs against.

use gnndrive_sync::{LockRank, OrderedMutex};
use gnndrive_telemetry as telemetry;
use std::sync::atomic::{AtomicU64, Ordering};
use telemetry::{Counter, HistSummary, Histogram, HistogramHandle};

/// Cumulative counters maintained by a [`crate::SimSsd`].
///
/// `io_wait_nanos` is the summed wall time callers spent *blocked* on this
/// device (synchronous reads and `wait_completion` calls), which is the
/// quantity behind the paper's "ratio of I/O wait time" panels.
///
/// Two per-op latency distributions ride alongside the counters:
/// **service** time (what the device model charges: base latency plus
/// bandwidth reservation, excluding any time queued behind other requests)
/// and **queueing** delay (submission until a channel picks the request
/// up). Their split is what distinguishes a congested device from a slow
/// one (paper §2.2, I/O congestion).
#[derive(Debug)]
pub struct IoStats {
    pub read_ops: AtomicU64,
    pub read_bytes: AtomicU64,
    pub write_ops: AtomicU64,
    pub write_bytes: AtomicU64,
    /// Wall nanoseconds callers spent blocked waiting on this device.
    pub io_wait_nanos: AtomicU64,
    /// Times a submission found the device queue full and had to stall.
    pub queue_full_stalls: AtomicU64,
    /// Requests serviced per QoS lane (DESIGN.md §11).
    pub serve_ops: AtomicU64,
    pub bulk_ops: AtomicU64,
    service: OrderedMutex<Histogram>,
    queueing: OrderedMutex<Histogram>,
    // Cached registry handles: one relaxed atomic op per event after
    // construction (see telemetry::metrics module docs).
    m_read_ops: Counter,
    m_read_bytes: Counter,
    m_write_ops: Counter,
    m_write_bytes: Counter,
    m_io_wait: Counter,
    m_stalls: Counter,
    // Fidelity counter: the summed wall time by which channel workers
    // picked requests up after their virtual start. The virtual-time
    // schedule absorbs it, so it measures how far the host lagged the
    // model, not device time.
    m_behind: Counter,
    m_service: HistogramHandle,
    m_queueing: HistogramHandle,
    // Cumulative enqueue→dispatch vs dispatch→complete split in summed
    // nanoseconds; the attribution layer (DESIGN.md §10) divides these to
    // tell a congested device (queue-dominated) from a slow one.
    m_queue_wait_ns: Counter,
    m_service_ns: Counter,
    // Per-QoS-lane op counts and summed queueing delay (the serving tier's
    // evidence that its reads really do jump the bulk queue).
    m_serve_ops: Counter,
    m_bulk_ops: Counter,
    m_serve_wait_ns: Counter,
    m_bulk_wait_ns: Counter,
}

impl Default for IoStats {
    fn default() -> Self {
        IoStats {
            read_ops: AtomicU64::new(0),
            read_bytes: AtomicU64::new(0),
            write_ops: AtomicU64::new(0),
            write_bytes: AtomicU64::new(0),
            io_wait_nanos: AtomicU64::new(0),
            queue_full_stalls: AtomicU64::new(0),
            serve_ops: AtomicU64::new(0),
            bulk_ops: AtomicU64::new(0),
            service: OrderedMutex::new(LockRank::Storage, Histogram::new()),
            queueing: OrderedMutex::new(LockRank::Storage, Histogram::new()),
            m_read_ops: telemetry::counter("ssd.read_ops"),
            m_read_bytes: telemetry::counter("ssd.read_bytes"),
            m_write_ops: telemetry::counter("ssd.write_ops"),
            m_write_bytes: telemetry::counter("ssd.write_bytes"),
            m_io_wait: telemetry::counter("ssd.io_wait_ns"),
            m_stalls: telemetry::counter("ssd.queue_full_stalls"),
            m_behind: telemetry::counter("storage.ssd.behind_ns"),
            m_service: telemetry::histogram_ns("ssd.service"),
            m_queueing: telemetry::histogram_ns("ssd.queue_wait"),
            m_queue_wait_ns: telemetry::counter("storage.queue.wait_ns"),
            m_service_ns: telemetry::counter("storage.queue.service_ns"),
            m_serve_ops: telemetry::counter("storage.queue.lane.serve_ops"),
            m_bulk_ops: telemetry::counter("storage.queue.lane.bulk_ops"),
            m_serve_wait_ns: telemetry::counter("storage.queue.lane.serve_wait_ns"),
            m_bulk_wait_ns: telemetry::counter("storage.queue.lane.bulk_wait_ns"),
        }
    }
}

/// A point-in-time copy of [`IoStats`].
///
/// The `service_*`/`queue_wait_*` fields summarize the cumulative latency
/// distributions at snapshot time. Percentiles are not counter-like, so
/// [`IoStatsSnapshot::delta_since`] carries the later snapshot's values
/// through unchanged rather than subtracting them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    pub read_ops: u64,
    pub read_bytes: u64,
    pub write_ops: u64,
    pub write_bytes: u64,
    pub io_wait_nanos: u64,
    pub queue_full_stalls: u64,
    pub serve_ops: u64,
    pub bulk_ops: u64,
    pub service_p50_ns: u64,
    pub service_p99_ns: u64,
    pub queue_wait_p50_ns: u64,
    pub queue_wait_p99_ns: u64,
}

impl IoStats {
    pub fn snapshot(&self) -> IoStatsSnapshot {
        let (service_p50_ns, service_p99_ns) = {
            let h = self.service.lock();
            (h.percentile(0.50), h.percentile(0.99))
        };
        let (queue_wait_p50_ns, queue_wait_p99_ns) = {
            let h = self.queueing.lock();
            (h.percentile(0.50), h.percentile(0.99))
        };
        IoStatsSnapshot {
            read_ops: self.read_ops.load(Ordering::Relaxed),
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
            write_ops: self.write_ops.load(Ordering::Relaxed),
            write_bytes: self.write_bytes.load(Ordering::Relaxed),
            io_wait_nanos: self.io_wait_nanos.load(Ordering::Relaxed),
            queue_full_stalls: self.queue_full_stalls.load(Ordering::Relaxed),
            serve_ops: self.serve_ops.load(Ordering::Relaxed),
            bulk_ops: self.bulk_ops.load(Ordering::Relaxed),
            service_p50_ns,
            service_p99_ns,
            queue_wait_p50_ns,
            queue_wait_p99_ns,
        }
    }

    pub fn add_read(&self, bytes: u64) {
        self.read_ops.fetch_add(1, Ordering::Relaxed);
        self.read_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.m_read_ops.inc();
        self.m_read_bytes.add(bytes);
    }

    pub fn add_write(&self, bytes: u64) {
        self.write_ops.fetch_add(1, Ordering::Relaxed);
        self.write_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.m_write_ops.inc();
        self.m_write_bytes.add(bytes);
    }

    pub fn add_io_wait(&self, nanos: u64) {
        self.io_wait_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.m_io_wait.add(nanos);
    }

    /// Record how far behind its virtual start a worker picked a request up.
    pub fn add_behind(&self, nanos: u64) {
        self.m_behind.add(nanos);
    }

    pub fn add_queue_full_stall(&self) {
        self.queue_full_stalls.fetch_add(1, Ordering::Relaxed);
        self.m_stalls.inc();
    }

    /// Record one serviced request: the modeled service time and the
    /// queueing delay it saw before a channel picked it up.
    pub fn record_op(&self, service_ns: u64, queue_ns: u64) {
        self.service.lock().record(service_ns);
        self.queueing.lock().record(queue_ns);
        self.m_service.record(service_ns);
        self.m_queueing.record(queue_ns);
        self.m_queue_wait_ns.add(queue_ns);
        self.m_service_ns.add(service_ns);
    }

    /// Record which QoS lane a serviced request came from and the queueing
    /// delay it paid there (DESIGN.md §11).
    pub fn record_lane(&self, prio: crate::IoPriority, queue_ns: u64) {
        match prio {
            crate::IoPriority::Serve => {
                self.serve_ops.fetch_add(1, Ordering::Relaxed);
                self.m_serve_ops.inc();
                self.m_serve_wait_ns.add(queue_ns);
            }
            crate::IoPriority::Bulk => {
                self.bulk_ops.fetch_add(1, Ordering::Relaxed);
                self.m_bulk_ops.inc();
                self.m_bulk_wait_ns.add(queue_ns);
            }
        }
    }

    /// Percentile summary of per-op service time.
    pub fn service_summary(&self) -> HistSummary {
        HistSummary::of(&self.service.lock())
    }

    /// Percentile summary of per-op queueing delay.
    pub fn queue_wait_summary(&self) -> HistSummary {
        HistSummary::of(&self.queueing.lock())
    }
}

impl IoStatsSnapshot {
    /// Counter-wise difference `self - earlier` (saturating). Latency
    /// percentiles are distributions, not counters: the result keeps
    /// `self`'s (the later snapshot's) values.
    pub fn delta_since(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            read_ops: self.read_ops.saturating_sub(earlier.read_ops),
            read_bytes: self.read_bytes.saturating_sub(earlier.read_bytes),
            write_ops: self.write_ops.saturating_sub(earlier.write_ops),
            write_bytes: self.write_bytes.saturating_sub(earlier.write_bytes),
            io_wait_nanos: self.io_wait_nanos.saturating_sub(earlier.io_wait_nanos),
            queue_full_stalls: self
                .queue_full_stalls
                .saturating_sub(earlier.queue_full_stalls),
            serve_ops: self.serve_ops.saturating_sub(earlier.serve_ops),
            bulk_ops: self.bulk_ops.saturating_sub(earlier.bulk_ops),
            service_p50_ns: self.service_p50_ns,
            service_p99_ns: self.service_p99_ns,
            queue_wait_p50_ns: self.queue_wait_p50_ns,
            queue_wait_p99_ns: self.queue_wait_p99_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::default();
        s.add_read(512);
        s.add_read(1024);
        s.add_write(256);
        let snap = s.snapshot();
        assert_eq!(snap.read_ops, 2);
        assert_eq!(snap.read_bytes, 1536);
        assert_eq!(snap.write_ops, 1);
        assert_eq!(snap.write_bytes, 256);
    }

    #[test]
    fn delta_is_saturating_and_correct() {
        let s = IoStats::default();
        s.add_read(100);
        let a = s.snapshot();
        s.add_read(50);
        let b = s.snapshot();
        let d = b.delta_since(&a);
        assert_eq!(d.read_ops, 1);
        assert_eq!(d.read_bytes, 50);
        assert_eq!(a.delta_since(&b).read_bytes, 0);
    }

    #[test]
    fn service_and_queueing_are_separate_distributions() {
        let s = IoStats::default();
        for _ in 0..100 {
            s.record_op(100_000, 1_000_000);
        }
        let snap = s.snapshot();
        assert!(snap.service_p50_ns >= 90_000 && snap.service_p50_ns <= 100_000);
        assert!(snap.queue_wait_p50_ns >= 900_000);
        assert_eq!(s.service_summary().count, 100);
        assert_eq!(s.queue_wait_summary().count, 100);
        // Deltas keep the later snapshot's percentiles (not subtractable).
        let d = snap.delta_since(&IoStatsSnapshot::default());
        assert_eq!(d.service_p99_ns, snap.service_p99_ns);
    }

    #[test]
    fn increments_mirror_into_registry() {
        telemetry::reset_metrics();
        let s = IoStats::default();
        s.add_read(4096);
        s.add_queue_full_stall();
        s.add_behind(7_000);
        s.record_op(50_000, 10_000);
        let m = telemetry::snapshot_metrics();
        assert!(m.counter("ssd.read_bytes") >= 4096);
        assert!(m.counter("ssd.queue_full_stalls") >= 1);
        assert!(m.counter("storage.ssd.behind_ns") >= 7_000);
        assert!(matches!(
            m.get("ssd.service"),
            Some(telemetry::MetricValue::Histogram(h)) if h.count >= 1
        ));
        assert!(m.counter("storage.queue.wait_ns") >= 10_000);
        assert!(m.counter("storage.queue.service_ns") >= 50_000);
    }

    #[test]
    fn lane_counters_split_serve_from_bulk() {
        let s = IoStats::default();
        s.record_lane(crate::IoPriority::Serve, 1_000);
        s.record_lane(crate::IoPriority::Bulk, 2_000);
        s.record_lane(crate::IoPriority::Bulk, 3_000);
        let snap = s.snapshot();
        assert_eq!(snap.serve_ops, 1);
        assert_eq!(snap.bulk_ops, 2);
        let d = snap.delta_since(&IoStatsSnapshot::default());
        assert_eq!((d.serve_ops, d.bulk_ops), (1, 2));
        let m = telemetry::snapshot_metrics();
        assert!(m.counter("storage.queue.lane.serve_ops") >= 1);
        assert!(m.counter("storage.queue.lane.bulk_wait_ns") >= 5_000);
    }
}
