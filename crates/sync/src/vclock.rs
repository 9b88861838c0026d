//! Virtual-time scheduling for the simulated devices.
//!
//! A modeled device (the SSD's channels and its shared link, the PCIe copy
//! engine) keeps its own clock: the instant each of its units is next
//! free. Host threads do the device's work, and they wake late — a sleep
//! overshoots, a worker waits for a core. If a late worker started its
//! next job at wall time, the lateness would turn into idle device time
//! and the device would deliver less than its model. The rules here put
//! every job on the device's virtual clock instead:
//!
//! * **start** — a job starts when its unit is free in virtual time or
//!   when it was submitted, whichever is later ([`Server::schedule`]),
//!   never when a host thread picked it up;
//! * **shared link** — a transfer is reserved from `min(start, now)`
//!   ([`Link::reserve`]): never in the future, and for a late host back at
//!   the virtual start, so the lateness leaves no hole in the link. Units
//!   pick their jobs up out of virtual order, so the link keeps its busy
//!   intervals and places each transfer in the first gap that fits, not
//!   behind whatever was reserved last. It keeps [`LINK_HISTORY`] of
//!   them: a host more than that late is charged the excess;
//! * **reported times** — queueing is `start − submitted`, service is
//!   `deadline − start`, and how far the host ran behind is
//!   `pickup − start` ([`Slot`]);
//! * **pacing** — the worker sleeps off the time it runs ahead of wall
//!   time, but delivers early while more work is queued and it is less
//!   than one sleep granularity ahead ([`pace`]).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Time to move `bytes` at `bandwidth` bytes per second.
pub fn transfer_time(bytes: u64, bandwidth: u64) -> Duration {
    let nanos = bytes as u128 * 1_000_000_000 / bandwidth.max(1) as u128;
    Duration::from_nanos(nanos.min(u64::MAX as u128) as u64)
}

/// Where one job landed on a device's virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// When the job was handed to the device.
    pub submitted: Instant,
    /// When a unit began serving it, in virtual time.
    pub start: Instant,
    /// When the model says it completes.
    pub deadline: Instant,
    /// When a host thread got round to it (wall time).
    pub picked_up: Instant,
}

impl Slot {
    /// Time spent waiting for a free unit (`start − submitted`).
    pub fn queue(&self) -> Duration {
        self.start.saturating_duration_since(self.submitted)
    }

    /// Time the device charged the job (`deadline − start`).
    pub fn service(&self) -> Duration {
        self.deadline.saturating_duration_since(self.start)
    }

    /// Modeled latency, submission to completion (`queue + service`).
    pub fn latency(&self) -> Duration {
        self.deadline.saturating_duration_since(self.submitted)
    }

    /// Host lateness the schedule absorbed: how far after the job's
    /// virtual start a host thread picked it up (zero when on time).
    pub fn behind(&self) -> Duration {
        self.picked_up.saturating_duration_since(self.start)
    }
}

/// One unit that serves one job at a time on virtual time: an SSD
/// channel, a copy engine.
#[derive(Debug, Clone, Copy)]
pub struct Server {
    /// The instant the unit is next free.
    free: Instant,
}

impl Server {
    /// A unit free at `now`.
    pub fn new(now: Instant) -> Self {
        Server { free: now }
    }

    /// Schedule a job submitted at `submitted` and picked up by a host
    /// thread at `picked_up`. It starts at `max(unit free, submitted)`;
    /// `deadline(start)` says when it completes, and the unit is busy
    /// until then.
    pub fn schedule(
        &mut self,
        submitted: Instant,
        picked_up: Instant,
        deadline: impl FnOnce(Instant) -> Instant,
    ) -> Slot {
        let start = self.free.max(submitted);
        let deadline = deadline(start).max(start);
        self.free = deadline;
        Slot {
            submitted,
            start,
            deadline,
            picked_up,
        }
    }
}

/// How far before the wall clock a late job may still reserve the link;
/// older busy intervals are forgotten. A job picked up more than this
/// after its virtual start reserves from `now − LINK_HISTORY`, so its
/// service time grows once the lateness exceeds the rest of its service.
pub const LINK_HISTORY: Duration = Duration::from_millis(10);

/// A link shared by every unit of a device, moving bytes at a fixed rate.
#[derive(Debug, Clone)]
pub struct Link {
    bandwidth: u64,
    /// Reserved busy intervals, `start → end`: disjoint, with touching
    /// ones merged, and none ending before the history window.
    busy: BTreeMap<Instant, Instant>,
}

impl Link {
    /// An idle link of `bandwidth` bytes per second.
    pub fn new(bandwidth: u64) -> Self {
        Link {
            bandwidth,
            busy: BTreeMap::new(),
        }
    }

    /// Reserve the link for `bytes` of a job that starts at `start`, with
    /// the wall clock at `now`; returns when the transfer completes. It
    /// takes the first gap long enough for it, at or after `min(start,
    /// now)`.
    pub fn reserve(&mut self, bytes: u64, start: Instant, now: Instant) -> Instant {
        let from = start.min(now);
        let len = transfer_time(bytes, self.bandwidth);
        if len.is_zero() {
            return from;
        }
        let floor = now.checked_sub(LINK_HISTORY).unwrap_or(now);
        while let Some(entry) = self.busy.first_entry() {
            if *entry.get() >= floor {
                break;
            }
            entry.remove();
        }
        let mut begin = from.max(floor);
        if let Some((_, &end)) = self.busy.range(..=begin).next_back() {
            begin = begin.max(end);
        }
        for (&s, &e) in self.busy.range(begin..) {
            if s >= begin + len {
                break;
            }
            begin = e;
        }
        let mut lo = begin;
        let mut hi = begin + len;
        if let Some((&s, &e)) = self.busy.range(..=lo).next_back() {
            if e == lo {
                self.busy.remove(&s);
                lo = s;
            }
        }
        if let Some(e) = self.busy.remove(&hi) {
            hi = e;
        }
        self.busy.insert(lo, hi);
        begin + len
    }
}

/// Sleep off a worker's lead over wall time before it delivers a job due
/// at `deadline`: in full when nothing else is queued (`idle`), so a lone
/// caller sees its whole modeled latency, and otherwise only once the lead
/// reaches `granularity`, so back-to-back jobs amortize the sleep calls.
pub fn pace(deadline: Instant, idle: bool, granularity: Duration) {
    let ahead = deadline.saturating_duration_since(Instant::now());
    if ahead > Duration::ZERO && (idle || ahead >= granularity) {
        std::thread::sleep(ahead);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: Duration = Duration::from_micros(1);

    #[test]
    fn a_job_starts_when_the_unit_frees_or_when_submitted() {
        let t0 = Instant::now();
        let mut unit = Server::new(t0);
        let late = t0 + 900 * US;
        let slots: Vec<Slot> = (0..2)
            .map(|_| unit.schedule(t0, late, |start| start + 100 * US))
            .collect();
        assert_eq!(slots[0].start, t0, "free unit: starts at submission");
        assert_eq!(slots[1].start, t0 + 100 * US, "waits for the unit");
        assert_eq!(slots[1].queue(), 100 * US);
        assert_eq!(slots[1].service(), 100 * US);
        assert_eq!(slots[1].latency(), 200 * US);
        assert_eq!(slots[1].behind(), 800 * US, "pickup minus start");

        // A unit free long ago does not pull a later submission back.
        let later = t0 + 5_000 * US;
        let slot = unit.schedule(later, later, |start| start + 100 * US);
        assert_eq!(
            (slot.start, slot.queue(), slot.behind()),
            (later, Duration::ZERO, Duration::ZERO)
        );
    }

    #[test]
    fn link_reservations_are_never_in_the_future_and_leave_no_hole() {
        let t0 = Instant::now();
        // 1 byte per microsecond.
        let mut link = Link::new(1_000_000);
        // A job starting ahead of wall time reserves from now.
        assert_eq!(link.reserve(10, t0 + 500 * US, t0), t0 + 10 * US);
        // A late host (now past the start) reserves from the virtual start.
        assert_eq!(link.reserve(10, t0 + 20 * US, t0 + 400 * US), t0 + 30 * US);
        // A busy link queues the transfer behind the one it overlaps, in
        // the gap before the next …
        assert_eq!(link.reserve(10, t0, t0), t0 + 20 * US);
        // … and a transfer picked up out of order fills the gap before a
        // later reservation instead of queueing behind it.
        assert_eq!(
            link.reserve(10, t0 + 200 * US, t0 + 200 * US),
            t0 + 210 * US
        );
        assert_eq!(link.reserve(10, t0 + 50 * US, t0 + 300 * US), t0 + 60 * US);
        // A gap too short for the transfer is skipped.
        assert_eq!(
            link.reserve(150, t0 + 40 * US, t0 + 300 * US),
            t0 + 360 * US
        );
        // Only the history window is kept: a job older than that reserves
        // from the window's start.
        let late = t0 + 50 * LINK_HISTORY;
        assert_eq!(link.reserve(10, t0, late), late - LINK_HISTORY + 10 * US);
        assert_eq!(link.busy.len(), 1);
    }

    #[test]
    fn an_instant_transfer_takes_no_link_time() {
        let t0 = Instant::now();
        let mut link = Link::new(u64::MAX);
        assert_eq!(link.reserve(512, t0 + 5 * US, t0), t0);
        assert!(link.busy.is_empty());
    }

    #[test]
    fn transfer_time_is_bytes_over_bandwidth() {
        assert_eq!(transfer_time(1024, 1024), Duration::from_secs(1));
        assert_eq!(transfer_time(0, 0), Duration::ZERO);
    }
}
