//! Appendix B, Figure B.1 — synchronous multi-threaded I/O vs
//! asynchronous single-threaded I/O on the simulated SSD.
//!
//! Randomly reads 512 B sectors of a large file in four configurations:
//! (a) sync bandwidth vs thread count, (b) async bandwidth vs I/O depth,
//! (c) sync mean latency vs thread count, (d) async mean latency vs I/O
//! depth — each in buffered and direct modes. The paper's findings to
//! reproduce: async with one thread matches multi-threaded sync bandwidth;
//! bandwidth saturates at the device's internal parallelism; latency grows
//! with queueing; buffered vs direct narrows at depth.

use gnndrive_bench::print_series;
use gnndrive_storage::{IoRing, SimSsd, SsdProfile};
use gnndrive_tensor::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FILE_MB: usize = 30; // the paper's 30 GB file ÷1000
const RUN_MS: u64 = 400;

fn setup() -> (Arc<SimSsd>, gnndrive_storage::FileHandle) {
    let ssd = SimSsd::new(SsdProfile::pm883());
    let f = ssd.create_file((FILE_MB * 1024 * 1024) as u64);
    (ssd, f)
}

/// Sync random 512 B reads with `threads` workers for a fixed duration:
/// returns (bandwidth MB/s, mean latency µs).
fn run_sync(
    ssd: &Arc<SimSsd>,
    f: gnndrive_storage::FileHandle,
    threads: usize,
    direct: bool,
) -> (f64, f64) {
    let stop = Instant::now() + Duration::from_millis(RUN_MS);
    let ops = AtomicU64::new(0);
    let lat_nanos = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..threads {
            let ssd = Arc::clone(ssd);
            let ops = &ops;
            let lat_nanos = &lat_nanos;
            s.spawn(move || {
                let mut rng = Rng::seed_from_u64(t as u64);
                let mut buf = vec![0u8; 512];
                let sectors = (FILE_MB * 1024 * 1024 / 512) as u64;
                while Instant::now() < stop {
                    let off = rng.gen_range(0..sectors) * 512;
                    let t0 = Instant::now();
                    if direct {
                        ssd.read_blocking(f, off, &mut buf, true).unwrap();
                    } else {
                        // Buffered sync read without a persistent cache:
                        // page-granular (4 KiB) like an uncached fault.
                        let mut page = vec![0u8; 4096];
                        let poff = off / 4096 * 4096;
                        let n = page.len().min((f.len - poff) as usize);
                        ssd.read_blocking(f, poff, &mut page[..n], false).unwrap();
                    }
                    ops.fetch_add(1, Ordering::Relaxed);
                    lat_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
            });
        }
    });
    let n = ops.load(Ordering::Relaxed).max(1);
    let secs = RUN_MS as f64 / 1e3;
    (
        n as f64 * 512.0 / 1e6 / secs,
        lat_nanos.load(Ordering::Relaxed) as f64 / n as f64 / 1e3,
    )
}

/// Async random 512 B reads with one thread at `depth` in-flight requests:
/// returns (bandwidth MB/s, mean latency µs, mean modeled latency µs). The
/// latency is wall time from prepare to reap, as in [`run_sync`]; the
/// modeled one is what the device's virtual clock charged
/// (`Completion::latency`).
fn run_async(
    ssd: &Arc<SimSsd>,
    f: gnndrive_storage::FileHandle,
    depth: usize,
    direct: bool,
) -> (f64, f64, f64) {
    let stop = Instant::now() + Duration::from_millis(RUN_MS);
    let mut rng = Rng::seed_from_u64(42);
    let mut ring = IoRing::new(Arc::clone(ssd), depth.max(1), direct);
    let sectors = (FILE_MB * 1024 * 1024 / 512) as u64;
    let (mut ops, mut lat_nanos, mut modeled_nanos) = (0u64, 0u64, 0u64);
    let read_len = if direct { 512 } else { 4096 };
    // When each in-flight slot's request was prepared; a slot's index is
    // its request's user data.
    let mut prepared = vec![Instant::now(); depth.max(1)];
    let prepare = |ring: &mut IoRing, rng: &mut Rng, slot: usize| {
        let off = rng.gen_range(0..sectors) * 512;
        let off = if direct { off } else { off / 4096 * 4096 };
        let len = read_len.min((f.len - off) as usize);
        ring.prepare_read(f, off, len, slot as u64).is_ok()
    };
    for (slot, at) in prepared.iter_mut().enumerate() {
        *at = Instant::now();
        prepare(&mut ring, &mut rng, slot);
    }
    ring.submit();
    while Instant::now() < stop {
        let Ok(Some(c)) = ring.wait_completion() else {
            break;
        };
        let slot = c.user_data as usize;
        ops += 1;
        lat_nanos += prepared[slot].elapsed().as_nanos() as u64;
        modeled_nanos += c.latency.as_nanos() as u64;
        prepared[slot] = Instant::now();
        prepare(&mut ring, &mut rng, slot);
        ring.submit();
    }
    ring.drain(|_| {}).expect("drain benchmark ring");
    let secs = RUN_MS as f64 / 1e3;
    let n = ops.max(1) as f64;
    (
        n * 512.0 / 1e6 / secs,
        lat_nanos as f64 / n / 1e3,
        modeled_nanos as f64 / n / 1e3,
    )
}

fn main() {
    let (ssd, f) = setup();
    let threads = [1usize, 2, 4, 8, 16, 32, 64];
    let depths = [1usize, 2, 4, 8, 16, 32, 64, 128];

    let mut sync_points = Vec::new();
    for &t in &threads {
        let (bw_d, lat_d) = run_sync(&ssd, f, t, true);
        let (bw_b, lat_b) = run_sync(&ssd, f, t, false);
        sync_points.push((t as f64, vec![bw_d, bw_b, lat_d, lat_b]));
    }
    print_series(
        "Fig B.1 (a)+(c): synchronous I/O vs thread count",
        "threads",
        &[
            "direct MB/s",
            "buffered MB/s",
            "direct lat us",
            "buffered lat us",
        ],
        &sync_points,
    );

    let mut async_points = Vec::new();
    let mut modeled_lat_d1 = 0.0;
    for &d in &depths {
        let (bw_d, lat_d, modeled_d) = run_async(&ssd, f, d, true);
        let (bw_b, lat_b, _) = run_async(&ssd, f, d, false);
        if d == 1 {
            modeled_lat_d1 = modeled_d;
        }
        async_points.push((d as f64, vec![bw_d, bw_b, lat_d, lat_b]));
    }
    print_series(
        "Fig B.1 (b)+(d): asynchronous (ring) I/O vs I/O depth, one thread",
        "iodepth",
        &[
            "direct MB/s",
            "buffered MB/s",
            "direct lat us",
            "buffered lat us",
        ],
        &async_points,
    );

    // The paper's headline claims, checked mechanically, next to what the
    // device model allows: every channel busy with 512 B reads, unless the
    // link binds first.
    let profile = ssd.profile();
    let op_limit = profile.channels as f64 / profile.read_latency.as_secs_f64() * 512.0 / 1e6;
    let link = profile.bandwidth as f64 / 1e6;
    let modeled = op_limit.min(link);
    let sync1 = sync_points[0].1[0];
    let sync32 = sync_points[5].1[0];
    let async32 = async_points[5].1[0];
    let async64 = async_points[6].1[0];
    println!("\nsummary:");
    println!(
        "  modeled saturation: {modeled:8.1} MB/s ({} channels / {} us x 512 B = {op_limit:.1}, link {link:.1})",
        profile.channels,
        profile.read_latency.as_micros()
    );
    println!("  sync  1 thread : {sync1:8.1} MB/s");
    println!("  sync 32 threads: {sync32:8.1} MB/s");
    println!("  async depth 32 : {async32:8.1} MB/s (single thread)");
    println!("  async depth 64 : {async64:8.1} MB/s (single thread)");
    println!(
        "  async depth 1 direct latency: {:.1} us wall, {modeled_lat_d1:.1} us modeled (model: {} us)",
        async_points[0].1[2],
        profile.read_latency.as_micros()
    );
    println!(
        "  async/multi-thread-sync ratio: {:.2} (paper: ~1, async matches)",
        async32 / sync32
    );
}
