//! The measured window: closed-loop client threads and what they record.
//!
//! Latencies go into a fixed-size reservoir per session, so the memory the
//! benchmark itself holds does not grow with throughput and does not move
//! `peak_rss_mib`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use crate::gen::Rng;
use crate::seams::{now_ns, thread_count};
use crate::session::{Session, Violation};

/// Closed-loop time before each measured window: caches fill, links open.
pub const WARMUP: Duration = Duration::from_secs(1);

/// How often `drive` calls its `tick` inside the window.
pub const TICK: Duration = Duration::from_millis(10);

/// Latency samples kept per session (uniform over the window's calls).
const RESERVOIR: usize = 1 << 16;

/// One sampled call.
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    latency_ns: u64,
    write: bool,
}

/// What one session recorded in the window.
struct Tally {
    /// Reservoir of successful calls (Vitter's algorithm R).
    samples: Vec<Sample>,
    rng: Rng,
    ok: u64,
    failed: u64,
    latency_sum_ns: u64,
    user_bytes: u64,
    /// Successful calls completed in each one-second slice.
    slices: Vec<u64>,
}

impl Tally {
    fn new(seed: u64, slices: usize) -> Tally {
        // Written out in full up front, so its pages are resident before
        // the window opens.
        let mut samples = Vec::with_capacity(RESERVOIR);
        samples.resize(RESERVOIR, Sample::default());
        samples.clear();
        Tally {
            samples,
            rng: Rng::new(seed, 7),
            ok: 0,
            failed: 0,
            latency_sum_ns: 0,
            user_bytes: 0,
            slices: vec![0; slices],
        }
    }

    fn record(&mut self, sample: Sample, slice: usize) {
        self.ok += 1;
        self.latency_sum_ns += sample.latency_ns;
        self.slices[slice] += 1;
        if self.samples.len() < RESERVOIR {
            self.samples.push(sample);
        } else {
            let slot = self.rng.below(self.ok as usize);
            if slot < RESERVOIR {
                self.samples[slot] = sample;
            }
        }
    }
}

/// What a window measured, over all sessions.
pub struct Window {
    /// Length of the window in seconds.
    pub seconds: f64,
    /// Calls that succeeded.
    pub ok: u64,
    /// Calls the service failed or refused.
    pub failed: u64,
    /// Payload bytes written.
    pub user_bytes: u64,
    /// Live threads of the process just before the window closed.
    pub threads_in_window: u64,
    latency_sum_ns: u64,
    slices: Vec<f64>,
    samples: Vec<Sample>,
}

impl Window {
    /// Calls completed in each one-second slice of the window, per second.
    pub fn slice_rates(&self) -> Vec<f64> {
        let slice_seconds = self.seconds / self.slices.len() as f64;
        self.slices.iter().map(|&calls| calls / slice_seconds).collect()
    }

    /// Median of [`Window::slice_rates`].
    pub fn throughput(&self) -> f64 {
        median(&mut self.slice_rates())
    }

    /// Sampled latencies of successful calls (only the writes when
    /// `writes_only`), sorted, in microseconds.
    pub fn latencies_us(&self, writes_only: bool) -> Vec<f64> {
        let mut latencies: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| !writes_only || s.write)
            .map(|s| s.latency_ns as f64 / 1e3)
            .collect();
        latencies.sort_by(f64::total_cmp);
        latencies
    }

    /// Mean latency of every successful call, in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        ratio(self.latency_sum_ns as f64 / 1e3, self.ok as f64)
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted `values` (0 when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `numerator / denominator`, or 0 when the denominator is not positive.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Drives every session in its own closed loop for the warm-up plus
/// `seconds`, calling `at_start` when the window opens, `tick` every
/// [`TICK`] inside it and `at_end` when it closes (all on this thread,
/// while the loops run). Only calls that complete inside the window count.
///
/// # Errors
///
/// The first wrong answer any session saw; every loop stops at it.
pub fn drive(
    sessions: &mut [Session],
    seed: u64,
    seconds: f64,
    at_start: impl FnOnce(),
    mut tick: impl FnMut(),
    at_end: impl FnOnce(),
) -> Result<Window, Violation> {
    let stop = AtomicBool::new(false);
    let start_ns = now_ns() + WARMUP.as_nanos() as u64;
    let end_ns = start_ns + (seconds * 1e9) as u64;
    let slices = (seconds.round() as usize).max(1);
    let slice_ns = (seconds * 1e9 / slices as f64) as u64;
    let (tallies, threads_in_window) = std::thread::scope(|scope| {
        let workers: Vec<_> = sessions
            .iter_mut()
            .enumerate()
            .map(|(index, session)| {
                let stop = &stop;
                scope.spawn(move || -> Result<Tally, Violation> {
                    let mut tally = Tally::new(seed ^ index as u64, slices);
                    while !stop.load(Ordering::Relaxed) {
                        let call = session.next_call();
                        let outcome = session.execute(&call).inspect_err(|_| {
                            stop.store(true, Ordering::Relaxed);
                        })?;
                        let done = now_ns();
                        if done > end_ns {
                            break;
                        }
                        if done >= start_ns {
                            if outcome.failed {
                                tally.failed += 1;
                            } else {
                                let slice =
                                    (((done - start_ns) / slice_ns) as usize).min(slices - 1);
                                let sample =
                                    Sample { latency_ns: outcome.latency_ns, write: outcome.write };
                                tally.record(sample, slice);
                                tally.user_bytes += outcome.user_bytes;
                            }
                        }
                        if outcome.fatal {
                            break;
                        }
                    }
                    Ok(tally)
                })
            })
            .collect();
        let sleep_until = |at: u64| {
            let now = now_ns();
            if at > now && !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_nanos(at - now));
            }
        };
        sleep_until(start_ns);
        at_start();
        while now_ns() < end_ns && !stop.load(Ordering::Relaxed) {
            tick();
            sleep_until((now_ns() + TICK.as_nanos() as u64).min(end_ns));
        }
        let threads_in_window = thread_count();
        at_end();
        let tallies: Vec<_> =
            workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect();
        (tallies, threads_in_window)
    });
    let mut window = Window {
        seconds,
        ok: 0,
        failed: 0,
        user_bytes: 0,
        threads_in_window,
        latency_sum_ns: 0,
        slices: vec![0.0; slices],
        samples: Vec::new(),
    };
    let tallies = tallies.into_iter().collect::<Result<Vec<Tally>, Violation>>()?;
    // Each reservoir is a uniform sample of its own session's calls. Thin
    // every one to the lowest sampling rate among them, so the merged
    // sample weighs each session by its call count.
    let rate = tallies
        .iter()
        .filter(|t| t.ok > 0)
        .map(|t| t.samples.len() as f64 / t.ok as f64)
        .fold(1.0, f64::min);
    for mut tally in tallies {
        window.ok += tally.ok;
        window.failed += tally.failed;
        window.user_bytes += tally.user_bytes;
        window.latency_sum_ns += tally.latency_sum_ns;
        for (sum, calls) in window.slices.iter_mut().zip(&tally.slices) {
            *sum += *calls as f64;
        }
        let keep = ratio(rate * tally.ok as f64, tally.samples.len() as f64);
        let rng = &mut tally.rng;
        window.samples.extend(tally.samples.iter().filter(|_| rng.unit() < keep));
    }
    Ok(window)
}
