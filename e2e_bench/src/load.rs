//! Load generation over one TCP connection: a seeded Poisson open loop
//! and a pipelined closed-loop saturation phase.
//!
//! Both phases use two threads (the caller sends, one scoped thread
//! reads). After its last request the sender writes a `ping`; the server
//! answers every line in order on a connection, so the `ok pong` marks
//! the end of the phase's responses.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use datatrans_rng::rngs::StdRng;
use datatrans_rng::{RngCore, SeedableRng};

/// Longest the reader waits for one response line before it gives up on
/// the rest of the phase (they then count as missing).
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// The end-of-phase marker's response.
const PONG: &str = "ok pong";

/// Send offsets of a Poisson arrival process at `rate_per_s` over
/// `duration`, ascending. The same seed gives the same schedule.
pub fn poisson_offsets(seed: u64, rate_per_s: f64, duration: Duration) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0FF5_E7A1_0000_0001);
    let limit = duration.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        // Exponential inter-arrival time; 1 - u is in (0, 1], so ln is finite.
        t += -(1.0 - rng.next_f64()).ln() / rate_per_s;
        if t >= limit {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// An endless stream of indices drawn uniformly from `0..n` (`n >= 1`).
/// The same seed gives the same draws.
pub fn uniform_indices(seed: u64, n: usize) -> impl Iterator<Item = usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0407_5E75_0000_0002);
    // Multiply-shift maps a uniform u64 onto 0..n without modulo bias
    // worth measuring at these sizes.
    std::iter::repeat_with(move || ((u128::from(rng.next_u64()) * n as u128) >> 64) as usize)
}

/// What one phase sent and got back.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Requests written to the socket.
    pub sent: usize,
    /// Response lines in arrival order (one connection: request order),
    /// concatenated without newlines; line `i` ends at `ends[i]`.
    text: String,
    ends: Vec<usize>,
    /// Open loop only: per response, microseconds from the request's
    /// scheduled send time to its response.
    pub latencies_us: Vec<f64>,
    /// Open loop only: per sent request, microseconds the actual send ran
    /// behind its schedule.
    pub lateness_us: Vec<f64>,
    /// Per response, seconds from the first send to its arrival.
    pub arrivals_s: Vec<f64>,
    /// Seconds from the first send to the last response.
    pub elapsed_s: f64,
    /// The first socket error, if any cut the phase short.
    pub io_error: Option<String>,
}

impl PhaseResult {
    /// The response lines, in arrival order.
    pub fn responses(&self) -> impl Iterator<Item = &str> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.text[start..end])
    }

    /// Number of responses received.
    pub fn received(&self) -> usize {
        self.ends.len()
    }

    /// Takes over the reader's lines, timing arrivals from `start`.
    fn absorb(&mut self, received: Received, start: Instant) {
        self.io_error = self.io_error.take().or(received.error);
        self.arrivals_s = received
            .arrivals
            .iter()
            .map(|at| at.duration_since(start).as_secs_f64())
            .collect();
        self.elapsed_s = self.arrivals_s.last().copied().unwrap_or(0.0);
        self.text = received.text;
        self.ends = received.ends;
    }
}

fn connect(addr: SocketAddr) -> io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// The lines one reader thread received.
#[derive(Default)]
struct Received {
    text: String,
    ends: Vec<usize>,
    arrivals: Vec<Instant>,
    error: Option<String>,
}

/// Reads response lines until the end marker, an error, or EOF; calls
/// `on_line` after each (non-marker) line.
fn read_until_pong(mut reader: BufReader<TcpStream>, mut on_line: impl FnMut()) -> Received {
    let mut received = Received::default();
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                received.error = Some("connection closed early".to_owned());
                return received;
            }
            Ok(_) => {
                let at = Instant::now();
                let line = line.trim_end_matches(['\r', '\n']);
                if line == PONG {
                    return received;
                }
                received.text.push_str(line);
                received.ends.push(received.text.len());
                received.arrivals.push(at);
                on_line();
            }
            Err(e) => {
                received.error = Some(e.to_string());
                return received;
            }
        }
    }
}

fn join_reader(receiver: thread::ScopedJoinHandle<'_, Received>) -> Received {
    receiver.join().unwrap_or_else(|_| Received {
        error: Some("reader thread panicked".to_owned()),
        ..Received::default()
    })
}

/// Open loop: sends `lines[i]` (newline-terminated) at `start +
/// offsets[i]` regardless of responses, and times each response from its
/// scheduled send time.
///
/// # Errors
///
/// Returns the error from connecting; later socket errors end the phase
/// early and are reported in [`PhaseResult::io_error`].
pub fn open_loop(
    addr: SocketAddr,
    lines: &[String],
    offsets: &[Duration],
) -> io::Result<PhaseResult> {
    let (mut writer, reader) = connect(addr)?;
    let start = Instant::now();
    let (received, mut result) = thread::scope(|scope| {
        let receiver = scope.spawn(move || read_until_pong(reader, || {}));
        let mut result = PhaseResult::default();
        for (line, &offset) in lines.iter().zip(offsets) {
            let due = start + offset;
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            result
                .lateness_us
                .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
            if let Err(e) = writer.write_all(line.as_bytes()) {
                result.io_error = Some(e.to_string());
                break;
            }
            result.sent += 1;
        }
        let _ = writer.write_all(b"ping\n");
        (join_reader(receiver), result)
    });
    result.latencies_us = received
        .arrivals
        .iter()
        .zip(offsets)
        .map(|(at, &offset)| at.saturating_duration_since(start + offset).as_secs_f64() * 1e6)
        .collect();
    result.absorb(received, start);
    Ok(result)
}

/// Closed loop: keeps up to `depth` requests in flight on one connection
/// until `duration` has passed, taking request `i`'s line (newline-
/// terminated) from `line_for(i)`.
///
/// # Errors
///
/// As [`open_loop`].
pub fn saturate(
    addr: SocketAddr,
    depth: usize,
    duration: Duration,
    mut line_for: impl FnMut(usize) -> String,
) -> io::Result<PhaseResult> {
    let (mut writer, reader) = connect(addr)?;
    // One token per request in flight: the sender blocks on a full
    // channel, the reader frees a slot per response.
    let (permits, freed) = mpsc::sync_channel::<()>(depth.max(1));
    let start = Instant::now();
    let (received, mut result) = thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            read_until_pong(reader, || {
                let _ = freed.recv();
            })
        });
        let mut result = PhaseResult::default();
        while start.elapsed() < duration {
            let line = line_for(result.sent);
            if permits.send(()).is_err() {
                result.io_error = Some("reader stopped".to_owned());
                break;
            }
            if let Err(e) = writer.write_all(line.as_bytes()) {
                result.io_error = Some(e.to_string());
                break;
            }
            result.sent += 1;
        }
        let _ = writer.write_all(b"ping\n");
        drop(permits);
        (join_reader(receiver), result)
    });
    result.absorb(received, start);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_seeded_sorted_and_at_rate() {
        let a = poisson_offsets(7, 500.0, Duration::from_secs(20));
        let b = poisson_offsets(7, 500.0, Duration::from_secs(20));
        let c = poisson_offsets(8, 500.0, Duration::from_secs(20));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < Duration::from_secs(20)));
        // 10_000 arrivals expected; a Poisson count has sd 100.
        assert!((9_500..=10_500).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn poisson_gaps_are_exponential() {
        let offsets = poisson_offsets(3, 100.0, Duration::from_secs(100));
        let gaps: Vec<f64> = std::iter::once(offsets[0].as_secs_f64())
            .chain(offsets.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()))
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.01).abs() < 0.0005, "mean gap {mean}");
        // P(gap > mean) = 1/e for an exponential distribution.
        let above = gaps.iter().filter(|&&g| g > 0.01).count() as f64 / gaps.len() as f64;
        assert!(
            (above - (-1.0f64).exp()).abs() < 0.02,
            "share above mean {above}"
        );
    }

    #[test]
    fn hot_set_sampler_is_seeded_in_range_and_uniform() {
        let draw = |seed| uniform_indices(seed, 64).take(64_000).collect::<Vec<_>>();
        let a = draw(11);
        assert_eq!(a, draw(11));
        assert_ne!(a, draw(12));
        let mut counts = [0usize; 64];
        for &i in &a {
            counts[i] += 1;
        }
        // Expected 1000 per slot, sd about 31.
        assert!(
            counts.iter().all(|&c| (850..=1150).contains(&c)),
            "{counts:?}"
        );
        assert!(uniform_indices(1, 1).take(5).all(|i| i == 0));
    }
}
