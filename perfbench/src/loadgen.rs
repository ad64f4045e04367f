//! The open-loop load generator.
//!
//! Request `i` is due at `start + i * interval`, whatever happened to the
//! requests before it. A request is sent when it is due, or at once if the
//! generator is running behind. Its latency is counted from when it was
//! *due*, so a stalled request charges its wait to every request queued
//! behind it, and the generator's lateness (send time minus due time) is
//! reported next to the latency.

use std::time::{Duration, Instant};

/// The time source of a run: a real clock, or a simulated one in tests.
pub trait Clock {
    /// Time elapsed since the clock's origin.
    fn now(&self) -> Duration;
    /// Block until `at` (returns at once if `at` has passed).
    fn sleep_until(&self, at: Duration);
}

/// The wall clock, with its origin at construction.
pub struct WallClock(Instant);

impl WallClock {
    pub fn new() -> WallClock {
        WallClock(Instant::now())
    }

    /// The instant this clock counts from.
    pub fn origin(&self) -> Instant {
        self.0
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, at: Duration) {
        let now = self.now();
        if at > now {
            std::thread::sleep(at - now);
        }
    }
}

/// One request as the generator saw it, in clock time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Index in the schedule.
    pub index: u64,
    /// When the request was due.
    pub due: Duration,
    /// When it was actually sent.
    pub sent: Duration,
    /// When its reply arrived.
    pub done: Duration,
    /// Whether it succeeded.
    pub ok: bool,
}

impl Sample {
    /// Latency counted from the due time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        ms(self.done - self.due)
    }

    /// Round-trip time counted from the send, in milliseconds.
    pub fn rtt_ms(&self) -> f64 {
        ms(self.done - self.sent)
    }

    /// How late the generator sent the request, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        ms(self.sent - self.due)
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// Issue requests every `interval` from clock time `start` until a request
/// would fall due at or after `end`. `op(i)` performs request `i` and
/// returns whether it succeeded.
pub fn open_loop<C: Clock>(
    clock: &C,
    start: Duration,
    end: Duration,
    interval: Duration,
    mut op: impl FnMut(u64) -> bool,
) -> Vec<Sample> {
    let mut out = Vec::new();
    for index in 0.. {
        let due = start + interval * u32::try_from(index).expect("schedule index fits in u32");
        if due >= end {
            break;
        }
        clock.sleep_until(due);
        let sent = clock.now();
        let ok = op(index);
        let done = clock.now();
        out.push(Sample {
            index,
            due,
            sent,
            done,
            ok,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A simulated clock: sleeping jumps forward, work advances it by hand.
    struct FakeClock(Cell<Duration>);

    impl FakeClock {
        fn advance(&self, d: Duration) {
            self.0.set(self.0.get() + d);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }

        fn sleep_until(&self, at: Duration) {
            if at > self.0.get() {
                self.0.set(at);
            }
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn stall_is_charged_to_the_requests_due_after_it() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        // Every 10 ms; each request takes 1 ms, except request 3 stalls
        // for 35 ms.
        let samples = open_loop(&clock, Duration::ZERO, 80 * MS, 10 * MS, |i| {
            clock.advance(if i == 3 { 35 * MS } else { MS });
            true
        });
        assert_eq!(samples.len(), 8);
        let lat: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
        let late: Vec<f64> = samples.iter().map(Sample::late_ms).collect();
        // Requests 0-2 run on time.
        assert_eq!(&lat[..3], &[1.0, 1.0, 1.0]);
        // The stalled request finishes at 65 ms.
        assert_eq!(lat[3], 35.0);
        // Request 4 was due at 40 ms but could only go at 65 ms: its
        // latency includes the 25 ms it waited behind the stall.
        assert_eq!(late[4], 25.0);
        assert_eq!(lat[4], 26.0);
        // Request 5 (due 50 ms) goes at 66 ms; request 6 (due 60 ms) at 67.
        assert_eq!((late[5], lat[5]), (16.0, 17.0));
        assert_eq!((late[6], lat[6]), (7.0, 8.0));
        // The backlog has drained by request 7.
        assert_eq!((late[7], lat[7]), (0.0, 1.0));
        // A closed loop would have hidden the stall from every request
        // but the stalled one: round trips stay at 1 ms.
        assert!(samples
            .iter()
            .filter(|s| s.index != 3)
            .all(|s| s.rtt_ms() == 1.0));
    }

    #[test]
    fn schedule_stops_at_the_end_and_keeps_failures() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let samples = open_loop(&clock, 5 * MS, 25 * MS, 10 * MS, |i| {
            clock.advance(MS);
            i != 1
        });
        let due: Vec<Duration> = samples.iter().map(|s| s.due).collect();
        assert_eq!(due, vec![5 * MS, 15 * MS]);
        assert!(samples[0].ok && !samples[1].ok);
    }
}
