//! The benchmark's open-loop load driver.
//!
//! Requests go out on a fixed schedule whether or not earlier replies have come
//! back, over one connection driven by two threads: a sender that sleeps until each
//! request is due and writes it, and a receiver that reads replies in order (the
//! server answers a connection strictly in arrival order). Every request is timed
//! from when it was *due*, not from when it was actually sent, so a stall in the
//! sender or the network is charged to every request it delays — the coordinated
//! omission a send-time clock hides. How late the sender ran is kept per request as
//! the send lag.

use std::time::{Duration, Instant};

/// One request's timeline, in offsets from the start of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Timed<R> {
    /// When the schedule said to send it.
    pub due: Duration,
    /// When the sender actually wrote it.
    pub sent: Duration,
    /// When its reply had been read.
    pub done: Duration,
    /// The reply.
    pub reply: R,
}

impl<R> Timed<R> {
    /// Latency charged to the request: reply time minus due time.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the sender wrote the request.
    pub fn send_lag(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Poisson arrival offsets: `count` requests at `rate_hz`, exponential gaps drawn
/// from `uniform` (values in `[0, 1)`).
pub fn poisson_schedule(
    rate_hz: f64,
    count: usize,
    mut uniform: impl FnMut() -> f64,
) -> Vec<Duration> {
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            at += -(1.0 - uniform()).ln() / rate_hz;
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// Runs one open-loop phase: `send(i)` writes request `i` when `schedule[i]` is due,
/// and `recv()` reads the next reply. Returns every request's timeline in order.
///
/// # Errors
///
/// The first error of either side. A failed side stops; the caller must make the
/// other side's blocking call fail too (e.g. by closing the connection).
pub fn run<R: Send>(
    schedule: &[Duration],
    mut send: impl FnMut(usize) -> Result<(), String> + Send,
    mut recv: impl FnMut() -> Result<R, String> + Send,
) -> Result<Vec<Timed<R>>, String> {
    let start = Instant::now();
    let n = schedule.len();
    let (sent, replies) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> Result<Vec<Duration>, String> {
            let mut sent = Vec::with_capacity(n);
            for (i, due) in schedule.iter().enumerate() {
                let now = start.elapsed();
                if *due > now {
                    std::thread::sleep(*due - now);
                }
                sent.push(start.elapsed());
                send(i)?;
            }
            Ok(sent)
        });
        let receiver = scope.spawn(move || -> Result<Vec<(Duration, R)>, String> {
            (0..n)
                .map(|_| recv().map(|reply| (start.elapsed(), reply)))
                .collect()
        });
        (
            sender.join().expect("open-loop sender panicked"),
            receiver.join().expect("open-loop receiver panicked"),
        )
    });
    let sent = sent?;
    let replies = replies?;
    Ok(schedule
        .iter()
        .zip(sent)
        .zip(replies)
        .map(|((&due, sent), (done, reply))| Timed {
            due,
            sent,
            done,
            reply,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// An in-process echo "server": replies the moment a request arrives.
    fn echo_run(schedule: &[Duration], stall_at: usize, stall: Duration) -> Vec<Timed<usize>> {
        let (tx, rx) = mpsc::channel::<usize>();
        run(
            schedule,
            move |i| {
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                tx.send(i).map_err(|e| e.to_string())
            },
            move || rx.recv().map_err(|e| e.to_string()),
        )
        .expect("echo run")
    }

    #[test]
    fn a_sender_stall_is_charged_from_the_due_time() {
        let ms = Duration::from_millis;
        // Ten requests due 2 ms apart; writing request 2 stalls the sender 60 ms.
        let schedule: Vec<Duration> = (0..10).map(|i| ms(2 * i)).collect();
        let timed = echo_run(&schedule, 2, ms(60));
        assert_eq!(
            timed.iter().map(|t| t.reply).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        assert!(timed[1].latency() < ms(30));
        assert!(timed[2].latency() >= ms(60));
        // The echo answered each later request as soon as it was written, yet all
        // of them were written late: due-time latency charges them the stall.
        for t in &timed[3..] {
            let expected = ms(60).saturating_sub(t.due - schedule[2]);
            assert!(t.latency() >= expected, "{:?} < {expected:?}", t.latency());
            assert!(t.send_lag() >= expected);
            // Send-time latency would have reported the echo only.
            assert!(t.done - t.sent < ms(30));
        }
    }

    #[test]
    fn an_unstalled_run_keeps_lag_small() {
        let schedule: Vec<Duration> = (0..20).map(Duration::from_millis).collect();
        let timed = echo_run(&schedule, usize::MAX, Duration::ZERO);
        assert!(timed
            .iter()
            .all(|t| t.send_lag() < Duration::from_millis(30)));
        assert!(timed.windows(2).all(|w| w[0].due <= w[1].due));
    }

    #[test]
    fn a_failed_send_is_an_error() {
        let schedule = [Duration::ZERO, Duration::ZERO];
        let err = run(
            &schedule,
            |i| {
                if i == 1 {
                    Err("broken pipe".to_string())
                } else {
                    Ok(())
                }
            },
            {
                let mut left = 1;
                move || {
                    if left == 0 {
                        return Err("closed".to_string());
                    }
                    left -= 1;
                    Ok(())
                }
            },
        );
        assert!(err.is_err());
    }

    #[test]
    fn poisson_gaps_have_the_requested_rate() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let schedule = poisson_schedule(1000.0, 20_000, || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        });
        let span = schedule.last().expect("non-empty").as_secs_f64();
        assert!(
            (span - 20.0).abs() < 1.0,
            "20k arrivals at 1 kHz span {span} s"
        );
    }
}
