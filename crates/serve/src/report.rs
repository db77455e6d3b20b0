//! Latency/throughput summaries of a serving run, on the simulated clock.

use crate::server::{QueryDisposition, ServeOutcome};
use std::time::Duration;

/// Interpolation-free percentile (nearest-rank) over an unsorted sample.
/// `q` in `[0, 1]`; returns `Duration::ZERO` on an empty sample.
pub fn percentile(samples: &[Duration], q: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted: Vec<Duration> = samples.to_vec();
    sorted.sort();
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize)
        .saturating_sub(1)
        .min(sorted.len() - 1);
    sorted[rank]
}

/// One row of the concurrency sweep: the serving metrics of a trace
/// replayed at a fixed in-flight cap. Latency percentiles and QPS are
/// measured over **completed** queries only — failed, cancelled, shed,
/// and rejected requests are counted separately and never pollute the
/// survivor latency distribution.
#[derive(Debug, Clone)]
pub struct ConcurrencyReport {
    /// The in-flight cap this row was measured at.
    pub concurrency: usize,
    /// Queries that ran to completion with a result.
    pub completed: usize,
    /// Queries that ended in error (retries exhausted or non-retryable).
    pub failed: usize,
    /// Queries cancelled by their deadline.
    pub cancelled: usize,
    /// Queries shed from the wait queue under broker pressure.
    pub shed: usize,
    /// Arrivals rejected by queue backpressure.
    pub rejected: usize,
    /// Completed queries per simulated second.
    pub qps: f64,
    /// Median end-to-end survivor latency (queue wait + execution).
    pub p50: Duration,
    /// 99th-percentile end-to-end survivor latency.
    pub p99: Duration,
    /// Mean end-to-end survivor latency.
    pub mean: Duration,
    /// Simulated time to drain the whole trace.
    pub makespan: Duration,
    /// Server waves in which nothing could be scheduled despite work in
    /// flight (always 0 unless admission deadlocks).
    pub deadlocks: u64,
}

impl ConcurrencyReport {
    /// Summarize `outcome` as measured at `concurrency`.
    pub fn from_outcome(concurrency: usize, outcome: &ServeOutcome) -> Self {
        let latencies: Vec<Duration> = outcome
            .queries
            .iter()
            .filter(|q| q.disposition == QueryDisposition::Completed)
            .map(|q| q.latency)
            .collect();
        let counts = outcome.dispositions();
        let makespan = outcome.makespan;
        let qps = if makespan.is_zero() {
            0.0
        } else {
            latencies.len() as f64 / makespan.as_secs_f64()
        };
        let mean = if latencies.is_empty() {
            Duration::ZERO
        } else {
            latencies.iter().sum::<Duration>() / latencies.len() as u32
        };
        ConcurrencyReport {
            concurrency,
            completed: counts.completed,
            failed: counts.failed,
            cancelled: counts.cancelled,
            shed: counts.shed,
            rejected: counts.rejected,
            qps,
            p50: percentile(&latencies, 0.50),
            p99: percentile(&latencies, 0.99),
            mean,
            makespan,
            deadlocks: outcome.deadlocks,
        }
    }

    /// One formatted table row (pairs with [`Self::header`]).
    pub fn row(&self) -> String {
        format!(
            "{:>11} {:>9} {:>6} {:>9} {:>5} {:>8} {:>9.1} {:>11.3} {:>11.3} {:>11.3} {:>10.3}",
            self.concurrency,
            self.completed,
            self.failed,
            self.cancelled,
            self.shed,
            self.rejected,
            self.qps,
            self.p50.as_secs_f64() * 1e3,
            self.p99.as_secs_f64() * 1e3,
            self.mean.as_secs_f64() * 1e3,
            self.makespan.as_secs_f64(),
        )
    }

    /// Header for [`Self::row`].
    pub fn header() -> String {
        format!(
            "{:>11} {:>9} {:>6} {:>9} {:>5} {:>8} {:>9} {:>11} {:>11} {:>11} {:>10}",
            "concurrency",
            "completed",
            "failed",
            "cancelled",
            "shed",
            "rejected",
            "qps",
            "p50(ms)",
            "p99(ms)",
            "mean(ms)",
            "mksp(s)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServedQuery;
    use sirius_core::SiriusError;

    #[test]
    fn percentile_nearest_rank() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&ms, 0.50), Duration::from_millis(50));
        assert_eq!(percentile(&ms, 0.99), Duration::from_millis(99));
        assert_eq!(percentile(&ms, 1.0), Duration::from_millis(100));
        assert_eq!(percentile(&ms, 0.0), Duration::from_millis(1));
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);
        assert_eq!(
            percentile(&[Duration::from_millis(7)], 0.99),
            Duration::from_millis(7)
        );
    }

    fn served(id: u64, disposition: QueryDisposition, latency_ms: u64) -> ServedQuery {
        ServedQuery {
            id,
            tenant: 0,
            priority: 0,
            disposition,
            retries: 0,
            result: match disposition {
                QueryDisposition::Completed => Ok(sirius_columnar::Table::empty(
                    sirius_columnar::Schema::new(vec![]),
                )),
                _ => Err(SiriusError::Cancelled("test".into())),
            },
            report: sirius_core::QueryReport::zeroed("sirius", 1),
            arrival: Duration::ZERO,
            admitted: Duration::ZERO,
            completed: Duration::from_millis(latency_ms),
            latency: Duration::from_millis(latency_ms),
            queue_wait: Duration::ZERO,
            events: Vec::new(),
        }
    }

    #[test]
    fn failed_queries_do_not_pollute_percentiles() {
        // Three fast completions plus one absurdly slow failure and one
        // cancellation: the survivor percentiles ignore the non-survivors.
        let mut outcome = ServeOutcome {
            makespan: Duration::from_secs(1),
            ..Default::default()
        };
        for (id, ms) in [(0u64, 10u64), (1, 20), (2, 30)] {
            outcome
                .queries
                .push(served(id, QueryDisposition::Completed, ms));
        }
        outcome
            .queries
            .push(served(3, QueryDisposition::Failed, 100_000));
        outcome
            .queries
            .push(served(4, QueryDisposition::Cancelled, 90_000));
        outcome.shed.push(5);
        outcome.rejected.push(6);
        let r = ConcurrencyReport::from_outcome(2, &outcome);
        assert_eq!(r.completed, 3);
        assert_eq!(r.failed, 1);
        assert_eq!(r.cancelled, 1);
        assert_eq!(r.shed, 1);
        assert_eq!(r.rejected, 1);
        assert_eq!(r.p99, Duration::from_millis(30), "failure latency excluded");
        assert_eq!(r.p50, Duration::from_millis(20));
        assert!((r.qps - 3.0).abs() < 1e-9, "qps counts completions only");
        assert_eq!(r.mean, Duration::from_millis(20));
        assert!(r.row().len() >= ConcurrencyReport::header().len() - 8);
    }
}
