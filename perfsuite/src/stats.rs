//! Pure helpers: percentiles, the open-loop arrival schedule, the server
//! counter identities and span self-time. Everything here is deterministic
//! and unit-tested.

use cdrib_tensor::rng::component_rng;
use rand::Rng;
use std::time::Duration;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (nearest rank, so always an observed value).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Indices of the `keep` rounds with the least host steal, in round order
/// (on ties, the earlier round).
pub fn calmest(steal: &[f64], keep: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
    order.truncate(keep);
    order.sort_unstable();
    order
}

/// Poisson arrivals at `rate` per second over `span`: exponential gaps by
/// inverse CDF from a seeded stream, so a seed always gives the same
/// schedule.
pub fn poisson_schedule(seed: u64, stream: &str, rate: f64, span: Duration) -> Vec<Duration> {
    let mut rng = component_rng(seed, stream);
    let end = span.as_secs_f64();
    let mut t = 0.0f64;
    let mut due = Vec::with_capacity((rate * end * 1.1) as usize + 16);
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate;
        if t >= end {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// Server counters as read from the wire `Stats` reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    pub accepted: u64,
    pub served: u64,
    pub shed: u64,
    pub deltas_applied: u64,
    pub batches: u64,
    pub epoch: u64,
}

/// Checks the counter identities after a run in which the client sent
/// `reads` recommend frames and `deltas` ingest frames, every one of which
/// was answered: each frame is either admitted or shed, and every admitted
/// read is served (deltas are admitted but counted apart).
pub fn check_stats_identity(s: &WireStats, reads: u64, deltas: u64) -> Result<(), String> {
    if s.accepted + s.shed != reads + deltas {
        return Err(format!(
            "accepted {} + shed {} != sent {} (reads {reads} + deltas {deltas})",
            s.accepted,
            s.shed,
            reads + deltas
        ));
    }
    if s.served + s.deltas_applied != s.accepted {
        return Err(format!(
            "served {} + deltas applied {} != accepted {}",
            s.served, s.deltas_applied, s.accepted
        ));
    }
    Ok(())
}

/// One recorded span; times are nanoseconds from the trace origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same trace, if any.
    pub parent: Option<usize>,
    /// One id per request (or per replayed unit of work).
    pub request: u64,
}

/// A span's duration minus the part of its interval covered by its direct
/// children (overlapping children are counted once).
pub fn self_time_ns(spans: &[Span], index: usize) -> u64 {
    let span = &spans[index];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = span.start_ns;
    for (a, b) in children {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    (span.end_ns - span.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_hand_computed_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn calmest_keeps_the_least_steal_in_round_order() {
        let steal = [0.30, 0.01, 0.05, 0.01, 0.20, 0.02];
        assert_eq!(calmest(&steal, 3), vec![1, 3, 5]);
        assert_eq!(calmest(&steal, 4), vec![1, 2, 3, 5]);
        assert_eq!(calmest(&[0.0; 4], 2), vec![0, 1]);
        assert_eq!(calmest(&steal, 10), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn poisson_schedule_is_seeded_and_near_its_rate() {
        let span = Duration::from_secs(20);
        let a = poisson_schedule(5, "reads", 1000.0, span);
        let b = poisson_schedule(5, "reads", 1000.0, span);
        let c = poisson_schedule(6, "reads", 1000.0, span);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().unwrap() < &span);
        // 20k expected arrivals: the count's standard deviation is ~141, so
        // 2% is a > 2.8-sigma band.
        let rate = a.len() as f64 / span.as_secs_f64();
        assert!((rate - 1000.0).abs() < 20.0, "mean rate {rate}");
    }

    #[test]
    fn stats_identity_checker() {
        let ok = WireStats {
            accepted: 95,
            served: 90,
            shed: 10,
            deltas_applied: 5,
            batches: 7,
            epoch: 5,
        };
        assert!(check_stats_identity(&ok, 100, 5).is_ok());
        assert!(check_stats_identity(&ok, 101, 5).is_err());
        let lost = WireStats { served: 89, ..ok };
        assert!(check_stats_identity(&lost, 100, 5).is_err());
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        };
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 70, 80, Some(0)),
            span("grandchild", 12, 28, Some(1)),
        ];
        // Children cover [10,50) and [70,80): 50 of the root's 100 ns.
        assert_eq!(self_time_ns(&spans, 0), 50);
        assert_eq!(self_time_ns(&spans, 1), 4);
        assert_eq!(self_time_ns(&spans, 4), 16);
    }
}
