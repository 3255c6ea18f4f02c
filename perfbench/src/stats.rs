//! The benchmark's own arithmetic: percentiles and the sample-count rule,
//! medians, and the capacity decision of the rate ladder.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted`, which must be
/// sorted ascending and non-empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `values` ascending (NaN-free input; infinities sort
/// last, which is where failed requests belong).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v
}

/// Median (nearest-rank p50) of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 50.0)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// A latency summary: median, p90, p99, and how many samples they rest
/// on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Sample count.
    pub n: usize,
}

/// Summarises `values`. Every percentile reported needs at least
/// [`MIN_BEYOND`] samples beyond it, so p99 needs n ≥ 1000; fewer is an
/// error, and a phase too short for its p99 can never report one.
pub fn latency(values: &[f64]) -> Result<Latency, String> {
    let n = values.len();
    if beyond(n, 99.0) < MIN_BEYOND {
        return Err(format!(
            "p99 needs {MIN_BEYOND} samples beyond it; {n} samples give {}",
            beyond(n, 99.0)
        ));
    }
    let s = sorted(values);
    Ok(Latency {
        p50: percentile_sorted(&s, 50.0),
        p90: percentile_sorted(&s, 90.0),
        p99: percentile_sorted(&s, 99.0),
        n,
    })
}

/// One rung of the rate ladder, as the open-loop generator measured it.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Offered rate (requests per second).
    pub rate: f64,
    /// Per-request latency from due time in ms; a failed request is
    /// `f64::INFINITY` (it misses any limit).
    pub latency_ms: Vec<f64>,
    /// Requests still outstanding when the last one was sent.
    pub backlog_end: usize,
}

/// The backlog a rung may end with and still count as keeping up: what
/// Little's law allows at the latency limit, doubled, plus two in flight
/// on the two connections.
pub fn backlog_allowance(rate: f64, limit_ms: f64) -> usize {
    (2.0 * rate * limit_ms / 1000.0).ceil() as usize + 2
}

/// Percentile of a rung's latency that must meet the limit. A backlog
/// that grows delays most of the requests after it starts, so p90 sees
/// it as surely as p99 does, while a stall of the host that delays a few
/// percent of the requests does not fail the rung.
pub const RUNG_PERCENTILE: f64 = 90.0;

/// Whether a rung meets the latency limit without a growing backlog:
/// [`RUNG_PERCENTILE`] (failures count as infinitely late) at most
/// `limit_ms`, and no more requests outstanding at the last send than
/// [`backlog_allowance`].
pub fn rung_passes(rung: &Rung, limit_ms: f64) -> bool {
    if rung.latency_ms.is_empty() {
        return false;
    }
    let tail = percentile_sorted(&sorted(&rung.latency_ms), RUNG_PERCENTILE);
    tail <= limit_ms && rung.backlog_end <= backlog_allowance(rung.rate, limit_ms)
}

/// Ladder shape: start rate, growth factor per rung, the bounds of the
/// search, and how many bisection rungs refine the knee.
#[derive(Debug, Clone, Copy)]
pub struct LadderPlan {
    /// First rate tried.
    pub start: f64,
    /// Ratio between consecutive rungs (> 1).
    pub factor: f64,
    /// Lowest rate tried; below it the capacity is reported as 0.
    pub floor: f64,
    /// Highest rate tried; capacity is capped here.
    pub ceil: f64,
    /// Geometric bisection steps between the last pass and first fail.
    pub refine: usize,
}

/// Finds the highest rate for which `probe` passes: climbs (or descends)
/// the geometric ladder to the first change of verdict, then bisects
/// geometrically `refine` times. Returns the highest passing rate tried,
/// or 0 when even the floor fails.
pub fn find_capacity(plan: LadderPlan, mut probe: impl FnMut(f64) -> bool) -> f64 {
    assert!(plan.factor > 1.0 && plan.floor > 0.0 && plan.floor <= plan.ceil);
    let start = plan.start.clamp(plan.floor, plan.ceil);
    let (mut lo, mut hi);
    if probe(start) {
        lo = start;
        loop {
            let next = lo * plan.factor;
            if next > plan.ceil {
                return lo;
            }
            if probe(next) {
                lo = next;
            } else {
                hi = next;
                break;
            }
        }
    } else {
        hi = start;
        loop {
            let next = hi / plan.factor;
            if next < plan.floor {
                return 0.0;
            }
            if probe(next) {
                lo = next;
                break;
            }
            hi = next;
        }
    }
    for _ in 0..plan.refine {
        let mid = (lo * hi).sqrt();
        if probe(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.1), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn failures_sort_last_and_dominate_the_tail() {
        let mut v = vec![1.0; 990];
        v.extend(std::iter::repeat_n(f64::INFINITY, 10));
        let s = sorted(&v);
        assert_eq!(percentile_sorted(&s, 99.0), 1.0);
        v.push(f64::INFINITY);
        assert!(percentile_sorted(&sorted(&v), 99.0).is_infinite());
    }

    #[test]
    fn sample_count_rule() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(100, 90.0), 10);
        assert!(latency(&vec![1.0; 999]).is_err());
        let l = latency(&(1..=1000).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((l.p50, l.p90, l.p99, l.n), (500.0, 900.0, 990.0, 1000));
    }

    fn rung(rate: f64, lat: f64, backlog_end: usize) -> Rung {
        Rung {
            rate,
            latency_ms: vec![lat; 1000],
            backlog_end,
        }
    }

    #[test]
    fn rung_verdict_needs_latency_and_bounded_backlog() {
        assert_eq!(backlog_allowance(500.0, 10.0), 12);
        assert!(rung_passes(&rung(500.0, 9.0, 12), 10.0));
        assert!(!rung_passes(&rung(500.0, 11.0, 0), 10.0));
        assert!(!rung_passes(&rung(500.0, 1.0, 13), 10.0));
        let mut r = rung(500.0, 1.0, 0);
        for v in r.latency_ms.iter_mut().take(11) {
            *v = f64::INFINITY;
        }
        assert!(rung_passes(&r, 10.0), "11 failures in 1000 leave p90 alone");
        for v in r.latency_ms.iter_mut().take(101) {
            *v = f64::INFINITY;
        }
        assert!(!rung_passes(&r, 10.0), "101 failures in 1000 break p90");
        r.latency_ms.clear();
        assert!(!rung_passes(&r, 10.0), "an empty rung never passes");
    }

    const PLAN: LadderPlan = LadderPlan {
        start: 100.0,
        factor: 1.25,
        floor: 10.0,
        ceil: 100_000.0,
        refine: 2,
    };

    #[test]
    fn capacity_climbs_then_bisects_below_the_knee() {
        let knee = 830.0;
        let mut tried = Vec::new();
        let cap = find_capacity(PLAN, |r| {
            tried.push(r);
            r <= knee
        });
        assert!(cap <= knee && cap > knee / 1.25f64.powf(0.25), "{cap}");
        // Climb to the first failure, then exactly two refinements.
        let climb = tried.iter().position(|&r| r > knee).unwrap();
        assert_eq!(tried.len(), climb + 1 + 2);
    }

    #[test]
    fn capacity_descends_when_the_start_fails() {
        let cap = find_capacity(PLAN, |r| r <= 42.0);
        assert!(cap <= 42.0 && cap > 42.0 / 1.25f64.powf(0.25), "{cap}");
        assert_eq!(find_capacity(PLAN, |_| false), 0.0);
        let top = find_capacity(PLAN, |_| true);
        assert!(top <= PLAN.ceil && top * PLAN.factor > PLAN.ceil, "{top}");
    }

    #[test]
    fn capacity_is_monotone_in_the_knee() {
        let mut last = 0.0;
        for knee in [50.0, 120.0, 400.0, 900.0, 3000.0] {
            let cap = find_capacity(PLAN, |r| r <= knee);
            assert!(cap > last);
            last = cap;
        }
    }
}
