//! Reading the server's Prometheus text exposition.

use std::collections::BTreeMap;

/// Every sample line of a scrape, keyed by series (name plus labels as
/// printed); comment lines are skipped.
pub fn parse(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_owned(), value.parse().ok()?))
        })
        .collect()
}

/// A histogram's `(sum, count)` from a parsed scrape.
pub fn histogram(samples: &BTreeMap<String, f64>, name: &str) -> Option<(f64, f64)> {
    Some((*samples.get(&format!("{name}_sum"))?, *samples.get(&format!("{name}_count"))?))
}

/// A counter or gauge; `None` when the scrape lacks the series.
pub fn value(samples: &BTreeMap<String, f64>, name: &str) -> Option<f64> {
    samples.get(name).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCRAPE: &str = "# TYPE rpr_requests_total counter\nrpr_requests_total 42\n\
        # TYPE rpr_check_latency_seconds histogram\n\
        rpr_check_latency_seconds_bucket{le=\"1\"} 3\n\
        rpr_check_latency_seconds_bucket{le=\"+Inf\"} 5\n\
        rpr_check_latency_seconds_sum 0.012500\n\
        rpr_check_latency_seconds_count 5\n";

    #[test]
    fn reads_histogram_sum_and_count() {
        let s = parse(SCRAPE);
        assert_eq!(histogram(&s, "rpr_check_latency_seconds"), Some((0.0125, 5.0)));
        assert_eq!(histogram(&s, "rpr_cqa_latency_seconds"), None);
    }

    #[test]
    fn reads_counters_and_labelled_series() {
        let s = parse(SCRAPE);
        assert_eq!(value(&s, "rpr_requests_total"), Some(42.0));
        assert_eq!(value(&s, "rpr_check_latency_seconds_bucket{le=\"+Inf\"}"), Some(5.0));
        assert_eq!(value(&s, "rpr_missing_total"), None);
    }
}
