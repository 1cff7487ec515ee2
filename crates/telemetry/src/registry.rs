//! The metric registry and the hand-rolled Prometheus text exposition.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::metrics::{Gauge, Histogram};

enum Metric {
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Entry {
    help: &'static str,
    metric: Metric,
}

/// The name → metric table.
///
/// Registration (`gauge`/`histogram`) is get-or-create by name
/// under a mutex — a cold path run once per metric at startup. The returned
/// `Arc` handles are the hot path: recording through them is lock-free.
/// [`Registry::render_prometheus`] serializes every registered metric in
/// the Prometheus text format, sorted by name (the `BTreeMap` order), so
/// scrapes are deterministic.
///
/// # Example
///
/// ```
/// use mahimahi_telemetry::Registry;
///
/// let registry = Registry::new();
/// let round = registry.gauge("mahimahi_round", "Last produced round");
/// round.set(3);
/// let text = registry.render_prometheus();
/// assert!(text.contains("mahimahi_round 3"));
/// ```
#[derive(Default)]
pub struct Registry {
    entries: Mutex<BTreeMap<&'static str, Entry>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Gets or registers the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        let mut entries = self.entries.lock().expect("registry poisoned");
        let entry = entries.entry(name).or_insert_with(|| Entry {
            help,
            metric: Metric::Gauge(Arc::new(Gauge::new())),
        });
        match &entry.metric {
            Metric::Gauge(gauge) => gauge.clone(),
            _ => panic!("metric {name} registered with a different kind"),
        }
    }

    /// Gets or registers the histogram `name` (seconds-valued exposition,
    /// microsecond-valued recording).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Arc<Histogram> {
        let mut entries = self.entries.lock().expect("registry poisoned");
        let entry = entries.entry(name).or_insert_with(|| Entry {
            help,
            metric: Metric::Histogram(Arc::new(Histogram::new())),
        });
        match &entry.metric {
            Metric::Histogram(histogram) => histogram.clone(),
            _ => panic!("metric {name} registered with a different kind"),
        }
    }

    /// Serializes every metric in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers, gauges as bare
    /// samples, histograms as cumulative `_bucket{le=…}` series plus
    /// `_sum` (seconds) and `_count`.
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.lock().expect("registry poisoned");
        let mut out = String::new();
        for (name, entry) in entries.iter() {
            match &entry.metric {
                Metric::Gauge(gauge) => {
                    out.push_str(&format!("# HELP {name} {}\n", entry.help));
                    out.push_str(&format!("# TYPE {name} gauge\n"));
                    out.push_str(&format!("{name} {}\n", gauge.get()));
                }
                Metric::Histogram(histogram) => {
                    let snapshot = histogram.snapshot();
                    out.push_str(&format!("# HELP {name} {}\n", entry.help));
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    for (le, cumulative) in snapshot.cumulative_buckets() {
                        if le.is_infinite() {
                            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
                        } else {
                            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                        }
                    }
                    out.push_str(&format!(
                        "{name}_sum {}\n",
                        crate::as_secs_f64(snapshot.sum_micros())
                    ));
                    out.push_str(&format!("{name}_count {}\n", snapshot.count()));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_by_name() {
        let registry = Registry::new();
        let a = registry.gauge("x_depth", "help");
        let b = registry.gauge("x_depth", "other help ignored");
        a.set(2);
        b.set_max(3);
        assert_eq!(a.get(), 3);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflicts_are_rejected() {
        let registry = Registry::new();
        let _ = registry.histogram("x", "help");
        let _ = registry.gauge("x", "help");
    }

    #[test]
    fn exposition_renders_all_kinds_sorted() {
        let registry = Registry::new();
        registry.gauge("b_depth", "queue depth").set(4);
        registry.gauge("a_round", "round").set(7);
        let histogram = registry.histogram("c_seconds", "latency");
        histogram.record(1_500); // 1.5 ms
        let text = registry.render_prometheus();
        let a = text.find("a_round 7").expect("gauge sample");
        let b = text.find("b_depth 4").expect("gauge sample");
        let c = text.find("c_seconds_bucket").expect("histogram buckets");
        assert!(a < b && b < c, "sorted by name");
        assert!(text.contains("# TYPE a_round gauge"));
        assert!(text.contains("# TYPE b_depth gauge"));
        assert!(text.contains("# TYPE c_seconds histogram"));
        assert!(text.contains("c_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("c_seconds_count 1"));
        assert!(text.contains("c_seconds_sum 0.0015"));
    }
}
