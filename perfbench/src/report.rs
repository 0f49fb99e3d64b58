//! Metric names and units, and the result line the harness prints last.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("lat_p50_us.low", "us"),
    ("lat_p99_us.low", "us"),
    ("lat_p50_us.high", "us"),
    ("lat_p99_us.high", "us"),
    ("goodput_rps", "req/s"),
    ("retrain_jobs_per_s", "jobs/s"),
    ("heldout_mape", "fraction"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.parse_us.p50", "us"),
    ("net.flush_us.p50", "us"),
    ("net.syscalls_per_req", "count"),
    ("net.bytes_per_req", "bytes"),
    ("net.parse_errors", "count"),
    ("cache.hit_rate", "fraction"),
    ("cache.fastpath_share", "fraction"),
    ("cache.hits", "count"),
    ("cache.insertions", "count"),
    ("cache.evictions", "count"),
    ("serve.queue_wait_us.p50", "us"),
    ("serve.queue_wait_us.p99", "us"),
    ("serve.batch_wait_us.p50", "us"),
    ("serve.batch_wait_us.p99", "us"),
    ("serve.mean_batch_size", "count"),
    ("serve.peak_queue_depth", "count"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("serve.flush_us.p50", "us"),
    ("serve.score_primary_us.p50", "us"),
    ("serve.segment_sum_ratio", "fraction"),
    ("core.stage_graph_us", "us"),
    ("core.featurize_us", "us"),
    ("core.score_us", "us"),
    ("core.predict_alloc_us", "us"),
    ("core.fallback_count", "count"),
    ("core.analytic_count", "count"),
    ("sim.flight_s", "s"),
    ("sim.flights", "count"),
    ("sim.flights_per_s", "1/s"),
    ("dataset.build_s", "s"),
    ("dataset.examples", "count"),
    ("fit.xgb_s", "s"),
    ("fit.nn_s", "s"),
    ("retrain.phase_sum_ratio", "fraction"),
    ("par.tasks", "count"),
    ("par.steals_per_task", "fraction"),
    ("par.steal_retries", "count"),
    ("obs.trace_overhead_frac", "fraction"),
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.backlog_end", "count"),
    ("loadgen.resubmit_share", "fraction"),
    ("client.frame_us", "us"),
    ("client.send_us", "us"),
    ("client.parse_us", "us"),
    ("client.in_flight_us", "us"),
];

/// A metric name: starts with a letter or digit, then up to 63 letters,
/// digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Render the result line for the metrics in `list`, taking values from
/// `values`. Every listed metric must be present and finite.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &BTreeMap<&'static str, f64>,
    list: &[(&str, &str)],
) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, (name, unit)) in list.iter().enumerate() {
        if !valid_name(name) || !valid_unit(unit) {
            return Err(format!("invalid metric name or unit: {name} ({unit})"));
        }
        let value = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{metrics}}}}}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tasq_obs::json::{self, JsonValue};

    fn repo_file(name: &str) -> JsonValue {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
        let text = std::fs::read_to_string(&path).expect("read");
        json::parse(&text).expect("parse")
    }

    fn names(list: &JsonValue) -> Vec<(String, String)> {
        list.as_array()
            .expect("array")
            .iter()
            .map(|m| {
                let get = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                (get("name"), get("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_names_and_units_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(*name), "duplicate {name}");
        }
        assert!(!valid_name(".lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(!valid_unit("µs"));
        assert!(!valid_unit(""));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let bench = repo_file("../BENCHMARK.json");
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        let e2e = bench.get("end_to_end").expect("end_to_end");
        assert_eq!(names(e2e), owned(END_TO_END));
        assert_eq!(
            names(bench.get("per_layer").expect("per_layer")),
            owned(PER_LAYER)
        );
        for metric in e2e.as_array().expect("array") {
            let bound = metric
                .get("bound")
                .and_then(JsonValue::as_f64)
                .expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        }
    }

    #[test]
    fn the_layer_map_names_only_emitted_metrics() {
        let intent = repo_file("intent.json");
        let known: BTreeSet<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let mut mapped = BTreeSet::new();
        for row in intent
            .get("layer_map")
            .and_then(JsonValue::as_array)
            .expect("layer_map")
        {
            for key in ["metrics", "moves"] {
                for m in row.get(key).and_then(JsonValue::as_array).expect(key) {
                    let name = m.as_str().expect("name");
                    assert!(
                        known.contains(name),
                        "layer map names unknown metric {name}"
                    );
                    if key == "metrics" {
                        mapped.insert(name);
                    }
                }
            }
        }
        for (name, _) in PER_LAYER {
            assert!(mapped.contains(name), "{name} has no row in the layer map");
        }
    }

    #[test]
    fn result_line_requires_every_metric() {
        let mut values = BTreeMap::new();
        values.insert("setup_s", 1.25);
        let list = [("setup_s", "s")];
        let line = result_line(true, 3, 0, &values, &list).expect("line");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert!(result_line(true, 3, 0, &values, &[("goodput_rps", "req/s")]).is_err());
        values.insert("setup_s", f64::INFINITY);
        assert!(result_line(true, 3, 0, &values, &list).is_err());
    }
}
