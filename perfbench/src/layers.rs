//! The traced run's per-layer metrics, self-time tables and sum checks.

use crate::serving::{Phase, Summary};
use crate::spans::{self, LayerTime, SpanLog};
use crate::stats::{self, HistDelta};
use crate::{retrain, SetupSample, SEGMENTS};
use scope_sim::Job;
use std::collections::BTreeMap;
use std::time::Instant;
use tasq_serve::ServerStatsSnapshot;

/// Accepted ratio of summed server segments to server latency; the same
/// band the `loadgen` latency attribution uses.
const SEGMENT_SUM_BAND: (f64, f64) = (0.90, 1.02);
/// Accepted ratio of the retrain phases, run one call at a time, to the
/// `flight_workload` plus `train_with_pool` wall time they decompose.
const PHASE_SUM_BAND: (f64, f64) = (0.80, 1.25);

/// What the wire and server layers recorded over the measured phases.
pub struct Wire {
    /// Raw syscalls issued by the event loop.
    pub syscalls: f64,
    /// Bytes read plus bytes written.
    pub bytes: f64,
    /// Connections killed by parse errors.
    pub parse_errors: f64,
    /// Samples each segment histogram gained.
    pub hist: BTreeMap<&'static str, HistDelta>,
    /// Requests sent.
    pub requests: u64,
}

/// Everything the per-layer report reads.
pub struct Inputs<'a> {
    pub train_jobs: &'a [Job],
    pub samples: &'a [SetupSample],
    pub snapshot: &'a ServerStatsSnapshot,
    pub wire: &'a Wire,
    pub summary: &'a BTreeMap<&'static str, Summary>,
    pub lag_p99: f64,
    pub resubmit_share: f64,
    pub backlog_end: usize,
    pub goodput_untraced: f64,
    pub goodput_traced: f64,
    pub nproc: usize,
    pub origin: Instant,
    pub workload: &'static str,
}

/// Compute every per-layer metric, print the self-time tables, run the
/// sum checks (pushing failures to `problems`) and write the spans.
pub fn per_layer(
    x: &Inputs,
    mut setup_spans: SpanLog,
    oracle_spans: SpanLog,
    phases: Vec<Phase>,
    problems: &mut Vec<String>,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut values = BTreeMap::new();
    let requests = x.wire.requests.max(1) as f64;
    let h = |name: &str| x.wire.hist.get(name).expect("marked histogram");
    values.insert("net.parse_us.p50", h("segment_parse_us").quantile(0.5));
    values.insert("net.flush_us.p50", h("segment_wire_flush_us").quantile(0.5));
    values.insert("net.syscalls_per_req", x.wire.syscalls / requests);
    values.insert("net.bytes_per_req", x.wire.bytes / requests);
    values.insert("net.parse_errors", x.wire.parse_errors);

    let snap = x.snapshot;
    values.insert("cache.hit_rate", snap.cache.hit_rate());
    values.insert(
        "cache.fastpath_share",
        snap.fastpath_hits as f64 / snap.completed.max(1) as f64,
    );
    values.insert("cache.hits", snap.cache.hits as f64);
    values.insert("cache.insertions", snap.cache.insertions as f64);
    values.insert("cache.evictions", snap.cache.evictions as f64);
    values.insert(
        "serve.queue_wait_us.p50",
        h("segment_queue_wait_us").quantile(0.5),
    );
    values.insert(
        "serve.queue_wait_us.p99",
        h("segment_queue_wait_us").quantile(0.99),
    );
    values.insert(
        "serve.batch_wait_us.p50",
        h("segment_batch_wait_us").quantile(0.5),
    );
    values.insert(
        "serve.batch_wait_us.p99",
        h("segment_batch_wait_us").quantile(0.99),
    );
    values.insert("serve.mean_batch_size", snap.mean_batch_size());
    values.insert("serve.peak_queue_depth", snap.peak_queue_depth as f64);
    values.insert("serve.shed", snap.shed as f64);
    values.insert("serve.rejected", snap.rejected as f64);
    values.insert("serve.flush_us.p50", h("segment_flush_us").quantile(0.5));
    values.insert(
        "serve.score_primary_us.p50",
        h("segment_score_primary_us").quantile(0.5),
    );

    // Serving sum check: the server's segments must add up to its own
    // end-to-end latency.
    let serve_total = h("serve_latency_us").sum() as f64;
    let served = h("serve_latency_us").count().max(1) as f64;
    println!("server segments over the measured phases (mean per served request, us):");
    let mut segment_sum = 0.0;
    for (label, name) in SEGMENTS {
        let d = h(name);
        segment_sum += d.sum() as f64;
        println!(
            "  {label:<16} count {:>8} mean {:>9.2} p50 {:>8.0} p99 {:>8.0} share {:.3}",
            d.count(),
            d.sum() as f64 / served,
            d.quantile(0.5),
            d.quantile(0.99),
            d.sum() as f64 / serve_total.max(1.0)
        );
    }
    let ratio = segment_sum / serve_total.max(1.0);
    println!("  segment sum / server latency = {ratio:.4} (accepted {SEGMENT_SUM_BAND:?})");
    values.insert("serve.segment_sum_ratio", ratio);
    if !(SEGMENT_SUM_BAND.0..=SEGMENT_SUM_BAND.1).contains(&ratio) {
        problems.push(format!(
            "server segments sum to {ratio:.3} of server latency"
        ));
    }

    // Scoring-core costs from the oracle's direct calls.
    let core = spans::self_times(oracle_spans.spans());
    let mean_us = |n: &str| {
        core.get(n)
            .map_or(0.0, |l| l.total_ns as f64 / l.count.max(1) as f64 / 1e3)
    };
    let (graph, featurize, score) = (
        mean_us("core.stage_graph"),
        mean_us("core.featurize"),
        mean_us("core.score"),
    );
    values.insert("core.stage_graph_us", graph);
    values.insert("core.featurize_us", featurize);
    values.insert("core.score_us", score);
    values.insert("core.predict_alloc_us", score - graph - featurize);
    let tiers = |f: fn(&Summary) -> u64| x.summary.values().map(f).sum::<u64>() as f64;
    values.insert("core.fallback_count", tiers(|s| s.tally.fallback));
    values.insert("core.analytic_count", tiers(|s| s.tally.analytic));

    // Retrain chain: the set-ups' calls plus one decomposed pass.
    let med = |f: fn(&SetupSample) -> f64| -> f64 {
        stats::median(&x.samples.iter().map(f).collect::<Vec<_>>())
    };
    let flight_s = med(|s| s.retrain.flight_s);
    let train_s = med(|s| s.retrain.train_s);
    let flights = med(|s| s.flights);
    values.insert("sim.flight_s", flight_s);
    values.insert("sim.flights", flights);
    values.insert("sim.flights_per_s", flights / flight_s);
    let par_tasks = med(|s| s.par_tasks);
    values.insert("par.tasks", par_tasks);
    values.insert(
        "par.steals_per_task",
        med(|s| s.par_steals) / par_tasks.max(1.0),
    );
    values.insert("par.steal_retries", med(|s| s.par_steal_retries));

    let pool = tasq_par::Pool::new(x.nproc);
    let split = retrain::decomposed(x.train_jobs, &pool, &mut setup_spans)?;
    values.insert("dataset.build_s", split.dataset_build_s);
    values.insert("dataset.examples", split.examples as f64);
    values.insert("fit.xgb_s", split.fit_xgb_s);
    values.insert("fit.nn_s", split.fit_nn_s);
    let phase_ratio = (flight_s + split.total_s()) / (flight_s + train_s);
    values.insert("retrain.phase_sum_ratio", phase_ratio);
    println!(
        "retrain phases (s): flight {flight_s:.3} + validate jobs {:.4} + dataset build {:.3} + \
         validate targets {:.4} + fit xgb {:.3} + fit nn {:.3} + register {:.4} = {:.3} vs \
         flight + train_with_pool {:.3}: ratio {phase_ratio:.3} (accepted {PHASE_SUM_BAND:?})",
        split.validate_jobs_s,
        split.dataset_build_s,
        split.validate_targets_s,
        split.fit_xgb_s,
        split.fit_nn_s,
        split.register_s,
        flight_s + split.total_s(),
        flight_s + train_s,
    );
    if !(PHASE_SUM_BAND.0..=PHASE_SUM_BAND.1).contains(&phase_ratio) {
        problems.push(format!(
            "retrain phases sum to {phase_ratio:.3} of the pipeline wall time"
        ));
    }
    if split.artifacts != x.samples[0].retrain.artifacts {
        problems.push("decomposed retrain artifacts differ from train_with_pool's".into());
    }

    values.insert(
        "obs.trace_overhead_frac",
        (x.goodput_untraced - x.goodput_traced) / x.goodput_untraced.max(1.0),
    );
    values.insert("loadgen.lag_p99_us", x.lag_p99);
    values.insert("loadgen.resubmit_share", x.resubmit_share);
    values.insert("loadgen.backlog_end", x.backlog_end as f64);

    // Client-side self times from the request spans.
    let mut all = SpanLog::new(x.origin, true);
    for p in phases {
        all.merge(p.spans);
    }
    let client = spans::self_times(all.spans());
    let self_mean = |n: &str| client.get(n).map_or(0.0, LayerTime::self_us_mean);
    values.insert("client.frame_us", self_mean("client.frame"));
    values.insert("client.send_us", self_mean("client.send"));
    values.insert("client.parse_us", self_mean("client.parse"));
    values.insert("client.in_flight_us", self_mean("request"));

    all.merge(setup_spans);
    all.merge(oracle_spans);
    let table = spans::self_times(all.spans());
    println!("per-layer self time from the harness spans:");
    println!(
        "  {:<26} {:>9} {:>12} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms", "self_us/span"
    );
    for (name, t) in &table {
        println!(
            "  {name:<26} {:>9} {:>12.3} {:>12.3} {:>12.2}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.self_us_mean()
        );
    }
    let path = std::path::PathBuf::from(".bench_out").join(format!("{}.spans.jsonl", x.workload));
    all.write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {} spans to {}", all.spans().len(), path.display());
    Ok(values)
}
