//! TASQ benchmark harness.
//!
//! ```text
//! perfbench --workload <recurring|adhoc> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets up `setup_reps` times (generate jobs, flight and train
//! the served model, evaluate it held out, deploy, bind a `NetServer`),
//! keeps the last deployment, and drives it over loopback in rounds of
//! an open loop at the workload's `low` and `high` rates and a closed
//! loop, checking every response against a direct
//! `ScoringService::score`. The last line of stdout is the JSON result;
//! `--trace 1` reports the per-layer metrics and writes the spans to
//! `.bench_out/<workload>.spans.jsonl`. See `README.md` next to this
//! crate's manifest.

mod config;
mod layers;
mod loadgen;
mod oracle;
mod report;
mod retrain;
mod serving;
mod spans;
mod stats;

use config::{Config, Workload};
use loadgen::{Judge, Mix};
use scope_sim::{Job, WorkloadConfig, WorkloadGenerator};
use serving::PlanCursor;
use spans::SpanLog;
use stats::HistMark;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use tasq::pipeline::{ModelChoice, ScoringConfig};
use tasq_net::{NetConfig, NetServer};
use tasq_obs::{Counter, Histogram, Registry};
use tasq_serve::{ModelRegistry, ScoringServer, ServeConfig};

/// Salt separating the traffic plans' seed from the run's seed.
const TRAFFIC_SALT: u64 = 0x0074_7261_6666_6963;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = Workload::parse(&get("--workload")?)?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds must be within 1..600, got {seconds}"));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// A counter the library already exports to the global registry.
fn counter(name: &str) -> Counter {
    Registry::global().counter(name, "")
}

/// A histogram the library already exports to the global registry.
fn histogram(name: &str) -> Histogram {
    Registry::global().histogram(name, "")
}

/// Counter values at a point in time, to subtract later.
struct CounterMark(Vec<(&'static str, u64)>);

impl CounterMark {
    fn of(names: &[&'static str]) -> Self {
        Self(names.iter().map(|&n| (n, counter(n).get())).collect())
    }

    fn delta(&self, name: &str) -> f64 {
        let (_, before) = self
            .0
            .iter()
            .find(|(n, _)| *n == name)
            .expect("marked counter");
        counter(name).get().saturating_sub(*before) as f64
    }
}

const RETRAIN_COUNTERS: [&str; 4] = [
    "sim_flights_total",
    "par_tasks_total",
    "par_steals_total",
    "par_steal_retries_total",
];

/// One set-up: its wall time and the retrain chain it ran.
struct SetupSample {
    setup_s: f64,
    retrain: retrain::Retrain,
    flights: f64,
    par_tasks: f64,
    par_steals: f64,
    par_steal_retries: f64,
}

/// A deployed, bound server plus the traffic it will receive.
struct Deployment {
    registry: Arc<ModelRegistry>,
    net: NetServer,
    train_jobs: Vec<Job>,
    payloads: Vec<Vec<u8>>,
}

fn generate(num_jobs: usize, seed: u64) -> Vec<Job> {
    WorkloadGenerator::new(WorkloadConfig {
        num_jobs,
        seed,
        ..Default::default()
    })
    .generate()
}

fn setup(
    config: &Config,
    args: &Args,
    nproc: usize,
    traffic_plans: usize,
    spans: &mut SpanLog,
) -> Result<(Deployment, SetupSample), String> {
    let t0 = Instant::now();
    let train_jobs = generate(config.retrain_jobs, config.retrain_seed);
    let payloads = loadgen::traffic(traffic_plans, args.seed ^ TRAFFIC_SALT)?;

    let pool = tasq_par::Pool::new(nproc);
    let mark = CounterMark::of(&RETRAIN_COUNTERS);
    let (store, retrain) = retrain::run(&train_jobs, config.retrain_seed, &pool, spans)?;
    let flights = mark.delta("sim_flights_total");
    let par_tasks = mark.delta("par_tasks_total");
    let par_steals = mark.delta("par_steals_total");
    let par_steal_retries = mark.delta("par_steal_retries_total");

    let registry = Arc::new(
        ModelRegistry::deploy(&store, ModelChoice::Nn, ScoringConfig::default())
            .map_err(|e| format!("deploy: {e}"))?,
    );
    let server = ScoringServer::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: nproc,
            ..Default::default()
        },
    );
    let net = NetServer::bind(
        "127.0.0.1:0",
        NetConfig {
            shards: nproc,
            ..Default::default()
        },
        server,
    )
    .map_err(|e| format!("bind: {e}"))?;
    let sample = SetupSample {
        setup_s: t0.elapsed().as_secs_f64(),
        retrain,
        flights,
        par_tasks,
        par_steals,
        par_steal_retries,
    };
    Ok((
        Deployment {
            registry,
            net,
            train_jobs,
            payloads,
        },
        sample,
    ))
}

/// Server segments, in the order a request crosses them.
const SEGMENTS: [(&str, &str); 7] = [
    ("fastpath_probe", "segment_fastpath_probe_us"),
    ("queue_wait", "segment_queue_wait_us"),
    ("batch_wait", "segment_batch_wait_us"),
    ("score_primary", "segment_score_primary_us"),
    ("score_fallback", "segment_score_fallback_us"),
    ("score_analytic", "segment_score_analytic_us"),
    ("flush", "segment_flush_us"),
];
const WIRE_HISTOGRAMS: [&str; 3] = [
    "segment_parse_us",
    "segment_wire_flush_us",
    "serve_latency_us",
];
const WIRE_COUNTERS: [&str; 3] = [
    "net_bytes_read_total",
    "net_bytes_written_total",
    "net_parse_errors_total",
];

fn vm_hwm_mib() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unparsable VmHWM line")?;
    Ok(kib / 1024.0)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let config = Config::load()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let origin = Instant::now();
    let rates = config.rates(args.workload);
    let window = config.closed_loop_window;
    // Recurring open loops send a fixed share of fresh plans in every
    // round; every ad-hoc request is fresh.
    let (warmup_share, fresh_share) = match args.workload {
        Workload::Recurring => config.recurring_fresh_shares(args.seconds),
        Workload::Adhoc => (1.0, 1.0),
    };
    let specs = serving::phase_specs(
        &config,
        args.workload,
        args.seconds,
        args.trace,
        fresh_share,
    );
    // The warm-up round is a copy of the first, with its own fresh share.
    let warmup_specs: Vec<serving::PhaseSpec> = specs[0]
        .iter()
        .map(|spec| serving::PhaseSpec {
            fresh_share: if spec.rate.is_some() {
                warmup_share
            } else {
                0.0
            },
            ..spec.clone()
        })
        .collect();
    // Ad-hoc plans for the warm-up round and every measured round.
    let traffic_plans = match args.workload {
        Workload::Recurring => config.recurring_plans,
        Workload::Adhoc => warmup_specs
            .iter()
            .chain(specs.iter().flatten())
            .map(|p| p.plans_needed(&config))
            .sum(),
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} | nproc {nproc}: {nproc} net shards, \
         {nproc} serve workers, {nproc} client connections | {} rounds at low {} / high {} req/s \
         (Poisson, fresh plans {:.4} of requests) and a closed loop of {window} per connection \
         | lat limit {} us",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        config.rounds,
        rates.low,
        rates.high,
        fresh_share,
        config.lat_limit_us,
    );

    // Set up several times; keep the last deployment.
    let mut setup_spans = SpanLog::new(origin, args.trace);
    let mut samples = Vec::new();
    let mut deployment: Option<Deployment> = None;
    for rep in 0..config.setup_reps {
        // Only the last set-up's deployment is kept; shut the previous one
        // down first so two never hold memory at once.
        if let Some(old) = deployment.take() {
            old.net.shutdown();
        }
        let (dep, sample) = setup(&config, &args, nproc, traffic_plans, &mut setup_spans)?;
        println!(
            "setup {rep}: {:.3} s (flight {:.3} s, train_with_pool {:.3} s, held-out eval {:.3} s)",
            sample.setup_s, sample.retrain.flight_s, sample.retrain.train_s, sample.retrain.eval_s
        );
        samples.push(sample);
        deployment = Some(dep);
    }
    let Deployment {
        registry,
        net,
        train_jobs,
        payloads,
    } = deployment.ok_or("no set-up ran")?;
    let addr = net.local_addr();
    let generation = registry.generation();

    // The oracle: every plan's direct score on the deployed generation.
    let (expected, oracle_spans) =
        serving::expected_responses(&registry, &payloads, nproc, origin, args.trace)?;
    let judge = Judge {
        expected: &expected,
        lat_limit_us: config.lat_limit_us,
    };

    // Recurring connections keep one stream each for the whole run, so
    // resubmissions draw on everything the connection sent before; each
    // ad-hoc phase takes a fresh, disjoint slice of the plans.
    let mut recurring = match args.workload {
        Workload::Recurring => {
            PlanCursor::new(nproc, args.seed).streams(Mix::Recurring, 0..config.recurring_plans)
        }
        Workload::Adhoc => Vec::new(),
    };
    let mut adhoc = PlanCursor::new(nproc, args.seed ^ 0xad);
    let mut conns = serving::open_connections(addr, nproc)?;
    let mut run = |spec: &serving::PhaseSpec, salt: u64| {
        let mut fresh;
        let streams = match args.workload {
            Workload::Recurring => &mut recurring,
            Workload::Adhoc => {
                fresh = adhoc.take(Mix::Adhoc, spec.plans_needed(&config));
                &mut fresh
            }
        };
        let seed = args.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
        serving::run_phase(
            spec, &mut conns, &payloads, judge, streams, window, origin, seed,
        )
    };

    // One unmeasured round first: it warms the server and gives the
    // recurring connections a history to resubmit from.
    let warmup: Vec<serving::Phase> = warmup_specs
        .iter()
        .zip(1000..)
        .map(|(spec, salt)| run(spec, salt))
        .collect();

    let hist_marks: Vec<(&'static str, HistMark)> = SEGMENTS
        .iter()
        .map(|(_, h)| *h)
        .chain(WIRE_HISTOGRAMS)
        .map(|h| (h, HistMark::of(&histogram(h))))
        .collect();
    let wire_mark = CounterMark::of(&WIRE_COUNTERS);
    let syscalls_before = tasq_net::syscall_counters().total();

    // Every other round starts with one more retrain pass while the
    // server is idle, so the retrain rate is sampled across the whole run.
    let mut phases = Vec::new();
    let mut retrains: Vec<retrain::Retrain> = Vec::new();
    for (r, round) in specs.iter().enumerate() {
        if r % 2 == 0 {
            let pool = tasq_par::Pool::new(nproc);
            let (_, pass) =
                retrain::run(&train_jobs, config.retrain_seed, &pool, &mut setup_spans)?;
            retrains.push(pass);
        }
        for (i, spec) in round.iter().enumerate() {
            phases.push(run(spec, (r * 8 + i) as u64 + 1));
        }
    }

    let measured_requests: u64 = phases.iter().map(|p| p.tally.attempted).sum();
    let wire = layers::Wire {
        syscalls: tasq_net::syscall_counters()
            .total()
            .saturating_sub(syscalls_before) as f64,
        bytes: wire_mark.delta("net_bytes_read_total") + wire_mark.delta("net_bytes_written_total"),
        parse_errors: wire_mark.delta("net_parse_errors_total"),
        hist: hist_marks
            .iter()
            .map(|(h, mark)| (*h, mark.delta(&histogram(h))))
            .collect(),
        requests: measured_requests,
    };
    drop(conns);
    let snapshot = net.shutdown();

    let mut problems: Vec<String> = Vec::new();
    if registry.generation() != generation {
        problems.push("the model generation changed during the run".into());
    }
    for p in warmup.iter().chain(&phases) {
        if let Some(why) = &p.tally.first_mismatch {
            problems.push(format!("phase {}: oracle mismatch: {why}", p.name));
        }
        problems.extend(p.errors.iter().map(|e| format!("phase {}: {e}", p.name)));
        if p.exhausted && !p.records.is_empty() {
            problems.push(format!("phase {}: the generator ran out of plans", p.name));
        }
    }
    let warm_tally = warmup.iter().fold(loadgen::Tally::default(), |mut t, p| {
        t.absorb(p.tally.clone());
        t
    });
    println!(
        "warm-up round: {} requests, {} failed",
        warm_tally.attempted,
        warm_tally.failed()
    );
    let summary = serving::summarize(&phases);
    for (name, s) in &summary {
        let t = &s.tally;
        let kept = s.kept().len();
        let per_round = |f: fn(&serving::Round) -> f64| {
            s.rounds
                .iter()
                .map(|r| format!("{:.0}", f(r)))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let figures = if s.rounds.iter().all(|r| r.latencies.is_empty()) {
            format!("goodput [{}]", per_round(|r| r.goodput))
        } else {
            format!(
                "p50 [{}] p99 [{}]",
                per_round(|r| stats::quantile_sorted(&r.latencies, 0.50)),
                per_round(|r| stats::quantile_sorted(&r.latencies, 0.99))
            )
        };
        println!(
            "phase {name:<16} requests {:>8} fresh {:>6} failed {} (mismatch {}, refused {}, \
             lost {}) | {kept} of {} rounds kept | per round: {figures} steal% [{}]",
            t.attempted,
            t.fresh,
            t.failed(),
            t.mismatches,
            t.refused,
            t.lost,
            s.rounds.len(),
            s.rounds
                .iter()
                .map(|r| format!("{:.1}", 100.0 * r.steal))
                .collect::<Vec<_>>()
                .join(" "),
        );
    }

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    // Open-loop latency at each fixed rate: percentiles of the samples of
    // every round the host did not disturb, pooled (a p99 needs 10
    // samples beyond it).
    for (phase, p50, p99) in [
        ("low", "lat_p50_us.low", "lat_p99_us.low"),
        ("high", "lat_p50_us.high", "lat_p99_us.high"),
    ] {
        let s = summary.get(phase).ok_or(format!("no {phase} phase ran"))?;
        let pooled = s.pooled_latencies();
        if stats::highest_supported(pooled.len()).unwrap_or(0.0) < 0.99 {
            return Err(format!(
                "{p99}: {} samples cannot support a p99",
                pooled.len()
            ));
        }
        values.insert(p50, stats::quantile_sorted(&pooled, 0.50));
        values.insert(p99, stats::quantile_sorted(&pooled, 0.99));
    }
    let goodput_of = |name: &str| summary.get(name).map_or(0.0, serving::Summary::goodput);
    values.insert("goodput_rps", goodput_of("goodput"));
    let setup_times: Vec<f64> = samples.iter().map(|s| s.setup_s).collect();
    values.insert("setup_s", stats::median(&setup_times));
    // Retrain: the median rate over the passes the host did not disturb,
    // and checks on every pass — monotone held-out curves (paper §5.1)
    // and repeatable artifacts.
    retrains.extend(samples.iter().map(|s| s.retrain));
    let jobs = config.retrain_jobs as f64;
    let steal: Vec<f64> = retrains.iter().map(|r| r.steal).collect();
    let retrain_rates: Vec<f64> = stats::undisturbed(&steal)
        .into_iter()
        .map(|i| jobs / (retrains[i].flight_s + retrains[i].train_s))
        .collect();
    println!(
        "retrain: {} of {} passes kept, steal% [{}]",
        retrain_rates.len(),
        retrains.len(),
        steal
            .iter()
            .map(|s| format!("{:.1}", 100.0 * s))
            .collect::<Vec<_>>()
            .join(" ")
    );
    values.insert("retrain_jobs_per_s", stats::median(&retrain_rates));
    let mapes: Vec<f64> = retrains.iter().map(|r| r.heldout_mape).collect();
    values.insert("heldout_mape", stats::median(&mapes));
    values.insert("rss_peak_mb", vm_hwm_mib()?);
    let first = &retrains[0];
    for r in &retrains {
        if r.heldout_monotone != 1.0 {
            problems.push(format!(
                "held-out NN monotone fraction {} != 1.0",
                r.heldout_monotone
            ));
        }
        if (r.flight_digest, r.artifacts) != (first.flight_digest, first.artifacts) {
            problems.push("retrain fingerprints differ between passes".into());
        }
    }
    // Cache invariants of the two traffic mixes.
    match args.workload {
        Workload::Adhoc if snapshot.cache.hits != 0 => problems.push(format!(
            "adhoc read {} cache hits, expected 0",
            snapshot.cache.hits
        )),
        Workload::Recurring if snapshot.cache.evictions != 0 => problems.push(format!(
            "recurring evicted {} cache entries, expected 0",
            snapshot.cache.evictions
        )),
        _ => {}
    }
    // The traffic mix as sent: the share of measured open-loop requests
    // that sent a plan for the first time must be the one stated, and the
    // server must have inserted one cache entry per fresh request.
    let open_tally = ["low", "high"]
        .iter()
        .filter_map(|name| summary.get(name))
        .fold(loadgen::Tally::default(), |mut t, s| {
            t.absorb(s.tally.clone());
            t
        });
    let measured_fresh = open_tally.fresh as f64 / open_tally.attempted.max(1) as f64;
    let fresh_total = warm_tally.fresh + phases.iter().map(|p| p.tally.fresh).sum::<u64>();
    println!(
        "traffic: open-loop resubmission share {:.4} (fresh {:.4}, stated {fresh_share:.4}); \
         {fresh_total} fresh requests in the run, {} cache insertions",
        1.0 - measured_fresh,
        measured_fresh,
        snapshot.cache.insertions
    );
    if (measured_fresh - fresh_share).abs() > 0.1 * fresh_share {
        problems.push(format!(
            "open-loop fresh share {measured_fresh:.4} is not the stated {fresh_share:.4}"
        ));
    }
    let insert_gap = snapshot.cache.insertions.abs_diff(fresh_total);
    if insert_gap as f64 > 0.02 * fresh_total as f64 + 10.0 {
        problems.push(format!(
            "{} cache insertions for {fresh_total} fresh requests",
            snapshot.cache.insertions
        ));
    }
    // The generator must not have fallen behind.
    let mut lags: Vec<f64> = summary
        .values()
        .flat_map(|s| s.lag_us.iter().copied())
        .collect();
    lags.sort_by(f64::total_cmp);
    let lag_p99 = stats::quantile_sorted(&lags, 0.99);
    let backlog_end: usize = summary.values().map(|s| s.backlog_end).sum();
    println!(
        "loadgen: lag p99 {lag_p99:.1} us over {} open-loop requests, backlog at schedule end \
         {backlog_end}",
        lags.len()
    );
    if lag_p99 > config.lat_limit_us || backlog_end * 100 > lags.len() {
        problems.push(format!(
            "the load generator fell behind (lag p99 {lag_p99:.0} us, backlog {backlog_end})"
        ));
    }
    println!(
        "cache: {} hits, {} misses, {} insertions, {} evictions; {} fastpath hits of {} completed",
        snapshot.cache.hits,
        snapshot.cache.misses,
        snapshot.cache.insertions,
        snapshot.cache.evictions,
        snapshot.fastpath_hits,
        snapshot.completed
    );
    println!("end-to-end metrics:");
    for (name, unit) in report::END_TO_END {
        println!(
            "  {name:<22} {:>14.3} {unit}",
            values.get(name).copied().unwrap_or(f64::NAN)
        );
    }

    let attempted: u64 = warm_tally.attempted + measured_requests + retrains.len() as u64;
    let failed: u64 = warm_tally.failed() + phases.iter().map(|p| p.tally.failed()).sum::<u64>();

    let list = if args.trace {
        let inputs = layers::Inputs {
            train_jobs: &train_jobs,
            samples: &samples,
            snapshot: &snapshot,
            wire: &wire,
            summary: &summary,
            lag_p99,
            backlog_end,
            resubmit_share: 1.0 - measured_fresh,
            goodput_untraced: goodput_of("goodput_untraced"),
            goodput_traced: goodput_of("goodput"),
            nproc,
            origin,
            workload: args.workload.name(),
        };
        values = layers::per_layer(&inputs, setup_spans, oracle_spans, phases, &mut problems)?;
        report::PER_LAYER
    } else {
        report::END_TO_END
    };

    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &values, list)?
    );
    Ok(correct)
}
