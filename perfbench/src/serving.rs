//! The serving measurement: the run's phases, the request streams they
//! draw on, the oracle's expected responses, and the per-phase summary.

use crate::config::{Config, Workload};
use crate::loadgen::{self, ConnRun, Judge, Mix, Pace, Record, Stream, Tally};
use crate::spans::SpanLog;
use crate::stats;
use scope_sim::{Job, StageGraph};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use tasq::featurize::{featurize_job, featurize_operators};
use tasq::pipeline::ScoreResponse;
use tasq_serve::ModelRegistry;

/// Latency charged to a failed request: beyond any limit.
pub const FAILED_US: f64 = 1e9;
/// Gap between the connects of the run's connections.
const CONNECT_GAP: Duration = Duration::from_millis(5);
/// How long a connection waits for outstanding responses after sending.
const DRAIN: Duration = Duration::from_secs(3);

/// One load phase of the run.
#[derive(Debug, Clone)]
pub struct PhaseSpec {
    /// `low`, `high`, `goodput` or `goodput_untraced`.
    pub name: &'static str,
    /// Offered rate for an open loop; `None` for the closed loop.
    pub rate: Option<f64>,
    /// Length of the phase (the closed loop may end sooner when an
    /// ad-hoc stream runs out of plans).
    pub seconds: f64,
    /// Whether the harness records spans.
    pub trace: bool,
    /// Open loop: share of the requests that send a recurring stream's
    /// plan for the first time. The closed loop sends none.
    pub fresh_share: f64,
}

impl PhaseSpec {
    /// Distinct plans an ad-hoc run of this phase may send.
    pub fn plans_needed(&self, config: &Config) -> usize {
        match self.rate {
            // Poisson counts stay within 10% + 50 of their mean by a wide
            // margin at these sizes.
            Some(rate) => (1.1 * rate * self.seconds).ceil() as usize + 50,
            None => (config.adhoc_plan_budget_rps * self.seconds).ceil() as usize,
        }
    }
}

/// The run's phases, round by round: `rounds` repetitions of low, high
/// and closed loop, so a disturbance on the host spreads over all three
/// instead of landing on one. The traced run splits each closed loop into
/// an untraced and a traced half; their goodput difference is the tracing
/// overhead.
pub fn phase_specs(
    config: &Config,
    workload: Workload,
    seconds: f64,
    trace: bool,
    fresh_share: f64,
) -> Vec<Vec<PhaseSpec>> {
    let rates = config.rates(workload);
    let rounds = config.rounds as f64;
    let (low_s, high_s, goodput_s) = config.phase_seconds(seconds);
    let open = |name, rate, seconds| PhaseSpec {
        name,
        rate: Some(rate),
        seconds,
        trace,
        fresh_share,
    };
    let closed = |name, seconds, trace| PhaseSpec {
        name,
        rate: None,
        seconds,
        trace,
        fresh_share: 0.0,
    };
    (0..config.rounds)
        .map(|_| {
            let mut round = vec![
                open("low", rates.low, low_s / rounds),
                open("high", rates.high, high_s / rounds),
            ];
            if trace {
                round.push(closed("goodput_untraced", goodput_s / rounds / 2.0, false));
                round.push(closed("goodput", goodput_s / rounds / 2.0, true));
            } else {
                round.push(closed("goodput", goodput_s / rounds, false));
            }
            round
        })
        .collect()
}

/// Hands out request streams over slices of the traffic plans, each with
/// its own block of request ids.
pub struct PlanCursor {
    /// First plan not yet handed out.
    pub next: usize,
    next_id_block: u64,
    connections: usize,
    seed: u64,
}

impl PlanCursor {
    /// A cursor for `connections` connections.
    pub fn new(connections: usize, seed: u64) -> Self {
        Self {
            next: 0,
            next_id_block: 1,
            connections,
            seed,
        }
    }

    /// One stream per connection over an interleaved share of `range`.
    pub fn streams(&mut self, mix: Mix, range: std::ops::Range<usize>) -> Vec<Stream> {
        (0..self.connections)
            .map(|k| {
                let plans: Vec<usize> = range
                    .clone()
                    .filter(|i| i % self.connections == k)
                    .collect();
                let block = self.next_id_block;
                self.next_id_block += 1;
                Stream::new(
                    mix,
                    plans,
                    self.seed.wrapping_mul(31) ^ block,
                    block * 100_000_000,
                )
            })
            .collect()
    }

    /// One stream per connection over the next `count` plans.
    pub fn take(&mut self, mix: Mix, count: usize) -> Vec<Stream> {
        let from = self.next;
        self.next += count;
        self.streams(mix, from..self.next)
    }
}

/// One phase across all connections.
pub struct Phase {
    /// The spec's name.
    pub name: &'static str,
    /// Open-loop requests of all connections.
    pub records: Vec<Record>,
    /// Outcome counts of all connections.
    pub tally: Tally,
    /// Start of the phase (ns since the run's origin).
    pub start_ns: u64,
    /// When the schedule ends (open) or sending stops (closed).
    pub end_ns: u64,
    /// Some stream ran out of plans.
    pub exhausted: bool,
    /// Transport errors.
    pub errors: Vec<String>,
    /// Spans of all connections.
    pub spans: SpanLog,
    /// Share of CPU time the hypervisor stole during the phase.
    pub steal: f64,
}

/// Open the run's `n` connections to `addr`, one at a time as independent
/// clients would, rather than in a burst that one accept call takes. They
/// stay open for the whole run, as a scheduler's would.
pub fn open_connections(addr: SocketAddr, n: usize) -> Result<Vec<TcpStream>, String> {
    (0..n)
        .map(|_| {
            std::thread::sleep(CONNECT_GAP);
            loadgen::connect(addr)
        })
        .collect()
}

/// Run one phase: one thread per stream, each on its own connection.
/// Each stream is given its phase's fresh-plan quota before it starts.
#[allow(clippy::too_many_arguments)]
pub fn run_phase(
    spec: &PhaseSpec,
    conns: &mut [TcpStream],
    payloads: &[Vec<u8>],
    judge: Judge<'_>,
    streams: &mut [Stream],
    window: usize,
    origin: Instant,
    schedule_seed: u64,
) -> Phase {
    let connections = streams.len();
    let start = Instant::now() + Duration::from_millis(50);
    let paces: Vec<Pace> = (0..connections)
        .map(|k| match spec.rate {
            // Each connection is an independent Poisson source, so the
            // merged arrivals are Poisson at `rate`.
            Some(rate) => Pace::Open {
                schedule: loadgen::poisson_schedule(
                    rate / connections as f64,
                    spec.seconds,
                    schedule_seed ^ ((k as u64) << 32),
                ),
            },
            None => Pace::Closed {
                window,
                duration: Duration::from_secs_f64(spec.seconds),
            },
        })
        .collect();
    for (stream, pace) in streams.iter_mut().zip(&paces) {
        match pace {
            Pace::Open { schedule } => {
                let n = schedule.len();
                stream.begin_phase(n, (spec.fresh_share * n as f64).round() as usize);
            }
            Pace::Closed { .. } => stream.begin_phase(0, 0),
        }
    }
    let end = start + Duration::from_secs_f64(spec.seconds);
    let trace = spec.trace;
    let ticks = stats::CpuTicks::now();
    let runs: Vec<ConnRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .zip(paces)
            .zip(conns.iter_mut())
            .map(|((stream, pace), sock)| {
                scope.spawn(move || {
                    let log = SpanLog::new(origin, trace);
                    loadgen::drive(
                        sock, payloads, judge, stream, pace, origin, start, DRAIN, log,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    let mut phase = Phase {
        steal: ticks.steal_since(),
        name: spec.name,
        records: Vec::new(),
        tally: Tally::default(),
        start_ns: ns(start),
        end_ns: ns(end),
        exhausted: false,
        errors: Vec::new(),
        spans: SpanLog::new(origin, trace),
    };
    for run in runs {
        phase.records.extend(run.records);
        phase.tally.absorb(run.tally);
        phase.exhausted |= run.exhausted;
        phase.errors.extend(run.error);
        phase.spans.merge(run.spans);
    }
    phase.records.sort_by_key(|r| r.due_ns);
    phase
}

/// The direct score of every traffic plan on the registry's current
/// generation, computed on `threads` threads. The traced run also times
/// the stage-graph and featurize calls that scoring starts with.
pub fn expected_responses(
    registry: &ModelRegistry,
    payloads: &[Vec<u8>],
    threads: usize,
    origin: Instant,
    trace: bool,
) -> Result<(Vec<ScoreResponse>, SpanLog), String> {
    let active = registry.current();
    let service = active.service();
    let chunk = payloads.len().div_ceil(threads.max(1)).max(1);
    let parts: Vec<Result<(Vec<ScoreResponse>, SpanLog), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = payloads
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut log = SpanLog::new(origin, trace);
                    let mut out = Vec::with_capacity(part.len());
                    for payload in part {
                        let job: &Job = &tasq::codec::from_bytes(payload)
                            .map_err(|e| format!("decode a traffic plan: {e}"))?;
                        if log.enabled() {
                            let t0 = Instant::now();
                            let graph =
                                std::hint::black_box(StageGraph::from_plan(&job.plan, job.seed));
                            let t1 = Instant::now();
                            std::hint::black_box(featurize_job(&job.plan, graph.num_stages()));
                            std::hint::black_box(featurize_operators(&job.plan));
                            let t2 = Instant::now();
                            log.record("core.stage_graph", job.id, None, t0, t1);
                            log.record("core.featurize", job.id, None, t1, t2);
                        }
                        let t0 = Instant::now();
                        out.push(service.score(job));
                        log.record("core.score", job.id, None, t0, Instant::now());
                    }
                    Ok((out, log))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let mut expected = Vec::with_capacity(payloads.len());
    let mut log = SpanLog::new(origin, trace);
    for part in parts {
        let (part, part_log) = part?;
        expected.extend(part);
        log.merge(part_log);
    }
    Ok((expected, log))
}

/// One round of one phase name.
pub struct Round {
    /// Open loop: latency of every request (µs, ascending); a failed
    /// request counts as [`FAILED_US`].
    pub latencies: Vec<f64>,
    /// Closed loop: correct responses within the limit per second.
    pub goodput: f64,
    /// Share of CPU time the hypervisor stole.
    pub steal: f64,
}

/// All rounds of one phase name.
#[derive(Default)]
pub struct Summary {
    /// Summed outcome counts.
    pub tally: Tally,
    /// The rounds, in run order.
    pub rounds: Vec<Round>,
    /// Send lag of every open-loop request (µs).
    pub lag_us: Vec<f64>,
    /// Requests still unsent when their round's schedule ended.
    pub backlog_end: usize,
}

impl Summary {
    /// The rounds the host did not disturb (see [`stats::undisturbed`]).
    pub fn kept(&self) -> Vec<&Round> {
        let steal: Vec<f64> = self.rounds.iter().map(|r| r.steal).collect();
        stats::undisturbed(&steal)
            .into_iter()
            .map(|i| &self.rounds[i])
            .collect()
    }

    /// Open loop: the kept rounds' latencies pooled (µs, ascending).
    pub fn pooled_latencies(&self) -> Vec<f64> {
        let mut pooled: Vec<f64> = self
            .kept()
            .iter()
            .flat_map(|r| r.latencies.iter().copied())
            .collect();
        pooled.sort_by(f64::total_cmp);
        pooled
    }

    /// Closed loop: median goodput of the kept rounds.
    pub fn goodput(&self) -> f64 {
        let kept: Vec<f64> = self.kept().iter().map(|r| r.goodput).collect();
        stats::median(&kept)
    }
}

/// Fold the phases into one [`Summary`] per phase name.
pub fn summarize(phases: &[Phase]) -> BTreeMap<&'static str, Summary> {
    let mut out: BTreeMap<&'static str, Summary> = BTreeMap::new();
    for p in phases {
        let s = out.entry(p.name).or_default();
        s.tally.absorb(p.tally.clone());
        if p.records.is_empty() {
            let window_end = if p.exhausted {
                p.tally.last_recv_ns.min(p.end_ns)
            } else {
                p.end_ns
            };
            let seconds = (window_end.saturating_sub(p.start_ns) as f64 / 1e9).max(1e-9);
            s.rounds.push(Round {
                latencies: Vec::new(),
                goodput: p.tally.good as f64 / seconds,
                steal: p.steal,
            });
            continue;
        }
        let mut latencies: Vec<f64> = p
            .records
            .iter()
            .map(|r| r.latency_us.unwrap_or(FAILED_US))
            .collect();
        latencies.sort_by(f64::total_cmp);
        s.rounds.push(Round {
            latencies,
            goodput: 0.0,
            steal: p.steal,
        });
        let due: Vec<f64> = p.records.iter().map(|r| r.due_ns as f64 / 1e3).collect();
        let sent: Vec<f64> = p.records.iter().map(|r| r.sent_ns as f64 / 1e3).collect();
        let lag = stats::schedule_lag(&due, &sent, p.end_ns as f64 / 1e3);
        s.lag_us.extend(lag.lags);
        s.backlog_end += lag.backlog_end;
    }
    out
}
