//! The load generator: request streams over a pre-encoded plan base, and
//! one connection's open- or closed-loop driver over the binary framing.
//!
//! Every request is timed against the instant it was *due*, so a stall
//! in the generator or the server delays the requests behind it instead
//! of hiding them (coordinated omission).

use crate::spans::SpanLog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scope_sim::{Job, WorkloadConfig, WorkloadGenerator};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};
use tasq::pipeline::{ScoreResponse, ServedTier};
use tasq_net::frame::{self, FrameResponse, FrameResponseParse};
use tasq_net::BINARY_PREAMBLE;

/// Jobs per generator call when building traffic.
const TRAFFIC_CHUNK: usize = 4096;

/// `count` encoded traffic plans drawn from `seed`. They are generated and
/// encoded a chunk at a time, each chunk from its own derived seed, so at
/// most one chunk of decoded jobs is alive at once.
pub fn traffic(count: usize, seed: u64) -> Result<Vec<Vec<u8>>, String> {
    let mut payloads = Vec::with_capacity(count);
    let mut chunk = 0u64;
    while payloads.len() < count {
        let num_jobs = TRAFFIC_CHUNK.min(count - payloads.len());
        let chunk_seed = seed ^ chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs,
            seed: chunk_seed,
            ..Default::default()
        })
        .generate();
        payloads.extend(encode_base(&jobs)?);
        chunk += 1;
    }
    Ok(payloads)
}

/// Codec-encode every base job. The harness rewrites each request's id in
/// place, so the id must be the encoding's first eight bytes (little
/// endian); this is checked here rather than assumed.
fn encode_base(jobs: &[Job]) -> Result<Vec<Vec<u8>>, String> {
    let mut payloads = Vec::with_capacity(jobs.len());
    for job in jobs {
        let bytes =
            tasq::codec::to_bytes(job).map_err(|e| format!("encode job {}: {e}", job.id))?;
        payloads.push(bytes.to_vec());
    }
    if let (Some(job), Some(bytes)) = (jobs.first(), payloads.first()) {
        let mut patched = bytes.clone();
        set_request_id(&mut patched, 0, 0xDEAD_BEEF);
        let decoded: Job =
            tasq::codec::from_bytes(&patched).map_err(|e| format!("re-decode patched job: {e}"))?;
        if job.id.to_le_bytes() != bytes[..8] || decoded.id != 0xDEAD_BEEF {
            return Err("job id is not the first field of its encoding".into());
        }
    }
    Ok(payloads)
}

/// Overwrite the job id of the payload starting at `payload_at`.
fn set_request_id(buf: &mut [u8], payload_at: usize, id: u64) {
    buf[payload_at..payload_at + 8].copy_from_slice(&id.to_le_bytes());
}

/// Which plans a stream sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Resubmit a plan this stream already sent, except for the fresh
    /// plans each phase is given a quota of (see [`Stream::begin_phase`]).
    Recurring,
    /// Every request is the next unsent plan.
    Adhoc,
}

/// One request a stream chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Index of the base plan.
    pub plan: usize,
    /// Request id, unique within the run.
    pub id: u64,
    /// The plan is sent for the first time (a cold miss for the cache).
    pub fresh: bool,
}

/// One connection's request stream: which base plan to send next and
/// under which request id.
#[derive(Debug)]
pub struct Stream {
    rng: StdRng,
    mix: Mix,
    plans: Vec<usize>,
    next_plan: usize,
    sent_plans: Vec<usize>,
    next_id: u64,
    fresh_quota: usize,
    requests_left: usize,
}

impl Stream {
    /// A stream over the base indices `plans`, issuing ids from `first_id`.
    pub fn new(mix: Mix, plans: Vec<usize>, seed: u64, first_id: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            mix,
            plans,
            next_plan: 0,
            sent_plans: Vec::new(),
            next_id: first_id,
            fresh_quota: 0,
            requests_left: 0,
        }
    }

    /// Start a phase of `requests` requests of which exactly `fresh` (at
    /// random positions) send a plan for the first time; every other
    /// request of a recurring stream is a resubmission. Ad-hoc streams
    /// ignore this: all their requests are fresh.
    pub fn begin_phase(&mut self, requests: usize, fresh: usize) {
        self.requests_left = requests;
        self.fresh_quota = fresh.min(requests);
    }

    /// The next request; `None` when the stream needs a fresh plan and has
    /// none left.
    pub fn next_request(&mut self) -> Option<Request> {
        let fresh = match self.mix {
            Mix::Adhoc => true,
            // Selection sampling: of the requests left in the phase, each
            // is fresh with probability quota / left, which spends the
            // quota exactly.
            Mix::Recurring => {
                self.sent_plans.is_empty()
                    || (self.fresh_quota > 0
                        && self.rng.gen_range(0..self.requests_left.max(1)) < self.fresh_quota)
            }
        };
        self.requests_left = self.requests_left.saturating_sub(1);
        let plan = if fresh {
            let plan = *self.plans.get(self.next_plan)?;
            self.next_plan += 1;
            self.fresh_quota = self.fresh_quota.saturating_sub(1);
            if self.mix == Mix::Recurring {
                self.sent_plans.push(plan);
            }
            plan
        } else {
            self.sent_plans[self.rng.gen_range(0..self.sent_plans.len())]
        };
        let id = self.next_id;
        self.next_id += 1;
        Some(Request { plan, id, fresh })
    }
}

/// How a connection paces its requests.
#[derive(Debug, Clone)]
pub enum Pace {
    /// Open loop: the `k`-th request is due `schedule[k]` after the start.
    Open {
        /// Due offsets, ascending.
        schedule: Vec<Duration>,
    },
    /// Closed loop: keep `window` requests outstanding until `duration`
    /// has passed or the stream runs out of plans.
    Closed {
        /// Outstanding requests per connection.
        window: usize,
        /// Sending stops this long after the start.
        duration: Duration,
    },
}

/// Due offsets of a Poisson arrival process at `rate` per second over
/// `seconds`: independent users, each submitting when they are ready.
pub fn poisson_schedule(rate: f64, seconds: f64, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut schedule = Vec::with_capacity((rate * seconds * 1.1) as usize);
    let mut t = 0.0f64;
    loop {
        // 1 - U lies in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= seconds {
            return schedule;
        }
        schedule.push(Duration::from_secs_f64(t));
    }
}

/// One open-loop request as the generator saw it: offsets in ns since
/// the run's origin, and its latency from the due time.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// When the request was due.
    pub due_ns: u64,
    /// When its bytes were handed to the socket.
    pub sent_ns: u64,
    /// Due time to response parsed (µs); `None` when the request failed.
    pub latency_us: Option<f64>,
}

/// Per-connection outcome counts, judged as responses arrive.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that sent their plan for the first time.
    pub fresh: u64,
    /// Responses equal to the direct score.
    pub ok: u64,
    /// Responses that differ from the direct score.
    pub mismatches: u64,
    /// Requests the server refused or failed.
    pub refused: u64,
    /// Requests with no response (connection error or drain timeout).
    pub lost: u64,
    /// Responses served by the fallback tier.
    pub fallback: u64,
    /// Responses served by the analytic tier.
    pub analytic: u64,
    /// Correct responses within the latency limit received before the
    /// closed loop stopped sending.
    pub good: u64,
    /// When the last response arrived (ns since the origin).
    pub last_recv_ns: u64,
    /// The first mismatch, described.
    pub first_mismatch: Option<String>,
}

impl Tally {
    /// Requests that did not yield a correct response.
    pub fn failed(&self) -> u64 {
        self.mismatches + self.refused + self.lost
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.fresh += other.fresh;
        self.ok += other.ok;
        self.mismatches += other.mismatches;
        self.refused += other.refused;
        self.lost += other.lost;
        self.fallback += other.fallback;
        self.analytic += other.analytic;
        self.good += other.good;
        self.last_recv_ns = self.last_recv_ns.max(other.last_recv_ns);
        if self.first_mismatch.is_none() {
            self.first_mismatch = other.first_mismatch;
        }
    }
}

/// A connection's results plus its spans.
#[derive(Debug)]
pub struct ConnRun {
    /// Open loop only: every request, in send order.
    pub records: Vec<Record>,
    /// Outcome counts.
    pub tally: Tally,
    /// Spans recorded by this connection's thread.
    pub spans: SpanLog,
    /// The stream ran out of plans before the pace was done.
    pub exhausted: bool,
    /// Transport error that ended the connection early, if any.
    pub error: Option<String>,
}

/// What [`drive`] checks each response against.
#[derive(Clone, Copy)]
pub struct Judge<'a> {
    /// Direct score of every plan, by plan index.
    pub expected: &'a [ScoreResponse],
    /// Latency limit for goodput (µs).
    pub lat_limit_us: f64,
}

/// A request on the wire, waiting for its response.
struct InFlight {
    request: Request,
    due: Instant,
    sent: Instant,
    root: Option<usize>,
    record: Option<usize>,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const POLLIN: i16 = 0x001;
const PR_SET_TIMERSLACK: i32 = 29;

/// Wait until `fd` is readable or `timeout` passes; true when readable
/// (or hung up, which the following read reports).
fn wait_readable(fd: i32, timeout: Duration) -> bool {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are valid for the whole call and `nfds` is 1;
    // a null signal mask leaves the thread's mask unchanged.
    let ready = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    ready > 0 && pfd.revents != 0
}

/// Let this thread's timed waits wake within a microsecond of their
/// deadline instead of the default 50 µs slack, which would otherwise
/// show up as generator lag. Failure only costs precision.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes a plain integer and touches only the
    // calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
    }
}

/// Drive one binary-framed connection from `start` under `pace`, judging
/// each response as it arrives, then wait up to `drain` for outstanding
/// responses.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    sock: &mut TcpStream,
    payloads: &[Vec<u8>],
    judge: Judge<'_>,
    stream: &mut Stream,
    pace: Pace,
    origin: Instant,
    start: Instant,
    drain: Duration,
    mut spans: SpanLog,
) -> ConnRun {
    tighten_timer_slack();
    let mut run = ConnRun {
        records: Vec::new(),
        tally: Tally::default(),
        spans: SpanLog::new(origin, false),
        exhausted: false,
        error: None,
    };
    let fd = sock.as_raw_fd();
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    let (schedule, window, stop_sending) = match &pace {
        Pace::Open { schedule } => (Some(schedule), usize::MAX, None),
        Pace::Closed { window, duration } => (None, *window, Some(start + *duration)),
    };
    let due_at = |k: usize| {
        schedule
            .and_then(|s| s.get(k))
            .map(|offset| start + *offset)
    };
    std::thread::sleep(start.saturating_duration_since(Instant::now()));

    let mut in_flight: std::collections::VecDeque<InFlight> = std::collections::VecDeque::new();
    let mut sent = 0usize;
    let mut wbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut rbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut done_sending = false;
    let mut drain_deadline: Option<Instant> = None;
    loop {
        // Send every request that is due.
        let now = Instant::now();
        wbuf.clear();
        let batch_from = in_flight.len();
        while !done_sending {
            let due = if schedule.is_some() {
                match due_at(sent) {
                    Some(due) if due <= now => due,
                    Some(_) => break,
                    None => {
                        done_sending = true;
                        break;
                    }
                }
            } else if stop_sending.is_some_and(|end| now >= end) {
                done_sending = true;
                break;
            } else if in_flight.len() >= window {
                break;
            } else {
                now
            };
            let Some(request) = stream.next_request() else {
                run.exhausted = true;
                done_sending = true;
                break;
            };
            let id = request.id;
            let framed = spans.enabled().then(Instant::now);
            let at = wbuf.len();
            frame::write_request_frame(&mut wbuf, &payloads[request.plan]);
            set_request_id(&mut wbuf, at + 4, id);
            let root = spans.record("request", id, None, due, due);
            if let Some(t0) = framed {
                spans.record("loadgen.lag", id, root, due, now);
                spans.record("client.frame", id, root, t0, Instant::now());
            }
            let record = schedule.is_some().then(|| {
                run.records.push(Record {
                    due_ns: ns(due),
                    sent_ns: 0,
                    latency_us: None,
                });
                run.records.len() - 1
            });
            in_flight.push_back(InFlight {
                request,
                due,
                sent: now,
                root,
                record,
            });
            sent += 1;
            run.tally.attempted += 1;
            run.tally.fresh += u64::from(request.fresh);
        }
        if !wbuf.is_empty() {
            let t0 = Instant::now();
            if let Err(e) = sock.write_all(&wbuf) {
                run.error = Some(format!("send: {e}"));
                break;
            }
            let t1 = Instant::now();
            for req in in_flight.iter_mut().skip(batch_from) {
                req.sent = t0;
                if let Some(r) = req.record {
                    run.records[r].sent_ns = ns(t0);
                }
                spans.record("client.send", req.request.id, req.root, t0, t1);
            }
        }
        if done_sending {
            if in_flight.is_empty() {
                break;
            }
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + drain);
            if Instant::now() >= deadline {
                break;
            }
        }

        // Wait for a response, or until the next request is due.
        let wake = match (done_sending, schedule.is_some()) {
            (true, _) => drain_deadline.unwrap_or(now),
            (false, true) => due_at(sent).unwrap_or(now),
            (false, false) if in_flight.len() < window => now,
            (false, false) => stop_sending.unwrap_or(now),
        };
        let timeout = wake.saturating_duration_since(Instant::now());
        if timeout.is_zero() && !done_sending {
            continue;
        }
        if !wait_readable(fd, timeout) {
            continue;
        }
        let n = match sock.read(&mut chunk) {
            Ok(0) => {
                run.error = Some("server closed the connection".into());
                break;
            }
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                run.error = Some(format!("recv: {e}"));
                break;
            }
        };
        let arrived = Instant::now();
        rbuf.extend_from_slice(&chunk[..n]);
        let mut pos = 0usize;
        loop {
            let p0 = spans.enabled().then(Instant::now);
            let (response, used) = match frame::parse_response_frame(&rbuf, pos) {
                FrameResponseParse::NeedMore => break,
                FrameResponseParse::Malformed(why) => {
                    run.error = Some(format!("malformed response: {why}"));
                    break;
                }
                FrameResponseParse::Complete(response, used) => (response, used),
            };
            pos += used;
            let Some(req) = in_flight.pop_front() else {
                run.error = Some("response without a request".into());
                break;
            };
            let correct = match response {
                FrameResponse::Ok(score) => judge_response(&mut run.tally, judge, &req, &score),
                FrameResponse::Error(_) => {
                    run.tally.refused += 1;
                    false
                }
            };
            run.tally.last_recv_ns = ns(arrived);
            if correct {
                run.tally.ok += 1;
                let from = if schedule.is_some() {
                    req.due
                } else {
                    req.sent
                };
                let latency_us = arrived.saturating_duration_since(from).as_secs_f64() * 1e6;
                if let Some(r) = req.record {
                    run.records[r].latency_us = Some(latency_us);
                }
                let in_window = stop_sending.is_some_and(|end| arrived <= end) || run.exhausted;
                if latency_us <= judge.lat_limit_us && in_window {
                    run.tally.good += 1;
                }
            }
            if let Some(p0) = p0 {
                let p1 = Instant::now();
                spans.record("client.parse", req.request.id, req.root, p0, p1);
                spans.close(req.root, p1);
            }
        }
        rbuf.drain(..pos);
        if run.error.is_some() {
            break;
        }
    }
    run.tally.lost += in_flight.len() as u64;
    run.spans = spans;
    run
}

/// Check one scored response against the oracle, counting its tier and
/// any mismatch; true when it is correct.
fn judge_response(
    tally: &mut Tally,
    judge: Judge<'_>,
    req: &InFlight,
    got: &ScoreResponse,
) -> bool {
    match got.served_tier {
        ServedTier::Primary => {}
        ServedTier::Fallback => tally.fallback += 1,
        ServedTier::Analytic => tally.analytic += 1,
    }
    let Request { plan, id, .. } = req.request;
    match crate::oracle::mismatch(&judge.expected[plan], got, id) {
        None => true,
        Some(why) => {
            tally.mismatches += 1;
            tally
                .first_mismatch
                .get_or_insert(format!("request {id}: {why}"));
            false
        }
    }
}

/// Open a binary-framed connection to `addr`.
pub fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let mut sock = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    sock.set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    sock.write_all(&[BINARY_PREAMBLE])
        .map_err(|e| format!("preamble: {e}"))?;
    Ok(sock)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_sim::{WorkloadConfig, WorkloadGenerator};
    use std::collections::HashSet;
    use tasq_serve::PlanSignature;

    fn base(n: usize) -> Vec<Job> {
        WorkloadGenerator::new(WorkloadConfig {
            num_jobs: n,
            seed: 11,
            ..Default::default()
        })
        .generate()
    }

    #[test]
    fn adhoc_streams_never_repeat_a_plan_signature() {
        // Two generator chunks, so plans from different chunk seeds meet.
        let count = TRAFFIC_CHUNK + 600;
        let payloads = traffic(count, 9).expect("traffic");
        let mut seen = HashSet::new();
        let halves = [
            (0..count / 2).collect::<Vec<_>>(),
            (count / 2..count).collect(),
        ];
        for (k, plans) in halves.into_iter().enumerate() {
            let mut stream = Stream::new(Mix::Adhoc, plans, k as u64, 1_000_000 * k as u64);
            while let Some(Request { plan, fresh, .. }) = stream.next_request() {
                assert!(fresh);
                let job: Job = tasq::codec::from_bytes(&payloads[plan]).expect("decode");
                assert!(
                    seen.insert(PlanSignature::of_job(&job)),
                    "plan {plan} repeated"
                );
            }
        }
        assert_eq!(seen.len(), count);
    }

    #[test]
    fn recurring_streams_spend_each_phase_quota_exactly() {
        let mut stream = Stream::new(Mix::Recurring, (0..1_000).collect(), 5, 0);
        let mut sent = HashSet::new();
        let mut ids = HashSet::new();
        // A warm-up phase, two measured phases at a twentieth fresh, and a
        // phase with no quota (a closed loop).
        for (requests, quota) in [(500, 100), (2_000, 100), (3_000, 150), (4_000, 0)] {
            stream.begin_phase(requests, quota);
            let mut fresh = 0;
            for _ in 0..requests {
                let r = stream.next_request().expect("the pool covers every quota");
                assert!(ids.insert(r.id), "request ids must be unique");
                // A request is fresh exactly when its plan was never sent.
                assert_eq!(r.fresh, sent.insert(r.plan), "plan {}", r.plan);
                fresh += usize::from(r.fresh);
            }
            assert_eq!(fresh, quota);
        }
        assert_eq!(sent.len(), 350);
    }

    #[test]
    fn a_recurring_stream_out_of_fresh_plans_stops() {
        let mut stream = Stream::new(Mix::Recurring, vec![0, 1], 5, 0);
        stream.begin_phase(10, 10);
        assert!(stream.next_request().is_some_and(|r| r.fresh));
        assert!(stream.next_request().is_some_and(|r| r.fresh));
        assert_eq!(stream.next_request(), None);
    }

    #[test]
    fn poisson_schedules_are_seeded_and_keep_their_rate() {
        let a = poisson_schedule(1_000.0, 20.0, 7);
        assert_eq!(a, poisson_schedule(1_000.0, 20.0, 7));
        assert_ne!(a, poisson_schedule(1_000.0, 20.0, 8));
        assert!((19_000..21_000).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().is_some_and(|t| t.as_secs_f64() < 20.0));
    }

    #[test]
    fn request_ids_are_patched_into_the_encoding() {
        let jobs = base(3);
        let payloads = encode_base(&jobs).expect("encode");
        let mut wire = Vec::new();
        frame::write_request_frame(&mut wire, &payloads[2]);
        set_request_id(&mut wire, 4, 77);
        let decoded: Job = tasq::codec::from_bytes(&wire[4..]).expect("decode");
        assert_eq!(decoded.id, 77);
        assert_eq!(decoded.seed, jobs[2].seed);
        assert_eq!(decoded.requested_tokens, jobs[2].requested_tokens);
    }
}
