//! The fixed benchmark settings, read from `intent.json` (compiled in, so
//! a run never depends on the working directory's copy).

use tasq_obs::json::{self, JsonValue};

/// The recorded intent: rates, limits, seeds, host and layer map.
pub const INTENT: &str = include_str!("../intent.json");

/// A traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Most requests resubmit an earlier plan.
    Recurring,
    /// Every request is a plan never sent before.
    Adhoc,
}

impl Workload {
    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "recurring" => Ok(Self::Recurring),
            "adhoc" => Ok(Self::Adhoc),
            other => Err(format!("unknown workload `{other}` (recurring or adhoc)")),
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Recurring => "recurring",
            Self::Adhoc => "adhoc",
        }
    }
}

/// The two fixed offered rates of a workload (req/s).
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    /// Arrivals sparser than the batching window.
    pub low: f64,
    /// About half to two-thirds of the measured capacity.
    pub high: f64,
}

/// Settings the harness runs with.
#[derive(Debug, Clone)]
pub struct Config {
    /// Set-ups per run; the median is reported.
    pub setup_reps: usize,
    /// Jobs in the retrain chain.
    pub retrain_jobs: usize,
    /// Seed of the retrain set: fixed, so `heldout_mape` moves only when
    /// the code changes the fit.
    pub retrain_seed: u64,
    /// Rounds of low, high and closed-loop phases per run.
    pub rounds: usize,
    /// Shares of `--seconds` given to the low, high and closed-loop phases.
    pub phase_share: (f64, f64, f64),
    /// Latency limit for goodput (µs).
    pub lat_limit_us: f64,
    /// Outstanding requests per connection in the closed loop.
    pub closed_loop_window: usize,
    recurring_rates: Rates,
    adhoc_rates: Rates,
    /// Largest share of a recurring open loop's requests that send a
    /// plan for the first time.
    pub recurring_max_fresh_share: f64,
    /// Distinct plans a recurring run may send.
    pub recurring_plans: usize,
    /// Of those, the plans the warm-up round sends for the first time.
    pub recurring_warmup_plans: usize,
    /// Ad-hoc plans generated per second of closed loop (an upper bound
    /// on the closed loop's rate).
    pub adhoc_plan_budget_rps: f64,
}

fn number(root: &JsonValue, path: &[&str]) -> Result<f64, String> {
    let mut node = root;
    for key in path {
        node = node
            .get(key)
            .ok_or_else(|| format!("intent.json: missing {}", path.join(".")))?;
    }
    node.as_f64()
        .ok_or_else(|| format!("intent.json: {} is not a number", path.join(".")))
}

impl Config {
    /// Parse the compiled-in intent.
    pub fn load() -> Result<Self, String> {
        Self::parse(INTENT)
    }

    fn parse(text: &str) -> Result<Self, String> {
        let root = json::parse(text).map_err(|e| format!("intent.json: {e:?}"))?;
        let n = |path: &[&str]| number(&root, path);
        let rates = |w: &str| -> Result<Rates, String> {
            Ok(Rates {
                low: n(&["serving", "rates_rps", w, "low"])?,
                high: n(&["serving", "rates_rps", w, "high"])?,
            })
        };
        let config = Self {
            setup_reps: n(&["setup_reps"])? as usize,
            retrain_jobs: n(&["retrain", "jobs"])? as usize,
            retrain_seed: n(&["retrain", "seed"])? as u64,
            rounds: n(&["serving", "rounds"])? as usize,
            phase_share: (
                n(&["serving", "phase_share", "low"])?,
                n(&["serving", "phase_share", "high"])?,
                n(&["serving", "phase_share", "goodput"])?,
            ),
            lat_limit_us: n(&["serving", "lat_limit_us"])?,
            closed_loop_window: n(&["serving", "closed_loop_window"])? as usize,
            recurring_rates: rates("recurring")?,
            adhoc_rates: rates("adhoc")?,
            recurring_max_fresh_share: n(&["serving", "recurring", "max_fresh_share"])?,
            recurring_plans: n(&["serving", "recurring", "plans"])? as usize,
            recurring_warmup_plans: n(&["serving", "recurring", "warmup_plans"])? as usize,
            adhoc_plan_budget_rps: n(&["serving", "adhoc", "closed_loop_plan_budget_rps"])?,
        };
        if config.setup_reps == 0
            || config.rounds == 0
            || config.recurring_warmup_plans >= config.recurring_plans
            || config.retrain_jobs < 10
            || config.closed_loop_window == 0
        {
            return Err(
                "intent.json: setup_reps, rounds, retrain.jobs and the window must be positive, \
                 and the warm-up must leave fresh plans for the measured rounds"
                    .into(),
            );
        }
        let (a, b, c) = config.phase_share;
        if (a + b + c - 1.0).abs() > 1e-9 {
            return Err("intent.json: phase shares must sum to 1".into());
        }
        Ok(config)
    }

    /// The fixed rates of `workload`.
    pub fn rates(&self, workload: Workload) -> Rates {
        match workload {
            Workload::Recurring => self.recurring_rates,
            Workload::Adhoc => self.adhoc_rates,
        }
    }

    /// Seconds of the low, high and closed-loop phases in a run of
    /// `seconds`.
    pub fn phase_seconds(&self, seconds: f64) -> (f64, f64, f64) {
        let (a, b, c) = self.phase_share;
        (seconds * a, seconds * b, seconds * c)
    }

    /// Open-loop requests one round of a run of `seconds` is expected to
    /// send.
    fn round_open_requests(&self, workload: Workload, seconds: f64) -> f64 {
        let rates = self.rates(workload);
        let (low_s, high_s, _) = self.phase_seconds(seconds);
        (rates.low * low_s + rates.high * high_s) / self.rounds as f64
    }

    /// Shares of a recurring run's open-loop requests that send a plan for
    /// the first time, as (warm-up round, measured rounds). The warm-up
    /// spends `recurring_warmup_plans`; the measured rounds spread the
    /// rest evenly, with [`FRESH_MARGIN`] for the Poisson counts, and at
    /// most `recurring_max_fresh_share`. So every measured round carries
    /// cold misses, and all the plans fit the cache.
    pub fn recurring_fresh_shares(&self, seconds: f64) -> (f64, f64) {
        let per_round = self.round_open_requests(Workload::Recurring, seconds);
        let warmup = (self.recurring_warmup_plans as f64 / per_round).min(1.0);
        let measured_plans = (self.recurring_plans - self.recurring_warmup_plans) as f64;
        let measured = (measured_plans / (FRESH_MARGIN * per_round * self.rounds as f64))
            .min(self.recurring_max_fresh_share);
        (warmup, measured)
    }
}

/// Head room between the fresh plans the measured rounds are expected to
/// send and the plans left for them; a Poisson count of tens of thousands
/// stays within 5% of its mean by many standard deviations.
const FRESH_MARGIN: f64 = 1.05;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_recorded_intent_parses_and_keeps_low_below_the_batching_window() {
        let config = Config::load().expect("intent.json");
        for w in [Workload::Recurring, Workload::Adhoc] {
            let rates = config.rates(w);
            // Arrivals at `low` are sparser than the 500 µs batching window.
            assert!(1e6 / rates.low > 500.0, "{w:?} low rate {}", rates.low);
            assert!(rates.high > rates.low);
        }
        // The recurring run's distinct plans fit the server's default cache
        // even in its fullest shard (3.5 standard deviations above the
        // mean shard), so a miss is never an eviction.
        let cache = tasq_serve::ServeConfig::default().cache;
        let shards = cache.shards as f64;
        let per_shard = config.recurring_plans as f64 / shards;
        let spread = (per_shard * (1.0 - 1.0 / shards)).sqrt();
        assert!(per_shard + 3.5 * spread <= (cache.capacity / cache.shards) as f64);
        // At the benchmark's 36 s the measured rounds send fresh plans at
        // about a 25th of their requests; short runs reach the cap.
        let (warmup, measured) = config.recurring_fresh_shares(36.0);
        assert!(
            (0.035..=config.recurring_max_fresh_share).contains(&measured),
            "{measured}"
        );
        let recorded = json::parse(INTENT).ok().and_then(|v| {
            v.get("serving")?
                .get("recurring")?
                .get("fresh_share_at_36s")?
                .as_f64()
        });
        assert_eq!(recorded, Some((measured * 1e4).round() / 1e4));
        assert!(warmup > 0.0 && warmup <= 1.0);
        assert_eq!(
            config.recurring_fresh_shares(5.0).1,
            config.recurring_max_fresh_share
        );
        assert_eq!(Workload::parse("adhoc"), Ok(Workload::Adhoc));
        assert!(Workload::parse("retrain").is_err());
    }
}
