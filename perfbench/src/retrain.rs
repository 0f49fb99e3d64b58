//! The offline retrain chain: flight the jobs, train with
//! `TasqPipeline::train_with_pool`, and evaluate the NN on a held-out
//! split. [`decomposed`] repeats the pipeline's phases as separate public
//! calls so the traced run can attribute its time.

use crate::spans::SpanLog;
use crate::stats::CpuTicks;
use scope_sim::{flight_workload, FlightConfig, Job, NoiseModel};
use std::time::Instant;
use tasq::augment::AugmentConfig;
use tasq::dataset::Dataset;
use tasq::eval::evaluate_model;
use tasq::models::{NnPcc, NnTrainConfig, XgbRuntime, XgbTrainConfig};
use tasq::pipeline::{
    JobRepository, ModelStore, PipelineConfig, TasqPipeline, NN_MODEL_NAME, XGB_MODEL_NAME,
};
use tasq_par::Pool;

/// Jobs with `id % HELDOUT_MODULUS == 0` are held out of training.
pub const HELDOUT_MODULUS: u64 = 5;

/// Timings and outcome of one pass of the retrain chain.
#[derive(Debug, Clone, Copy)]
pub struct Retrain {
    /// Wall time of `flight_workload` (s).
    pub flight_s: f64,
    /// Wall time of `train_with_pool` (s).
    pub train_s: f64,
    /// Wall time of the held-out evaluation (s).
    pub eval_s: f64,
    /// Median absolute percentage runtime error of the NN, held out.
    pub heldout_mape: f64,
    /// Share of held-out predicted PCCs that are monotone non-increasing.
    pub heldout_monotone: f64,
    /// Digest of the flight results.
    pub flight_digest: u64,
    /// Digest of both trained artifacts.
    pub artifacts: u64,
    /// Share of CPU time the hypervisor stole during the pass.
    pub steal: f64,
}

/// Split `jobs` into (train, held-out).
pub fn split(jobs: &[Job]) -> (Vec<Job>, Vec<Job>) {
    jobs.iter()
        .cloned()
        .partition(|j| j.id % HELDOUT_MODULUS != 0)
}

fn flight_config(seed: u64) -> FlightConfig {
    FlightConfig {
        noise: NoiseModel::mild(),
        seed,
        ..Default::default()
    }
}

const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn fold(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest = (*digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn artifact_digest(nn: &NnPcc, xgb: &XgbRuntime) -> Result<u64, String> {
    let mut digest = DIGEST_SEED;
    for bytes in [tasq::codec::to_bytes(nn), tasq::codec::to_bytes(xgb)] {
        fold(
            &mut digest,
            &bytes.map_err(|e| format!("encode artifact: {e}"))?,
        );
    }
    Ok(digest)
}

/// Flight, train and evaluate once; returns the store holding the trained
/// artifacts with the pass's timings.
pub fn run(
    jobs: &[Job],
    seed: u64,
    pool: &Pool,
    spans: &mut SpanLog,
) -> Result<(ModelStore, Retrain), String> {
    let mut flight_digest = DIGEST_SEED;
    let ticks = CpuTicks::now();
    let t0 = Instant::now();
    let refs: Vec<u32> = jobs.iter().map(|j| j.requested_tokens.max(4)).collect();
    let flighted = flight_workload(jobs, &refs, &flight_config(seed), pool);
    let t1 = Instant::now();
    spans.record("sim.flight_workload", 0, None, t0, t1);
    for result in &flighted {
        let fj = result.as_ref().map_err(|e| format!("flight failed: {e}"))?;
        for f in &fj.flights {
            fold(&mut flight_digest, &f.runtime_secs.to_le_bytes());
        }
    }

    let (train, heldout) = split(jobs);
    let repository = JobRepository::new();
    repository.ingest(train);
    let store = ModelStore::new();
    let t2 = Instant::now();
    TasqPipeline::new(PipelineConfig::default())
        .train_with_pool(&repository, &store, pool)
        .map_err(|e| format!("train_with_pool: {e}"))?;
    let t3 = Instant::now();
    spans.record("pipeline.train_with_pool", 0, None, t2, t3);

    let nn: NnPcc = store
        .load_latest(NN_MODEL_NAME)
        .map_err(|e| format!("load NN: {e}"))?;
    let xgb: XgbRuntime = store
        .load_latest(XGB_MODEL_NAME)
        .map_err(|e| format!("load XGB: {e}"))?;
    let artifacts = artifact_digest(&nn, &xgb)?;

    let t4 = Instant::now();
    let heldout_set = Dataset::build_with_pool(&heldout, &AugmentConfig::default(), pool);
    if heldout_set.is_empty() {
        return Err("held-out split produced no examples".into());
    }
    let row = evaluate_model(&nn, &heldout_set);
    let t5 = Instant::now();
    spans.record("eval.heldout", 0, None, t4, t5);

    let pass = Retrain {
        flight_s: (t1 - t0).as_secs_f64(),
        train_s: (t3 - t2).as_secs_f64(),
        eval_s: (t5 - t4).as_secs_f64(),
        heldout_mape: row.median_ae_runtime,
        heldout_monotone: row.pattern_non_increase,
        flight_digest,
        artifacts,
        steal: ticks.steal_since(),
    };
    Ok((store, pass))
}

/// Wall time of each phase of `train_with_pool`, re-run as separate
/// public calls on the training split (s).
#[derive(Debug, Clone, Default)]
pub struct Phases {
    /// `scope_sim::validate_job` over every job.
    pub validate_jobs_s: f64,
    /// `Dataset::build_with_pool`.
    pub dataset_build_s: f64,
    /// `tasq::validate_pcc` over every target.
    pub validate_targets_s: f64,
    /// `XgbRuntime::train`.
    pub fit_xgb_s: f64,
    /// `NnPcc::train`.
    pub fit_nn_s: f64,
    /// Registering both artifacts in a store.
    pub register_s: f64,
    /// Examples built.
    pub examples: usize,
    /// Digest of both artifacts, to compare with the pipeline's.
    pub artifacts: u64,
}

impl Phases {
    /// Sum of the phases (s).
    pub fn total_s(&self) -> f64 {
        self.validate_jobs_s
            + self.dataset_build_s
            + self.validate_targets_s
            + self.fit_xgb_s
            + self.fit_nn_s
            + self.register_s
    }
}

/// Run the pipeline's phases one public call at a time.
pub fn decomposed(jobs: &[Job], pool: &Pool, spans: &mut SpanLog) -> Result<Phases, String> {
    let (train, _) = split(jobs);
    let config = PipelineConfig::default();
    let mut phases = Phases::default();
    let mut timed = |name: &'static str, f: &mut dyn FnMut() -> Result<(), String>| {
        let t0 = Instant::now();
        let result = f();
        let t1 = Instant::now();
        spans.record(name, 0, None, t0, t1);
        result.map(|()| (t1 - t0).as_secs_f64())
    };

    phases.validate_jobs_s = timed("validate.jobs", &mut || {
        train
            .iter()
            .try_for_each(|j| scope_sim::validate_job(j).map_err(|e| e.to_string()))
    })?;
    let mut dataset = Dataset {
        examples: Vec::new(),
    };
    phases.dataset_build_s = timed("dataset.build", &mut || {
        dataset = Dataset::build_with_pool(&train, &config.augment, pool);
        Ok(())
    })?;
    phases.examples = dataset.len();
    phases.validate_targets_s = timed("validate.targets", &mut || {
        dataset.examples.iter().try_for_each(|e| {
            tasq::validate_pcc(&e.target_pcc).map_err(|v| format!("job {}: {v:?}", e.job_id))
        })
    })?;
    let mut xgb = None;
    phases.fit_xgb_s = timed("fit.xgb", &mut || {
        xgb = Some(XgbRuntime::train(&dataset, &XgbTrainConfig::default()));
        Ok(())
    })?;
    let mut nn = None;
    phases.fit_nn_s = timed("fit.nn", &mut || {
        nn = Some(NnPcc::train(&dataset, &NnTrainConfig::default()));
        Ok(())
    })?;
    let (nn, xgb) = nn.zip(xgb).ok_or("a fit did not run")?;
    let store = ModelStore::new();
    phases.register_s = timed("store.register", &mut || {
        store
            .register(XGB_MODEL_NAME, &xgb)
            .map_err(|e| e.to_string())?;
        store
            .register(NN_MODEL_NAME, &nn)
            .map_err(|e| e.to_string())?;
        Ok(())
    })?;
    phases.artifacts = artifact_digest(&nn, &xgb)?;
    Ok(phases)
}
