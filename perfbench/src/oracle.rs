//! The output oracle: a served response must equal, field by field, a
//! direct `ScoringService::score` of the same job on the same model
//! generation.

use tasq::pipeline::{AllocationDecision, ScoreResponse};

/// Why a served response differs from the direct score, or `None`.
/// `expected` is the direct score of the plan; `request_id` is the id the
/// request carried, which the response must echo.
pub fn mismatch(expected: &ScoreResponse, got: &ScoreResponse, request_id: u64) -> Option<String> {
    if got.job_id != request_id {
        return Some(format!(
            "job_id {} answered request {request_id}",
            got.job_id
        ));
    }
    if got.predicted_runtime_at_request.to_bits() != expected.predicted_runtime_at_request.to_bits()
    {
        return Some(format!(
            "predicted_runtime_at_request {} != {}",
            got.predicted_runtime_at_request, expected.predicted_runtime_at_request
        ));
    }
    if got.optimal_tokens != expected.optimal_tokens {
        return Some(format!(
            "optimal_tokens {} != {}",
            got.optimal_tokens, expected.optimal_tokens
        ));
    }
    if got.served_tier != expected.served_tier {
        return Some(format!(
            "served_tier {:?} != {:?}",
            got.served_tier, expected.served_tier
        ));
    }
    let same_decision = match (&got.decision, &expected.decision) {
        (
            AllocationDecision::Automatic { tokens: a },
            AllocationDecision::Automatic { tokens: b },
        ) => a == b,
        (
            AllocationDecision::ShowCurve { curve: a },
            AllocationDecision::ShowCurve { curve: b },
        ) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
        }
        _ => false,
    };
    if !same_decision {
        return Some(format!(
            "decision {:?} != {:?}",
            got.decision, expected.decision
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_sim::{WorkloadConfig, WorkloadGenerator};
    use tasq::pipeline::{ScoringConfig, ScoringService};

    #[test]
    fn oracle_flags_a_planted_wrong_allocation() {
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: 4,
            seed: 3,
            ..Default::default()
        })
        .generate();
        let service = ScoringService::analytic(ScoringConfig::default());
        for job in &jobs {
            let expected = service.score(job);
            let mut served = service.score(job);
            assert_eq!(mismatch(&expected, &served, job.id), None);

            served.optimal_tokens += 1;
            let why = mismatch(&expected, &served, job.id).expect("planted error must be caught");
            assert!(why.contains("optimal_tokens"), "{why}");

            let echoed = service.score(job);
            assert!(
                mismatch(&expected, &echoed, job.id + 1).is_some(),
                "wrong id not caught"
            );
        }
    }
}
