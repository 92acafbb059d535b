//! Per-primitive learned cost models (paper §IV-E2).
//!
//! One gradient-boosted regressor per (primitive kind, device). Models
//! predict `ln(latency_seconds)` — the latency range spans many orders of
//! magnitude, and selection only needs correct *ranking*, which log-space
//! regression preserves far better than raw-scale fitting.

use std::collections::BTreeMap;

use granii_boost::GbtRegressor;
use granii_matrix::device::DeviceKind;
use granii_matrix::PrimitiveKind;
use serde::{Deserialize, Serialize};

use crate::assoc::{CandidateProgram, PrimStep};
use crate::cost::FeaturizedInput;
use crate::{CoreError, Result};

/// The trained cost models for one target device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostModelSet {
    device: DeviceKind,
    models: BTreeMap<PrimitiveKind, GbtRegressor>,
    /// Validation quality per primitive: (RMSE in log-space, Spearman rank
    /// correlation) — the paper's §VI-G accuracy discussion.
    pub validation: BTreeMap<PrimitiveKind, (f64, f64)>,
}

impl CostModelSet {
    /// Assembles a set from trained regressors (used by [`crate::cost::training`]).
    pub fn new(
        device: DeviceKind,
        models: BTreeMap<PrimitiveKind, GbtRegressor>,
        validation: BTreeMap<PrimitiveKind, (f64, f64)>,
    ) -> Self {
        Self {
            device,
            models,
            validation,
        }
    }

    /// The device these models were trained for.
    pub fn device(&self) -> DeviceKind {
        self.device
    }

    /// The per-primitive regressors (read-only; used by the audit layer to
    /// build perturbed model sets for regret testing).
    pub fn models(&self) -> &BTreeMap<PrimitiveKind, GbtRegressor> {
        &self.models
    }

    /// Predicts the latency (seconds) of one primitive invocation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MissingCostModel`] if the primitive has no model.
    pub fn predict_step(&self, step: &PrimStep, input: &FeaturizedInput) -> Result<f64> {
        let model = self
            .models
            .get(&step.kind)
            .ok_or(CoreError::MissingCostModel {
                primitive: step.kind.name().into(),
            })?;
        let features = input.step_features(step);
        Ok(model.predict(&features).exp())
    }

    /// Predicts the total latency of a candidate program — "We approximate
    /// the cost of executing an association tree by the addition of the costs
    /// of each primitive" (§IV-D). Hoisted (`once`) steps amortize over
    /// `iterations` runs (the paper evaluates 100-iteration executions where
    /// graph-only precomputation is paid once).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MissingCostModel`] if any step lacks a model.
    pub fn predict_program(
        &self,
        program: &CandidateProgram,
        input: &FeaturizedInput,
        iterations: usize,
    ) -> Result<f64> {
        let iters = iterations.max(1) as f64;
        let mut total = 0.0;
        for step in &program.steps {
            let cost = self.predict_step(step, input)?;
            total += if step.once { cost / iters } else { cost };
        }
        Ok(total)
    }

    /// Predicts the steady-state (per-iteration) latency of a candidate
    /// program: the sum of its non-hoisted steps only. Unlike
    /// [`CostModelSet::predict_program`] there is no amortized setup term,
    /// which makes this directly comparable to the measured cost of one
    /// [`crate::execplan::BoundPlan::iterate`] — the residual the serving
    /// runtime's online drift detector watches.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MissingCostModel`] if any per-iteration step
    /// lacks a model.
    pub fn predict_steady_state(
        &self,
        program: &CandidateProgram,
        input: &FeaturizedInput,
    ) -> Result<f64> {
        let mut total = 0.0;
        for step in program.steps.iter().filter(|s| !s.once) {
            total += self.predict_step(step, input)?;
        }
        Ok(total)
    }

    /// Serializes the set to JSON (the offline stage persists models for the
    /// online runtime).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Serde`] on serialization failure.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| CoreError::Serde(e.to_string()))
    }

    /// Loads a set from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Serde`] on parse failure.
    pub fn from_json(json: &str) -> Result<Self> {
        serde_json::from_str(json).map_err(|e| CoreError::Serde(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Dim;

    #[test]
    fn missing_model_is_reported() {
        let set = CostModelSet::new(DeviceKind::Cpu, BTreeMap::new(), BTreeMap::new());
        let step = PrimStep {
            kind: PrimitiveKind::Gemm,
            rows: Dim::N,
            inner: Dim::K1,
            cols: Dim::K2,
            once: false,
        };
        let g = granii_graph::generators::ring(5).unwrap();
        let input = FeaturizedInput::extract(&g, 4, 4);
        assert!(matches!(
            set.predict_step(&step, &input),
            Err(CoreError::MissingCostModel { .. })
        ));
    }
}
