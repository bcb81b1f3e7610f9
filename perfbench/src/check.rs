//! Correctness oracles, all computed outside the clock: in-process
//! answers on an identically built index (byte-identity) and exact
//! ground truth (recall).

use hlsh_core::FrozenStore;
use hlsh_core::{
    MixturePreset, SegmentedIndex, SegmentedQueryEngine, SegmentedTopKEngine, SegmentedTopKIndex,
    ShardedIndex, ShardedTopKIndex,
};
use hlsh_datagen::{ground_truth, ground_truth_topk};
use hlsh_families::PStableL2;
use hlsh_vec::parallel::par_map_with;
use hlsh_vec::{DenseDataset, PointId, L2};

use crate::inputs::{Inputs, K, RADIUS};

pub type Rnnr = ShardedIndex<DenseDataset, PStableL2, L2, FrozenStore>;
pub type TopK = ShardedTopKIndex<DenseDataset, PStableL2, L2, FrozenStore>;
pub type Hit = (PointId, u64);

/// The answer every pool query must get, ids and f64 distance bits.
pub struct Expected {
    pub rnnr: Vec<Vec<PointId>>,
    pub topk: Vec<Vec<Hit>>,
}

pub fn bits(answer: &[(PointId, f64)]) -> Vec<Hit> {
    answer.iter().map(|&(id, d)| (id, d.to_bits())).collect()
}

impl Expected {
    /// In-process `query_batch` / `query_topk_batch` on the frozen
    /// indexes.
    pub fn frozen(inputs: &Inputs, rnnr: &Rnnr, topk: &TopK) -> Expected {
        Expected {
            rnnr: rnnr.query_batch(&inputs.pool, RADIUS).into_iter().map(|o| o.ids).collect(),
            topk: topk
                .query_topk_batch(&inputs.pool, K)
                .into_iter()
                .map(|o| o.neighbors.iter().map(|n| (n.id, n.dist.to_bits())).collect())
                .collect(),
        }
    }

    /// A fresh `build_bulk` of the living indexes on `(ids, data)`,
    /// queried through the segmented engines.
    pub fn rebuilt(
        preset: &MixturePreset,
        pool: &[Vec<f32>],
        data: &DenseDataset,
        ids: &[PointId],
    ) -> Expected {
        let rnnr = SegmentedIndex::build_bulk(
            data.clone(),
            ids,
            preset.assignment(),
            preset.rnnr_builder(),
        );
        let topk = SegmentedTopKIndex::build_bulk(
            data.clone(),
            ids,
            preset.assignment(),
            preset.schedule(),
            |_, r| preset.level_builder(r),
        );
        Expected {
            rnnr: par_map_with(pool.len(), None, SegmentedQueryEngine::new, |e, i| {
                e.query(&rnnr, &pool[i], RADIUS).ids
            }),
            topk: par_map_with(pool.len(), None, SegmentedTopKEngine::new, |e, i| {
                e.query_topk(&topk, &pool[i], K)
                    .neighbors
                    .iter()
                    .map(|n| (n.id, n.dist.to_bits()))
                    .collect()
            }),
        }
    }

    /// Compares one rNNR response against the pool answers.
    pub fn check_rnnr(&self, request: &[u32], got: &[Vec<PointId>]) -> Result<(), String> {
        if got.len() != request.len() {
            return Err(format!("rnnr: {} answers for {} queries", got.len(), request.len()));
        }
        for (&q, ans) in request.iter().zip(got) {
            if *ans != self.rnnr[q as usize] {
                return Err(format!(
                    "rnnr answer for pool query {q} differs from the in-process answer"
                ));
            }
        }
        Ok(())
    }

    /// Compares one top-k response, distances bit for bit.
    pub fn check_topk(&self, request: &[u32], got: &[Vec<(PointId, f64)>]) -> Result<(), String> {
        if got.len() != request.len() {
            return Err(format!("topk: {} answers for {} queries", got.len(), request.len()));
        }
        for (&q, ans) in request.iter().zip(got) {
            if bits(ans) != self.topk[q as usize] {
                return Err(format!(
                    "topk answer for pool query {q} differs from the in-process answer"
                ));
            }
        }
        Ok(())
    }

    /// Mean recall against exact ground truth over `data` whose row `i`
    /// has id `ids[i]`: rNNR over queries with a non-empty truth, top-k
    /// over all.
    pub fn recall(&self, pool: &DenseDataset, data: &DenseDataset, ids: &[PointId]) -> (f64, f64) {
        let truth = ground_truth(data, pool, &L2, RADIUS);
        let mut rnnr = Vec::new();
        for (got, truth) in self.rnnr.iter().zip(&truth) {
            if truth.is_empty() {
                continue;
            }
            let truth: std::collections::HashSet<PointId> =
                truth.iter().map(|&r| ids[r as usize]).collect();
            rnnr.push(
                got.iter().filter(|id| truth.contains(id)).count() as f64 / truth.len() as f64,
            );
        }
        let truth_k = ground_truth_topk(data, pool, &L2, K);
        let mut topk = Vec::new();
        for (got, truth) in self.topk.iter().zip(&truth_k) {
            let truth: std::collections::HashSet<PointId> =
                truth.iter().map(|&(r, _)| ids[r as usize]).collect();
            topk.push(
                got.iter().filter(|(id, _)| truth.contains(id)).count() as f64
                    / truth.len().max(1) as f64,
            );
        }
        (crate::load::mean(&rnnr), crate::load::mean(&topk))
    }
}
