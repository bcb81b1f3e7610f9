//! Workload inputs, generated from the workload seed alone: the corpus,
//! the query pool, the request sequence and the spare points the churn
//! writer inserts. The serving processes regenerate the same corpus
//! from the same seed, so nothing but the seed crosses a process
//! boundary.

use hlsh_core::MixturePreset;
use hlsh_datagen::mixture::uniform_center;
use hlsh_datagen::{ClusterSpec, MixtureBuilder};
use hlsh_families::sampling::rng_stream;
use hlsh_vec::DenseDataset;
use rand::Rng;

/// Corpus and pool dimensions of one benchmark size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Size {
    pub name: &'static str,
    /// Corpus points.
    pub n: usize,
    /// Dimensionality.
    pub dim: usize,
    /// Distinct query vectors requests are drawn from.
    pub pool: usize,
    /// Held-out points the churn writer inserts before it recycles
    /// deleted vectors.
    pub spares: usize,
}

/// The measured size: 50k × 32 f32 is 6.4 MB, past one core's L2, so a
/// linear scan is memory-bound.
pub const FULL: Size = Size { name: "full", n: 50_000, dim: 32, pool: 2048, spares: 8192 };
/// A size small enough for the benchmark's own tests.
pub const SMOKE: Size = Size { name: "smoke", n: 3_000, dim: 16, pool: 128, spares: 512 };

impl Size {
    pub fn parse(name: &str) -> Option<Size> {
        [FULL, SMOKE].into_iter().find(|s| s.name == name)
    }
}

/// Serving radius: also the mixture's distance scale.
pub const RADIUS: f64 = 1.5;
/// Top-k `k`.
pub const K: usize = 10;
/// Queries per request.
pub const BATCH: usize = 32;
/// Share of the corpus in the near-duplicate cluster, in percent. It
/// sits just past the cost model's switch point, so most queries drawn
/// from that cluster take the linear arm (at 46% only about a third
/// did on this generator).
pub const NEAR_DUP_PERCENT: f64 = 52.0;
/// Pool and request composition by cluster class, in percent:
/// near-duplicate, medium, background.
pub const POOL_MIX: [usize; 3] = [10, 30, 60];

/// Which mixture component a query came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    NearDup = 0,
    Medium = 1,
    Background = 2,
}

pub struct Inputs {
    pub size: Size,
    pub preset: MixturePreset,
    pub data: DenseDataset,
    pub pool: Vec<Vec<f32>>,
    pub pool_class: Vec<Class>,
    pub spares: Vec<Vec<f32>>,
}

/// Seed of the mixture's cluster centres. The geometry is part of the
/// workload's definition and the same for every run; the workload seed
/// draws the points, the pool and the requests. With seeded centres,
/// where the medium clusters fell moved recall and per-query cost from
/// one seed to the next.
const GEOMETRY_SEED: u64 = 0x4859_4C53;
/// Seed of the index: its hash functions, shard assignment and cost
/// calibration sample, the same for every run. The near-duplicate
/// cluster sits at the cost model's switch point, so where the hash
/// boundaries cut it decides how much each dense query costs; with
/// seeded hash functions, that moved `churn`'s rNNR throughput by a
/// quarter of its median between seeds.
const INDEX_SEED: u64 = 0x494E_4458;

/// `benchmark_mixture`'s cluster shapes (one near-duplicate cluster, a
/// diffuse background, six medium clusters) with the near-duplicate
/// cluster at [`NEAR_DUP_PERCENT`] and the rest split 4:3 between
/// background and medium clusters as in `benchmark_mixture`.
fn mixture(dim: usize) -> MixtureBuilder {
    let mut rng = rng_stream(GEOMETRY_SEED, 0x424D_4958);
    let unit = RADIUS / (2.0 * dim as f64).sqrt();
    let spread = (6.0 * RADIUS) as f32;
    let rest = 100.0 - NEAR_DUP_PERCENT;
    let mut builder = MixtureBuilder::new(dim)
        .cluster(ClusterSpec {
            weight: NEAR_DUP_PERCENT,
            center: uniform_center(&mut rng, dim, -spread, spread),
            sigma: 0.3 * unit,
        })
        .cluster(ClusterSpec {
            weight: rest * 4.0 / 7.0,
            center: vec![0.0; dim],
            sigma: 8.0 * unit,
        });
    for _ in 0..6 {
        builder = builder.cluster(ClusterSpec {
            weight: rest * 3.0 / 7.0 / 6.0,
            center: uniform_center(&mut rng, dim, -spread, spread),
            sigma: unit,
        });
    }
    builder
}

/// The serving parameters: `MixturePreset`'s (20 tables, hash length 7
/// and 6, cost ratio 6, 2 shards, 4 ladder levels) at this corpus shape.
pub fn preset(size: Size) -> MixturePreset {
    MixturePreset {
        n: size.n,
        dim: size.dim,
        seed: INDEX_SEED,
        shards: 2,
        levels: 4,
        radius: RADIUS,
    }
}

/// The corpus alone (what a serving process needs).
pub fn corpus(size: Size, seed: u64) -> DenseDataset {
    mixture(size.dim).sample(size.n, seed).0
}

/// Corpus, query pool and spares. The pool and spares are held-out
/// points of the same mixture: the sampler continues past the corpus.
pub fn generate(size: Size, seed: u64) -> Inputs {
    let extra = 3 * size.pool + size.spares;
    let (all, labels) = mixture(size.dim).sample(size.n + extra, seed);
    let data = DenseDataset::from_rows(size.dim, (0..size.n).map(|i| all.row(i)));
    let quota: Vec<usize> = POOL_MIX.iter().map(|pct| (pct * size.pool + 50) / 100).collect();
    let mut taken = [0usize; 3];
    let (mut pool, mut pool_class, mut spares) = (Vec::new(), Vec::new(), Vec::new());
    for (i, &label) in labels.iter().enumerate().skip(size.n) {
        let class = match label {
            0 => Class::NearDup,
            1 => Class::Background,
            _ => Class::Medium,
        };
        if taken[class as usize] < quota[class as usize] {
            taken[class as usize] += 1;
            pool.push(all.row(i).to_vec());
            pool_class.push(class);
        } else if spares.len() < size.spares {
            spares.push(all.row(i).to_vec());
        }
    }
    assert_eq!(taken.to_vec(), quota, "held-out sample too small to fill the query pool");
    // Selection fills the near-duplicate quota first; shuffle so any
    // prefix of the pool has the pool's mix.
    let mut rng = rng_stream(seed, 0x504F_4F4C);
    for i in (1..pool.len()).rev() {
        let j = rng.gen_range(0..=i);
        pool.swap(i, j);
        pool_class.swap(i, j);
    }
    Inputs { size, preset: preset(size), data, pool, pool_class, spares }
}

/// `count` requests of [`BATCH`] pool indexes each. Every request
/// carries the pool's class mix (3 or 4 near-duplicate queries, and so
/// on, so that each run of consecutive requests matches [`POOL_MIX`]);
/// within a class, queries are uniform over the pool. A near-duplicate
/// query costs about twenty times a background one, so with the mix
/// left to chance a round's cost swung with how many it happened to
/// draw.
pub fn requests(inputs: &Inputs, seed: u64, count: usize) -> Vec<Vec<u32>> {
    let mut by_class: [Vec<u32>; 3] = Default::default();
    for (i, &c) in inputs.pool_class.iter().enumerate() {
        by_class[c as usize].push(i as u32);
    }
    let mut rng = rng_stream(seed, 0x5245_5100);
    (0..count)
        .map(|r| {
            // This request's share of a class: the running total rounded
            // down, minus the previous requests' shares; the background
            // takes the rest.
            let share = |pct: usize| (r + 1) * BATCH * pct / 100 - r * BATCH * pct / 100;
            let (dup, medium) = (share(POOL_MIX[0]), share(POOL_MIX[1]));
            let mut request = Vec::with_capacity(BATCH);
            for (members, take) in by_class.iter().zip([dup, medium, BATCH - dup - medium]) {
                request.extend((0..take).map(|_| members[rng.gen_range(0..members.len())]));
            }
            for i in (1..request.len()).rev() {
                request.swap(i, rng.gen_range(0..=i));
            }
            request
        })
        .collect()
}

impl Inputs {
    /// The query vectors of one request.
    pub fn queries(&self, request: &[u32]) -> Vec<Vec<f32>> {
        request.iter().map(|&i| self.pool[i as usize].clone()).collect()
    }

    /// The pool as a data set (for ground truth).
    pub fn pool_dataset(&self) -> DenseDataset {
        DenseDataset::from_rows(self.size.dim, self.pool.iter())
    }
}
