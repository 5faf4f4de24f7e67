//! Bayesian-optimization baselines: a vanilla GP-EI optimizer and a
//! HyperMapper-2.0-style constrained variant whose acquisition multiplies
//! expected improvement by a feasibility probability.

use crate::{random_point, DseTechnique, EvalResult, Problem};
use edse_core::cost::Sample;
use edse_core::space::{DesignPoint, DesignSpace, ParamDef};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// RBF length scale over normalized parameter indices.
const LENGTH_SCALE: f64 = 0.3;
/// Noise variance on the kernel's diagonal.
const NOISE: f64 = 1e-4;
/// The GP window: the surrogate is fitted on the `MAX_GP` most recent
/// observations only, so past that many evaluations the best one can drop
/// out of the fit (expected improvement still measures against it).
const MAX_GP: usize = 120;
/// Random candidates drawn and scored per proposal.
const POOL: usize = 256;
/// Neighbours in HyperMapper's feasibility vote.
const KNN: usize = 7;

/// RBF kernel value at squared distance `d2`.
fn rbf(d2: f64) -> f64 {
    (-d2 / (2.0 * LENGTH_SCALE * LENGTH_SCALE)).exp()
}

/// Squared distance, summed in parameter order. `x * x` is the `powi(2)`
/// of the reference: both are one rounded product.
fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Start of row `i` in a packed lower triangle.
fn tri(i: usize) -> usize {
    i * (i + 1) / 2
}

/// The Cholesky factor of `K + NOISE * I` over the GP window, grown by one
/// row per observation.
///
/// Row `i` of the factor reads only the kernel's rows up to `i`, so a
/// factor grown row by row has the bits of a from-scratch refit over the
/// same window. A new observation costs one kernel row and one triangular
/// solve, `O(n^2)`; only a moved window start (history longer than
/// `MAX_GP`) refactors the window, `O(n^3)`.
#[derive(Debug, Clone, Default)]
struct Factor {
    /// History index of the window's first observation.
    start: usize,
    /// Packed lower-triangular rows: row `i` is `l[tri(i)..][..=i]`.
    l: Vec<f64>,
    /// Rows factored so far.
    rows: usize,
    /// Row `rows` has a non-positive pivot: the window has no factor, and
    /// adding observations cannot give it one.
    singular: bool,
}

impl Factor {
    /// Brings the factor up to date with `window`, the observations from
    /// history index `start` on: discards it when the start moved, then
    /// factors only the rows it lacks.
    fn sync(&mut self, window: &[Vec<f64>], start: usize) {
        if start != self.start {
            *self = Factor {
                start,
                ..Factor::default()
            };
        }
        self.grow(window.len(), |i, j| {
            let k = rbf(sq_dist(&window[i], &window[j]));
            if i == j {
                k + NOISE
            } else {
                k
            }
        });
    }

    /// Factors rows up to `n` of the symmetric matrix whose lower triangle
    /// is `k(i, j)`, `j <= i`; stops for good at a non-positive pivot.
    fn grow(&mut self, n: usize, k: impl Fn(usize, usize) -> f64) {
        while self.rows < n && !self.singular {
            let i = self.rows;
            let row = tri(i);
            for j in 0..=i {
                let sum = self.l[row..]
                    .iter()
                    .zip(&self.l[tri(j)..][..j])
                    .fold(k(i, j), |sum, (a, b)| sum - a * b);
                if i == j {
                    if sum <= 0.0 {
                        self.l.truncate(row);
                        self.singular = true;
                        return;
                    }
                    self.l.push(sum.sqrt());
                } else {
                    let pivot = self.l[tri(j) + j];
                    self.l.push(sum / pivot);
                }
            }
            self.rows += 1;
        }
    }

    fn row(&self, i: usize) -> &[f64] {
        &self.l[tri(i)..][..=i]
    }

    /// `x` with `L L^T x = b`: forward, then backward substitution, each
    /// sum in the reference's order.
    fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.rows;
        let mut y = Vec::with_capacity(n);
        for (i, &bi) in b.iter().enumerate().take(n) {
            let row = self.row(i);
            let sum = row[..i].iter().zip(&y).fold(bi, |sum, (l, y)| sum - l * y);
            y.push(sum / row[i]);
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let sum = (i + 1..n).fold(y[i], |sum, j| sum - self.row(j)[i] * x[j]);
            x[i] = sum / self.row(i)[i];
        }
        x
    }
}

/// Position of index `index` in `def`'s domain, scaled to `[0, 1]` (0 for a
/// single-valued parameter).
fn unit(def: &ParamDef, index: usize) -> f64 {
    if def.len() <= 1 {
        0.0
    } else {
        index as f64 / (def.len() - 1) as f64
    }
}

fn normalize(space: &DesignSpace, p: &DesignPoint) -> Vec<f64> {
    space
        .params()
        .iter()
        .enumerate()
        .map(|(i, def)| unit(def, p.index(i)))
        .collect()
}

/// The normalized coordinates of `points`, laid out `[param][point]`.
fn normalize_pool(space: &DesignSpace, points: &[DesignPoint]) -> Vec<f64> {
    space
        .params()
        .iter()
        .enumerate()
        .flat_map(|(i, def)| points.iter().map(move |p| unit(def, p.index(i))))
        .collect()
}

/// Standard-normal pdf / cdf (Abramowitz-Stegun approximation for the cdf).
fn phi(x: f64) -> f64 {
    (-(x * x) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

fn big_phi(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    // Abramowitz & Stegun 7.1.26.
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Expected improvement of a minimization at predicted `(mean, std)` over
/// the incumbent `best`.
fn expected_improvement(mean: f64, std: f64, best: f64) -> f64 {
    if std <= 1e-12 {
        return (best - mean).max(0.0);
    }
    let z = (best - mean) / std;
    (best - mean) * big_phi(z) + std * phi(z)
}

/// Shared BO state machine: an initial random design, then GP-EI
/// acquisition over a random candidate pool, with optional feasibility
/// weighting.
#[derive(Debug, Clone)]
struct Bo {
    rng: StdRng,
    feasibility_aware: bool,
    started: bool,
    /// Normalized observed points, their log costs, and their feasibility.
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    feas: Vec<bool>,
    /// The kernel factor over the current GP window.
    factor: Factor,
}

impl Bo {
    fn new(seed: u64, feasibility_aware: bool) -> Bo {
        Bo {
            rng: StdRng::seed_from_u64(seed),
            feasibility_aware,
            started: false,
            xs: Vec::new(),
            ys: Vec::new(),
            feas: Vec::new(),
            factor: Factor::default(),
        }
    }

    fn propose(&mut self, problem: &Problem) -> Option<Vec<DesignPoint>> {
        let space = problem.space;
        if !std::mem::replace(&mut self.started, true) {
            // Initial design: feedback-free, one batch.
            let init = (problem.budget / 5).clamp(3, 20).min(problem.budget);
            return Some(
                (0..init)
                    .map(|_| random_point(space, &mut self.rng))
                    .collect(),
            );
        }
        if self.xs.len() >= problem.budget {
            return None;
        }
        // Scoring never draws, so drawing the whole pool first keeps the
        // draw order of a score-as-you-draw loop.
        let mut pool: Vec<DesignPoint> = (0..POOL)
            .map(|_| random_point(space, &mut self.rng))
            .collect();
        let scores = self.scores(&normalize_pool(space, &pool), POOL);
        Some(vec![pool.swap_remove(first_max(&scores))])
    }

    /// The acquisition score of each of `count` candidates whose normalized
    /// coordinates `q` are laid out `[param][candidate]`: expected
    /// improvement under the GP fitted on the window, times HyperMapper's
    /// k-NN feasibility vote over the whole history. Every candidate scores
    /// 1.0 when the window has no factor.
    ///
    /// Each reduction runs history-point-major across all candidates, so
    /// the inner loops walk independent candidates, while every candidate's
    /// sums keep the reference's order and its `-0.0` start (the start of
    /// `Iterator::sum`).
    fn scores(&mut self, q: &[f64], count: usize) -> Vec<f64> {
        let start = self.xs.len().saturating_sub(MAX_GP);
        self.factor.sync(&self.xs[start..], start);
        let n = self.factor.rows;
        if n == 0 || self.factor.singular {
            return vec![1.0; count];
        }

        // Squared distances, [history point][candidate].
        let mut d2 = vec![-0.0; self.xs.len() * count];
        for (x, row) in self.xs.iter().zip(d2.chunks_exact_mut(count)) {
            for (&xp, qp) in x.iter().zip(q.chunks_exact(count)) {
                for (d, &qc) in row.iter_mut().zip(qp) {
                    *d += (xp - qc) * (xp - qc);
                }
            }
        }

        let ys = &self.ys[start..];
        let y_mean = ys.iter().sum::<f64>() / n as f64;
        let y_std = (ys.iter().map(|v| (v - y_mean).powi(2)).sum::<f64>() / n as f64)
            .sqrt()
            .max(1e-9);
        let yn: Vec<f64> = ys.iter().map(|v| (v - y_mean) / y_std).collect();
        let alpha = self.factor.solve(&yn);

        // Row i of `v` starts as k(x_i, q) and becomes (L^-1 k*)_i; the
        // posterior mean and v.v accumulate as the rows complete.
        let mut mean = vec![-0.0; count];
        let mut vv = vec![-0.0; count];
        let mut v = vec![0.0; n * count];
        let kernel = &d2[start * count..];
        for i in 0..n {
            let (done, rest) = v.split_at_mut(i * count);
            let vi = &mut rest[..count];
            for (k, &d) in vi.iter_mut().zip(&kernel[i * count..][..count]) {
                *k = rbf(d);
            }
            for (m, &k) in mean.iter_mut().zip(vi.iter()) {
                *m += k * alpha[i];
            }
            let li = self.factor.row(i);
            for (&lij, vj) in li.iter().zip(done.chunks_exact(count)) {
                for (a, &b) in vi.iter_mut().zip(vj) {
                    *a -= lij * b;
                }
            }
            for (a, s) in vi.iter_mut().zip(vv.iter_mut()) {
                *a /= li[i];
                *s += *a * *a;
            }
        }

        let best = self.ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let mut scores: Vec<f64> = mean
            .iter()
            .zip(&vv)
            .map(|(&m, &vv)| {
                let var = (1.0 + NOISE - vv).max(1e-12);
                expected_improvement(m * y_std + y_mean, var.sqrt() * y_std, best)
            })
            .collect();
        if self.feasibility_aware {
            for (c, score) in scores.iter_mut().enumerate() {
                let column = d2[c..].iter().step_by(count).copied();
                *score *= feasible_share(column, &self.feas).max(0.05);
            }
        }
        scores
    }

    fn observe(&mut self, problem: &Problem, samples: &[Sample]) {
        for sample in samples {
            let cost = problem.cost(sample);
            self.xs.push(normalize(problem.space, &sample.point));
            // Fit the GP on log cost: the penalized range spans orders of
            // magnitude.
            self.ys.push(cost.max(1e-12).ln());
            self.feas.push(cost < 1e12);
        }
    }
}

/// HyperMapper's feasibility-classifier stand-in: the feasible share of
/// the `KNN` observations nearest a candidate, given its squared distance
/// to each observation in history order. Ties go to the earlier
/// observation, so the kept set is the first `KNN` of a stable sort by
/// distance.
fn feasible_share(d2: impl Iterator<Item = f64>, feas: &[bool]) -> f64 {
    let mut near = [(0.0, false); KNN];
    let mut len = 0;
    for (d, &f) in d2.zip(feas) {
        if len < KNN {
            len += 1;
        } else if d >= near[KNN - 1].0 {
            continue;
        }
        let mut pos = len - 1;
        while pos > 0 && near[pos - 1].0 > d {
            near[pos] = near[pos - 1];
            pos -= 1;
        }
        near[pos] = (d, f);
    }
    near[..len].iter().filter(|(_, f)| *f).count() as f64 / len as f64
}

/// The first index of the highest score; a later tie, or a NaN, never
/// displaces it.
fn first_max(scores: &[f64]) -> usize {
    let mut best = 0;
    for (i, &s) in scores.iter().enumerate().skip(1) {
        if s > scores[best] {
            best = i;
        }
    }
    best
}

/// Vanilla Bayesian optimization (GP + expected improvement), the
/// `fmfn/BayesianOptimization`-style baseline.
#[derive(Debug, Clone)]
pub struct BayesianOpt {
    bo: Bo,
}

impl BayesianOpt {
    /// A BO run with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            bo: Bo::new(seed, false),
        }
    }
}

impl DseTechnique for BayesianOpt {
    fn name(&self) -> String {
        "bayesian".into()
    }

    fn propose(&mut self, problem: &Problem) -> Option<Vec<DesignPoint>> {
        self.bo.propose(problem)
    }

    fn observe(&mut self, problem: &Problem, samples: &[Sample], _: Vec<EvalResult>) {
        self.bo.observe(problem, samples)
    }
}

/// HyperMapper-2.0-style constrained Bayesian optimization: expected
/// improvement weighted by a feasibility classifier.
#[derive(Debug, Clone)]
pub struct HyperMapperLike {
    bo: Bo,
}

impl HyperMapperLike {
    /// A constrained-BO run with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            bo: Bo::new(seed, true),
        }
    }
}

impl DseTechnique for HyperMapperLike {
    fn name(&self) -> String {
        "hypermapper".into()
    }

    fn propose(&mut self, problem: &Problem) -> Option<Vec<DesignPoint>> {
        self.bo.propose(problem)
    }

    fn observe(&mut self, problem: &Problem, samples: &[Sample], _: Vec<EvalResult>) {
        self.bo.observe(problem, samples)
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::{chol_solve, cholesky, Gp, ReferenceBo};
    use super::*;
    use edse_core::evaluate::{CodesignEvaluator, Evaluator};
    use edse_core::space::edge_space;
    use mapper::FixedMapper;
    use proptest::prelude::*;
    use rand::Rng;
    use workloads::zoo;

    fn evaluator() -> CodesignEvaluator<FixedMapper> {
        CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper)
    }

    #[test]
    fn gp_interpolates_training_points() {
        let x = vec![vec![0.0], vec![0.5], vec![1.0]];
        let y = [1.0, 2.0, 3.0];
        let gp = Gp::fit(x, &y).unwrap();
        let (m, s) = gp.predict(&[0.5]);
        assert!((m - 2.0).abs() < 0.1, "mean {m}");
        assert!(s < 0.2, "std {s}");
    }

    #[test]
    fn gp_uncertainty_grows_away_from_data() {
        let x = vec![vec![0.0], vec![0.1]];
        let y = [1.0, 1.1];
        let gp = Gp::fit(x, &y).unwrap();
        let (_, near) = gp.predict(&[0.05]);
        let (_, far) = gp.predict(&[1.0]);
        assert!(far > near);
    }

    #[test]
    fn erf_matches_known_values() {
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427).abs() < 1e-3);
        assert!((erf(-1.0) + 0.8427).abs() < 1e-3);
    }

    #[test]
    fn ei_positive_when_mean_below_best() {
        assert!(expected_improvement(0.0, 1.0, 1.0) > 0.0);
        assert!(expected_improvement(5.0, 0.0, 1.0) == 0.0);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn cholesky_roundtrip() {
        let k = vec![vec![4.0, 2.0], vec![2.0, 3.0]];
        let l = cholesky(&k).unwrap();
        // L L^T == K
        for i in 0..2 {
            for j in 0..2 {
                let v: f64 = (0..2).map(|t| l[i][t] * l[j][t]).sum();
                assert!((v - k[i][j]).abs() < 1e-12);
            }
        }
        let x = chol_solve(&l, &[1.0, 1.0]);
        // K x = b
        for i in 0..2 {
            let b: f64 = (0..2).map(|j| k[i][j] * x[j]).sum();
            assert!((b - 1.0).abs() < 1e-9);
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A random point of a space with `sizes[i]` values per parameter,
    /// normalized like an observation.
    fn grid_point(rng: &mut StdRng, sizes: &[usize]) -> Vec<f64> {
        sizes
            .iter()
            .map(|&len| {
                let def = ParamDef::new("p", (0..len).map(|v| v as f64).collect());
                unit(&def, rng.gen_range(0..len))
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The grown factor equals a from-scratch Cholesky of the same
        /// matrix bit for bit, however its rows arrive, and a non-positive
        /// pivot leaves no factor for good, as the reference's `None`
        /// does. The matrices include indefinite ones, which the RBF
        /// kernel plus `NOISE` never produces.
        #[test]
        fn grown_factor_matches_a_full_cholesky(
            n in 1usize..40,
            seed in any::<u64>(),
            jitter in prop_oneof![Just(0.0), Just(1e-4), Just(1.0), Just(-0.5)],
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let points: Vec<Vec<f64>> = (0..n).map(|_| grid_point(&mut rng, &[4, 3])).collect();
            let entry = |i: usize, j: usize| {
                let k = rbf(sq_dist(&points[i], &points[j]));
                if i == j { k + jitter } else { k }
            };
            let full: Vec<Vec<f64>> = (0..n)
                .map(|i| (0..n).map(|j| entry(i.max(j), i.min(j))).collect())
                .collect();
            let expected = cholesky(&full);
            let mut factor = Factor::default();
            let mut rows = 0;
            while rows < n {
                rows = (rows + rng.gen_range(1..=8usize)).min(n);
                factor.grow(rows, entry);
            }
            match expected {
                None => prop_assert!(factor.singular, "the reference found a non-positive pivot"),
                Some(l) => {
                    prop_assert!(!factor.singular);
                    prop_assert_eq!(factor.rows, n);
                    for (i, row) in l.iter().enumerate() {
                        prop_assert_eq!(bits(factor.row(i)), bits(&row[..=i]), "row {}", i);
                    }
                }
            }
        }

        /// The batched scorer gives every candidate the bits of the
        /// straight-line fit-and-predict, and so picks the same candidate,
        /// along a history that grows from 1 to up to 200 points: the
        /// window fills, then slides past `MAX_GP`. Spaces have frozen
        /// parameters and few values, so duplicate points and equal k-NN
        /// distances are common; histories may be all infeasible.
        #[test]
        fn batched_scores_match_the_reference(
            free in proptest::collection::vec(1usize..7, 1..5),
            frozen in 0usize..12,
            steps in proptest::collection::vec(1usize..40, 1..12),
            candidates in 1usize..40,
            infeasible in prop_oneof![Just(0.0), Just(0.3), Just(1.0)],
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let sizes: Vec<usize> = free.iter().copied().chain(std::iter::repeat_n(1, frozen)).collect();
            for feasibility_aware in [false, true] {
                let mut bo = Bo::new(0, feasibility_aware);
                for &step in &steps {
                    for _ in 0..step.min(200 - bo.xs.len()) {
                        bo.xs.push(grid_point(&mut rng, &sizes));
                        if rng.gen_bool(infeasible) {
                            bo.ys.push((1e12 * (1.0 + rng.gen_range(0.0..3.0f64))).ln());
                            bo.feas.push(false);
                        } else {
                            bo.ys.push(rng.gen_range(-2.0..3.0));
                            bo.feas.push(true);
                        }
                    }
                    let cands: Vec<Vec<f64>> = (0..candidates).map(|_| grid_point(&mut rng, &sizes)).collect();
                    let q: Vec<f64> = (0..sizes.len())
                        .flat_map(|p| cands.iter().map(move |c| c[p]))
                        .collect();
                    let expected = reference::scores(&bo.xs, &bo.ys, &bo.feas, feasibility_aware, &cands);
                    let got = bo.scores(&q, candidates);
                    prop_assert_eq!(bits(&got), bits(&expected), "history of {}", bo.xs.len());
                    prop_assert_eq!(bo.factor.start, bo.xs.len().saturating_sub(MAX_GP));
                    prop_assert_eq!(bo.factor.rows, bo.xs.len() - bo.factor.start);
                }
            }
        }
    }

    /// A window without a factor scores every candidate 1.0, like the
    /// reference's failed fit, so the first candidate of the pool wins.
    /// The kernel plus `NOISE` keeps every pivot near `NOISE` or above, so
    /// the state is set by hand here; the factor property test reaches it
    /// through indefinite matrices.
    #[test]
    fn a_window_without_a_factor_picks_the_first_candidate() {
        let ev = evaluator();
        let problem = Problem {
            space: ev.space(),
            constraints: ev.constraints(),
            budget: 40,
        };
        let mut bo = Bo::new(3, true);
        let init = bo.propose(&problem).expect("initial design");
        let samples: Vec<Sample> = init
            .into_iter()
            .map(|p| {
                let eval = ev.evaluate(&p);
                Sample::new(p, &eval, ev.constraints())
            })
            .collect();
        bo.observe(&problem, &samples);
        bo.factor = Factor {
            start: 0,
            l: Vec::new(),
            rows: 0,
            singular: true,
        };
        let mut draws = bo.rng.clone();
        let first = random_point(problem.space, &mut draws);
        assert_eq!(bo.scores(&vec![0.5; problem.space.len()], 1), vec![1.0]);
        assert_eq!(bo.propose(&problem), Some(vec![first]));
        assert!(bo.factor.singular, "the same window stays without a factor");
    }

    /// A BO technique with its factor in view.
    trait WithBo: DseTechnique {
        fn bo(&self) -> &Bo;
    }

    impl WithBo for BayesianOpt {
        fn bo(&self) -> &Bo {
            &self.bo
        }
    }

    impl WithBo for HyperMapperLike {
        fn bo(&self) -> &Bo {
            &self.bo
        }
    }

    /// Per surrogate proposal: the history length, whether the factor was
    /// rebuilt, and how many rows it factored.
    type Work = Vec<(usize, bool, usize)>;

    /// A technique run through the search driver that logs its factor
    /// work.
    struct Logged<T> {
        inner: T,
        work: Work,
    }

    impl<T: WithBo> DseTechnique for Logged<T> {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn propose(&mut self, problem: &Problem) -> Option<Vec<DesignPoint>> {
            let before = self.inner.bo().factor.clone();
            let history = self.inner.bo().xs.len();
            let points = self.inner.propose(problem)?;
            if history > 0 {
                let after = &self.inner.bo().factor;
                let rebuilt = after.start != before.start;
                let rows = after.rows - if rebuilt { 0 } else { before.rows };
                self.work.push((history, rebuilt, rows));
            }
            Some(points)
        }

        fn observe(&mut self, problem: &Problem, samples: &[Sample], results: Vec<EvalResult>) {
            self.inner.observe(problem, samples, results)
        }
    }

    /// Runs both techniques at `budget` through the search driver, checks
    /// that each samples exactly what the reference-driven run samples,
    /// and returns their factor work.
    fn run_against_the_reference(budget: usize) -> [Work; 2] {
        fn run<T: WithBo>(inner: T, aware: bool, ev: &dyn Evaluator, budget: usize) -> Work {
            let mut logged = Logged {
                inner,
                work: Vec::new(),
            };
            let trace = logged.run(ev, budget);
            let reference = ReferenceBo::new(1, aware).run(ev, budget);
            assert_eq!(trace.evaluations(), budget);
            assert_eq!(
                trace.samples,
                reference.samples,
                "{} at budget {budget}",
                logged.name()
            );
            logged.work
        }
        let ev = evaluator();
        [
            run(BayesianOpt::new(1), false, &ev, budget),
            run(HyperMapperLike::new(1), true, &ev, budget),
        ]
    }

    /// A whole budget-100 run samples what the reference samples and
    /// factors each of its 99 window rows once, where a refit per
    /// proposal, as the reference does, factors 20 + 21 + ... + 99 =
    /// 4,760.
    #[test]
    fn a_budget_100_run_matches_the_reference_and_factors_each_row_once() {
        for work in run_against_the_reference(100) {
            assert_eq!(
                work.len(),
                80,
                "one proposal per point after the 20 initial"
            );
            assert!(work.iter().all(|&(_, rebuilt, _)| !rebuilt));
            assert_eq!(work.iter().map(|&(_, _, rows)| rows).sum::<usize>(), 99);
            assert_eq!(
                work.iter().map(|&(history, _, _)| history).sum::<usize>(),
                4_760
            );
        }
    }

    /// Past `MAX_GP` observations the window start moves with every new
    /// one, and only then is the factor rebuilt: a budget-150 run, which
    /// samples what the reference samples, rebuilds on its 29 proposals
    /// after history 120 and factors 120 + 29 * 120 rows (a refit per
    /// proposal: 10,550).
    #[test]
    fn a_budget_150_run_matches_the_reference_and_rebuilds_only_when_the_window_moves() {
        for work in run_against_the_reference(150) {
            for &(history, rebuilt, rows) in &work {
                assert_eq!(rebuilt, history > MAX_GP, "history {history}");
                if rebuilt {
                    assert_eq!(rows, MAX_GP);
                }
            }
            assert_eq!(work.iter().filter(|&&(_, rebuilt, _)| rebuilt).count(), 29);
            assert_eq!(work.iter().map(|&(_, _, rows)| rows).sum::<usize>(), 3_600);
            let refit: usize = work
                .iter()
                .map(|&(history, _, _)| history.min(MAX_GP))
                .sum();
            assert_eq!(refit, 10_550);
        }
    }
}
