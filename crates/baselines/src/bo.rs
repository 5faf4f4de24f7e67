//! Bayesian-optimization baselines: a vanilla GP-EI optimizer and a
//! HyperMapper-2.0-style constrained variant whose acquisition multiplies
//! expected improvement by a feasibility probability.

use crate::{random_point, DseTechnique, EvalResult, Problem};
use edse_core::cost::Sample;
use edse_core::space::{DesignPoint, DesignSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Gaussian process with an RBF kernel over normalized parameter indices.
///
/// Training is `O(n^3)` in the number of observations; callers subsample
/// their history to keep `n` modest (as practical BO packages do).
struct Gp {
    x: Vec<Vec<f64>>,
    alpha: Vec<f64>,
    chol: Vec<Vec<f64>>,
    length_scale: f64,
    noise: f64,
    y_mean: f64,
    y_std: f64,
}

impl Gp {
    #[allow(clippy::needless_range_loop)] // symmetric-matrix index pairs
    fn fit(x: Vec<Vec<f64>>, y: &[f64]) -> Option<Gp> {
        let n = x.len();
        if n == 0 {
            return None;
        }
        let y_mean = y.iter().sum::<f64>() / n as f64;
        let y_std = (y.iter().map(|v| (v - y_mean).powi(2)).sum::<f64>() / n as f64)
            .sqrt()
            .max(1e-9);
        let yn: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_std).collect();
        let length_scale = 0.3;
        let noise = 1e-4;

        // K + noise I, then Cholesky.
        let mut k = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..=i {
                let v = rbf(&x[i], &x[j], length_scale);
                k[i][j] = v;
                k[j][i] = v;
            }
            k[i][i] += noise;
        }
        let chol = cholesky(&k)?;
        let alpha = chol_solve(&chol, &yn);
        Some(Gp {
            x,
            alpha,
            chol,
            length_scale,
            noise,
            y_mean,
            y_std,
        })
    }

    /// Posterior mean and standard deviation at a point.
    fn predict(&self, q: &[f64]) -> (f64, f64) {
        let kstar: Vec<f64> = self
            .x
            .iter()
            .map(|xi| rbf(xi, q, self.length_scale))
            .collect();
        let mean_n: f64 = kstar.iter().zip(&self.alpha).map(|(k, a)| k * a).sum();
        // v = L^-1 k*; var = k(q,q) + noise - v.v
        let v = forward_sub(&self.chol, &kstar);
        let var = (1.0 + self.noise - v.iter().map(|a| a * a).sum::<f64>()).max(1e-12);
        (mean_n * self.y_std + self.y_mean, var.sqrt() * self.y_std)
    }
}

fn rbf(a: &[f64], b: &[f64], ls: f64) -> f64 {
    let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum();
    (-d2 / (2.0 * ls * ls)).exp()
}

#[allow(clippy::needless_range_loop)] // triangular index pairs
fn cholesky(k: &[Vec<f64>]) -> Option<Vec<Vec<f64>>> {
    let n = k.len();
    let mut l = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = k[i][j];
            for t in 0..j {
                sum -= l[i][t] * l[j][t];
            }
            if i == j {
                if sum <= 0.0 {
                    return None;
                }
                l[i][j] = sum.sqrt();
            } else {
                l[i][j] = sum / l[j][j];
            }
        }
    }
    Some(l)
}

fn forward_sub(l: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
    let n = l.len();
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for j in 0..i {
            sum -= l[i][j] * y[j];
        }
        y[i] = sum / l[i][i];
    }
    y
}

fn chol_solve(l: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
    let n = l.len();
    let y = forward_sub(l, b);
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for j in (i + 1)..n {
            sum -= l[j][i] * x[j];
        }
        x[i] = sum / l[i][i];
    }
    x
}

fn normalize(space: &DesignSpace, p: &DesignPoint) -> Vec<f64> {
    space
        .params()
        .iter()
        .enumerate()
        .map(|(i, def)| {
            if def.len() <= 1 {
                0.0
            } else {
                p.index(i) as f64 / (def.len() - 1) as f64
            }
        })
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
        // Subsample history for the GP (keep the most recent + best).
        const MAX_GP: usize = 120;
        let skip = self.xs.len().saturating_sub(MAX_GP);
        let gp = Gp::fit(self.xs[skip..].to_vec(), &self.ys[skip..]);
        let best = self.ys.iter().cloned().fold(f64::INFINITY, f64::min);

        let pool = 256;
        let mut best_cand: Option<(DesignPoint, f64)> = None;
        for _ in 0..pool {
            let cand = random_point(space, &mut self.rng);
            let q = normalize(space, &cand);
            let score = match &gp {
                Some(gp) => {
                    let (m, s) = gp.predict(&q);
                    let mut ei = expected_improvement(m, s, best);
                    if self.feasibility_aware {
                        // k-NN feasibility probability (HyperMapper's
                        // feasibility classifier stand-in).
                        let mut dists: Vec<(f64, bool)> = self
                            .xs
                            .iter()
                            .zip(&self.feas)
                            .map(|(x, f)| {
                                let d: f64 = x.iter().zip(&q).map(|(a, b)| (a - b).powi(2)).sum();
                                (d, *f)
                            })
                            .collect();
                        dists.sort_by(|a, b| {
                            a.0.partial_cmp(&b.0).expect("distances are never NaN")
                        });
                        let k = dists.len().min(7);
                        let p_feas =
                            dists[..k].iter().filter(|(_, f)| *f).count() as f64 / k as f64;
                        ei *= p_feas.max(0.05);
                    }
                    ei
                }
                None => 1.0,
            };
            if best_cand.as_ref().is_none_or(|(_, s)| score > *s) {
                best_cand = Some((cand, score));
            }
        }
        let (cand, _) = best_cand.expect("pool non-empty");
        Some(vec![cand])
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
mod tests {
    use super::*;

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
}
