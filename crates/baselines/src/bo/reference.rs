//! The straight-line Gaussian-process surrogate, compiled only for tests.
//!
//! [`Gp`] and [`ReferenceBo`] are the original bodies of the BO baselines:
//! every proposal refits the GP over its window from scratch (`O(n^3)`),
//! then draws and scores the candidate pool one point at a time, with its
//! own kernel vector and forward substitution per candidate and, for
//! HyperMapper, a stable sort of every distance. They are the oracle the
//! incremental factor and the batched scorer in `bo.rs` are pinned to, bit
//! for bit. They share the expected-improvement and normalization helpers
//! with the production path but none of its factor or batching.

use super::{expected_improvement, normalize, LENGTH_SCALE, MAX_GP, NOISE, POOL};
use crate::{random_point, DseTechnique, EvalResult, Problem};
use edse_core::cost::Sample;
use edse_core::space::DesignPoint;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Gaussian process with an RBF kernel over normalized parameter indices,
/// fitted from scratch.
pub(super) struct Gp {
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
    pub(super) fn fit(x: Vec<Vec<f64>>, y: &[f64]) -> Option<Gp> {
        let n = x.len();
        if n == 0 {
            return None;
        }
        let y_mean = y.iter().sum::<f64>() / n as f64;
        let y_std = (y.iter().map(|v| (v - y_mean).powi(2)).sum::<f64>() / n as f64)
            .sqrt()
            .max(1e-9);
        let yn: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_std).collect();
        let length_scale = LENGTH_SCALE;
        let noise = NOISE;

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
    pub(super) fn predict(&self, q: &[f64]) -> (f64, f64) {
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
pub(super) fn cholesky(k: &[Vec<f64>]) -> Option<Vec<Vec<f64>>> {
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

pub(super) fn chol_solve(l: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
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

/// One candidate's acquisition score: expected improvement under `gp`
/// (1.0 when the window has no fit), times the k-NN feasibility vote over
/// the whole history when `feasibility_aware`.
fn score(
    gp: Option<&Gp>,
    xs: &[Vec<f64>],
    feas: &[bool],
    feasibility_aware: bool,
    best: f64,
    q: &[f64],
) -> f64 {
    match gp {
        Some(gp) => {
            let (m, s) = gp.predict(q);
            let mut ei = expected_improvement(m, s, best);
            if feasibility_aware {
                // k-NN feasibility probability (HyperMapper's
                // feasibility classifier stand-in).
                let mut dists: Vec<(f64, bool)> = xs
                    .iter()
                    .zip(feas)
                    .map(|(x, f)| {
                        let d: f64 = x.iter().zip(q).map(|(a, b)| (a - b).powi(2)).sum();
                        (d, *f)
                    })
                    .collect();
                dists.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("distances are never NaN"));
                let k = dists.len().min(7);
                let p_feas = dists[..k].iter().filter(|(_, f)| *f).count() as f64 / k as f64;
                ei *= p_feas.max(0.05);
            }
            ei
        }
        None => 1.0,
    }
}

/// Every candidate's score after a from-scratch fit over the window of
/// history `(xs, ys, feas)`.
pub(super) fn scores(
    xs: &[Vec<f64>],
    ys: &[f64],
    feas: &[bool],
    feasibility_aware: bool,
    candidates: &[Vec<f64>],
) -> Vec<f64> {
    let skip = xs.len().saturating_sub(MAX_GP);
    let gp = Gp::fit(xs[skip..].to_vec(), &ys[skip..]);
    let best = ys.iter().cloned().fold(f64::INFINITY, f64::min);
    candidates
        .iter()
        .map(|q| score(gp.as_ref(), xs, feas, feasibility_aware, best, q))
        .collect()
}

/// The BO state machine as it was before the incremental surrogate: a
/// refit per proposal and a candidate-at-a-time pool.
pub(super) struct ReferenceBo {
    rng: StdRng,
    feasibility_aware: bool,
    started: bool,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    feas: Vec<bool>,
}

impl ReferenceBo {
    pub(super) fn new(seed: u64, feasibility_aware: bool) -> ReferenceBo {
        ReferenceBo {
            rng: StdRng::seed_from_u64(seed),
            feasibility_aware,
            started: false,
            xs: Vec::new(),
            ys: Vec::new(),
            feas: Vec::new(),
        }
    }
}

impl DseTechnique for ReferenceBo {
    fn name(&self) -> String {
        "reference-bo".into()
    }

    fn propose(&mut self, problem: &Problem) -> Option<Vec<DesignPoint>> {
        let space = problem.space;
        if !std::mem::replace(&mut self.started, true) {
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
        let skip = self.xs.len().saturating_sub(MAX_GP);
        let gp = Gp::fit(self.xs[skip..].to_vec(), &self.ys[skip..]);
        let best = self.ys.iter().cloned().fold(f64::INFINITY, f64::min);

        let mut best_cand: Option<(DesignPoint, f64)> = None;
        for _ in 0..POOL {
            let cand = random_point(space, &mut self.rng);
            let q = normalize(space, &cand);
            let score = score(
                gp.as_ref(),
                &self.xs,
                &self.feas,
                self.feasibility_aware,
                best,
                &q,
            );
            if best_cand.as_ref().is_none_or(|(_, s)| score > *s) {
                best_cand = Some((cand, score));
            }
        }
        let (cand, _) = best_cand.expect("pool non-empty");
        Some(vec![cand])
    }

    fn observe(&mut self, problem: &Problem, samples: &[Sample], _: Vec<EvalResult>) {
        for sample in samples {
            let cost = problem.cost(sample);
            self.xs.push(normalize(problem.space, &sample.point));
            self.ys.push(cost.max(1e-12).ln());
            self.feas.push(cost < 1e12);
        }
    }
}
