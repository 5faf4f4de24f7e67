//! Costs, constraints, evaluations, and exploration traces — the common
//! vocabulary shared by Explainable-DSE and every baseline optimizer.

use crate::space::DesignPoint;
use accel_model::ExecutionProfile;
use edse_telemetry::{Collector, IterationRecord};
use serde::{Deserialize, Serialize};

/// An inequality constraint `value <= threshold`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    /// Human-readable name (`"area_mm2"`, `"power_w"`,
    /// `"latency_ms:ResNet18"`, ...).
    pub name: String,
    /// The threshold the cost must stay at or below.
    pub threshold: f64,
}

impl Constraint {
    /// Builds a constraint.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not positive.
    pub fn new(name: impl Into<String>, threshold: f64) -> Self {
        assert!(threshold > 0.0, "constraint thresholds must be positive");
        Self {
            name: name.into(),
            threshold,
        }
    }

    /// Fraction of the budget a value consumes (`value / threshold`; can
    /// exceed 1 when violated).
    pub fn utilization(&self, value: f64) -> f64 {
        value / self.threshold
    }

    /// Whether `value` satisfies the constraint.
    pub fn satisfied(&self, value: f64) -> bool {
        value <= self.threshold
    }
}

/// Per-layer (sub-function) evaluation result: the cost contribution and the
/// execution characteristics that bottleneck analysis consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerEval {
    /// Representative layer name.
    pub name: String,
    /// Which workload the layer belongs to.
    pub model: String,
    /// How many times this unique shape occurs in the workload.
    pub count: u64,
    /// Execution profile of one occurrence. For unmappable layers
    /// (`mappable == false`) this is the *diagnostic* relaxed-NoC profile
    /// when one exists, so bottleneck analysis can still explain the
    /// incompatibility.
    pub profile: Option<ExecutionProfile>,
    /// Whether a feasible mapping exists on this hardware.
    pub mappable: bool,
    /// Weighted latency contribution in milliseconds (`count` occurrences;
    /// infinite when unmappable).
    pub latency_ms: f64,
}

/// Full evaluation of one design point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Objective value (total latency over all target workloads, ms).
    ///
    /// For designs where some layer has no feasible mapping
    /// (`mappable == false`), this is the *diagnostic* latency from the
    /// relaxed-NoC profiles — a finite surrogate that preserves a search
    /// gradient toward mappability — or infinity when no diagnostic
    /// exists. Such designs are never feasible.
    pub objective: f64,
    /// Whether every layer of every workload has a feasible mapping.
    pub mappable: bool,
    /// Constraint cost values, aligned with the problem's constraint list.
    pub constraint_values: Vec<f64>,
    /// Per-unique-layer results across all target workloads.
    pub layers: Vec<LayerEval>,
    /// Die area, mm^2.
    pub area_mm2: f64,
    /// Peak power, watts.
    pub power_w: f64,
    /// Total inference energy across workloads, millijoules.
    pub energy_mj: f64,
}

impl Evaluation {
    /// The infeasible stand-in for a point whose evaluation failed
    /// permanently at the fault boundary: infinite objective and
    /// `constraints` infinite constraint values, no layers — never
    /// feasible, never an incumbent.
    pub fn failed(constraints: usize) -> Evaluation {
        Evaluation {
            objective: f64::INFINITY,
            mappable: false,
            constraint_values: vec![f64::INFINITY; constraints],
            layers: Vec::new(),
            area_mm2: f64::INFINITY,
            power_w: f64::INFINITY,
            energy_mj: 0.0,
        }
    }

    /// Whether the design is mappable and every constraint is satisfied.
    pub fn feasible(&self, constraints: &[Constraint]) -> bool {
        self.mappable
            && self.objective.is_finite()
            && self
                .constraint_values
                .iter()
                .zip(constraints)
                .all(|(v, c)| c.satisfied(*v))
    }

    /// The constraints-budget of §4.6: mean utilization across constraints.
    pub fn constraint_budget(&self, constraints: &[Constraint]) -> f64 {
        constraint_budget(&self.constraint_values, constraints)
    }

    /// Number of violated constraints.
    pub fn violations(&self, constraints: &[Constraint]) -> usize {
        self.constraint_values
            .iter()
            .zip(constraints)
            .filter(|(v, c)| !c.satisfied(**v))
            .count()
    }
}

/// Mean utilization of constraint `values` across `constraints`.
fn constraint_budget(values: &[f64], constraints: &[Constraint]) -> f64 {
    if constraints.is_empty() {
        return 0.0;
    }
    values
        .iter()
        .zip(constraints)
        .map(|(v, c)| c.utilization(*v))
        .sum::<f64>()
        / constraints.len() as f64
}

/// One evaluated sample in an exploration trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// The evaluated design point.
    pub point: DesignPoint,
    /// Objective value.
    pub objective: f64,
    /// Constraint cost values.
    pub constraint_values: Vec<f64>,
    /// Whether all constraints were met.
    pub feasible: bool,
}

impl Sample {
    /// The sample of `point`, evaluated as `eval` under `constraints`.
    pub fn new(point: DesignPoint, eval: &Evaluation, constraints: &[Constraint]) -> Sample {
        Sample {
            point,
            objective: eval.objective,
            constraint_values: eval.constraint_values.clone(),
            feasible: eval.feasible(constraints),
        }
    }

    /// The constraints-budget of §4.6, as
    /// [`Evaluation::constraint_budget`] computes it.
    pub fn constraint_budget(&self, constraints: &[Constraint]) -> f64 {
        constraint_budget(&self.constraint_values, constraints)
    }
}

/// A complete exploration trace: every evaluated sample in order, plus
/// timing. All DSE techniques (explainable and baselines) report this
/// format so figures compare like with like.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Technique name, e.g. `"explainable"` or `"random-fixdf"`.
    pub technique: String,
    /// Samples in evaluation order.
    pub samples: Vec<Sample>,
    /// Wall-clock search time in seconds.
    pub wall_seconds: f64,
}

impl Trace {
    /// Creates an empty trace for a technique.
    pub fn new(technique: impl Into<String>) -> Self {
        Self {
            technique: technique.into(),
            samples: Vec::new(),
            wall_seconds: 0.0,
        }
    }

    /// Number of evaluations performed.
    pub fn evaluations(&self) -> usize {
        self.samples.len()
    }

    /// Emits one telemetry [`IterationRecord`] per sample at index `start`
    /// and later (the incumbent tracking still scans the full prefix), so a
    /// stepwise driver streams records without repeating the prefix.
    ///
    /// This is how black-box baselines produce iteration records that line
    /// up with the explainable DSE's live ones: each evaluated sample is
    /// one iteration (`proposed = evaluated = 1`), the incumbent is the
    /// sample itself, and the bottleneck fields stay empty — a black box
    /// has no explanation to offer, which is precisely the contrast a
    /// trace comparison should show.
    pub fn emit_iteration_records_from(&self, collector: &Collector, budget: usize, start: usize) {
        if !collector.active() {
            return;
        }
        let mut best = f64::INFINITY;
        for (i, s) in self.samples.iter().enumerate() {
            let improved = s.feasible && s.objective < best;
            if improved {
                best = s.objective;
            }
            if i < start {
                continue;
            }
            collector.iteration(IterationRecord {
                technique: self.technique.clone(),
                iteration: i as u64,
                incumbent_objective: s.objective,
                best_objective: best.is_finite().then_some(best),
                bottleneck: None,
                scaling: None,
                layer_contributions: Vec::new(),
                proposed: 1,
                deduped: 0,
                evaluated: 1,
                budget_remaining: budget.saturating_sub(i + 1) as u64,
                decision: match (improved, s.feasible) {
                    (true, _) => "new best feasible sample".to_string(),
                    (false, true) => "feasible, not an improvement".to_string(),
                    (false, false) => "infeasible sample".to_string(),
                },
            });
        }
    }

    /// The best (lowest-objective) feasible sample, if any.
    pub fn best_feasible(&self) -> Option<&Sample> {
        self.samples
            .iter()
            .filter(|s| s.feasible && s.objective.is_finite())
            .min_by(|a, b| a.objective.partial_cmp(&b.objective).unwrap())
    }

    /// Running best-feasible objective after each evaluation
    /// (`f64::INFINITY` before the first feasible sample).
    pub fn convergence_curve(&self) -> Vec<f64> {
        let mut best = f64::INFINITY;
        self.samples
            .iter()
            .map(|s| {
                if s.feasible && s.objective < best {
                    best = s.objective;
                }
                best
            })
            .collect()
    }

    /// Fraction of evaluated samples that were feasible.
    pub fn feasibility_rate(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().filter(|s| s.feasible).count() as f64 / self.samples.len() as f64
    }

    /// Fraction of samples satisfying only the first `k` constraints
    /// (e.g. `k = 2` for area+power feasibility as in Fig. 12).
    pub fn feasibility_rate_first(&self, k: usize, constraints: &[Constraint]) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let ok = self
            .samples
            .iter()
            .filter(|s| {
                s.constraint_values
                    .iter()
                    .zip(constraints)
                    .take(k)
                    .all(|(v, c)| c.satisfied(*v))
            })
            .count();
        ok as f64 / self.samples.len() as f64
    }

    /// Renders the trace as CSV (`iteration,objective,feasible,<constraint
    /// names...>`), for plotting outside the harness.
    pub fn to_csv(&self, constraints: &[Constraint]) -> String {
        let mut out = String::from("iteration,objective,feasible");
        for c in constraints {
            out.push(',');
            out.push_str(&c.name);
        }
        out.push('\n');
        for (i, s) in self.samples.iter().enumerate() {
            out.push_str(&format!("{},{},{}", i + 1, s.objective, s.feasible));
            for v in &s.constraint_values {
                out.push_str(&format!(",{v}"));
            }
            out.push('\n');
        }
        out
    }

    /// One-line summary for logs: evaluations, best, feasibility, time.
    pub fn summary(&self) -> String {
        let best = self
            .best_feasible()
            .map(|s| format!("{:.4}", s.objective))
            .unwrap_or_else(|| "-".into());
        format!(
            "{}: {} evals, best {}, {:.1}% feasible, {:.2}s",
            self.technique,
            self.evaluations(),
            best,
            self.feasibility_rate() * 100.0,
            self.wall_seconds
        )
    }

    /// The Pareto-optimal samples over `(objective, constraint_values[axis])`
    /// — e.g. `axis = 0` for the latency/area front, `axis = 1` for
    /// latency/power. Only feasible samples participate; ties keep the
    /// first occurrence. Returned in ascending objective order.
    ///
    /// This supports the paper's §4.2 note that the framework extends to
    /// multiple objectives through the acquisition layer: the trace is
    /// sufficient to extract trade-off fronts post hoc.
    pub fn pareto_front(&self, axis: usize) -> Vec<&Sample> {
        let mut feasible: Vec<&Sample> = self
            .samples
            .iter()
            .filter(|s| s.feasible && s.constraint_values.len() > axis)
            .collect();
        feasible.sort_by(|a, b| {
            a.objective.partial_cmp(&b.objective).unwrap().then(
                a.constraint_values[axis]
                    .partial_cmp(&b.constraint_values[axis])
                    .unwrap(),
            )
        });
        let mut front: Vec<&Sample> = Vec::new();
        let mut best_axis = f64::INFINITY;
        for s in feasible {
            if s.constraint_values[axis] < best_axis {
                best_axis = s.constraint_values[axis];
                front.push(s);
            }
        }
        front
    }

    /// Geometric-mean per-acquisition objective reduction over successive
    /// feasible best-so-far improvements (the paper's Table-3 metric):
    /// returns e.g. `1.30` when every improving acquisition reduced the
    /// objective by 30 % on average, or `None` with fewer than two
    /// feasible samples.
    pub fn geomean_reduction(&self) -> Option<f64> {
        let feasible: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.feasible && s.objective.is_finite())
            .map(|s| s.objective)
            .collect();
        if feasible.len() < 2 {
            return None;
        }
        let ratios: Vec<f64> = feasible.windows(2).map(|w| w[0] / w[1]).collect();
        let log_sum: f64 = ratios.iter().map(|r| r.ln()).sum();
        Some((log_sum / ratios.len() as f64).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(obj: f64, feasible: bool) -> Sample {
        Sample {
            point: DesignPoint::new(vec![0]),
            objective: obj,
            constraint_values: vec![if feasible { 0.5 } else { 2.0 }],
            feasible,
        }
    }

    #[test]
    fn constraint_math() {
        let c = Constraint::new("area", 75.0);
        assert!(c.satisfied(75.0));
        assert!(!c.satisfied(75.1));
        assert!((c.utilization(37.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn trace_best_feasible_ignores_infeasible() {
        let mut t = Trace::new("test");
        t.samples.push(sample(1.0, false));
        t.samples.push(sample(5.0, true));
        t.samples.push(sample(3.0, true));
        assert_eq!(t.best_feasible().unwrap().objective, 3.0);
    }

    #[test]
    fn convergence_curve_is_monotone() {
        let mut t = Trace::new("test");
        for (o, f) in [
            (9.0, true),
            (7.0, true),
            (8.0, true),
            (2.0, false),
            (3.0, true),
        ] {
            t.samples.push(sample(o, f));
        }
        let c = t.convergence_curve();
        assert_eq!(c, vec![9.0, 7.0, 7.0, 7.0, 3.0]);
        assert!(c.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn feasibility_rates() {
        let mut t = Trace::new("test");
        t.samples.push(sample(1.0, true));
        t.samples.push(sample(1.0, false));
        assert!((t.feasibility_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn geomean_reduction_matches_hand_computation() {
        let mut t = Trace::new("test");
        for o in [8.0, 4.0, 2.0] {
            t.samples.push(sample(o, true));
        }
        // Two halvings: geomean ratio 2.0.
        assert!((t.geomean_reduction().unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn csv_has_header_and_one_row_per_sample() {
        let mut t = Trace::new("x");
        t.samples.push(sample(1.5, true));
        t.samples.push(sample(2.5, false));
        let constraints = vec![Constraint::new("area", 75.0)];
        let csv = t.to_csv(&constraints);
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("iteration,objective,feasible,area"));
        assert!(lines[1].starts_with("1,1.5,true"));
    }

    #[test]
    fn summary_mentions_the_technique_and_best() {
        let mut t = Trace::new("demo");
        t.samples.push(sample(3.25, true));
        let s = t.summary();
        assert!(s.contains("demo") && s.contains("3.25"), "{s}");
    }

    #[test]
    fn pareto_front_is_nondominated() {
        let mut t = Trace::new("test");
        let mk = |o: f64, a: f64| Sample {
            point: DesignPoint::new(vec![0]),
            objective: o,
            constraint_values: vec![a],
            feasible: true,
        };
        t.samples.push(mk(10.0, 1.0)); // on the front (cheapest area)
        t.samples.push(mk(5.0, 2.0)); // on the front
        t.samples.push(mk(7.0, 3.0)); // dominated by (5, 2)
        t.samples.push(mk(2.0, 9.0)); // on the front (best objective)
        let front = t.pareto_front(0);
        let objs: Vec<f64> = front.iter().map(|s| s.objective).collect();
        assert_eq!(objs, vec![2.0, 5.0, 10.0]);
        // No member dominates another.
        for a in &front {
            for b in &front {
                if std::ptr::eq(*a, *b) {
                    continue;
                }
                let dominates =
                    a.objective <= b.objective && a.constraint_values[0] <= b.constraint_values[0];
                assert!(!dominates, "front member dominated");
            }
        }
    }

    #[test]
    fn budget_is_mean_utilization() {
        let constraints = vec![Constraint::new("a", 10.0), Constraint::new("b", 100.0)];
        let e = Evaluation {
            objective: 1.0,
            mappable: true,
            constraint_values: vec![5.0, 50.0],
            layers: vec![],
            area_mm2: 0.0,
            power_w: 0.0,
            energy_mj: 0.0,
        };
        assert!((e.constraint_budget(&constraints) - 0.5).abs() < 1e-12);
        assert!(e.feasible(&constraints));
        assert_eq!(e.violations(&constraints), 0);
    }
}
