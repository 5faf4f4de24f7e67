//! One fault rule for every technique: a permanently failed evaluation is
//! observed by the technique that proposed it, but it is never a sample.

use baselines::{by_name, DseTechnique, EvalResult, Problem, RandomSearch};
use edse_core::cost::Sample;
use edse_core::evaluate::{CodesignEvaluator, EvalEngine};
use edse_core::space::{edge_space, DesignPoint};
use edse_core::Explanation;
use edse_telemetry::Collector;
use mapper::{FaultInjector, FixedMapper};
use std::collections::HashSet;
use std::sync::OnceLock;
use workloads::zoo;

/// Swallows the injected mapping faults' panic messages.
fn silence_injected_faults() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or("");
            if !msg.contains("injected mapping fault") {
                prev(info);
            }
        }));
    });
}

/// Records every point its technique proposes and how each one's
/// evaluation came out.
struct Recorder<'t> {
    inner: Box<dyn DseTechnique + 't>,
    proposed: Vec<DesignPoint>,
    observed: Vec<(DesignPoint, bool)>,
}

impl DseTechnique for Recorder<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn propose(&mut self, problem: &Problem) -> Option<Vec<DesignPoint>> {
        let batch = self.inner.propose(problem)?;
        self.proposed.extend(batch.iter().cloned());
        Some(batch)
    }

    fn observe(&mut self, problem: &Problem, samples: &[Sample], results: Vec<EvalResult>) {
        assert_eq!(samples.len(), results.len());
        for (sample, result) in samples.iter().zip(&results) {
            if result.is_err() {
                assert!(!sample.feasible && sample.objective.is_infinite());
            }
            self.observed.push((sample.point.clone(), result.is_ok()));
        }
        self.inner.observe(problem, samples, results)
    }

    fn attach_telemetry(&mut self, telemetry: &Collector) -> bool {
        self.inner.attach_telemetry(telemetry)
    }

    fn step_span(&self) -> String {
        self.inner.step_span()
    }

    fn explanation(&self) -> Option<Explanation> {
        self.inner.explanation()
    }
}

#[test]
fn failed_evaluations_are_observed_but_never_samples() {
    silence_injected_faults();
    let budget = 40;
    let techniques: [(&str, Box<dyn DseTechnique>); 2] = [
        ("random", Box::new(RandomSearch::new(5))),
        (
            "explainable",
            by_name("explainable", 5).expect("registered"),
        ),
    ];
    for (name, technique) in techniques {
        let evaluator = CodesignEvaluator::new(
            edge_space(),
            vec![zoo::resnet18()],
            FaultInjector::new(FixedMapper, 11, 0.05),
        )
        .with_engine(EvalEngine::serial());
        let mut recorder = Recorder {
            inner: technique,
            proposed: Vec::new(),
            observed: Vec::new(),
        };
        let trace = recorder.run(&evaluator, budget);

        let observed: Vec<&DesignPoint> = recorder.observed.iter().map(|(p, _)| p).collect();
        assert_eq!(
            observed,
            recorder.proposed.iter().collect::<Vec<_>>(),
            "{name}: every proposal is observed, in order"
        );
        let failed: HashSet<&DesignPoint> = recorder
            .observed
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|(p, _)| p)
            .collect();
        assert!(!failed.is_empty(), "{name}: the injector must bite");
        assert!(
            trace.samples.iter().all(|s| !failed.contains(&s.point)),
            "{name}: a failed point is never a sample"
        );
        let succeeded: Vec<&DesignPoint> = recorder
            .observed
            .iter()
            .filter(|(_, ok)| *ok)
            .map(|(p, _)| p)
            .collect();
        assert_eq!(
            trace.samples.iter().map(|s| &s.point).collect::<Vec<_>>(),
            succeeded,
            "{name}: every successful evaluation is a sample"
        );
        assert!(
            trace.evaluations() <= budget,
            "{name}: {} samples over a budget of {budget}",
            trace.evaluations()
        );
    }
}
