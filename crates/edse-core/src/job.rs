//! [`JobSpec`]: the one declarative description of a DSE job.
//!
//! One struct describes a job for every front end: it is the `POST /jobs`
//! request body of `edse-serve` (via the zero-dependency JSON layer) and
//! the backing store of the bench harness's `BenchArgs`. Anything a job
//! needs that is *not* derivable from the evaluator itself lives here.
//!
//! A spec is the whole identity of a search: the same spec run again over
//! the same disk tier resumes it, so there is no checkpoint member.

use edse_telemetry::json::{self, Json};

/// A complete, serializable description of one DSE job: which technique to
/// run, over which models and space, with which budget and knobs. Running
/// it again over the disk tier of an interrupted run resumes that run.
///
/// JSON (de)serialization goes through the telemetry crate's zero-dep JSON
/// layer ([`JobSpec::to_json`] / [`JobSpec::from_json`]); every field is
/// optional in the JSON form and falls back to [`JobSpec::default`], and
/// a member that names no field is an error.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Technique label: `"explainable"` or one of the baseline labels
    /// (`"grid"`, `"random"`, `"annealing"`, `"genetic"`, `"bayesian"`,
    /// `"hypermapper"`, `"rl"`).
    pub technique: String,
    /// Evaluation budget (unique point evaluations).
    pub budget: usize,
    /// Mapping-search trials per layer for stochastic mappers.
    pub map_trials: usize,
    /// RNG seed shared by technique and mapper.
    pub seed: u64,
    /// Workload model names (the bench harness's `zoo` names, e.g.
    /// `"resnet18"`); empty means the caller's default set.
    pub models: Vec<String>,
    /// Design-space label: `"edge"`, `"datacenter"`, or `"toy"` (the
    /// Fig. 4 single-layer space).
    pub space: String,
    /// Mapper label: `"fixed"`, `"random"`, or `"linear"`.
    pub mapper: String,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            technique: "explainable".to_string(),
            budget: 100,
            map_trials: 1000,
            seed: 7,
            models: Vec::new(),
            space: "edge".to_string(),
            mapper: "fixed".to_string(),
        }
    }
}

impl JobSpec {
    /// Serializes the spec as a JSON object (the `POST /jobs` body shape);
    /// the output round-trips through [`JobSpec::from_json`] unchanged.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("technique", Json::Str(self.technique.clone())),
            ("budget", Json::Num(self.budget as f64)),
            ("map_trials", Json::Num(self.map_trials as f64)),
            ("seed", Json::Num(self.seed as f64)),
            (
                "models",
                Json::Arr(self.models.iter().map(|m| Json::Str(m.clone())).collect()),
            ),
            ("space", Json::Str(self.space.clone())),
            ("mapper", Json::Str(self.mapper.clone())),
        ])
    }

    /// Serializes the spec as a single-line JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_line()
    }

    /// Builds a spec from a parsed JSON object. Missing or `null` members
    /// fall back to [`JobSpec::default`]; a member that names no field,
    /// or a present member of the wrong type, is an error (a silently
    /// ignored typo in a job submission would run the wrong search).
    pub fn from_json(value: &Json) -> Result<JobSpec, String> {
        let Json::Obj(members) = value else {
            return Err("job spec must be a JSON object".to_string());
        };
        if let Some((key, _)) = members.iter().find(|(k, _)| !FIELDS.contains(&k.as_str())) {
            return Err(format!(
                "unknown job spec member `{key}` (expected one of {})",
                FIELDS.join(", ")
            ));
        }
        let d = JobSpec::default();
        Ok(JobSpec {
            technique: opt(value, "technique", req_str)?.unwrap_or(d.technique),
            budget: opt(value, "budget", req_usize)?.unwrap_or(d.budget),
            map_trials: opt(value, "map_trials", req_usize)?.unwrap_or(d.map_trials),
            seed: opt(value, "seed", req_u64)?.unwrap_or(d.seed),
            models: match opt(value, "models", req_arr)? {
                Some(items) => items
                    .iter()
                    .map(|m| req_str(m, "models[..]"))
                    .collect::<Result<_, _>>()?,
                None => d.models,
            },
            space: opt(value, "space", req_str)?.unwrap_or(d.space),
            mapper: opt(value, "mapper", req_str)?.unwrap_or(d.mapper),
        })
    }

    /// Parses a spec from JSON text (e.g. an HTTP request body).
    pub fn from_json_str(text: &str) -> Result<JobSpec, String> {
        let value = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        JobSpec::from_json(&value)
    }
}

/// The JSON members [`JobSpec::from_json`] reads, one per field.
const FIELDS: [&str; 7] = [
    "technique",
    "budget",
    "map_trials",
    "seed",
    "models",
    "space",
    "mapper",
];

// The member readers every document decoder of this crate shares (the job
// spec, the design space and the model import). A missing or `null`
// member takes its default, a present member of the wrong type is an error
// naming it, and an integer is read only in RFC 8259's interoperable range
// (see `Json::as_u64`).

/// Reads member `key` of `obj` with `read`: `None` when the member is
/// absent or `null` (or `obj` is not an object).
pub(crate) fn opt<'a, T>(
    obj: &'a Json,
    key: &str,
    read: impl FnOnce(&'a Json, &str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    obj.get(key)
        .filter(|v| !matches!(v, Json::Null))
        .map(|v| read(v, key))
        .transpose()
}

pub(crate) fn req_str(value: &Json, key: &str) -> Result<String, String> {
    value
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("`{key}` must be a string"))
}

pub(crate) fn req_u64(value: &Json, key: &str) -> Result<u64, String> {
    value
        .as_u64()
        .ok_or_else(|| format!("`{key}` must be a non-negative integer below 2^53"))
}

pub(crate) fn req_usize(value: &Json, key: &str) -> Result<usize, String> {
    value
        .as_u64()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| format!("`{key}` must be a non-negative integer below 2^53"))
}

pub(crate) fn req_f64(value: &Json, key: &str) -> Result<f64, String> {
    value
        .as_f64()
        .ok_or_else(|| format!("`{key}` must be a number"))
}

pub(crate) fn req_arr<'a>(value: &'a Json, key: &str) -> Result<&'a [Json], String> {
    value
        .as_arr()
        .ok_or_else(|| format!("`{key}` must be an array"))
}

pub(crate) fn req_obj<'a>(value: &'a Json, key: &str) -> Result<&'a Json, String> {
    match value {
        Json::Obj(_) => Ok(value),
        _ => Err(format!("`{key}` must be an object")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_round_trips_through_json() {
        let spec = JobSpec::default();
        let back = JobSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn full_spec_round_trips_through_json() {
        let spec = JobSpec {
            technique: "random".to_string(),
            budget: 42,
            map_trials: 17,
            seed: 99,
            models: vec!["resnet18".to_string(), "mobilenet_v2".to_string()],
            space: "toy".to_string(),
            mapper: "random".to_string(),
        };
        let back = JobSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn missing_members_fall_back_to_defaults() {
        let spec = JobSpec::from_json_str(r#"{"technique":"grid","budget":5}"#).unwrap();
        assert_eq!(spec.technique, "grid");
        assert_eq!(spec.budget, 5);
        assert_eq!(spec.seed, JobSpec::default().seed);
    }

    #[test]
    fn wrong_member_type_is_an_error() {
        assert!(JobSpec::from_json_str(r#"{"budget":"lots"}"#).is_err());
        assert!(JobSpec::from_json_str(r#"{"models":3}"#).is_err());
        assert!(JobSpec::from_json_str(r#"[1,2]"#).is_err());
    }

    #[test]
    fn unknown_members_are_errors_that_name_the_member() {
        // A typo, the two members that were once fields but that nothing
        // read, and the checkpoint members: a rerun over the same disk tier
        // is the resume, so a body that still asks for a checkpoint file
        // must not run as if it had one.
        for (body, member) in [
            (r#"{"budjet":5}"#, "budjet"),
            (r#"{"threads":4}"#, "threads"),
            (r#"{"cache_dir":"/x"}"#, "cache_dir"),
            (r#"{"checkpoint_every":1}"#, "checkpoint_every"),
            (r#"{"checkpoint":"job1.snapshot"}"#, "checkpoint"),
            (r#"{"checkpoint":null}"#, "checkpoint"),
            (r#"{"budget":5,"resume":true}"#, "resume"),
            (r#"{"budget":5,"budjet":5}"#, "budjet"),
        ] {
            let err = JobSpec::from_json_str(body).unwrap_err();
            assert!(err.contains(&format!("`{member}`")), "{body}: {err}");
        }
    }

    #[test]
    fn integers_that_would_change_the_search_are_errors() {
        // Each was once read as another number: seed 0, budget 2, seed
        // ...992 and budget u64::MAX.
        for body in [
            r#"{"seed":-5}"#,
            r#"{"budget":2.5}"#,
            r#"{"seed":9007199254740993}"#,
            r#"{"budget":1e300}"#,
        ] {
            let err = JobSpec::from_json_str(body).unwrap_err();
            assert!(err.contains("non-negative integer"), "{body}: {err}");
        }
        assert_eq!(JobSpec::from_json_str(r#"{"seed":5}"#).unwrap().seed, 5);
    }
}
