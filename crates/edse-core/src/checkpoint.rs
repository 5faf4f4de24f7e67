//! Checkpoint/resume: serialize evaluator caches to a versioned snapshot
//! file, atomically, via the workspace's zero-dep JSON layer.
//!
//! A snapshot holds the evaluator caches, tagged with the technique label
//! and budget of the run that wrote it — for every technique, the
//! explainable search included. A technique's state is a pure function of
//! its seed, its budget and the outcomes it has observed, so a resume
//! restores the caches and steps a fresh technique from the start: every
//! completed evaluation is a cache hit, landing on the same trajectory
//! (see [`crate::SearchDriver`]).
//!
//! Snapshots are written with a write-then-rename so a crash mid-write
//! never corrupts the previous snapshot. See `DESIGN.md` ("Snapshot
//! format") for the on-disk layout and the determinism contract.

use crate::cost::{Evaluation, LayerEval};
use crate::evaluate::{CacheSnapshot, LayerEntry};
use crate::space::DesignPoint;
use edse_telemetry::json::{self, Json};
use std::path::{Path, PathBuf};

/// Magic string identifying a snapshot file.
pub const SNAPSHOT_FORMAT: &str = "edse-snapshot";
/// Current snapshot schema version; loaders reject anything else.
pub const SNAPSHOT_VERSION: u64 = 2;

// ---------------------------------------------------------------------------
// JSON codec helpers
// ---------------------------------------------------------------------------

/// Infinity-safe `f64` codec: the JSON layer has no literal for non-finite
/// values, so they round-trip as the strings `"inf"` / `"-inf"` / `"nan"`.
fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else if v.is_nan() {
        Json::Str("nan".into())
    } else if v > 0.0 {
        Json::Str("inf".into())
    } else {
        Json::Str("-inf".into())
    }
}

fn num_from(j: &Json) -> Result<f64, String> {
    match j {
        Json::Num(n) => Ok(*n),
        Json::Str(s) => match s.as_str() {
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            "nan" => Ok(f64::NAN),
            other => Err(format!("expected a number, got string `{other}`")),
        },
        other => Err(format!("expected a number, got {other:?}")),
    }
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| num(*v)).collect())
}

fn nums_from(j: &Json) -> Result<Vec<f64>, String> {
    arr(j)?.iter().map(num_from).collect()
}

fn field<'j>(j: &'j Json, key: &str) -> Result<&'j Json, String> {
    j.get(key)
        .ok_or_else(|| format!("snapshot field `{key}` is missing"))
}

fn arr(j: &Json) -> Result<&[Json], String> {
    j.as_arr()
        .ok_or_else(|| format!("expected an array, got {j:?}"))
}

fn str_field(j: &Json, key: &str) -> Result<String, String> {
    field(j, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("snapshot field `{key}` must be a string"))
}

fn usize_field(j: &Json, key: &str) -> Result<usize, String> {
    match field(j, key)? {
        Json::Num(n) if *n >= 0.0 => Ok(*n as usize),
        other => Err(format!(
            "snapshot field `{key}` must be a non-negative number, got {other:?}"
        )),
    }
}

fn f64_field(j: &Json, key: &str) -> Result<f64, String> {
    num_from(field(j, key)?).map_err(|e| format!("snapshot field `{key}`: {e}"))
}

fn bool_field(j: &Json, key: &str) -> Result<bool, String> {
    match field(j, key)? {
        Json::Bool(b) => Ok(*b),
        other => Err(format!(
            "snapshot field `{key}` must be a boolean, got {other:?}"
        )),
    }
}

/// Serializes a serde-capable value through the vendored `serde_json` and
/// re-parses it into the telemetry [`Json`] tree. Used for the deep
/// always-finite types (profiles, mappings, configs, shapes) whose field
/// lists the snapshot layer should not hand-maintain.
fn bridge_to<T: serde::Serialize>(v: &T) -> Result<Json, String> {
    let s = serde_json::to_string(v).map_err(|e| format!("serialize: {e}"))?;
    json::parse(&s).map_err(|e| format!("re-parse serialized value: {e}"))
}

fn bridge_from<T: serde::Deserialize>(j: &Json) -> Result<T, String> {
    serde_json::from_str(&j.to_line()).map_err(|e| format!("deserialize: {e}"))
}

fn opt_to_json<T>(v: &Option<T>, f: impl Fn(&T) -> Result<Json, String>) -> Result<Json, String> {
    match v {
        None => Ok(Json::Null),
        Some(v) => f(v),
    }
}

fn opt_from_json<T>(j: &Json, f: impl Fn(&Json) -> Result<T, String>) -> Result<Option<T>, String> {
    match j {
        Json::Null => Ok(None),
        other => f(other).map(Some),
    }
}

// ---------------------------------------------------------------------------
// Domain converters
// ---------------------------------------------------------------------------

fn point_to_json(p: &DesignPoint) -> Json {
    Json::Arr(p.indices().iter().map(|i| Json::Num(*i as f64)).collect())
}

fn point_from_json(j: &Json) -> Result<DesignPoint, String> {
    let indices = arr(j)?
        .iter()
        .map(|v| match v {
            Json::Num(n) if *n >= 0.0 => Ok(*n as usize),
            other => Err(format!(
                "design-point index must be a number, got {other:?}"
            )),
        })
        .collect::<Result<Vec<usize>, String>>()?;
    Ok(DesignPoint::new(indices))
}

fn layer_eval_to_json(l: &LayerEval) -> Result<Json, String> {
    Ok(Json::obj(vec![
        ("name", Json::Str(l.name.clone())),
        ("model", Json::Str(l.model.clone())),
        ("count", Json::Num(l.count as f64)),
        ("profile", opt_to_json(&l.profile, bridge_to)?),
        ("mappable", Json::Bool(l.mappable)),
        ("latency_ms", num(l.latency_ms)),
    ]))
}

fn layer_eval_from_json(j: &Json) -> Result<LayerEval, String> {
    Ok(LayerEval {
        name: str_field(j, "name")?,
        model: str_field(j, "model")?,
        count: usize_field(j, "count")? as u64,
        profile: opt_from_json(field(j, "profile")?, bridge_from)?,
        mappable: bool_field(j, "mappable")?,
        latency_ms: f64_field(j, "latency_ms")?,
    })
}

fn evaluation_to_json(e: &Evaluation) -> Result<Json, String> {
    Ok(Json::obj(vec![
        ("objective", num(e.objective)),
        ("mappable", Json::Bool(e.mappable)),
        ("constraint_values", nums(&e.constraint_values)),
        (
            "layers",
            Json::Arr(
                e.layers
                    .iter()
                    .map(layer_eval_to_json)
                    .collect::<Result<_, _>>()?,
            ),
        ),
        ("area_mm2", num(e.area_mm2)),
        ("power_w", num(e.power_w)),
        ("energy_mj", num(e.energy_mj)),
    ]))
}

fn evaluation_from_json(j: &Json) -> Result<Evaluation, String> {
    Ok(Evaluation {
        objective: f64_field(j, "objective")?,
        mappable: bool_field(j, "mappable")?,
        constraint_values: nums_from(field(j, "constraint_values")?)?,
        layers: arr(field(j, "layers")?)?
            .iter()
            .map(layer_eval_from_json)
            .collect::<Result<_, _>>()?,
        area_mm2: f64_field(j, "area_mm2")?,
        power_w: f64_field(j, "power_w")?,
        energy_mj: f64_field(j, "energy_mj")?,
    })
}

fn caches_to_json(c: &CacheSnapshot) -> Result<Json, String> {
    // Deterministic entry order regardless of hash-map iteration: points by
    // their index vectors, layers by (shape, serialized config).
    let mut points: Vec<&(DesignPoint, Evaluation)> = c.points.iter().collect();
    points.sort_by(|(a, _), (b, _)| a.indices().cmp(b.indices()));
    let mut layers: Vec<(&LayerEntry, String)> = c
        .layers
        .iter()
        .map(|e| Ok((e, bridge_to(&e.cfg)?.to_line())))
        .collect::<Result<_, String>>()?;
    layers.sort_by(|(a, acfg), (b, bcfg)| a.shape.cmp(&b.shape).then_with(|| acfg.cmp(bcfg)));

    Ok(Json::obj(vec![
        ("unique_evaluations", Json::Num(c.unique_evaluations as f64)),
        (
            "points",
            Json::Arr(
                points
                    .into_iter()
                    .map(|(p, e)| {
                        Ok(Json::obj(vec![
                            ("point", point_to_json(p)),
                            ("evaluation", evaluation_to_json(e)?),
                        ]))
                    })
                    .collect::<Result<_, String>>()?,
            ),
        ),
        (
            "layers",
            Json::Arr(
                layers
                    .into_iter()
                    .map(|(e, _)| {
                        Ok(Json::obj(vec![
                            ("shape", bridge_to(&e.shape)?),
                            ("cfg", bridge_to(&e.cfg)?),
                            ("mapped", opt_to_json(&e.mapped, bridge_to)?),
                            ("diagnostic", opt_to_json(&e.diagnostic, bridge_to)?),
                        ]))
                    })
                    .collect::<Result<_, String>>()?,
            ),
        ),
        (
            // References into the persistent disk cache (already sorted by
            // the snapshot capture). Hex strings: record hashes are u64
            // and must round-trip exactly, which f64 JSON numbers cannot.
            "disk_layers",
            Json::Arr(
                c.disk_layers
                    .iter()
                    .map(|h| Json::Str(format!("{h:016x}")))
                    .collect(),
            ),
        ),
    ]))
}

fn caches_from_json(j: &Json) -> Result<CacheSnapshot, String> {
    // Absent in snapshots written before the disk tier existed; same
    // format version — old snapshots load with no references.
    let disk_layers = match j.get("disk_layers") {
        None | Some(Json::Null) => Vec::new(),
        Some(v) => arr(v)?
            .iter()
            .map(|h| {
                h.as_str()
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or_else(|| "disk_layers entries must be hex strings".to_string())
            })
            .collect::<Result<_, String>>()?,
    };
    Ok(CacheSnapshot {
        disk_layers,
        unique_evaluations: usize_field(j, "unique_evaluations")?,
        points: arr(field(j, "points")?)?
            .iter()
            .map(|entry| {
                Ok((
                    point_from_json(field(entry, "point")?)?,
                    evaluation_from_json(field(entry, "evaluation")?)?,
                ))
            })
            .collect::<Result<_, String>>()?,
        layers: arr(field(j, "layers")?)?
            .iter()
            .map(|entry| {
                Ok(LayerEntry {
                    shape: bridge_from(field(entry, "shape")?)?,
                    cfg: bridge_from(field(entry, "cfg")?)?,
                    mapped: opt_from_json(field(entry, "mapped")?, bridge_from)?,
                    diagnostic: opt_from_json(field(entry, "diagnostic")?, bridge_from)?,
                })
            })
            .collect::<Result<_, String>>()?,
    })
}

// ---------------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------------

/// Writes `contents` to `path` atomically: to a `.tmp` sibling first, then
/// renamed over the target, so a crash mid-write never corrupts the
/// previous snapshot.
fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    std::fs::write(&tmp, contents).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))
}

fn envelope(kind: &str, body: Vec<(&str, Json)>) -> Json {
    let mut entries = vec![
        ("format", Json::Str(SNAPSHOT_FORMAT.into())),
        ("version", Json::Num(SNAPSHOT_VERSION as f64)),
        ("kind", Json::Str(kind.into())),
    ];
    entries.extend(body);
    Json::obj(entries)
}

fn open_envelope(path: &Path, expect_kind: &str) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let j = json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
    let format = str_field(&j, "format")?;
    if format != SNAPSHOT_FORMAT {
        return Err(format!(
            "{}: not a snapshot file (format `{format}`)",
            path.display()
        ));
    }
    let version = usize_field(&j, "version")? as u64;
    if version != SNAPSHOT_VERSION {
        return Err(format!(
            "{}: unsupported snapshot version {version} (this build reads version {SNAPSHOT_VERSION})",
            path.display()
        ));
    }
    let kind = str_field(&j, "kind")?;
    if kind != expect_kind {
        return Err(format!(
            "{}: snapshot kind `{kind}` where `{expect_kind}` was expected",
            path.display()
        ));
    }
    Ok(j)
}

/// A search snapshot: evaluator caches plus enough identity to verify
/// that a resume matches (technique label and budget). See the module
/// docs for how a search resumes.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The technique's [`name`](crate::Trace::technique) label.
    pub technique: String,
    /// The evaluation budget the interrupted run was given.
    pub budget: usize,
    /// The evaluator caches at checkpoint time.
    pub caches: CacheSnapshot,
}

/// Saves a snapshot atomically.
///
/// # Errors
///
/// Returns a description of the I/O or serialization failure.
pub fn save_snapshot(path: &Path, snapshot: &Snapshot) -> Result<(), String> {
    let j = envelope(
        "search",
        vec![
            ("technique", Json::Str(snapshot.technique.clone())),
            ("budget", Json::Num(snapshot.budget as f64)),
            ("caches", caches_to_json(&snapshot.caches)?),
        ],
    );
    write_atomic(path, &j.to_line())
}

/// Loads a snapshot.
///
/// # Errors
///
/// Returns a description of the I/O, parse, or schema failure (including
/// the path), e.g. a snapshot of an older schema version.
pub fn load_snapshot(path: &Path) -> Result<Snapshot, String> {
    let j = open_envelope(path, "search")?;
    Ok(Snapshot {
        technique: str_field(&j, "technique")?,
        budget: usize_field(&j, "budget")?,
        caches: caches_from_json(field(&j, "caches")?)
            .map_err(|e| format!("{}: {e}", path.display()))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "edse-checkpoint-test-{}-{tag}-{n}.json",
            std::process::id()
        ))
    }

    #[test]
    fn num_codec_round_trips_non_finite_values() {
        for v in [0.0, -1.5, 1e300, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(num_from(&num(v)).unwrap(), v);
        }
        assert!(num_from(&num(f64::NAN)).unwrap().is_nan());
        // And through a full serialize/parse cycle.
        let line = Json::Arr(vec![num(f64::INFINITY), num(2.5)]).to_line();
        let back = json::parse(&line).unwrap();
        assert_eq!(num_from(&back.as_arr().unwrap()[0]).unwrap(), f64::INFINITY);
    }

    #[test]
    fn evaluation_round_trips_with_unmappable_layers() {
        let e = Evaluation {
            objective: f64::INFINITY,
            mappable: false,
            constraint_values: vec![12.5, f64::INFINITY],
            layers: vec![LayerEval {
                name: "conv1".into(),
                model: "toy".into(),
                count: 3,
                profile: None,
                mappable: false,
                latency_ms: f64::INFINITY,
            }],
            area_mm2: 12.5,
            power_w: 1.0,
            energy_mj: 0.0,
        };
        let j = evaluation_to_json(&e).unwrap();
        let line = j.to_line();
        let back = evaluation_from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn snapshot_round_trips_and_rejects_older_versions() {
        let snap = Snapshot {
            technique: "random-fixdf".into(),
            budget: 250,
            caches: CacheSnapshot {
                unique_evaluations: 1,
                points: vec![(
                    DesignPoint::new(vec![0, 2, 1]),
                    Evaluation {
                        objective: 4.0,
                        mappable: true,
                        constraint_values: vec![1.0],
                        layers: vec![],
                        area_mm2: 1.0,
                        power_w: 0.5,
                        energy_mj: 0.1,
                    },
                )],
                layers: vec![],
                disk_layers: vec![3, u64::MAX],
            },
        };
        let path = temp_path("snapshot");
        save_snapshot(&path, &snap).unwrap();
        assert_eq!(load_snapshot(&path).unwrap(), snap);
        // The tmp sibling is gone after the rename.
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists());
        // A version-1 snapshot (which held the explainable search state)
        // gets the version error.
        std::fs::write(
            &path,
            r#"{"format":"edse-snapshot","version":1,"kind":"explainable"}"#,
        )
        .unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert!(err.contains("unsupported snapshot version 1"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_and_unversioned_snapshots_are_rejected_with_the_path() {
        let path = temp_path("corrupt");
        std::fs::write(&path, "{ not json").unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert!(err.contains(path.to_str().unwrap()), "{err}");

        std::fs::write(
            &path,
            r#"{"format":"edse-snapshot","version":99,"kind":"search"}"#,
        )
        .unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert!(err.contains("unsupported snapshot version 99"), "{err}");

        std::fs::write(&path, r#"{"format":"other","version":2,"kind":"search"}"#).unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert!(err.contains("not a snapshot file"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
