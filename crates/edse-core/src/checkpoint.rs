//! Checkpoint/resume: serialize evaluator caches to a versioned snapshot
//! file, atomically, via the workspace's zero-dep JSON layer.
//!
//! A snapshot holds the evaluator caches, tagged with the technique label
//! and budget of the run that wrote it — for every technique, the
//! explainable search included. The caches hold only what cannot be
//! re-derived: the evaluated design points, and the layer outcomes they
//! were assembled from, each a disk-cache record keyed by the mapper that
//! produced it (see [`CacheSnapshot`]). A technique's state is a pure
//! function of its seed, its budget and the outcomes it has observed, so a
//! resume restores the caches and steps a fresh technique from the start:
//! every completed evaluation is a cache hit, landing on the same
//! trajectory (see [`crate::SearchDriver`]).
//!
//! Snapshots are written with a write-then-rename so a crash mid-write
//! never corrupts the previous snapshot. See `DESIGN.md` ("Snapshot
//! format") for the on-disk layout and the determinism contract.

use crate::diskcache::LayerEntry;
use crate::evaluate::CacheSnapshot;
use crate::space::DesignPoint;
use edse_telemetry::json::{self, Json};
use std::path::{Path, PathBuf};

/// Magic string identifying a snapshot file.
pub const SNAPSHOT_FORMAT: &str = "edse-snapshot";
/// Current snapshot schema version; loaders reject anything else.
pub const SNAPSHOT_VERSION: u64 = 3;

// ---------------------------------------------------------------------------
// JSON codec helpers
// ---------------------------------------------------------------------------

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
    let v = field(j, key)?;
    v.as_u64()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| format!("snapshot field `{key}` must be a non-negative integer, got {v:?}"))
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
        .map(|v| {
            v.as_u64()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| {
                    format!("design-point index must be a non-negative integer, got {v:?}")
                })
        })
        .collect::<Result<Vec<usize>, String>>()?;
    Ok(DesignPoint::new(indices))
}

/// One layer entry as `{"key": .., "value": ..}`, exactly the disk tier's
/// record, plus the key string it sorts by.
fn layer_to_json(e: &LayerEntry) -> Result<(String, Json), String> {
    let (key, value) = e.to_record()?;
    let entry = Json::obj(vec![
        ("key", json::parse(&key)?),
        ("value", json::parse(&value)?),
    ]);
    Ok((key, entry))
}

fn layer_from_json(j: &Json) -> Result<LayerEntry, String> {
    LayerEntry::from_record(
        field(j, "key")?.to_line().as_bytes(),
        field(j, "value")?.to_line().as_bytes(),
    )
}

fn caches_to_json(c: &CacheSnapshot) -> Result<Json, String> {
    // Deterministic entry order regardless of hash-map iteration: points by
    // their index vectors, layers by their record key.
    let mut points: Vec<&DesignPoint> = c.points.iter().collect();
    points.sort_by(|a, b| a.indices().cmp(b.indices()));
    let mut layers = c
        .layers
        .iter()
        .map(layer_to_json)
        .collect::<Result<Vec<_>, String>>()?;
    layers.sort_by(|(a, _), (b, _)| a.cmp(b));

    Ok(Json::obj(vec![
        (
            "points",
            Json::Arr(points.into_iter().map(point_to_json).collect()),
        ),
        (
            "layers",
            Json::Arr(layers.into_iter().map(|(_, entry)| entry).collect()),
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
    Ok(CacheSnapshot {
        points: arr(field(j, "points")?)?
            .iter()
            .map(point_from_json)
            .collect::<Result<_, String>>()?,
        layers: arr(field(j, "layers")?)?
            .iter()
            .map(layer_from_json)
            .collect::<Result<_, String>>()?,
        disk_layers: arr(field(j, "disk_layers")?)?
            .iter()
            .map(|h| {
                h.as_str()
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or_else(|| "disk_layers entries must be hex strings".to_string())
            })
            .collect::<Result<_, String>>()?,
    })
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
    let j = Json::obj(vec![
        ("format", Json::Str(SNAPSHOT_FORMAT.into())),
        ("version", Json::Num(SNAPSHOT_VERSION as f64)),
        ("technique", Json::Str(snapshot.technique.clone())),
        ("budget", Json::Num(snapshot.budget as f64)),
        ("caches", caches_to_json(&snapshot.caches)?),
    ]);
    write_atomic(path, &j.to_line())
}

/// Writes `contents` to a `.tmp` sibling of `path`, then renames it over
/// `path`, so a crash mid-write never corrupts the previous file.
fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    std::fs::write(&tmp, contents).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))
}

/// Loads a snapshot.
///
/// # Errors
///
/// Returns a description of the I/O, parse, or schema failure (including
/// the path), e.g. a snapshot of an older schema version.
pub fn load_snapshot(path: &Path) -> Result<Snapshot, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    snapshot_from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn snapshot_from_str(text: &str) -> Result<Snapshot, String> {
    let j = json::parse(text.trim())?;
    let format = str_field(&j, "format")?;
    if format != SNAPSHOT_FORMAT {
        return Err(format!("not a snapshot file (format `{format}`)"));
    }
    let version = usize_field(&j, "version")? as u64;
    if version != SNAPSHOT_VERSION {
        return Err(format!(
            "unsupported snapshot version {version} (this build reads version {SNAPSHOT_VERSION})"
        ));
    }
    Ok(Snapshot {
        technique: str_field(&j, "technique")?,
        budget: usize_field(&j, "budget")?,
        caches: caches_from_json(field(&j, "caches")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diskcache::LayerOutcome;
    use accel_model::AcceleratorConfig;
    use mapper::{FixedMapper, MappingOptimizer};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use workloads::LayerShape;

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "edse-checkpoint-test-{}-{tag}-{n}.json",
            std::process::id()
        ))
    }

    fn layer(c: u64) -> LayerEntry {
        let shape = LayerShape::conv(1, c, 8, 7, 7, 3, 3, 1);
        let cfg = AcceleratorConfig::edge_baseline();
        LayerEntry {
            mapper: FixedMapper.fingerprint(),
            shape,
            cfg,
            outcome: LayerOutcome {
                mapped: FixedMapper.optimize(&shape, &cfg),
                diagnostic: None,
            },
        }
    }

    #[test]
    fn snapshot_round_trips_and_rejects_older_versions() {
        let mut snap = Snapshot {
            technique: "random-fixdf".into(),
            budget: 250,
            caches: CacheSnapshot {
                points: vec![
                    DesignPoint::new(vec![0, 2, 1]),
                    DesignPoint::new(vec![1, 0, 0]),
                ],
                layers: vec![layer(8), layer(16)],
                disk_layers: vec![3, u64::MAX],
            },
        };
        // Entries sort by their record key, so the order they were captured
        // in never shows in the file.
        snap.caches.layers.sort_by_key(|e| e.to_record().unwrap().0);
        let path = temp_path("snapshot");
        save_snapshot(&path, &snap).unwrap();
        assert_eq!(load_snapshot(&path).unwrap(), snap);
        let bytes = std::fs::read(&path).unwrap();
        snap.caches.points.reverse();
        snap.caches.layers.reverse();
        save_snapshot(&path, &snap).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        // The tmp sibling is gone after the rename.
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists());
        // A version-2 snapshot (which stored every point's evaluation)
        // gets the version error.
        std::fs::write(
            &path,
            r#"{"format":"edse-snapshot","version":2,"kind":"search"}"#,
        )
        .unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert!(err.contains("unsupported snapshot version 2"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_and_unversioned_snapshots_are_rejected_with_the_path() {
        let path = temp_path("corrupt");
        std::fs::write(&path, "{ not json").unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert!(err.contains(path.to_str().unwrap()), "{err}");

        std::fs::write(&path, r#"{"format":"edse-snapshot","version":99}"#).unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert!(err.contains("unsupported snapshot version 99"), "{err}");

        std::fs::write(&path, r#"{"format":"other","version":3}"#).unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert!(err.contains("not a snapshot file"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
