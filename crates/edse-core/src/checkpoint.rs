//! Checkpoint/resume: serialize evaluator caches to a versioned snapshot
//! file, atomically, via the workspace's zero-dep JSON layer.
//!
//! A snapshot holds the layer outcomes of the evaluator's cache that its
//! disk tier lacks, tagged with the technique label and budget of the run
//! that wrote it — for every technique, the explainable search included.
//! Each outcome is a disk-cache record keyed by the mapper that produced
//! it (see [`CacheSnapshot`]). A technique's state is a pure function of
//! its seed, its budget and the outcomes it has observed, so a resume
//! warms the layer cache and steps a fresh technique from the start: each
//! point it repeats is assembled from layer outcomes the snapshot or the
//! disk tier holds, without a mapper call, landing on the same trajectory
//! (see [`crate::SearchDriver`]).
//!
//! Snapshots are written with a write-then-rename so a crash mid-write
//! never corrupts the previous snapshot. See `DESIGN.md` ("Snapshot
//! format") for the on-disk layout and the determinism contract.

use crate::diskcache::LayerEntry;
use crate::evaluate::CacheSnapshot;
use edse_telemetry::json::{self, Json};
use std::path::{Path, PathBuf};

/// Magic string identifying a snapshot file.
pub const SNAPSHOT_FORMAT: &str = "edse-snapshot";
/// Current snapshot schema version; loaders reject anything else.
pub const SNAPSHOT_VERSION: u64 = 4;

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
    // Entries sort by their record key, so hash-map iteration order never
    // shows in the file.
    let mut layers = c
        .layers
        .iter()
        .map(layer_to_json)
        .collect::<Result<Vec<_>, String>>()?;
    layers.sort_by(|(a, _), (b, _)| a.cmp(b));
    Ok(Json::obj(vec![(
        "layers",
        Json::Arr(layers.into_iter().map(|(_, entry)| entry).collect()),
    )]))
}

fn caches_from_json(j: &Json) -> Result<CacheSnapshot, String> {
    Ok(CacheSnapshot {
        layers: arr(field(j, "layers")?)?
            .iter()
            .map(layer_from_json)
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
    /// The layer outcomes the evaluator held and its disk tier lacked at
    /// checkpoint time.
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
            outcome: LayerOutcome::Mapped(FixedMapper.optimize(&shape, &cfg).expect("maps")),
        }
    }

    #[test]
    fn snapshot_round_trips_and_rejects_older_versions() {
        let mut snap = Snapshot {
            technique: "random-fixdf".into(),
            budget: 250,
            caches: CacheSnapshot {
                layers: vec![layer(8), layer(16)],
            },
        };
        // Entries sort by their record key, so the order they were captured
        // in never shows in the file.
        snap.caches.layers.sort_by_key(|e| e.to_record().unwrap().0);
        let path = temp_path("snapshot");
        save_snapshot(&path, &snap).unwrap();
        assert_eq!(load_snapshot(&path).unwrap(), snap);
        let bytes = std::fs::read(&path).unwrap();
        snap.caches.layers.reverse();
        save_snapshot(&path, &snap).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        // The tmp sibling is gone after the rename.
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists());
        // A version-3 snapshot (which also stored the evaluated points and
        // referenced disk records by hash) gets the version error, naming
        // the file.
        std::fs::write(
            &path,
            r#"{"format":"edse-snapshot","version":3,"technique":"random-fixdf","budget":250,"caches":{"points":[],"layers":[],"disk_layers":[]}}"#,
        )
        .unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert!(err.contains("unsupported snapshot version 3"), "{err}");
        assert!(err.contains(path.to_str().unwrap()), "{err}");
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
