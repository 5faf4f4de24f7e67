//! Checkpoint/resume: the versioned checkpoint file, written atomically
//! via the workspace's zero-dep JSON layer.
//!
//! A checkpoint holds only what the disk tier cannot supply: the
//! technique label and the budget of the run that wrote it. A technique's
//! state is a pure function of its seed, its budget and the layer
//! outcomes it has observed, and the evaluator's disk tier persists each
//! outcome as soon as its mapping completes. So a resume steps a fresh
//! technique from the start, and every point it repeats is assembled from
//! the outcomes the disk tier holds, landing on the same trajectory (see
//! [`crate::SearchDriver::spec`]). The file exists so that a resume can
//! refuse another technique or budget.
//!
//! Checkpoints are written with a write-then-rename, so a crash mid-write
//! never leaves a torn file. See `DESIGN.md` ("Checkpoint/resume") for the
//! layout and the determinism contract.

use edse_telemetry::json::{self, Json};
use std::path::{Path, PathBuf};

/// Magic string identifying a checkpoint file.
pub const SNAPSHOT_FORMAT: &str = "edse-snapshot";
/// Current checkpoint schema version; loaders reject anything else.
pub const SNAPSHOT_VERSION: u64 = 5;

fn field<'j>(j: &'j Json, key: &str) -> Result<&'j Json, String> {
    j.get(key)
        .ok_or_else(|| format!("snapshot field `{key}` is missing"))
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

/// A checkpoint: the identity a resume must match (technique label and
/// budget). See the module docs for how a search resumes.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The technique's [`name`](crate::Trace::technique) label.
    pub technique: String,
    /// The evaluation budget the checkpointed run was given.
    pub budget: usize,
}

/// Saves a checkpoint atomically.
///
/// # Errors
///
/// Returns a description of the I/O failure that names `path`.
pub fn save_snapshot(path: &Path, snapshot: &Snapshot) -> Result<(), String> {
    let j = Json::obj(vec![
        ("format", Json::Str(SNAPSHOT_FORMAT.into())),
        ("version", Json::Num(SNAPSHOT_VERSION as f64)),
        ("technique", Json::Str(snapshot.technique.clone())),
        ("budget", Json::Num(snapshot.budget as f64)),
    ]);
    write_atomic(path, &j.to_line())
}

/// Writes `contents` to a `.tmp` sibling of `path`, then renames it over
/// `path`, so a crash mid-write never corrupts the previous file. A failed
/// write leaves no `.tmp` behind.
fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    std::fs::write(&tmp, contents)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!("cannot write checkpoint {}: {e}", path.display())
        })
}

/// Loads a checkpoint.
///
/// # Errors
///
/// Returns a description of the I/O, parse, or schema failure (including
/// the path), e.g. a checkpoint of an older schema version.
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
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
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
    fn snapshot_round_trips_and_rejects_older_versions() {
        let snap = Snapshot {
            technique: "random-fixdf".into(),
            budget: 250,
        };
        let path = temp_path("snapshot");
        save_snapshot(&path, &snap).unwrap();
        assert_eq!(load_snapshot(&path).unwrap(), snap);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            r#"{"format":"edse-snapshot","version":5,"technique":"random-fixdf","budget":250}"#
        );
        // The tmp sibling is gone after the rename.
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists());
        // A version-4 snapshot (the last to carry the layer outcomes the
        // disk tier lacked) gets the version error, naming the file.
        std::fs::write(
            &path,
            r#"{"format":"edse-snapshot","version":4,"technique":"random-fixdf","budget":250,"caches":{"layers":[]}}"#,
        )
        .unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert!(err.contains("unsupported snapshot version 4"), "{err}");
        assert!(err.contains(path.to_str().unwrap()), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn an_unwritable_snapshot_is_an_error_naming_the_file_once() {
        let blocker = temp_path("blocker");
        std::fs::write(&blocker, b"a regular file").unwrap();
        let path = blocker.join("C");
        let snap = Snapshot {
            technique: "grid".into(),
            budget: 3,
        };
        let err = save_snapshot(&path, &snap).unwrap_err();
        assert_eq!(err.matches(path.to_str().unwrap()).count(), 1, "{err}");
        std::fs::remove_file(&blocker).unwrap();
        // A name taken by a directory fails at the rename, and the written
        // `.tmp` sibling is removed.
        let taken = temp_path("taken");
        std::fs::create_dir(&taken).unwrap();
        let err = save_snapshot(&taken, &snap).unwrap_err();
        assert!(err.contains("cannot write checkpoint"), "{err}");
        let mut tmp = taken.as_os_str().to_os_string();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists());
        std::fs::remove_dir(&taken).unwrap();
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
