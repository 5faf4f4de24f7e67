//! Trace-file loading for the `edse-trace` binary: reads a `--trace-out`
//! JSONL trace into [`Event`]s with precise `path:line:col` diagnostics
//! on any malformed line, and rejects empty traces — a truncated or
//! clobbered file must fail loudly, not report "nothing happened".

use edse_telemetry::{json, Event};
use std::fmt;
use std::path::Path;

/// Why a trace file could not be loaded. Rendered via [`fmt::Display`]
/// in the exact shape `edse-trace` prints before exiting 1.
#[derive(Debug)]
pub enum TraceError {
    /// The file could not be read at all.
    Io {
        /// The path as given on the command line.
        path: String,
        /// The underlying I/O error.
        error: std::io::Error,
    },
    /// One line failed to parse as a telemetry event.
    Parse {
        /// The path as given on the command line.
        path: String,
        /// 1-based line number of the defect.
        line: usize,
        /// 1-based column of the defect (see [`locate_failure`]).
        col: usize,
        /// The most precise parser message available.
        message: String,
        /// The offending line, verbatim.
        record: String,
    },
    /// The file was readable but contains no events.
    Empty {
        /// The path as given on the command line.
        path: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io { path, error } => write!(f, "cannot read {path}: {error}"),
            TraceError::Parse {
                path,
                line,
                col,
                message,
                record,
            } => write!(
                f,
                "{path}:{line}:{col}: unparseable trace line: {message}\n  offending record: {record}"
            ),
            TraceError::Empty { path } => write!(f, "{path}: empty trace"),
        }
    }
}

/// Pinpoints why a trace line failed to parse: the 1-based column and
/// the most precise message available.
///
/// [`Event::parse_json_line`] reports event-level problems (unknown
/// kind, missing field) without a position, so the line is re-parsed as
/// plain JSON: a syntax failure there carries the byte offset of the
/// defect (column = byte + 1); a line that *is* valid JSON but not a
/// valid event gets column 1 with the event-level message.
pub fn locate_failure(line: &str, error: &str) -> (usize, String) {
    match json::parse(line) {
        Err(e) => (e.byte + 1, e.message),
        Ok(_) => (1, error.to_string()),
    }
}

/// Loads every event from a JSONL trace. Blank lines are skipped; any
/// unparseable line or an empty trace is a [`TraceError`].
pub fn load_events(path: &str) -> Result<Vec<Event>, TraceError> {
    let text = std::fs::read_to_string(Path::new(path)).map_err(|error| TraceError::Io {
        path: path.to_string(),
        error,
    })?;
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Event::parse_json_line(line) {
            Ok(event) => events.push(event),
            Err(e) => {
                let (col, message) = locate_failure(line, &e);
                return Err(TraceError::Parse {
                    path: path.to_string(),
                    line: i + 1,
                    col,
                    message,
                    record: line.to_string(),
                });
            }
        }
    }
    if events.is_empty() {
        return Err(TraceError::Empty {
            path: path.to_string(),
        });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str, contents: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("edse-tracefile-{}-{name}", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn syntax_errors_carry_the_defects_column() {
        // Broken mid-object: the value after "t_us": is missing, so the
        // parser gives up on the `}` at byte 21 — column 22.
        let line = r#"{"kind":"log","t_us":}"#;
        let err = Event::parse_json_line(line).unwrap_err();
        let (col, message) = locate_failure(line, &err);
        assert_eq!(col, 22, "column must point at the defect, got {message}");
        assert!(!message.is_empty());
    }

    #[test]
    fn valid_json_invalid_event_points_at_column_one() {
        let line = r#"{"kind":"no-such-event"}"#;
        let err = Event::parse_json_line(line).unwrap_err();
        let (col, message) = locate_failure(line, &err);
        assert_eq!(col, 1);
        // The event-level message survives verbatim.
        assert_eq!(message, err);
    }

    #[test]
    fn trailing_garbage_is_located_after_the_document() {
        let line = r#"{"kind":"log"} extra"#;
        let err = Event::parse_json_line(line).unwrap_err();
        let (col, _) = locate_failure(line, &err);
        assert_eq!(col, 16, "column of the first trailing character");
    }

    #[test]
    fn well_formed_traces_load_with_blank_lines_skipped() {
        let path = tmp(
            "ok.jsonl",
            "{\"ev\":\"log\",\"t_us\":1,\"level\":\"info\",\"message\":\"hi\"}\n\n\
             {\"ev\":\"span_exit\",\"t_us\":9,\"name\":\"dse/run\",\"id\":1,\"elapsed_us\":9}\n",
        );
        let events = load_events(path.to_str().unwrap()).unwrap();
        assert_eq!(events.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_lines_fail_with_path_line_col() {
        let path = tmp(
            "bad.jsonl",
            "{\"ev\":\"log\",\"t_us\":1,\"level\":\"info\",\"message\":\"hi\"}\nnot json\n",
        );
        let err = load_events(path.to_str().unwrap()).unwrap_err();
        match &err {
            TraceError::Parse { line, record, .. } => {
                assert_eq!(*line, 2);
                assert_eq!(record, "not json");
            }
            other => panic!("expected Parse error, got {other}"),
        }
        let rendered = err.to_string();
        assert!(rendered.contains(":2:"), "{rendered}");
        assert!(
            rendered.contains("offending record: not json"),
            "{rendered}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_and_whitespace_only_traces_are_errors() {
        for contents in ["", "\n\n  \n"] {
            let path = tmp("empty.jsonl", contents);
            let err = load_events(path.to_str().unwrap()).unwrap_err();
            assert!(
                matches!(err, TraceError::Empty { .. }),
                "expected Empty, got {err}"
            );
            assert!(err.to_string().ends_with("empty trace"));
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn missing_files_are_io_errors() {
        let err = load_events("/no/such/trace.jsonl").unwrap_err();
        assert!(matches!(err, TraceError::Io { .. }));
        assert!(err
            .to_string()
            .starts_with("cannot read /no/such/trace.jsonl"));
    }
}
