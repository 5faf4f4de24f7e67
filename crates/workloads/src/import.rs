//! Importing workloads from a human-writable JSON description — the
//! ingestion path that replaces the paper's PyTorch/Hugging Face export.
//!
//! The format is deliberately close to how frameworks dump operator lists:
//!
//! ```json
//! {
//!   "name": "MyNet",
//!   "target": { "fps": 30.0 },
//!   "layers": [
//!     { "name": "conv1", "op": "conv", "m": 64, "c": 3,
//!       "oy": 112, "ox": 112, "fy": 7, "fx": 7, "stride": 2 },
//!     { "name": "blocks", "op": "dwconv", "m": 64, "oy": 56, "ox": 56,
//!       "fy": 3, "fx": 3, "repeat": 4 },
//!     { "name": "fc", "op": "gemm", "m": 1000, "n": 1, "k": 512 }
//!   ]
//! }
//! ```
//!
//! Unspecified extents default to 1 (`n`, `stride` likewise), matching the
//! canonical loop-nest conventions of [`crate::layer::LayerShape`].

use crate::constraints::ThroughputTarget;
use crate::layer::LayerShape;
use crate::model::{DnnModel, Layer};
use serde::Deserialize;
use std::fmt;

/// Errors raised while importing a model description.
#[derive(Debug)]
pub enum ImportError {
    /// The JSON could not be parsed at all.
    Parse(serde_json::Error),
    /// A layer entry is structurally invalid.
    Layer {
        /// The layer's name (or index when unnamed).
        layer: String,
        /// What was wrong.
        reason: String,
    },
    /// The model-level fields are invalid (name/target/empty layer list).
    Model(String),
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::Parse(e) => write!(f, "invalid JSON: {e}"),
            ImportError::Layer { layer, reason } => {
                write!(f, "layer `{layer}`: {reason}")
            }
            ImportError::Model(reason) => write!(f, "model: {reason}"),
        }
    }
}

impl std::error::Error for ImportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ImportError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

#[derive(Deserialize)]
struct ModelDoc {
    name: String,
    target: TargetDoc,
    layers: Vec<LayerDoc>,
}

#[derive(Deserialize)]
struct TargetDoc {
    #[serde(default)]
    fps: Option<f64>,
    #[serde(default)]
    qps: Option<f64>,
    #[serde(default)]
    audio_samples_per_second: Option<f64>,
    #[serde(default)]
    samples_per_inference: Option<f64>,
}

#[derive(Deserialize)]
struct LayerDoc {
    #[serde(default)]
    name: Option<String>,
    op: String,
    #[serde(default = "one")]
    n: u64,
    #[serde(default = "one")]
    m: u64,
    #[serde(default = "one")]
    c: u64,
    #[serde(default = "one")]
    oy: u64,
    #[serde(default = "one")]
    ox: u64,
    #[serde(default = "one")]
    fy: u64,
    #[serde(default = "one")]
    fx: u64,
    #[serde(default = "one")]
    stride: u64,
    /// GEMM reduction depth (alias preferred over `c` for GEMMs).
    #[serde(default)]
    k: Option<u64>,
    #[serde(default = "one")]
    repeat: u64,
}

fn one() -> u64 {
    1
}

/// Parses a model from its JSON description (see the module docs for the
/// format).
///
/// # Errors
///
/// Returns [`ImportError`] with the offending layer and reason on any
/// structural problem; extents of zero, unknown `op` tags, missing
/// throughput targets, and sizes that overflow `u64` (a layer's MAC count
/// or an operand volume, or the model's total MAC count, which bounds its
/// layer count) are all rejected.
pub fn from_json_str(json: &str) -> Result<DnnModel, ImportError> {
    let doc: ModelDoc = serde_json::from_str(json).map_err(ImportError::Parse)?;
    if doc.name.trim().is_empty() {
        return Err(ImportError::Model("name must be non-empty".into()));
    }
    if doc.layers.is_empty() {
        return Err(ImportError::Model("at least one layer is required".into()));
    }

    let target = match (
        &doc.target.fps,
        &doc.target.qps,
        &doc.target.audio_samples_per_second,
    ) {
        (Some(fps), None, None) if *fps > 0.0 => ThroughputTarget::fps(*fps),
        (None, Some(qps), None) if *qps > 0.0 => ThroughputTarget::qps(*qps),
        (None, None, Some(sps)) if *sps > 0.0 => {
            let per = doc.target.samples_per_inference.unwrap_or(1.0);
            if per <= 0.0 {
                return Err(ImportError::Model(
                    "samples_per_inference must be positive".into(),
                ));
            }
            ThroughputTarget::audio_samples_per_second(*sps, per)
        }
        _ => {
            return Err(ImportError::Model(
                "target needs exactly one positive field of: fps, qps, \
                 audio_samples_per_second"
                    .into(),
            ))
        }
    };

    let mut layers = Vec::with_capacity(doc.layers.len());
    for (i, l) in doc.layers.iter().enumerate() {
        let name = l.name.clone().unwrap_or_else(|| format!("layer{i}"));
        let err = |reason: &str| ImportError::Layer {
            layer: name.clone(),
            reason: reason.into(),
        };
        let nonzero = [l.n, l.m, l.c, l.oy, l.ox, l.fy, l.fx, l.stride, l.repeat];
        if nonzero.contains(&0) {
            return Err(err("extents, stride and repeat must be non-zero"));
        }
        let shape = match l.op.as_str() {
            "conv" => LayerShape::conv(l.n, l.m, l.c, l.oy, l.ox, l.fy, l.fx, l.stride),
            "dwconv" => {
                if l.c != 1 {
                    return Err(err(
                        "depthwise layers must not set c (channels come from m)",
                    ));
                }
                LayerShape::dwconv(l.n, l.m, l.oy, l.ox, l.fy, l.fx, l.stride)
            }
            "gemm" => {
                let k = l.k.unwrap_or(l.c);
                if k == 0 {
                    return Err(err("gemm needs a non-zero reduction depth k"));
                }
                // GEMM output columns: `n` field doubles as the column count
                // (`ox` is accepted as an alias).
                let cols = if l.ox > 1 { l.ox } else { l.n };
                LayerShape::gemm(l.m, cols.max(1), k)
            }
            other => return Err(err(&format!("unknown op `{other}` (conv/dwconv/gemm)"))),
        };
        if !shape.sizes_fit_u64() {
            return Err(err(
                "the MAC count or an operand volume does not fit 64 bits",
            ));
        }
        layers.push(Layer::new(name, shape, l.repeat));
    }
    // Every layer has at least one MAC, so a total MAC count that fits
    // also bounds the layer count (the sum of the repeats).
    if layers
        .iter()
        .try_fold(0u64, |total, l| {
            total.checked_add(l.shape.macs().checked_mul(l.repeat)?)
        })
        .is_none()
    {
        return Err(ImportError::Model(
            "the model's total MAC count does not fit 64 bits".into(),
        ));
    }
    Ok(DnnModel::new(doc.name, layers, target))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
        "name": "TinyNet",
        "target": { "fps": 30.0 },
        "layers": [
            { "name": "conv1", "op": "conv", "m": 16, "c": 3,
              "oy": 32, "ox": 32, "fy": 3, "fx": 3 },
            { "name": "dw", "op": "dwconv", "m": 16, "oy": 32, "ox": 32,
              "fy": 3, "fx": 3, "repeat": 2 },
            { "name": "fc", "op": "gemm", "m": 10, "n": 1, "k": 256 }
        ]
    }"#;

    #[test]
    fn sample_imports() {
        let m = from_json_str(SAMPLE).expect("valid sample");
        assert_eq!(m.name(), "TinyNet");
        assert_eq!(m.layer_count(), 4);
        assert_eq!(m.unique_shape_count(), 3);
        assert!((m.target().inferences_per_second() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn defaults_fill_unit_extents() {
        let m = from_json_str(
            r#"{"name":"g","target":{"qps":5.0},
                "layers":[{"op":"gemm","m":8,"n":4,"k":16}]}"#,
        )
        .unwrap();
        let s = m.layers()[0].shape;
        assert_eq!(s.dims(), [1, 8, 16, 1, 4, 1, 1]);
    }

    #[test]
    fn zero_extent_rejected_with_layer_name() {
        let e = from_json_str(
            r#"{"name":"x","target":{"fps":1.0},
                "layers":[{"name":"bad","op":"conv","m":0,"c":1,"oy":1,"ox":1}]}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("bad"), "{e}");
    }

    #[test]
    fn unknown_op_rejected() {
        let e = from_json_str(
            r#"{"name":"x","target":{"fps":1.0},
                "layers":[{"op":"pool","m":1}]}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("unknown op"), "{e}");
    }

    #[test]
    fn missing_target_rejected() {
        let e = from_json_str(
            r#"{"name":"x","target":{},
                "layers":[{"op":"gemm","m":2,"n":2,"k":2}]}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("target"), "{e}");
    }

    #[test]
    fn audio_target_supported() {
        let m = from_json_str(
            r#"{"name":"asr","target":{"audio_samples_per_second":16000.0,
                "samples_per_inference":16000.0},
                "layers":[{"op":"gemm","m":2,"n":2,"k":2}]}"#,
        )
        .unwrap();
        assert!((m.target().inferences_per_second() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn oversized_layers_are_rejected_not_wrapped() {
        let e = from_json_str(
            r#"{"name":"x","target":{"fps":1.0},
                "layers":[{"op":"gemm","m":4294967296,"n":4294967296,"k":2}]}"#,
        )
        .unwrap_err();
        assert!(
            matches!(&e, ImportError::Layer { layer, .. } if layer == "layer0"),
            "{e}"
        );
        // 2^20 MACs fit, but the input halo `(oy - 1) * stride + fy` does not.
        let e = from_json_str(
            r#"{"name":"x","target":{"fps":1.0},
                "layers":[{"name":"wide","op":"conv","oy":1048576,
                           "stride":1125899906842624}]}"#,
        )
        .unwrap_err();
        assert!(
            matches!(&e, ImportError::Layer { layer, .. } if layer == "wide"),
            "{e}"
        );
        // The repeat total, 2^64 + 1, does not fit.
        let e = from_json_str(
            r#"{"name":"x","target":{"fps":1.0},
                "layers":[{"op":"gemm","m":2,"n":2,"k":2,"repeat":18446744073709551615},
                          {"op":"gemm","m":4,"n":2,"k":2,"repeat":2}]}"#,
        )
        .unwrap_err();
        assert!(matches!(e, ImportError::Model(_)), "{e}");
        // Each layer's MACs fit, but `macs * repeat` summed over the model
        // does not.
        let e = from_json_str(
            r#"{"name":"x","target":{"fps":1.0},
                "layers":[{"op":"gemm","m":4294967296,"n":1,"k":4294967295,"repeat":2}]}"#,
        )
        .unwrap_err();
        assert!(matches!(e, ImportError::Model(_)), "{e}");
        // The largest totals that fit still import: single-MAC layers
        // repeated 2^64 - 1 times in all.
        let m = from_json_str(
            r#"{"name":"x","target":{"fps":1.0},
                "layers":[{"op":"gemm","m":1,"n":1,"k":1,"repeat":18446744073709551614},
                          {"op":"gemm","m":1,"n":1,"k":1}]}"#,
        )
        .unwrap();
        assert_eq!(m.layer_count(), u64::MAX);
        assert_eq!(m.total_macs(), u64::MAX);
    }

    #[test]
    fn malformed_json_reports_parse_error() {
        assert!(matches!(from_json_str("{"), Err(ImportError::Parse(_))));
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        // 10,000 levels overflow a default 2 MiB thread stack unbounded.
        let layers = format!("{}{}", "[".repeat(10_000), "]".repeat(10_000));
        let doc = format!(r#"{{"name":"x","target":{{"fps":1.0}},"layers":{layers}}}"#);
        let e = from_json_str(&doc).unwrap_err();
        assert!(matches!(e, ImportError::Parse(_)), "{e}");
        assert!(e.to_string().contains("nesting"), "{e}");
    }
}
