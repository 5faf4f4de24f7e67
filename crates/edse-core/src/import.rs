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
//! Unspecified extents default to 1 (`n`, `stride` and `repeat`
//! likewise), matching the canonical loop-nest conventions of
//! [`LayerShape`]; an unnamed layer is called `layer<index>`. A missing or
//! `null` member takes its default, a member of the wrong type is an error
//! naming it, and unknown members are ignored. Integers (extents, `stride`,
//! `k`, `repeat`) must be non-negative and below 2^53, the range RFC 8259
//! §6 calls interoperable and the one [`crate::JobSpec`] reads.

use crate::job::{opt, req_arr, req_f64, req_obj, req_str, req_u64};
use edse_telemetry::json::{self, Json, ParseError};
use std::fmt;
use workloads::{DnnModel, Layer, LayerShape, ThroughputTarget};

/// Errors raised while importing a model description.
#[derive(Debug)]
pub enum ImportError {
    /// The text is not JSON at all.
    Parse(ParseError),
    /// A layer entry is structurally invalid.
    Layer {
        /// The layer's name (or `layer<index>` when unnamed).
        layer: String,
        /// What was wrong.
        reason: String,
    },
    /// The model-level members are invalid (name, target, layer list, or
    /// the model's total size).
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

/// Parses a model from its JSON description (see the module docs for the
/// format).
///
/// # Errors
///
/// Returns [`ImportError`] with the offending layer and reason on any
/// structural problem; extents of zero, unknown `op` tags, missing
/// throughput targets, integers outside `0..2^53`, and sizes that overflow
/// `u64` (a layer's MAC count or an operand volume, or the model's total
/// MAC count, which bounds its layer count) are all rejected.
pub fn from_json_str(json: &str) -> Result<DnnModel, ImportError> {
    let doc = json::parse(json).map_err(ImportError::Parse)?;
    req_obj(&doc, "model").map_err(ImportError::Model)?;
    let name = opt(&doc, "name", req_str)
        .map_err(ImportError::Model)?
        .unwrap_or_default();
    if name.trim().is_empty() {
        return Err(ImportError::Model("name must be non-empty".into()));
    }
    let entries = opt(&doc, "layers", req_arr)
        .map_err(ImportError::Model)?
        .unwrap_or_default();
    if entries.is_empty() {
        return Err(ImportError::Model("at least one layer is required".into()));
    }

    let target = opt(&doc, "target", req_obj).map_err(ImportError::Model)?;
    let rate = |key| opt(target.unwrap_or(&Json::Null), key, req_f64).map_err(ImportError::Model);
    let target = match (
        rate("fps")?,
        rate("qps")?,
        rate("audio_samples_per_second")?,
    ) {
        (Some(fps), None, None) if fps > 0.0 => ThroughputTarget::fps(fps),
        (None, Some(qps), None) if qps > 0.0 => ThroughputTarget::qps(qps),
        (None, None, Some(sps)) if sps > 0.0 => {
            let per = rate("samples_per_inference")?.unwrap_or(1.0);
            if per <= 0.0 {
                return Err(ImportError::Model(
                    "samples_per_inference must be positive".into(),
                ));
            }
            ThroughputTarget::audio_samples_per_second(sps, per)
        }
        _ => {
            return Err(ImportError::Model(
                "target needs exactly one positive field of: fps, qps, \
                 audio_samples_per_second"
                    .into(),
            ))
        }
    };

    let mut layers = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let unnamed = || format!("layer{i}");
        let name = opt(entry, "name", req_str)
            .map_err(|reason| ImportError::Layer {
                layer: unnamed(),
                reason,
            })?
            .unwrap_or_else(unnamed);
        let (shape, repeat) = layer_from_json(entry).map_err(|reason| ImportError::Layer {
            layer: name.clone(),
            reason,
        })?;
        layers.push(Layer::new(name, shape, repeat));
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
    Ok(DnnModel::new(name, layers, target))
}

/// Decodes one entry of `layers` into its shape and repeat count; the
/// error is the reason, which the caller prefixes with the layer's name.
fn layer_from_json(entry: &Json) -> Result<(LayerShape, u64), String> {
    req_obj(entry, "layers[..]")?;
    let mut ints = [1u64; 9];
    let keys = ["n", "m", "c", "oy", "ox", "fy", "fx", "stride", "repeat"];
    for (int, key) in ints.iter_mut().zip(keys) {
        if let Some(v) = opt(entry, key, req_u64)? {
            *int = v;
        }
    }
    if ints.contains(&0) {
        return Err("extents, stride and repeat must be non-zero".into());
    }
    let [n, m, c, oy, ox, fy, fx, stride, repeat] = ints;
    let k = opt(entry, "k", req_u64)?;
    let op = opt(entry, "op", req_str)?.ok_or("`op` is required (conv/dwconv/gemm)")?;
    let shape = match op.as_str() {
        "conv" => LayerShape::conv(n, m, c, oy, ox, fy, fx, stride),
        "dwconv" => {
            if c != 1 {
                return Err("depthwise layers must not set c (channels come from m)".into());
            }
            LayerShape::dwconv(n, m, oy, ox, fy, fx, stride)
        }
        "gemm" => {
            // GEMM reduction depth: `k` (preferred) or `c`.
            let k = k.unwrap_or(c);
            if k == 0 {
                return Err("gemm needs a non-zero reduction depth k".into());
            }
            // GEMM output columns: `n` doubles as the column count (`ox`
            // is accepted as an alias).
            let cols = if ox > 1 { ox } else { n };
            LayerShape::gemm(m, cols, k)
        }
        other => return Err(format!("unknown op `{other}` (conv/dwconv/gemm)")),
    };
    if !shape.sizes_fit_u64() {
        return Err("the MAC count or an operand volume does not fit 64 bits".into());
    }
    Ok((shape, repeat))
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
    fn the_custom_model_asset_decodes_layer_by_layer() {
        let m = from_json_str(include_str!("../../../assets/custom_model.json")).unwrap();
        assert_eq!(m.name(), "EdgeSegNet");
        // (name, op, [N, M, C, OY, OX, FY, FX], stride, repeat)
        let expected = [
            ("stem", "conv", [1, 32, 3, 160, 160, 3, 3], 2, 1),
            ("enc1.dw", "dwconv", [1, 32, 1, 160, 160, 3, 3], 1, 1),
            ("enc1.pw", "conv", [1, 64, 32, 160, 160, 1, 1], 1, 1),
            ("enc2.dw", "dwconv", [1, 64, 1, 80, 80, 3, 3], 2, 1),
            ("enc2.pw", "conv", [1, 128, 64, 80, 80, 1, 1], 1, 1),
            ("enc3.dw", "dwconv", [1, 128, 1, 40, 40, 3, 3], 2, 4),
            ("enc3.pw", "conv", [1, 128, 128, 40, 40, 1, 1], 1, 4),
            ("bottleneck", "conv", [1, 256, 128, 20, 20, 3, 3], 2, 1),
            ("dec1", "conv", [1, 128, 256, 40, 40, 3, 3], 1, 1),
            ("dec2", "conv", [1, 64, 128, 80, 80, 3, 3], 1, 1),
            ("head", "conv", [1, 21, 64, 160, 160, 1, 1], 1, 1),
        ];
        let decoded: Vec<_> = m
            .layers()
            .iter()
            .map(|l| {
                let s = l.shape;
                (
                    l.name.as_str(),
                    s.kind().tag(),
                    s.dims(),
                    s.stride(),
                    l.repeat,
                )
            })
            .collect();
        assert_eq!(decoded, expected);
        assert_eq!(m.layer_count(), 17);
        assert_eq!(m.total_macs(), 1_346_355_200);
        assert_eq!(m.target().inferences_per_second(), 15.0);
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
    fn null_members_take_defaults_and_unknown_members_are_ignored() {
        let m = from_json_str(
            r#"{"name":"g","target":{"qps":5.0,"fps":null},"framework":"onnx",
                "layers":[{"name":null,"op":"gemm","m":8,"n":4,"k":16,
                           "stride":null,"dtype":"int8"}]}"#,
        )
        .unwrap();
        assert_eq!(m.layers()[0].name, "layer0");
        assert_eq!(m.layers()[0].shape.dims(), [1, 8, 16, 1, 4, 1, 1]);
    }

    #[test]
    fn a_member_of_the_wrong_type_is_an_error_naming_it() {
        for (doc, member) in [
            (
                r#"{"name":7,"target":{"fps":1.0},"layers":[{"op":"gemm"}]}"#,
                "name",
            ),
            (
                r#"{"name":"x","target":5,"layers":[{"op":"gemm"}]}"#,
                "target",
            ),
            (
                r#"{"name":"x","target":{"fps":"30"},"layers":[{"op":"gemm"}]}"#,
                "fps",
            ),
            (
                r#"{"name":"x","target":{"fps":1.0},"layers":{"op":"gemm"}}"#,
                "layers",
            ),
            (
                r#"{"name":"x","target":{"fps":1.0},"layers":[{"op":"gemm","m":"8"}]}"#,
                "m",
            ),
            (
                r#"{"name":"x","target":{"fps":1.0},"layers":[{"op":"gemm","k":2.5}]}"#,
                "k",
            ),
            (
                r#"{"name":"x","target":{"fps":1.0},"layers":[{"op":"gemm","repeat":-1}]}"#,
                "repeat",
            ),
            (
                r#"{"name":"x","target":{"fps":1.0},"layers":[{"op":3}]}"#,
                "op",
            ),
            (
                r#"{"name":"x","target":{"fps":1.0},"layers":[{"name":[],"op":"gemm"}]}"#,
                "name",
            ),
        ] {
            let e = from_json_str(doc).unwrap_err().to_string();
            assert!(e.contains(&format!("`{member}`")), "{doc}: {e}");
        }
        let e = from_json_str(r#"{"name":"x","target":{"fps":1.0},"layers":[4]}"#).unwrap_err();
        assert!(
            matches!(&e, ImportError::Layer { layer, .. } if layer == "layer0"),
            "{e}"
        );
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
        // An integer of 2^53 or more is refused before any size check, with
        // the layer's name: above 2^53 a JSON number no longer reads back
        // as the integer written.
        let e = from_json_str(
            r#"{"name":"x","target":{"fps":1.0},
                "layers":[{"name":"huge","op":"gemm","m":2,"n":2,"k":2,
                           "repeat":9007199254740992}]}"#,
        )
        .unwrap_err();
        assert!(
            matches!(&e, ImportError::Layer { layer, reason }
                if layer == "huge" && reason.contains("`repeat`")),
            "{e}"
        );
        // 2,048 single-MAC layers repeated 2^53 - 1 times each, plus one
        // repeated `last` times: 2^64 - 2048 + `last` layer instances.
        let repeated = |last: u64| {
            let one = r#"{"op":"gemm","m":1,"n":1,"k":1,"repeat":9007199254740991}"#;
            let mut layers = vec![one.to_string(); 2048];
            layers.push(format!(
                r#"{{"op":"gemm","m":1,"n":1,"k":1,"repeat":{last}}}"#
            ));
            let layers = layers.join(",");
            from_json_str(&format!(
                r#"{{"name":"x","target":{{"fps":1.0}},"layers":[{layers}]}}"#
            ))
        };
        // The repeat total, 2^64 + 1, does not fit.
        let e = repeated(2049).unwrap_err();
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
        let m = repeated(2047).unwrap();
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
