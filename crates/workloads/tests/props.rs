//! Property-based tests for layer-shape invariants.

use proptest::prelude::*;
use workloads::layer::Dim;
use workloads::{LayerShape, Tensor};

/// The model description from the `workloads::import` module docs.
const IMPORT_SAMPLE: &str = r#"{
  "name": "MyNet",
  "target": { "fps": 30.0 },
  "layers": [
    { "name": "conv1", "op": "conv", "m": 64, "c": 3,
      "oy": 112, "ox": 112, "fy": 7, "fx": 7, "stride": 2 },
    { "name": "blocks", "op": "dwconv", "m": 64, "oy": 56, "ox": 56,
      "fy": 3, "fx": 3, "repeat": 4 },
    { "name": "fc", "op": "gemm", "m": 1000, "n": 1, "k": 512 }
  ]
}"#;

/// One way of damaging a model description. Positions are taken modulo
/// the length, so every mutation applies to any document.
#[derive(Debug, Clone)]
enum Mutation {
    /// XOR the byte at `at` with a non-zero `mask`.
    Flip { at: usize, mask: u8 },
    /// Cut the document at `at`.
    Truncate { at: usize },
    /// Copy `len` bytes starting at `from` in front of `at`.
    Splice { from: usize, len: usize, at: usize },
    /// Overwrite the `nth` run of ASCII digits with `digits`: extents,
    /// strides and repeats grow to sizes whose products overflow.
    Digits { nth: usize, digits: String },
}

impl Mutation {
    fn apply(&self, bytes: &mut Vec<u8>) {
        let n = bytes.len();
        if n == 0 {
            return;
        }
        match self {
            Mutation::Flip { at, mask } => bytes[at % n] ^= mask,
            Mutation::Truncate { at } => bytes.truncate(at % n),
            Mutation::Splice { from, len, at } => {
                let from = from % n;
                let piece = bytes[from..(from + len).min(n)].to_vec();
                bytes.splice(at % n..at % n, piece);
            }
            Mutation::Digits { nth, digits } => {
                let starts: Vec<usize> = (0..n)
                    .filter(|&i| {
                        bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit())
                    })
                    .collect();
                if starts.is_empty() {
                    return;
                }
                let start = starts[nth % starts.len()];
                let end = start
                    + bytes[start..]
                        .iter()
                        .take_while(|b| b.is_ascii_digit())
                        .count();
                bytes.splice(start..end, digits.bytes());
            }
        }
    }
}

/// Long digit strings written over a digit run: around 2^32, 2^63 and
/// 2^64, plus ones past `u64`.
fn arb_digits() -> impl Strategy<Value = Mutation> {
    let digits = prop_oneof![
        Just("4294967296".to_string()),
        Just("9223372036854775807".to_string()),
        Just("18446744073709551615".to_string()),
        Just("18446744073709551616".to_string()),
        (1usize..40).prop_map(|len| "9".repeat(len)),
        (1u64..u64::MAX).prop_map(|v| v.to_string()),
    ];
    (0usize..64, digits).prop_map(|(nth, digits)| Mutation::Digits { nth, digits })
}

fn arb_damage() -> impl Strategy<Value = Mutation> {
    let pos = || 0usize..1 << 12;
    prop_oneof![
        (pos(), 1u8..=255).prop_map(|(at, mask)| Mutation::Flip { at, mask }),
        pos().prop_map(|at| Mutation::Truncate { at }),
        (pos(), 1usize..64, pos()).prop_map(|(from, len, at)| Mutation::Splice { from, len, at }),
    ]
}

fn arb_conv() -> impl Strategy<Value = LayerShape> {
    (
        1u64..=4,   // n
        1u64..=512, // m
        1u64..=512, // c
        1u64..=64,  // oy
        1u64..=64,  // ox
        1u64..=7,   // fy
        1u64..=7,   // fx
        1u64..=2,   // stride
    )
        .prop_map(|(n, m, c, oy, ox, fy, fx, s)| LayerShape::conv(n, m, c, oy, ox, fy, fx, s))
}

fn arb_gemm() -> impl Strategy<Value = LayerShape> {
    (1u64..=4096, 1u64..=512, 1u64..=4096).prop_map(|(m, n, k)| LayerShape::gemm(m, n, k))
}

proptest! {
    #[test]
    fn macs_equal_product_of_extents(l in arb_conv()) {
        let prod: u64 = l.dims().iter().product();
        prop_assert_eq!(l.macs(), prod);
    }

    #[test]
    fn every_dim_is_relevant_to_some_operand(l in arb_conv()) {
        for d in Dim::ALL {
            let touched = Tensor::ALL.iter().any(|op| l.relevant(*op, d));
            prop_assert!(touched, "dim {:?} relevant to nothing", d);
        }
    }

    #[test]
    fn reduction_dims_never_index_outputs(l in arb_conv()) {
        for d in Dim::ALL.into_iter().filter(|d| d.is_reduction()) {
            prop_assert!(!l.relevant(Tensor::OutputWrite, d));
            prop_assert!(!l.relevant(Tensor::OutputRead, d));
        }
    }

    #[test]
    fn input_halo_is_at_least_output_extent(l in arb_conv()) {
        let (iy, ix) = l.input_hw();
        prop_assert!(iy >= l.dim(Dim::Oy));
        prop_assert!(ix >= l.dim(Dim::Ox));
    }

    #[test]
    fn gemm_volumes_are_exact(l in arb_gemm()) {
        let (m, k, n) = (l.dim(Dim::M), l.dim(Dim::C), l.dim(Dim::Ox));
        prop_assert_eq!(l.tensor_elems(Tensor::Weight), m * k);
        prop_assert_eq!(l.tensor_elems(Tensor::Input), k * n);
        prop_assert_eq!(l.tensor_elems(Tensor::OutputWrite), m * n);
        prop_assert_eq!(l.macs(), m * k * n);
    }

    #[test]
    fn output_volume_never_exceeds_macs(l in arb_conv()) {
        prop_assert!(l.tensor_elems(Tensor::OutputWrite) <= l.macs());
        prop_assert!(l.tensor_elems(Tensor::Weight) <= l.macs());
    }

    #[test]
    fn serde_roundtrip(l in arb_conv()) {
        let json = serde_json::to_string(&l).unwrap();
        let back: LayerShape = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(l, back);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Model import returns `Ok` or `Err` on damaged descriptions without
    /// panicking, and every model it accepts has sizes that fit `u64`: the
    /// layer count, the total MAC count, the unique shapes and each
    /// layer's MAC count and operand volumes compute without an overflow
    /// panic.
    #[test]
    fn damaged_model_descriptions_import_or_fail_without_panicking(
        digits in proptest::collection::vec(arb_digits(), 1..4),
        damage in proptest::collection::vec(arb_damage(), 0..2),
    ) {
        let mut bytes = IMPORT_SAMPLE.as_bytes().to_vec();
        for m in digits.iter().chain(&damage) {
            m.apply(&mut bytes);
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(model) = workloads::from_json_str(&text) {
            let count = model.layer_count();
            let _ = model.total_macs();
            let unique = model.unique_shapes();
            prop_assert!(unique.iter().map(|u| u.count).sum::<u64>() == count);
            for layer in model.layers() {
                let _ = layer.shape.macs();
                for t in Tensor::ALL {
                    let _ = layer.shape.tensor_elems(t);
                }
            }
        }
    }
}
