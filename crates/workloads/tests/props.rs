//! Property-based tests for layer-shape invariants.

use proptest::prelude::*;
use workloads::layer::Dim;
use workloads::{LayerShape, Tensor};

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
}
