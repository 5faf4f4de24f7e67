//! Canonical representation of an execution-critical DNN operator.
//!
//! All operators are expressed in a single seven-dimensional loop-nest form
//! `(N, M, C, OY, OX, FY, FX)` following the dMazeRunner convention:
//!
//! * `N`  — batch size,
//! * `M`  — output channels / filters,
//! * `C`  — input channels (reduction),
//! * `OY`, `OX` — output feature-map height and width,
//! * `FY`, `FX` — filter height and width (reduction).
//!
//! A GEMM `M×K · K×N` maps onto the nest as `M=M, C=K, OX=N` with all other
//! extents set to one, which makes every tensor-volume formula below reduce
//! to the exact GEMM volumes. A depthwise convolution keeps `C = 1` and is
//! flagged with [`OpKind::DepthwiseConv`] so that the *input* channel count
//! is taken from `M` (each output channel reads its own input channel).

use serde::{Deserialize, Serialize};

/// The kind of operator a [`LayerShape`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OpKind {
    /// Standard convolution: reduction over `C`, `FY`, `FX`.
    Conv,
    /// Depthwise convolution: one input channel per output channel (`C = 1`).
    DepthwiseConv,
    /// Dense matrix multiply (fully-connected layers, attention projections).
    Gemm,
}

impl OpKind {
    /// Short lowercase tag used in reports, e.g. `conv` / `dwconv` / `gemm`.
    pub fn tag(self) -> &'static str {
        match self {
            OpKind::Conv => "conv",
            OpKind::DepthwiseConv => "dwconv",
            OpKind::Gemm => "gemm",
        }
    }
}

/// The tensors (operands) a layer exchanges with the memory hierarchy.
///
/// Output appears twice because partial sums may be both read and written,
/// mirroring the four dedicated operand NoCs of the accelerator template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Tensor {
    /// Input feature map (or GEMM right-hand matrix).
    Input,
    /// Weights / filters (or GEMM left-hand matrix).
    Weight,
    /// Partial-sum reads of the output tensor.
    OutputRead,
    /// Output (final or partial-sum) writes.
    OutputWrite,
}

impl Tensor {
    /// All four operands in canonical order.
    pub const ALL: [Tensor; 4] = [
        Tensor::Input,
        Tensor::Weight,
        Tensor::OutputRead,
        Tensor::OutputWrite,
    ];

    /// Canonical index of this operand in `0..4`.
    pub fn index(self) -> usize {
        match self {
            Tensor::Input => 0,
            Tensor::Weight => 1,
            Tensor::OutputRead => 2,
            Tensor::OutputWrite => 3,
        }
    }

    /// Short lowercase tag, e.g. for report column headers.
    pub fn tag(self) -> &'static str {
        match self {
            Tensor::Input => "in",
            Tensor::Weight => "wt",
            Tensor::OutputRead => "out_rd",
            Tensor::OutputWrite => "out_wr",
        }
    }
}

/// Names of the seven canonical loop dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Dim {
    /// Batch.
    N,
    /// Output channels.
    M,
    /// Input channels (reduction).
    C,
    /// Output rows.
    Oy,
    /// Output columns.
    Ox,
    /// Filter rows (reduction).
    Fy,
    /// Filter columns (reduction).
    Fx,
}

impl Dim {
    /// All seven dimensions in canonical order `[N, M, C, OY, OX, FY, FX]`.
    pub const ALL: [Dim; 7] = [Dim::N, Dim::M, Dim::C, Dim::Oy, Dim::Ox, Dim::Fy, Dim::Fx];

    /// Canonical index of this dimension in `0..7`.
    pub fn index(self) -> usize {
        match self {
            Dim::N => 0,
            Dim::M => 1,
            Dim::C => 2,
            Dim::Oy => 3,
            Dim::Ox => 4,
            Dim::Fy => 5,
            Dim::Fx => 6,
        }
    }

    /// Short lowercase tag (`n`, `m`, `c`, `oy`, `ox`, `fy`, `fx`).
    pub fn tag(self) -> &'static str {
        match self {
            Dim::N => "n",
            Dim::M => "m",
            Dim::C => "c",
            Dim::Oy => "oy",
            Dim::Ox => "ox",
            Dim::Fy => "fy",
            Dim::Fx => "fx",
        }
    }

    /// Whether the dimension is a reduction dimension (irrelevant to the
    /// output tensor: iterating it revisits the same output elements).
    pub fn is_reduction(self) -> bool {
        matches!(self, Dim::C | Dim::Fy | Dim::Fx)
    }
}

/// Shape of one execution-critical operator in canonical loop-nest form.
///
/// Construct with [`LayerShape::conv`], [`LayerShape::dwconv`] or
/// [`LayerShape::gemm`]; the raw constructor is private so every value is
/// validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LayerShape {
    n: u64,
    m: u64,
    c: u64,
    oy: u64,
    ox: u64,
    fy: u64,
    fx: u64,
    stride: u64,
    kind: OpKind,
}

impl LayerShape {
    /// Standard convolution producing an `m × oy × ox` output from `c` input
    /// channels with an `fy × fx` filter and the given stride.
    ///
    /// # Panics
    ///
    /// Panics if any extent or the stride is zero.
    #[allow(clippy::too_many_arguments)] // the seven canonical extents + stride
    pub fn conv(n: u64, m: u64, c: u64, oy: u64, ox: u64, fy: u64, fx: u64, stride: u64) -> Self {
        let s = Self {
            n,
            m,
            c,
            oy,
            ox,
            fy,
            fx,
            stride,
            kind: OpKind::Conv,
        };
        s.validate();
        s
    }

    /// Depthwise convolution over `m` channels (input channels == `m`).
    ///
    /// # Panics
    ///
    /// Panics if any extent or the stride is zero.
    pub fn dwconv(n: u64, m: u64, oy: u64, ox: u64, fy: u64, fx: u64, stride: u64) -> Self {
        let s = Self {
            n,
            m,
            c: 1,
            oy,
            ox,
            fy,
            fx,
            stride,
            kind: OpKind::DepthwiseConv,
        };
        s.validate();
        s
    }

    /// Dense GEMM computing an `m × nn` output with reduction depth `k`
    /// (i.e. `out[m][nn] = Σ_k  W[m][k] · In[k][nn]`).
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero.
    pub fn gemm(m: u64, nn: u64, k: u64) -> Self {
        let s = Self {
            n: 1,
            m,
            c: k,
            oy: 1,
            ox: nn,
            fy: 1,
            fx: 1,
            stride: 1,
            kind: OpKind::Gemm,
        };
        s.validate();
        s
    }

    fn validate(&self) {
        assert!(
            self.n > 0
                && self.m > 0
                && self.c > 0
                && self.oy > 0
                && self.ox > 0
                && self.fy > 0
                && self.fx > 0,
            "layer extents must be non-zero: {self:?}"
        );
        assert!(self.stride > 0, "stride must be non-zero");
        if self.kind == OpKind::DepthwiseConv {
            assert_eq!(self.c, 1, "depthwise convolutions use c = 1");
        }
    }

    /// The operator kind.
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// Convolution stride (1 for GEMMs).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Loop extents in canonical order `[N, M, C, OY, OX, FY, FX]`.
    pub fn dims(&self) -> [u64; 7] {
        [self.n, self.m, self.c, self.oy, self.ox, self.fy, self.fx]
    }

    /// Extent of one canonical dimension.
    pub fn dim(&self, d: Dim) -> u64 {
        self.dims()[d.index()]
    }

    /// Number of input channels actually read (differs from `C` only for
    /// depthwise convolutions, where each output channel has its own input).
    pub fn input_channels(&self) -> u64 {
        match self.kind {
            OpKind::DepthwiseConv => self.m,
            _ => self.c,
        }
    }

    /// Input feature-map spatial extent `(iy, ix)` implied by the output
    /// size, filter size and stride (padding is folded in, i.e. we charge
    /// exactly the accessed halo region).
    pub fn input_hw(&self) -> (u64, u64) {
        let iy = (self.oy - 1) * self.stride + self.fy;
        let ix = (self.ox - 1) * self.stride + self.fx;
        (iy, ix)
    }

    /// Whether [`Self::macs`] and every [`Self::tensor_elems`] (the input
    /// halo included) fit `u64`. The weight and output volumes divide the
    /// MAC count, so checking the MACs and the input volume covers all.
    pub(crate) fn sizes_fit_u64(&self) -> bool {
        let product = |xs: [u64; 4]| xs.iter().try_fold(1u64, |acc, &x| acc.checked_mul(x));
        let halo = |o: u64, f: u64| (o - 1).checked_mul(self.stride)?.checked_add(f);
        let macs = product([self.n, self.m, self.c, self.oy])
            .and_then(|head| product([head, self.ox, self.fy, self.fx]));
        let input = halo(self.oy, self.fy)
            .zip(halo(self.ox, self.fx))
            .and_then(|(iy, ix)| product([self.n, self.input_channels(), iy, ix]));
        macs.is_some() && input.is_some()
    }

    /// Multiply-accumulate operations performed by the layer.
    pub fn macs(&self) -> u64 {
        self.n * self.m * self.c * self.oy * self.ox * self.fy * self.fx
    }

    /// Total elements of one operand tensor.
    ///
    /// [`Tensor::OutputRead`] and [`Tensor::OutputWrite`] both report the
    /// output tensor volume; how many times it is actually moved depends on
    /// the mapping and is computed by the execution model.
    pub fn tensor_elems(&self, t: Tensor) -> u64 {
        match t {
            Tensor::Weight => self.m * self.c * self.fy * self.fx,
            Tensor::Input => {
                let (iy, ix) = self.input_hw();
                self.n * self.input_channels() * iy * ix
            }
            Tensor::OutputRead | Tensor::OutputWrite => self.n * self.m * self.oy * self.ox,
        }
    }

    /// Whether a loop dimension indexes (is *relevant to*) an operand: tiling
    /// or iterating a relevant dimension changes which elements of the
    /// operand are touched, while irrelevant dimensions give reuse.
    pub fn relevant(&self, t: Tensor, d: Dim) -> bool {
        match t {
            Tensor::Weight => matches!(d, Dim::M | Dim::C | Dim::Fy | Dim::Fx),
            Tensor::Input => match self.kind {
                // Depthwise: the input is indexed by the output channel.
                OpKind::DepthwiseConv => {
                    matches!(d, Dim::N | Dim::M | Dim::Oy | Dim::Ox | Dim::Fy | Dim::Fx)
                }
                _ => matches!(d, Dim::N | Dim::C | Dim::Oy | Dim::Ox | Dim::Fy | Dim::Fx),
            },
            Tensor::OutputRead | Tensor::OutputWrite => {
                matches!(d, Dim::N | Dim::M | Dim::Oy | Dim::Ox)
            }
        }
    }

    /// The same shape with a different batch size (server/multi-stream
    /// scenarios; single-stream inference uses batch 1).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_batch(&self, n: u64) -> Self {
        assert!(n > 0, "batch must be non-zero");
        let mut s = *self;
        s.n = n;
        s
    }

    /// Human-readable one-line description, e.g. `conv 64x3x7x7 s2 -> 112x112`.
    pub fn describe(&self) -> String {
        match self.kind {
            OpKind::Gemm => format!("gemm {}x{} . {}x{}", self.m, self.c, self.c, self.ox),
            _ => format!(
                "{} n{} m{} c{} {}x{} f{}x{} s{}",
                self.kind.tag(),
                self.n,
                self.m,
                self.input_channels(),
                self.oy,
                self.ox,
                self.fy,
                self.fx,
                self.stride
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_maps_to_canonical_nest() {
        let g = LayerShape::gemm(512, 196, 2048);
        assert_eq!(g.macs(), 512 * 196 * 2048);
        assert_eq!(g.tensor_elems(Tensor::Weight), 512 * 2048);
        assert_eq!(g.tensor_elems(Tensor::Input), 2048 * 196);
        assert_eq!(g.tensor_elems(Tensor::OutputWrite), 512 * 196);
    }

    #[test]
    fn conv_volumes() {
        let c = LayerShape::conv(1, 64, 3, 112, 112, 7, 7, 2);
        assert_eq!(c.macs(), 64 * 3 * 112 * 112 * 49);
        assert_eq!(c.tensor_elems(Tensor::Weight), 64 * 3 * 49);
        let (iy, ix) = c.input_hw();
        assert_eq!((iy, ix), (111 * 2 + 7, 111 * 2 + 7));
        assert_eq!(c.tensor_elems(Tensor::Input), 3 * iy * ix);
    }

    #[test]
    fn depthwise_input_channels_follow_m() {
        let d = LayerShape::dwconv(1, 32, 56, 56, 3, 3, 1);
        assert_eq!(d.input_channels(), 32);
        assert_eq!(d.macs(), 32 * 56 * 56 * 9);
        // Depthwise input is indexed by M, not C.
        assert!(d.relevant(Tensor::Input, Dim::M));
        assert!(!d.relevant(Tensor::Input, Dim::C));
    }

    #[test]
    fn relevance_matrix_for_conv() {
        let c = LayerShape::conv(1, 8, 8, 8, 8, 3, 3, 1);
        // Weights never depend on batch or output position.
        for d in [Dim::N, Dim::Oy, Dim::Ox] {
            assert!(!c.relevant(Tensor::Weight, d));
        }
        // Outputs never depend on reduction dims.
        for d in [Dim::C, Dim::Fy, Dim::Fx] {
            assert!(!c.relevant(Tensor::OutputWrite, d));
            assert!(d.is_reduction());
        }
        // Inputs depend on everything except M (for standard conv).
        assert!(!c.relevant(Tensor::Input, Dim::M));
        for d in [Dim::N, Dim::C, Dim::Oy, Dim::Ox, Dim::Fy, Dim::Fx] {
            assert!(c.relevant(Tensor::Input, d));
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_extent_rejected() {
        let _ = LayerShape::conv(1, 0, 3, 8, 8, 3, 3, 1);
    }

    #[test]
    fn describe_is_nonempty_and_tagged() {
        assert!(LayerShape::gemm(2, 3, 4).describe().starts_with("gemm"));
        assert!(LayerShape::dwconv(1, 8, 4, 4, 3, 3, 1)
            .describe()
            .starts_with("dwconv"));
    }
}
