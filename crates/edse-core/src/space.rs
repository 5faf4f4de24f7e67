//! Design-space description: parameters, their value domains, and design
//! points, plus the paper's Table-1 edge-accelerator space.

use crate::job::{opt, req_arr, req_f64, req_obj, req_str};
use accel_model::AcceleratorConfig;
use edse_telemetry::json;

/// Index of a parameter within a [`DesignSpace`].
pub type ParamId = usize;

/// One design parameter with its ordered domain of numeric values.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDef {
    name: String,
    values: Vec<f64>,
}

impl ParamDef {
    /// Builds a parameter definition, checking its domain.
    ///
    /// # Errors
    ///
    /// Returns a message naming the parameter if `values` is empty or not
    /// strictly ascending.
    pub fn try_new(name: impl Into<String>, values: Vec<f64>) -> Result<Self, String> {
        let name = name.into();
        if values.is_empty() {
            return Err(format!("parameter `{name}` has an empty domain"));
        }
        if !values.windows(2).all(|w| w[0] < w[1]) {
            return Err(format!(
                "parameter `{name}` values must be strictly ascending"
            ));
        }
        Ok(Self { name, values })
    }

    /// Builds a parameter definition.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or not strictly ascending (see
    /// [`ParamDef::try_new`]).
    pub fn new(name: impl Into<String>, values: Vec<f64>) -> Self {
        Self::try_new(name, values).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Parameter name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ordered domain.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of options.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the domain has a single value.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Index of the smallest domain value `>= target`, or the last index
    /// when `target` exceeds the domain (the paper's round-up rule for
    /// predicted values not present in the space).
    pub fn round_up_index(&self, target: f64) -> usize {
        self.values
            .iter()
            .position(|&v| v >= target)
            .unwrap_or(self.values.len() - 1)
    }
}

/// An ordered collection of design parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    params: Vec<ParamDef>,
}

impl DesignSpace {
    /// Builds a space from parameter definitions.
    ///
    /// # Panics
    ///
    /// Panics if `params` is empty.
    pub fn new(params: Vec<ParamDef>) -> Self {
        assert!(!params.is_empty(), "a design space needs parameters");
        Self { params }
    }

    /// The parameters.
    pub fn params(&self) -> &[ParamDef] {
        &self.params
    }

    /// Parameter definition by id.
    pub fn param(&self, id: ParamId) -> &ParamDef {
        &self.params[id]
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the space has no parameters (never true for valid spaces).
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// log10 of the number of distinct design points.
    pub fn log10_size(&self) -> f64 {
        self.params.iter().map(|p| (p.len() as f64).log10()).sum()
    }

    /// The design point with every parameter at its minimum (the paper's
    /// initial DSE point).
    pub fn minimum_point(&self) -> DesignPoint {
        DesignPoint::new(vec![0; self.params.len()])
    }

    /// The value of parameter `id` in `point`.
    pub fn value(&self, point: &DesignPoint, id: ParamId) -> f64 {
        self.params[id].values()[point.index(id)]
    }
}

/// A design point: one chosen value index per parameter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DesignPoint(Vec<usize>);

impl DesignPoint {
    /// Builds a point from raw indices.
    pub fn new(indices: Vec<usize>) -> Self {
        Self(indices)
    }

    /// The chosen index for a parameter.
    pub fn index(&self, id: ParamId) -> usize {
        self.0[id]
    }

    /// All indices.
    pub fn indices(&self) -> &[usize] {
        &self.0
    }

    /// A copy with one parameter's index replaced.
    pub fn with_index(&self, id: ParamId, index: usize) -> Self {
        let mut v = self.0.clone();
        v[id] = index;
        Self(v)
    }
}

/// Parameter ids of the edge space, in Table-1 order.
pub mod edge {
    use super::ParamId;

    /// Total PEs.
    pub const PES: ParamId = 0;
    /// L1 (register file) bytes per PE.
    pub const L1_BYTES: ParamId = 1;
    /// L2 (scratchpad) kilobytes.
    pub const L2_KB: ParamId = 2;
    /// Off-chip bandwidth, MB/s.
    pub const OFFCHIP_BW: ParamId = 3;
    /// NoC data width, bits.
    pub const NOC_WIDTH: ParamId = 4;
    /// Physical unicast multiplier for operand NoC `op` (links =
    /// `PEs * i / 64`).
    pub const fn phys_links(op: usize) -> ParamId {
        5 + op
    }
    /// Virtual (time-shared) unicast instances for operand NoC `op`.
    pub const fn virt_links(op: usize) -> ParamId {
        9 + op
    }
    /// Total parameter count.
    pub const COUNT: usize = 13;
}

/// Parses a design space from JSON, e.g.
///
/// ```json
/// { "params": [ { "name": "pes", "values": [64, 128, 256] },
///               { "name": "l2_kb", "values": [64, 128] } ] }
/// ```
///
/// This is the "comprehensive design space specification" entry point of
/// the paper's §B: users define arbitrary domains (not only powers of two)
/// and the bottleneck-guided DSE picks values within them. A missing or
/// `null` member takes its default (no parameters, an empty domain), a
/// member of the wrong type is an error naming it, and unknown members are
/// ignored.
///
/// # Errors
///
/// Returns a message naming the offending parameter for a missing name and
/// for empty or unsorted domains ([`ParamDef::try_new`]'s check), or the
/// JSON error for malformed input.
pub fn space_from_json(json: &str) -> Result<DesignSpace, String> {
    let doc = json::parse(json).map_err(|e| format!("invalid JSON: {e}"))?;
    req_obj(&doc, "space")?;
    let entries = opt(&doc, "params", req_arr)?.unwrap_or_default();
    if entries.is_empty() {
        return Err("a design space needs at least one parameter".into());
    }
    let mut params = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let name = req_obj(entry, "params[..]")
            .and_then(|entry| opt(entry, "name", req_str))
            .and_then(|name| name.ok_or_else(|| "`name` is required".to_string()))
            .map_err(|e| format!("parameter {i}: {e}"))?;
        let values = opt(entry, "values", req_arr)
            .and_then(|values| {
                let values = values.unwrap_or_default();
                values.iter().map(|v| req_f64(v, "values[..]")).collect()
            })
            .map_err(|e| format!("parameter `{name}`: {e}"))?;
        params.push(ParamDef::try_new(name, values)?);
    }
    Ok(DesignSpace::new(params))
}

/// The paper's Table-1 design space for edge DNN inference accelerators:
/// thirteen parameters, about `10^13` hardware configurations.
pub fn edge_space() -> DesignSpace {
    let pow2 = |lo: u64, hi: u64| -> Vec<f64> {
        let mut v = Vec::new();
        let mut x = lo;
        while x <= hi {
            v.push(x as f64);
            x *= 2;
        }
        v
    };
    let mut params = vec![
        ParamDef::new("pes", pow2(64, 4096)),
        ParamDef::new("l1_bytes", pow2(8, 1024)),
        ParamDef::new("l2_kb", pow2(64, 4096)),
        ParamDef::new(
            "offchip_bw_mbps",
            vec![
                1024.0, 2048.0, 4096.0, 6400.0, 8192.0, 12800.0, 19200.0, 25600.0, 38400.0, 51200.0,
            ],
        ),
        ParamDef::new(
            "noc_width_bits",
            (1..=16).map(|i| (16 * i) as f64).collect(),
        ),
    ];
    for op in ["in", "wt", "out_rd", "out_wr"] {
        params.push(ParamDef::new(
            format!("phys_unicast_{op}"),
            (1..=64).map(|i| i as f64).collect(),
        ));
    }
    for op in ["in", "wt", "out_rd", "out_wr"] {
        params.push(ParamDef::new(
            format!("virt_unicast_{op}"),
            (0..=3).map(|i| 8f64.powi(i)).collect(),
        ));
    }
    DesignSpace::new(params)
}

/// A datacenter-inference variant of the design space (the paper's §1
/// motivates the vastness argument with a TPU-like space \[86\]): the same
/// thirteen parameters with larger domains — up to 65 536 PEs, 128 MB of
/// scratchpad, multi-TB/s off-chip bandwidth. Pair with laxer constraints
/// (e.g. 400 mm^2 / 250 W) supplied by the caller.
pub fn datacenter_space() -> DesignSpace {
    let pow2 = |lo: u64, hi: u64| -> Vec<f64> {
        let mut v = Vec::new();
        let mut x = lo;
        while x <= hi {
            v.push(x as f64);
            x *= 2;
        }
        v
    };
    let mut params = vec![
        ParamDef::new("pes", pow2(1024, 65_536)),
        ParamDef::new("l1_bytes", pow2(32, 4096)),
        ParamDef::new("l2_kb", pow2(1024, 131_072)),
        ParamDef::new("offchip_bw_mbps", pow2(25_600, 3_276_800)),
        ParamDef::new(
            "noc_width_bits",
            (1..=16).map(|i| (32 * i) as f64).collect(),
        ),
    ];
    for op in ["in", "wt", "out_rd", "out_wr"] {
        params.push(ParamDef::new(
            format!("phys_unicast_{op}"),
            (1..=64).map(|i| i as f64).collect(),
        ));
    }
    for op in ["in", "wt", "out_rd", "out_wr"] {
        params.push(ParamDef::new(
            format!("virt_unicast_{op}"),
            (0..=3).map(|i| 8f64.powi(i)).collect(),
        ));
    }
    DesignSpace::new(params)
}

/// Decodes an edge-space point into an accelerator configuration
/// (500 MHz, int16, as in Table 1).
pub fn decode_edge_point(space: &DesignSpace, point: &DesignPoint) -> AcceleratorConfig {
    let v = |id: ParamId| space.value(point, id);
    let pes = v(edge::PES) as u64;
    let mut phys = [0u64; 4];
    let mut virt = [0u64; 4];
    for op in 0..4 {
        // Physical links are expressed as the fraction `PEs * i / 64`.
        phys[op] = ((pes * v(edge::phys_links(op)) as u64) / 64).max(1);
        virt[op] = v(edge::virt_links(op)) as u64;
    }
    AcceleratorConfig {
        pes,
        l1_bytes: v(edge::L1_BYTES) as u64,
        l2_bytes: v(edge::L2_KB) as u64 * 1024,
        offchip_bw_mbps: v(edge::OFFCHIP_BW) as u64,
        noc_width_bits: v(edge::NOC_WIDTH) as u64,
        noc_phys_links: phys,
        noc_virt_links: virt,
        freq_mhz: 500,
        elem_bytes: 2,
        dma_burst_overhead_cycles: 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_space_matches_table1_option_counts() {
        let s = edge_space();
        assert_eq!(s.len(), edge::COUNT);
        assert_eq!(s.param(edge::PES).len(), 7);
        assert_eq!(s.param(edge::L1_BYTES).len(), 8);
        assert_eq!(s.param(edge::L2_KB).len(), 7);
        assert_eq!(s.param(edge::OFFCHIP_BW).len(), 10);
        assert_eq!(s.param(edge::NOC_WIDTH).len(), 16);
        for op in 0..4 {
            assert_eq!(s.param(edge::phys_links(op)).len(), 64);
            assert_eq!(s.param(edge::virt_links(op)).len(), 4);
        }
        // ~10^14 hardware configurations (the paper quotes 10^14 for a
        // TPU-like space with modest options).
        assert!(
            (12.0..15.0).contains(&s.log10_size()),
            "10^{:.1}",
            s.log10_size()
        );
    }

    #[test]
    fn minimum_point_decodes_to_minimum_config() {
        let s = edge_space();
        let cfg = decode_edge_point(&s, &s.minimum_point());
        assert_eq!(cfg.pes, 64);
        assert_eq!(cfg.l1_bytes, 8);
        assert_eq!(cfg.l2_bytes, 64 * 1024);
        assert_eq!(cfg.offchip_bw_mbps, 1024);
        assert_eq!(cfg.noc_phys_links, [1, 1, 1, 1]);
        assert_eq!(cfg.noc_virt_links, [1, 1, 1, 1]);
    }

    #[test]
    fn round_up_index_rounds_to_domain() {
        let p = ParamDef::new("pes", vec![64.0, 128.0, 256.0]);
        assert_eq!(p.round_up_index(65.0), 1);
        assert_eq!(p.round_up_index(128.0), 1);
        assert_eq!(p.round_up_index(1e9), 2);
        assert_eq!(p.round_up_index(1.0), 0);
    }

    #[test]
    fn with_index_is_single_param_change() {
        let s = edge_space();
        let p = s.minimum_point();
        let q = p.with_index(edge::PES, 3);
        assert_eq!(q.index(edge::PES), 3);
        let diffs = p
            .indices()
            .iter()
            .zip(q.indices())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diffs, 1);
    }

    #[test]
    fn virtual_links_are_powers_of_eight() {
        let s = edge_space();
        assert_eq!(
            s.param(edge::virt_links(0)).values(),
            &[1.0, 8.0, 64.0, 512.0]
        );
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn descending_domain_rejected() {
        let _ = ParamDef::new("x", vec![2.0, 1.0]);
    }

    #[test]
    fn space_parses_from_json_and_validates() {
        let s = space_from_json(
            r#"{ "params": [ { "name": "pes", "values": [64, 100, 256] },
                             { "name": "l2_kb", "values": [64] } ] }"#,
        )
        .expect("valid space");
        assert_eq!(s.len(), 2);
        assert_eq!(s.param(0).round_up_index(90.0), 1);

        let err = space_from_json(r#"{ "params": [ { "name": "bad", "values": [2, 1] } ] }"#)
            .unwrap_err();
        assert!(err.contains("bad"), "{err}");

        let err = space_from_json(r#"{ "params": [] }"#).unwrap_err();
        assert!(err.contains("at least one"), "{err}");
    }

    #[test]
    fn space_members_follow_the_document_rules() {
        // Unknown members are ignored.
        let s = space_from_json(
            r#"{"version":2,"params":[{"name":"pes","values":[1,2],"unit":"count"}]}"#,
        )
        .unwrap();
        assert_eq!(s.param(0).values(), &[1.0, 2.0]);
        // A member of the wrong type is an error naming it.
        for (doc, member) in [
            (r#"{"params":{}}"#, "params"),
            (r#"{"params":[3]}"#, "params[..]"),
            (r#"{"params":[{"name":1,"values":[1]}]}"#, "name"),
            (r#"{"params":[{"values":[1]}]}"#, "name"),
            (r#"{"params":[{"name":"pes","values":"1,2"}]}"#, "values"),
            (
                r#"{"params":[{"name":"pes","values":[1,null]}]}"#,
                "values[..]",
            ),
        ] {
            let err = space_from_json(doc).unwrap_err();
            assert!(err.contains(&format!("`{member}`")), "{doc}: {err}");
        }
        // A missing or `null` member takes its default, which the checks
        // then refuse.
        for doc in [r#"{}"#, r#"{"params":null}"#] {
            let err = space_from_json(doc).unwrap_err();
            assert!(err.contains("at least one"), "{doc}: {err}");
        }
        for doc in [
            r#"{"params":[{"name":"pes"}]}"#,
            r#"{"params":[{"name":"pes","values":null}]}"#,
        ] {
            let err = space_from_json(doc).unwrap_err();
            assert!(err.contains("`pes` has an empty domain"), "{doc}: {err}");
        }
    }

    #[test]
    fn try_new_refuses_what_new_panics_on() {
        let err = ParamDef::try_new("x", vec![]).unwrap_err();
        assert!(err.contains("empty domain"), "{err}");
        let err = ParamDef::try_new("x", vec![1.0, 1.0]).unwrap_err();
        assert!(err.contains("ascending"), "{err}");
        assert_eq!(
            ParamDef::try_new("x", vec![1.0, 2.0]),
            Ok(ParamDef::new("x", vec![1.0, 2.0]))
        );
    }

    #[test]
    fn datacenter_space_is_vaster_than_edge() {
        let edge = edge_space();
        let dc = datacenter_space();
        assert_eq!(dc.len(), edge.len(), "same parameter structure");
        // Comparable combinatorics (~10^14 points), far larger extents.
        assert!(dc.log10_size() > 12.0);
        let max = |s: &DesignSpace, i: usize| *s.param(i).values().last().unwrap();
        assert!(max(&dc, edge::PES) > max(&edge, edge::PES));
        assert!(max(&dc, edge::L2_KB) > max(&edge, edge::L2_KB));
        // The decode path works unchanged (same parameter layout).
        let cfg = decode_edge_point(&dc, &dc.minimum_point());
        assert_eq!(cfg.pes, 1024);
        assert_eq!(cfg.l2_bytes, 1024 * 1024);
    }
}
