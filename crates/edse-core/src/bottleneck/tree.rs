//! Graph (tree) representation of a bottleneck model and its analysis.
//!
//! A bottleneck tree expresses how intermediate factors combine into a
//! total cost: each node is a mathematical function (max, sum, product,
//! division, min) of its children; leaves carry populated values of design
//! parameters or execution characteristics (paper Fig. 7a / Fig. 8).
//! Unlike a conventional cost model that returns a single number, the tree
//! is explicitly analyzable: contributions can be traced top-down and the
//! dominant path extracted.

use std::fmt::Write as _;

/// The mathematical function a node applies to its children.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Maximum of children (e.g. overlapped latency factors).
    Max,
    /// Sum of children (e.g. serialized DMA transfers).
    Sum,
    /// Product of children.
    Product,
    /// First child divided by the product of the rest (e.g. bytes / BW).
    Div,
    /// Minimum of children.
    Min,
    /// A populated value (design parameter or execution characteristic).
    Leaf,
}

/// Identifier of a node within its tree.
pub type NodeId = usize;

/// One node of a bottleneck tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Name, e.g. `"t_dma"` or `"t_noc:wt"`. Names ending in `":<tag>"`
    /// carry a domain tag (the paper's operand annotation).
    pub name: String,
    /// The function applied to children.
    pub kind: NodeKind,
    /// Child node ids (empty for leaves).
    pub children: Vec<NodeId>,
    /// Populated value for leaves; computed for interior nodes by
    /// [`BottleneckTree::evaluate`].
    pub value: f64,
}

impl Node {
    /// The domain tag after the last `:` in the name, if any
    /// (e.g. `"wt"` for `"t_noc:wt"`).
    pub fn tag(&self) -> Option<&str> {
        self.name.rsplit_once(':').map(|(_, t)| t)
    }
}

/// A bottleneck-model tree with populated values.
#[derive(Debug, Clone, PartialEq)]
pub struct BottleneckTree {
    nodes: Vec<Node>,
    root: NodeId,
}

/// Incremental builder for [`BottleneckTree`].
///
/// # Example
///
/// ```
/// use edse_core::bottleneck::tree::TreeBuilder;
///
/// let mut b = TreeBuilder::new();
/// let comp = b.leaf("t_comp", 100.0);
/// let dma = b.leaf("t_dma", 385.0);
/// let root = b.max("latency", vec![comp, dma]);
/// let tree = b.build(root);
/// assert_eq!(tree.value(tree.root()), 385.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TreeBuilder {
    nodes: Vec<Node>,
}

impl TreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, name: impl Into<String>, kind: NodeKind, children: Vec<NodeId>) -> NodeId {
        for &c in &children {
            assert!(c < self.nodes.len(), "child {c} does not exist yet");
        }
        assert!(
            kind == NodeKind::Leaf || !children.is_empty(),
            "interior nodes need children"
        );
        self.nodes.push(Node {
            name: name.into(),
            kind,
            children,
            value: 0.0,
        });
        self.nodes.len() - 1
    }

    /// Adds a populated leaf.
    pub fn leaf(&mut self, name: impl Into<String>, value: f64) -> NodeId {
        let id = self.push(name, NodeKind::Leaf, vec![]);
        self.nodes[id].value = value;
        id
    }

    /// Adds a max node.
    pub fn max(&mut self, name: impl Into<String>, children: Vec<NodeId>) -> NodeId {
        self.push(name, NodeKind::Max, children)
    }

    /// Adds a sum node.
    pub fn sum(&mut self, name: impl Into<String>, children: Vec<NodeId>) -> NodeId {
        self.push(name, NodeKind::Sum, children)
    }

    /// Adds a product node.
    pub fn product(&mut self, name: impl Into<String>, children: Vec<NodeId>) -> NodeId {
        self.push(name, NodeKind::Product, children)
    }

    /// Adds a division node (first child over the product of the rest).
    pub fn div(&mut self, name: impl Into<String>, children: Vec<NodeId>) -> NodeId {
        assert!(
            children.len() >= 2,
            "division needs numerator and denominator"
        );
        self.push(name, NodeKind::Div, children)
    }

    /// Adds a min node.
    pub fn min(&mut self, name: impl Into<String>, children: Vec<NodeId>) -> NodeId {
        self.push(name, NodeKind::Min, children)
    }

    /// Clones a subtree of another tree into this builder, multiplying
    /// every leaf value by `leaf_scale` (node names are preserved).
    /// Max/sum trees are homogeneous, so interior values scale
    /// consistently after [`Self::build`].
    ///
    /// Returns the id of the cloned subtree's root in this builder.
    pub fn graft(&mut self, tree: &BottleneckTree, node: NodeId, leaf_scale: f64) -> NodeId {
        let n = tree.node(node);
        if n.kind == NodeKind::Leaf {
            return self.leaf(n.name.clone(), n.value * leaf_scale);
        }
        let children: Vec<NodeId> = n
            .children
            .iter()
            .map(|&c| self.graft(tree, c, leaf_scale))
            .collect();
        self.push(n.name.clone(), n.kind, children)
    }

    /// Finishes the tree with `root` and evaluates all interior values.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a node of this builder.
    pub fn build(self, root: NodeId) -> BottleneckTree {
        assert!(root < self.nodes.len(), "root does not exist");
        let mut tree = BottleneckTree {
            nodes: self.nodes,
            root,
        };
        tree.evaluate();
        tree
    }
}

impl BottleneckTree {
    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The computed value of a node.
    pub fn value(&self, id: NodeId) -> f64 {
        self.nodes[id].value
    }

    /// Finds the first node with the given name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// Recomputes interior node values bottom-up from leaf values.
    pub fn evaluate(&mut self) {
        // Nodes are created before their parents, so a forward pass in id
        // order would be wrong; instead evaluate recursively from the root.
        fn eval(nodes: &mut Vec<Node>, id: NodeId) -> f64 {
            let (kind, children) = (nodes[id].kind, nodes[id].children.clone());
            let v = match kind {
                NodeKind::Leaf => nodes[id].value,
                NodeKind::Max => children
                    .iter()
                    .map(|&c| eval(nodes, c))
                    .fold(f64::NEG_INFINITY, f64::max),
                NodeKind::Min => children
                    .iter()
                    .map(|&c| eval(nodes, c))
                    .fold(f64::INFINITY, f64::min),
                NodeKind::Sum => children.iter().map(|&c| eval(nodes, c)).sum(),
                NodeKind::Product => children.iter().map(|&c| eval(nodes, c)).product(),
                NodeKind::Div => {
                    let num = eval(nodes, children[0]);
                    let den: f64 = children[1..].iter().map(|&c| eval(nodes, c)).product();
                    if den == 0.0 {
                        f64::INFINITY
                    } else {
                        num / den
                    }
                }
            };
            nodes[id].value = v;
            v
        }
        eval(&mut self.nodes, self.root);
    }

    /// Fractional contribution of each node to the total cost, traced
    /// top-down: the root contributes 1.0; at a max/min node the selected
    /// child inherits the full contribution (others contribute their value
    /// relative to the root, capped by the parent's contribution); at a sum
    /// node contributions split proportionally; at product/division nodes
    /// the *numerator-like* cost drivers inherit the contribution.
    pub fn contributions(&self) -> Vec<f64> {
        let mut contrib = vec![0.0; self.nodes.len()];
        contrib[self.root] = 1.0;
        // Process in root-first order via explicit stack.
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id];
            let c = contrib[id];
            match node.kind {
                NodeKind::Leaf => {}
                NodeKind::Max | NodeKind::Min => {
                    let selected = self.selected_child(id);
                    for &ch in &node.children {
                        let share = if Some(ch) == selected {
                            c
                        } else if node.value > 0.0 {
                            c * (self.nodes[ch].value / node.value).clamp(0.0, 1.0)
                        } else {
                            0.0
                        };
                        contrib[ch] = contrib[ch].max(share);
                        stack.push(ch);
                    }
                }
                NodeKind::Sum => {
                    for &ch in &node.children {
                        let share = if node.value > 0.0 {
                            c * self.nodes[ch].value / node.value
                        } else {
                            0.0
                        };
                        contrib[ch] = contrib[ch].max(share);
                        stack.push(ch);
                    }
                }
                NodeKind::Product | NodeKind::Div => {
                    // The dominant driver is the largest-magnitude child of
                    // a product, or the numerator of a division.
                    let driver = match node.kind {
                        NodeKind::Div => Some(node.children[0]),
                        _ => self.selected_child(id),
                    };
                    for &ch in &node.children {
                        let share = if Some(ch) == driver { c } else { 0.0 };
                        contrib[ch] = contrib[ch].max(share);
                        stack.push(ch);
                    }
                }
            }
        }
        contrib
    }

    /// The child a max/min/product node "selects" (max value for max and
    /// product, min value for min).
    fn selected_child(&self, id: NodeId) -> Option<NodeId> {
        let node = &self.nodes[id];
        match node.kind {
            NodeKind::Min => node.children.iter().copied().min_by(|&a, &b| {
                self.nodes[a]
                    .value
                    .partial_cmp(&self.nodes[b].value)
                    .unwrap()
            }),
            _ => node.children.iter().copied().max_by(|&a, &b| {
                self.nodes[a]
                    .value
                    .partial_cmp(&self.nodes[b].value)
                    .unwrap()
            }),
        }
    }

    /// The dominant path from the root to a leaf, following selected
    /// children (the bottleneck trace of §4.3).
    pub fn bottleneck_path(&self) -> Vec<NodeId> {
        self.dominant_path_from(self.root)
    }

    /// The dominant path from an arbitrary node down to a leaf.
    pub fn dominant_path_from(&self, start: NodeId) -> Vec<NodeId> {
        let mut path = vec![start];
        let mut id = start;
        while !self.nodes[id].children.is_empty() {
            let next = match self.nodes[id].kind {
                NodeKind::Div => self.nodes[id].children[0],
                _ => self
                    .selected_child(id)
                    .expect("interior nodes have children"),
            };
            path.push(next);
            id = next;
        }
        path
    }

    /// Children of the root ranked by contribution, highest first — the
    /// ranked bottleneck factors used for multi-candidate acquisition.
    pub fn ranked_factors(&self) -> Vec<(NodeId, f64)> {
        let contrib = self.contributions();
        let mut out: Vec<(NodeId, f64)> = self.nodes[self.root]
            .children
            .iter()
            .map(|&c| (c, contrib[c]))
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        out
    }

    /// The scaling `s` of §4.3: the ratio by which the bottleneck factor's
    /// cost should shrink to balance it against the runner-up factor.
    /// Returns at least `min_scaling` so the DSE always makes progress.
    pub fn required_scaling(&self, min_scaling: f64) -> f64 {
        let ranked = self.ranked_factors();
        if ranked.len() < 2 {
            return min_scaling.max(2.0);
        }
        let top = self.nodes[ranked[0].0].value;
        let second = self.nodes[ranked[1].0].value;
        if second <= 0.0 {
            return min_scaling.max(2.0);
        }
        (top / second).max(min_scaling)
    }

    /// Renders the populated tree with contributions as indented ASCII —
    /// the human-facing explanation artifact.
    pub fn render(&self) -> String {
        let contrib = self.contributions();
        let mut out = String::new();
        self.render_node(self.root, 0, &contrib, &mut out);
        out
    }

    fn render_node(&self, id: NodeId, depth: usize, contrib: &[f64], out: &mut String) {
        let n = &self.nodes[id];
        let kind = match n.kind {
            NodeKind::Max => "max",
            NodeKind::Min => "min",
            NodeKind::Sum => "sum",
            NodeKind::Product => "prod",
            NodeKind::Div => "div",
            NodeKind::Leaf => "leaf",
        };
        let _ = writeln!(
            out,
            "{}{} [{}] = {:.4e}  ({:.1}%)",
            "  ".repeat(depth),
            n.name,
            kind,
            n.value,
            contrib[id] * 100.0
        );
        for &c in &n.children {
            self.render_node(c, depth + 1, contrib, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 8 toy: DMA dominates with comp at 24.4% and NoC at 25.9%.
    fn fig8_like() -> BottleneckTree {
        let mut b = TreeBuilder::new();
        let comp = b.leaf("t_comp", 24.4);
        let noc = b.leaf("t_noc", 25.9);
        let dma_a = b.leaf("t_dma:a", 70.0);
        let dma_b = b.leaf("t_dma:b", 30.0);
        let dma = b.sum("t_dma", vec![dma_a, dma_b]);
        let root = b.max("latency", vec![comp, noc, dma]);
        b.build(root)
    }

    #[test]
    fn evaluation_computes_interior_values() {
        let t = fig8_like();
        assert_eq!(t.value(t.find("t_dma").unwrap()), 100.0);
        assert_eq!(t.value(t.root()), 100.0);
    }

    #[test]
    fn contributions_match_fig8() {
        let t = fig8_like();
        let c = t.contributions();
        assert!((c[t.find("t_dma").unwrap()] - 1.0).abs() < 1e-12);
        assert!((c[t.find("t_comp").unwrap()] - 0.244).abs() < 1e-12);
        assert!((c[t.find("t_noc").unwrap()] - 0.259).abs() < 1e-12);
        // Within the DMA sum, operand A dominates.
        assert!((c[t.find("t_dma:a").unwrap()] - 0.70).abs() < 1e-12);
    }

    #[test]
    fn scaling_matches_fig8_385x() {
        // Balancing DMA against the 25.9% runner-up needs 100/25.9 = 3.86x.
        let t = fig8_like();
        let s = t.required_scaling(1.25);
        assert!((s - 100.0 / 25.9).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_path_descends_to_dominant_leaf() {
        let t = fig8_like();
        let path = t.bottleneck_path();
        let names: Vec<&str> = path.iter().map(|&id| t.node(id).name.as_str()).collect();
        assert_eq!(names, vec!["latency", "t_dma", "t_dma:a"]);
        // The dominant operand tag is recoverable.
        assert_eq!(t.node(*path.last().unwrap()).tag(), Some("a"));
    }

    #[test]
    fn ranked_factors_descend() {
        let t = fig8_like();
        let ranked = t.ranked_factors();
        assert_eq!(t.node(ranked[0].0).name, "t_dma");
        assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn div_node_routes_to_numerator() {
        let mut b = TreeBuilder::new();
        let bytes = b.leaf("bytes", 1000.0);
        let bw = b.leaf("bw", 10.0);
        let time = b.div("t", vec![bytes, bw]);
        let tree = b.build(time);
        assert_eq!(tree.value(tree.root()), 100.0);
        assert_eq!(
            tree.bottleneck_path()
                .last()
                .map(|&id| tree.node(id).name.as_str()),
            Some("bytes")
        );
    }

    #[test]
    fn min_scaling_floor_applies() {
        let mut b = TreeBuilder::new();
        let a = b.leaf("a", 10.0);
        let c = b.leaf("b", 10.0);
        let root = b.max("r", vec![a, c]);
        let t = b.build(root);
        // Tied factors: the floor guarantees progress.
        assert!((t.required_scaling(1.25) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn render_mentions_every_node() {
        let t = fig8_like();
        let r = t.render();
        for name in ["latency", "t_comp", "t_noc", "t_dma", "t_dma:a"] {
            assert!(r.contains(name), "missing {name} in render:\n{r}");
        }
    }

    #[test]
    #[should_panic(expected = "child")]
    fn forward_references_rejected() {
        let mut b = TreeBuilder::new();
        let _ = b.max("bad", vec![5]);
    }
}
