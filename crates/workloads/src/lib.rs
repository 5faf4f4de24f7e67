#![warn(missing_docs)]
//! DNN workload definitions for accelerator design-space exploration.
//!
//! This crate encodes the eleven computer-vision and natural-language models
//! evaluated by the Explainable-DSE paper (ASPLOS 2023) as static operator
//! tables. Each model is a sequence of execution-critical operators
//! (convolutions, depthwise convolutions, and GEMMs) described by their loop
//! extents. The design-space explorer only consumes these loop extents, so a
//! faithful shape table exercises exactly the same code paths as importing
//! the models from PyTorch or Hugging Face would.
//!
//! # Example
//!
//! ```
//! use workloads::zoo;
//!
//! let model = zoo::resnet18();
//! assert_eq!(model.name(), "ResNet18");
//! let unique = model.unique_shapes();
//! assert!(!unique.is_empty());
//! // Every unique shape accounts for at least one layer instance.
//! assert!(unique.iter().map(|u| u.count).sum::<u64>() >= unique.len() as u64);
//! ```

pub mod constraints;
pub mod layer;
pub mod model;
pub mod zoo;

pub use constraints::{ModelClass, ThroughputTarget};
pub use layer::{LayerShape, OpKind, Tensor};
pub use model::{DnnModel, Layer, UniqueShape};
