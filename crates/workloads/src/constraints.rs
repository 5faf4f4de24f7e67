//! Per-model execution requirements used as DSE constraints.
//!
//! The paper's Table 1 sets throughput floors per workload class:
//! 40 FPS for light vision models, 10 FPS for large vision models, and
//! 120 / 530 / 176 000 samples-per-second for the Transformer, BERT, and
//! wav2vec2 language models. A throughput floor is equivalent to a latency
//! ceiling for single-stream inference, which is how the DSE consumes it.

/// Broad workload class, used to pick default constraint levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelClass {
    /// Light computer-vision models (ResNet18, MobileNetV2, EfficientNetB0,
    /// FasterRCNN-MobileNetV3): 40 FPS floor.
    VisionLight,
    /// Large computer-vision models (VGG16, ResNet50, ViT, YOLOv5): 10 FPS.
    VisionLarge,
    /// Natural-language models: model-specific samples/second floors.
    Language,
}

/// Inference-rate requirement for a model.
///
/// Internally stored as inferences-per-second; audio models express their
/// requirement in audio-samples-per-second, which is converted using the
/// number of audio samples consumed per inference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputTarget {
    inferences_per_second: f64,
    class: ModelClass,
}

impl ThroughputTarget {
    /// A frames-per-second floor for a vision model (light if >= 40 FPS).
    pub fn fps(fps: f64) -> Self {
        assert!(fps > 0.0, "throughput floor must be positive");
        let class = if fps >= 40.0 {
            ModelClass::VisionLight
        } else {
            ModelClass::VisionLarge
        };
        Self {
            inferences_per_second: fps,
            class,
        }
    }

    /// A queries/sentences-per-second floor for a language model.
    pub fn qps(qps: f64) -> Self {
        assert!(qps > 0.0, "throughput floor must be positive");
        Self {
            inferences_per_second: qps,
            class: ModelClass::Language,
        }
    }

    /// An audio-samples-per-second floor; `samples_per_inference` is how many
    /// raw audio samples one forward pass consumes (wav2vec2 processes one
    /// second of 16 kHz audio per pass in our configuration).
    pub fn audio_samples_per_second(samples_per_second: f64, samples_per_inference: f64) -> Self {
        assert!(samples_per_second > 0.0 && samples_per_inference > 0.0);
        Self {
            inferences_per_second: samples_per_second / samples_per_inference,
            class: ModelClass::Language,
        }
    }

    /// Required inferences per second.
    pub fn inferences_per_second(&self) -> f64 {
        self.inferences_per_second
    }

    /// Equivalent single-stream latency ceiling in milliseconds.
    pub fn latency_ceiling_ms(&self) -> f64 {
        1000.0 / self.inferences_per_second
    }

    /// The workload class this target was derived from.
    pub fn class(&self) -> ModelClass {
        self.class
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fps_classifies_light_and_large() {
        assert_eq!(ThroughputTarget::fps(40.0).class(), ModelClass::VisionLight);
        assert_eq!(ThroughputTarget::fps(10.0).class(), ModelClass::VisionLarge);
    }

    #[test]
    fn latency_ceiling_inverts_rate() {
        let t = ThroughputTarget::fps(40.0);
        assert!((t.latency_ceiling_ms() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn audio_target_converts_sample_rate() {
        // 176 k samples/s at 16 k samples per inference => 11 inf/s.
        let t = ThroughputTarget::audio_samples_per_second(176_000.0, 16_000.0);
        assert!((t.inferences_per_second() - 11.0).abs() < 1e-9);
        assert_eq!(t.class(), ModelClass::Language);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_fps_rejected() {
        let _ = ThroughputTarget::fps(0.0);
    }
}
