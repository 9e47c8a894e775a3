//! Batch-size classes and their communication weights.
//!
//! §2: "a key parameter that plays a significant role in the communication
//! is the batch size" — small batches communicate every few milliseconds,
//! large batches amortize one gradient exchange over long compute phases.
//! §5.1: job-graph edge weights "range from 4 to 1, where 4 represents the
//! smallest batch size and 1 the largest one". §5.3's generator draws the
//! class from a Binomial over {0=tiny, 1=small, 2=medium, 3=big}.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The four batch-size classes used throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum BatchClass {
    /// Batch 1–2 per GPU: maximal communication frequency (weight 4).
    Tiny,
    /// Batch 4–8 per GPU (weight 3).
    Small,
    /// Batch 16–32 per GPU (weight 2).
    Medium,
    /// Batch 64–128 per GPU: compute-bound (weight 1).
    Big,
}

impl BatchClass {
    /// All classes, smallest first.
    pub const ALL: [BatchClass; 4] = [
        BatchClass::Tiny,
        BatchClass::Small,
        BatchClass::Medium,
        BatchClass::Big,
    ];

    /// The §5.1 job-graph edge weight: 4 (tiny) down to 1 (big).
    pub fn comm_weight(self) -> f64 {
        match self {
            BatchClass::Tiny => 4.0,
            BatchClass::Small => 3.0,
            BatchClass::Medium => 2.0,
            BatchClass::Big => 1.0,
        }
    }

    /// Edge weight normalized to (0, 1]: "this weight is normalized by the
    /// total available bandwidth" (§4.1.1) — we normalize against the
    /// maximal class weight.
    pub fn comm_level(self) -> f64 {
        self.comm_weight() / BatchClass::Tiny.comm_weight()
    }

    /// Representative per-GPU batch size for the class (the midpoint used
    /// when a manifest specifies only a class).
    pub fn representative_batch(self) -> u32 {
        match self {
            BatchClass::Tiny => 1,
            BatchClass::Small => 4,
            BatchClass::Medium => 16,
            BatchClass::Big => 64,
        }
    }

    /// Classifies an explicit per-GPU batch size (1..=128 in the paper's
    /// sweeps) into its class.
    pub fn from_batch_size(batch: u32) -> Self {
        match batch {
            0..=2 => BatchClass::Tiny,
            3..=8 => BatchClass::Small,
            9..=32 => BatchClass::Medium,
            _ => BatchClass::Big,
        }
    }

    /// Class index 0..=3 (the paper's Binomial support).
    pub fn index(self) -> usize {
        match self {
            BatchClass::Tiny => 0,
            BatchClass::Small => 1,
            BatchClass::Medium => 2,
            BatchClass::Big => 3,
        }
    }

    /// Inverse of [`BatchClass::index`].
    pub fn from_index(i: usize) -> Option<Self> {
        Self::ALL.get(i).copied()
    }
}

impl fmt::Display for BatchClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BatchClass::Tiny => "tiny",
            BatchClass::Small => "small",
            BatchClass::Medium => "medium",
            BatchClass::Big => "big",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_run_four_to_one() {
        assert_eq!(BatchClass::Tiny.comm_weight(), 4.0);
        assert_eq!(BatchClass::Small.comm_weight(), 3.0);
        assert_eq!(BatchClass::Medium.comm_weight(), 2.0);
        assert_eq!(BatchClass::Big.comm_weight(), 1.0);
    }

    #[test]
    fn comm_level_normalized_to_unit() {
        assert_eq!(BatchClass::Tiny.comm_level(), 1.0);
        assert_eq!(BatchClass::Big.comm_level(), 0.25);
        for c in BatchClass::ALL {
            assert!(c.comm_level() > 0.0 && c.comm_level() <= 1.0);
        }
    }

    #[test]
    fn batch_size_classification_covers_paper_sweep() {
        let expected = [
            (1, BatchClass::Tiny),
            (2, BatchClass::Tiny),
            (4, BatchClass::Small),
            (8, BatchClass::Small),
            (16, BatchClass::Medium),
            (32, BatchClass::Medium),
            (64, BatchClass::Big),
            (128, BatchClass::Big),
        ];
        for (b, c) in expected {
            assert_eq!(BatchClass::from_batch_size(b), c, "batch {b}");
        }
    }

    #[test]
    fn representative_batches_round_trip() {
        for c in BatchClass::ALL {
            assert_eq!(BatchClass::from_batch_size(c.representative_batch()), c);
        }
    }

    #[test]
    fn index_round_trips() {
        for (i, c) in BatchClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(BatchClass::from_index(i), Some(*c));
        }
        assert_eq!(BatchClass::from_index(4), None);
    }

    #[test]
    fn serde_lowercase() {
        assert_eq!(
            serde_json::to_string(&BatchClass::Tiny).unwrap(),
            "\"tiny\""
        );
        let c: BatchClass = serde_json::from_str("\"big\"").unwrap();
        assert_eq!(c, BatchClass::Big);
    }
}
