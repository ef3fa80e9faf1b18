//! Committed answers of the fixed check sample.
//!
//! The check sample does not depend on `--seed`, and every number here is
//! a deterministic function of the specs, the parameters and the code:
//! push counts, supports and image sizes repeat bit for bit, and
//! precision is the same float every run. A run that sees another value
//! fails: a different count is nondeterminism, not noise.

use crate::workloads::Workload;

/// Exact counts summed over a workload's check sample.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub pushes_step1: u64,
    pub pushes_step3: u64,
    pub rwr_support: u64,
    pub rho_support: u64,
    pub image_bytes: u64,
}

impl Counts {
    /// `(name, got, committed)` of every field that differs.
    pub fn compare(&self, committed: &Counts) -> Vec<(&'static str, u64, u64)> {
        [
            ("pushes_step1", self.pushes_step1, committed.pushes_step1),
            ("pushes_step3", self.pushes_step3, committed.pushes_step3),
            ("rwr_support", self.rwr_support, committed.rwr_support),
            ("rho_support", self.rho_support, committed.rho_support),
            ("image_bytes", self.image_bytes, committed.image_bytes),
        ]
        .into_iter()
        .filter(|(_, got, want)| got != want)
        .collect()
    }
}

/// What a workload's check sample must produce.
pub struct Expected {
    /// `f64::to_bits` of the mean precision at |C_s| = |Y_s|.
    pub precision_bits: u64,
    pub counts: Counts,
}

pub fn for_workload(workload: Workload) -> Expected {
    match workload {
        Workload::PubmedCold => Expected {
            precision_bits: 0x3fe2_4a89_861c_4aa9,
            counts: Counts {
                pushes_step1: 4_159_829,
                pushes_step3: 16_597_449,
                rwr_support: 342_296,
                rho_support: 1_223_167,
                image_bytes: 5_572_864,
            },
        },
        Workload::FlickrZipf => Expected {
            precision_bits: 0x3fde_ba54_e117_8e49,
            counts: Counts {
                pushes_step1: 65_233_146,
                pushes_step3: 68_167_650,
                rwr_support: 470_415,
                rho_support: 482_146,
                image_bytes: 5_836_224,
            },
        },
    }
}
