//! Per-opcode time attribution inside the tape executor.
//!
//! A launch in [`crate::ExecMode::Profile`] runs like one in `Fast` and
//! also times every tape op it dispatches: its [`crate::LaunchStats`]
//! carries the tally ([`OpProf`]), which the per-kernel account
//! ([`crate::telemetry::sink::KernelSummary`]) folds like every other
//! figure of the launch, and whose hotspot table
//! [`crate::telemetry::sink::render_accounts`] prints. The executor's hot
//! loop carries the choice as a const generic, so a launch in any other mode
//! runs an instantiation without timing code.

use crate::bytecode::{op_name, NOPCODES};
use serde::json::Value;
use serde::Serialize;
use std::time::Duration;

/// Per-opcode execution tally for one launch (or one executor chunk, or one
/// kernel's account): dispatch counts and attributed nanoseconds, indexed
/// by [`crate::bytecode::op_index`]. Cheap to allocate per rayon chunk and
/// to merge per launch — two fixed `u64` arrays, no heap.
#[derive(Debug, Clone, PartialEq)]
pub struct OpProf {
    pub(crate) counts: [u64; NOPCODES],
    pub(crate) nanos: [u64; NOPCODES],
}

impl Default for OpProf {
    fn default() -> Self {
        OpProf { counts: [0; NOPCODES], nanos: [0; NOPCODES] }
    }
}

impl OpProf {
    /// Attributes one dispatch of opcode `idx` taking `dur`.
    #[inline]
    pub(crate) fn add(&mut self, idx: usize, dur: Duration) {
        self.counts[idx] += 1;
        self.nanos[idx] += dur.as_nanos() as u64;
    }

    /// Folds another tally (a parallel chunk's, or a launch's) into this one.
    pub fn merge(&mut self, other: &OpProf) {
        for i in 0..NOPCODES {
            self.counts[i] += other.counts[i];
            self.nanos[i] += other.nanos[i];
        }
    }

    /// Non-empty entries as `(opcode name, count, nanos)`, hottest first.
    pub fn entries(&self) -> Vec<(&'static str, u64, u64)> {
        let mut v: Vec<(&'static str, u64, u64)> = (0..NOPCODES)
            .filter(|&i| self.counts[i] > 0)
            .map(|i| (op_name(i), self.counts[i], self.nanos[i]))
            .collect();
        v.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
        v
    }
}

/// The tally as its [`OpProf::entries`]: `[op, dispatches, ns]` rows,
/// hottest first.
impl Serialize for OpProf {
    fn to_json(&self) -> Value {
        self.entries().to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_hottest_first_and_merge_sums() {
        let mut ops = OpProf::default();
        ops.add(0, Duration::from_nanos(100));
        ops.add(0, Duration::from_nanos(50));
        ops.add(3, Duration::from_nanos(10));
        let mut other = OpProf::default();
        other.add(3, Duration::from_nanos(500));
        ops.merge(&other);
        assert_eq!(ops.entries(), [(op_name(3), 2, 510), (op_name(0), 2, 150)]);
        let json = serde_json::to_value(&ops);
        assert_eq!(json, serde_json::json!([[op_name(3), 2, 510], [op_name(0), 2, 150]]));
    }
}
