//! # sirius-cudf — GPU relational kernels (libcudf-equivalent)
//!
//! The paper implements "most physical operators … using the libcudf
//! library" (§3.2.2). This crate is the libcudf stand-in: a library of
//! columnar relational kernels — element-wise expressions, filters, hash
//! joins, hash/sort group-by, sorts, distinct, and reductions — that compute
//! *real* results on host buffers while charging simulated GPU time to a
//! [`sirius_hw::Device`] through a [`GpuContext`].
//!
//! Behavioural fidelity notes, matching the paper:
//!
//! * **Row indices are `i32`**, as in libcudf; §3.2.3 calls out the
//!   `uint64`/`int32` index-type mismatch between Sirius and libcudf, and the
//!   conversion lives in Sirius' buffer manager, not here.
//! * **Group-by on string keys is sort-based** (libcudf's default), which
//!   the paper blames for the Q10/Q18 group-by overhead in Figure 5.
//!   Fixed-width keys use hash group-by.
//! * **Group-by with few distinct groups pays atomic contention**, the
//!   paper's explanation for Q1's group-by share; the cost model charges a
//!   contention surcharge when the group count is small.

#![warn(missing_docs)]
// No panic is reachable from a kernel call: failures are `KernelError`s.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod binary;
pub mod filter;
pub mod fused;
pub mod groupby;
pub mod hash;
pub mod join;
pub mod materialize;
pub mod partition;
pub mod reduce;
pub(crate) mod reference; // test-only: the file opens with `#![cfg(test)]`
pub mod sort;
pub mod unary;
pub mod unique;

pub use groupby::AggRequest;
pub use join::{JoinHashTable, JoinIndices, JoinType};
pub use partition::hash_partition;
/// The aggregate vocabulary under its former name, which `perfbench` uses.
pub use sirius_columnar::ops::AggFunc as AggKind;

use sirius_hw::{CostCategory, Device, WorkProfile};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// What a context does with the work its kernels describe.
#[derive(Clone)]
enum ChargeMode {
    /// Charge the device ledger directly (the default).
    Live,
    /// Drop charges entirely (inside an already-fused region).
    Muted,
    /// Accumulate work profiles into a shared [`WorkCollector`] instead of
    /// the ledger: the caller derives one fused charge from the collected
    /// totals (operator-chain fusion).
    Collect(WorkCollector),
}

/// Accumulator for the work a group of kernel launches *would* have
/// charged. Cloning shares the accumulator.
#[derive(Clone, Default)]
pub struct WorkCollector {
    inner: Arc<Mutex<WorkProfile>>,
}

impl WorkCollector {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    fn add(&self, work: &WorkProfile) {
        // Each update stores a whole profile, so a poisoned lock is still valid.
        let mut acc = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        *acc = acc.merge(*work);
    }

    /// Drain the accumulated profile, leaving the collector empty.
    pub fn take(&self) -> WorkProfile {
        std::mem::take(&mut *self.inner.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// Execution context for a batch of kernel launches: the device to charge
/// and the operator category the charges are attributed to.
#[derive(Clone)]
pub struct GpuContext {
    device: Device,
    category: CostCategory,
    mode: ChargeMode,
}

impl GpuContext {
    /// Context charging `device` under `category`.
    pub fn new(device: Device, category: CostCategory) -> Self {
        Self {
            device,
            category,
            mode: ChargeMode::Live,
        }
    }

    /// Same category, charging onto device stream `stream`. Morsel workers
    /// use one stream each so their kernels overlap in the ledger.
    pub fn on_stream(&self, stream: usize) -> Self {
        Self {
            device: self.device.on_stream(stream),
            category: self.category,
            mode: self.mode.clone(),
        }
    }

    /// Context whose charges are dropped. Callers that replace a group of
    /// per-node launches with one fused charge (e.g. AST expression fusion)
    /// compute through a muted context, then charge the fused kernel
    /// themselves.
    pub fn muted(&self) -> Self {
        Self {
            device: self.device.clone(),
            category: self.category,
            mode: ChargeMode::Muted,
        }
    }

    /// Context whose charges accumulate into `collector` instead of the
    /// ledger. Operator-chain fusion runs each stage through a collecting
    /// context, then derives a single fused kernel charge from the totals
    /// (keeping the collected random-access bytes and flops honest while
    /// replacing the per-stage streamed traffic with one read + one write).
    pub fn collecting(&self, collector: &WorkCollector) -> Self {
        Self {
            device: self.device.clone(),
            category: self.category,
            mode: ChargeMode::Collect(collector.clone()),
        }
    }

    /// Whether charges on this context are dropped.
    pub fn is_muted(&self) -> bool {
        matches!(self.mode, ChargeMode::Muted)
    }

    /// The underlying device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The attribution category.
    pub fn category(&self) -> CostCategory {
        self.category
    }

    /// Charge one kernel's work. Muted contexts drop the charge; collecting
    /// contexts accumulate it without touching the ledger.
    pub fn charge(&self, work: &WorkProfile) -> Duration {
        match &self.mode {
            ChargeMode::Live => self.device.charge(self.category, work),
            ChargeMode::Muted => Duration::ZERO,
            ChargeMode::Collect(c) => {
                c.add(work);
                Duration::ZERO
            }
        }
    }

    /// Charge one kernel's work under a kernel name. When the device has a
    /// trace sink attached, the emitted kernel event carries `name` (e.g.
    /// `"join.probe"`) plus the profile's bytes and rows; otherwise this is
    /// exactly [`charge`](Self::charge). Muted and collecting contexts
    /// behave as in [`charge`](Self::charge).
    pub fn charge_named(&self, name: &'static str, work: &WorkProfile) -> Duration {
        match &self.mode {
            ChargeMode::Live => self.device.charge_labeled(self.category, name, work),
            ChargeMode::Muted => Duration::ZERO,
            ChargeMode::Collect(c) => {
                c.add(work);
                Duration::ZERO
            }
        }
    }
}

/// Errors from kernels (type mismatches, unsupported combinations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// Operand types not supported by the kernel.
    UnsupportedTypes(String),
    /// Columnar-layer error.
    Columnar(sirius_columnar::ColumnarError),
    /// A `Single` join found more than one match for a left row.
    NonScalarSubquery {
        /// The offending left row.
        left_row: usize,
        /// How many matches it found.
        matches: usize,
    },
}

impl From<sirius_columnar::ColumnarError> for KernelError {
    fn from(e: sirius_columnar::ColumnarError) -> Self {
        KernelError::Columnar(e)
    }
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::UnsupportedTypes(m) => write!(f, "unsupported types: {m}"),
            KernelError::Columnar(e) => write!(f, "columnar error: {e}"),
            KernelError::NonScalarSubquery { left_row, matches } => write!(
                f,
                "scalar subquery returned {matches} rows for outer row {left_row}"
            ),
        }
    }
}

impl std::error::Error for KernelError {}

/// Kernel result alias.
pub type Result<T> = std::result::Result<T, KernelError>;

#[cfg(test)]
pub(crate) fn test_ctx() -> GpuContext {
    GpuContext::new(
        Device::new(sirius_hw::catalog::gh200_gpu()),
        CostCategory::Other,
    )
}
