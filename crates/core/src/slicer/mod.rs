//! Spatial and temporal slicers (paper §4.2, §4.3).
//!
//! Slicers decompose the fused space defined by an SMG:
//!
//! * The **spatial slicer** selects dimensions along which the SMG can be
//!   cut into independent, parallel SMG blocks (one per GPU thread
//!   block). Per Table 3 it refuses any dimension carrying flow
//!   dependencies — only *input* One-to-All mappings (sources resident in
//!   global memory) or no mappings at all are admissible.
//! * The **temporal slicer** serializes one SMG block into intra-blocks
//!   along a remaining dimension to shrink the on-chip footprint. Sliced
//!   All-to-One mappings become running aggregations: *Simple Aggregate*
//!   for independent reductions, *Update-then-Aggregate* (UTA) when
//!   reductions form a dependency chain. Update functions are derived by
//!   broadcast postposition and update-path back-tracing in [`update`];
//!   for attention this recovers exactly the FlashAttention online-softmax
//!   rescaling without any attention-specific code.

pub mod combine;
pub mod spatial;
pub mod temporal;
pub mod update;

pub use combine::{derive_combine, merge_op, CombineSpec};
pub use spatial::eligible_spatial_dims;
pub use temporal::{pick_temporal_dim, plan_temporal, AggKind, SlicedReduction, TemporalPlan};
pub use update::{FactorForm, UpdateFactor};
