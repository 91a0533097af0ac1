//! Output digests recorded when the benchmark landed: FNV-1a of the
//! aggregated grid CSV (`month_grid`) and of the overload summary rows
//! (`month_overload`), lines sorted, so the same for every seed.
//! Regenerate with the ignored `record_digests` test in `sims.rs`.

pub const MONTH_GRID: u64 = 0x6c7d678aecc192e6;
pub const MONTH_OVERLOAD: u64 = 0x6a4256f2c63efece;
