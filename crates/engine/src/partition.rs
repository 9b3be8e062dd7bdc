//! The workspace's one rule for dividing work: `total` items split into `parts`
//! contiguous, near-equal ranges.
//!
//! Every split in the workspace is this rule: the scheduler's per-worker job queues,
//! the [`ShardedCsr`](crate::ShardedCsr) node ranges, the dispatcher's per-worker job
//! ranges, and the shard a placed host owns. Because each consumer keys its results by
//! item index, the rule decides only who does the work, never what the work produces.
//! Ownership is pure arithmetic on `(x, total, parts)`, so endpoints that agree on
//! three integers can never disagree on a placement.

use std::ops::Range;

/// The items part `index` of `parts` owns when `total` items are split into
/// contiguous near-equal ranges: the first `total % parts` parts hold one extra item,
/// so sizes differ by at most one and the larger parts come first. With more parts than
/// items, the surplus parts own empty ranges.
///
/// # Panics
///
/// Panics if `parts` is zero or `index` is not a part index.
pub fn range(total: usize, parts: usize, index: usize) -> Range<usize> {
    assert!(
        parts > 0 && index < parts,
        "part {index} of {parts} is not a partition slot"
    );
    let base = total / parts;
    let big = total % parts;
    let start = index * base + index.min(big);
    start..start + base + usize::from(index < big)
}

/// The part owning item `x` under [`range`]: `owner(x, total, parts) == i` exactly
/// when `x` lies in `range(total, parts, i)`. O(1).
///
/// # Panics
///
/// Panics if `parts` is zero or `x` is not below `total`.
pub fn owner(x: usize, total: usize, parts: usize) -> usize {
    assert!(
        parts > 0 && x < total,
        "item {x} out of bounds for {total} items in {parts} parts"
    );
    let base = total / parts;
    let big = total % parts;
    let cut = big * (base + 1);
    if x < cut {
        x / (base + 1)
    } else {
        // Only reachable when base > 0: with base == 0 every item lives in a big part.
        big + (x - cut) / base
    }
}
