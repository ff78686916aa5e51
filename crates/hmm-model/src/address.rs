//! Address arithmetic for the memory machine models.
//!
//! A single address space of the memory is mapped onto `w` memory banks in an
//! interleaved way: the word at address `a` is stored in bank `a mod w`
//! (DMM / shared memory view), and belongs to address group `a / w`
//! (UMM / global memory view).

/// A word address in a memory machine's address space.
///
/// Addresses index *words* (one matrix element each), not bytes; the models
/// are word-oriented.
pub type Addr = usize;

/// The memory bank that holds address `addr` on a DMM of width `w`.
///
/// `B[j] = { j, j + w, j + 2w, … }` is the set of addresses of the `j`-th
/// bank; two requests in the same bank cannot be served in the same pipeline
/// stage.
///
/// # Panics
/// Panics if `w == 0`.
#[inline]
pub fn bank_of(addr: Addr, w: usize) -> usize {
    assert!(w > 0, "machine width must be positive");
    addr % w
}

/// The address group that holds address `addr` on a UMM of width `w`.
///
/// `A[k] = { k·w, k·w + 1, …, (k+1)·w − 1 }` is the `k`-th address group;
/// requests within one group are served in a single pipeline stage, while
/// requests to `g` distinct groups need `g` stages.
///
/// # Panics
/// Panics if `w == 0`.
#[inline]
pub fn group_of(addr: Addr, w: usize) -> usize {
    assert!(w > 0, "machine width must be positive");
    addr / w
}

/// Address groups (UMM pipeline stages) touched by the warp access of
/// `lanes` words `base, base + stride, …, base + (lanes − 1)·stride` on a
/// UMM of width `w`.
///
/// The addresses are monotone, so no group is revisited: a step of at least
/// `w` words puts every lane in its own group, and a shorter step skips no
/// group between the first lane's and the last's. Equals
/// [`WarpAccess::umm_stages`](crate::WarpAccess::umm_stages) of the same
/// addresses without materialising them.
///
/// # Panics
/// Panics if `w == 0`.
#[inline]
pub fn strided_groups(base: Addr, stride: usize, lanes: usize, w: usize) -> usize {
    match lanes {
        0 => 0,
        _ if stride >= w => lanes,
        _ => group_of(base + (lanes - 1) * stride, w) - group_of(base, w) + 1,
    }
}

/// Row-major word address of element `(row, col)` of a matrix with `n_cols`
/// columns.
#[inline]
pub fn row_major(row: usize, col: usize, n_cols: usize) -> Addr {
    row * n_cols + col
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_interleaves() {
        // Figure 1 of the paper: address i is stored in the (i mod w)-th bank.
        let w = 4;
        assert_eq!(bank_of(0, w), 0);
        assert_eq!(bank_of(3, w), 3);
        assert_eq!(bank_of(4, w), 0);
        assert_eq!(bank_of(7, w), 3);
        assert_eq!(bank_of(15, w), 3);
    }

    #[test]
    fn groups_partition_contiguously() {
        let w = 4;
        assert_eq!(group_of(0, w), 0);
        assert_eq!(group_of(3, w), 0);
        assert_eq!(group_of(4, w), 1);
        assert_eq!(group_of(15, w), 3);
        // Figure 4 example: {7, 5, 15, 0} touches groups {1, 1, 3, 0}.
        let groups: Vec<_> = [7, 5, 15, 0].iter().map(|&a| group_of(a, w)).collect();
        assert_eq!(groups, vec![1, 1, 3, 0]);
    }

    #[test]
    fn strided_groups_match_the_warp_model() {
        use crate::WarpAccess;
        for w in 1..=33usize {
            for stride in 0..=3 * w {
                for base in 0..2 * w {
                    for lanes in 1..=w {
                        let addrs: Vec<Addr> = (0..lanes).map(|t| base + t * stride).collect();
                        assert_eq!(
                            strided_groups(base, stride, lanes, w),
                            WarpAccess::dense(&addrs, w).umm_stages(w),
                            "w={w} stride={stride} base={base} lanes={lanes}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn row_major_addressing() {
        assert_eq!(row_major(0, 0, 9), 0);
        assert_eq!(row_major(1, 0, 9), 9);
        assert_eq!(row_major(2, 5, 9), 23);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_panics() {
        bank_of(1, 0);
    }
}
