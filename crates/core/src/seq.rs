//! Sequential SAT algorithms — the CPU baselines of the paper's Table II and
//! the references against which every parallel algorithm is verified.

use crate::element::SatElement;
use crate::matrix::Matrix;

/// In-place column-wise prefix sums, computed in raster scan order
/// (`a[i][j] += a[i−1][j]` row by row — the cache-friendly order used by
/// the paper's 2R2W(CPU) baseline).
fn column_prefix_inplace<T: SatElement>(a: &mut Matrix<T>) {
    let (rows, cols) = (a.rows(), a.cols());
    let data = a.as_mut_slice();
    for i in 1..rows {
        let (prev, cur) = data.split_at_mut(i * cols);
        let prev = &prev[(i - 1) * cols..];
        for j in 0..cols {
            cur[j] = cur[j].add(prev[j]);
        }
    }
}

/// In-place row-wise prefix sums in raster scan order
/// (`a[i][j] += a[i][j−1]`).
fn row_prefix_inplace<T: SatElement>(a: &mut Matrix<T>) {
    let (rows, cols) = (a.rows(), a.cols());
    let data = a.as_mut_slice();
    for i in 0..rows {
        let row = &mut data[i * cols..(i + 1) * cols];
        for j in 1..cols {
            row[j] = row[j].add(row[j - 1]);
        }
    }
}

/// **2R2W(CPU)**: the SAT by column-wise then row-wise prefix sums, both in
/// raster scan order, in place. Two full read-write sweeps over the matrix.
pub fn sat_2r2w_cpu<T: SatElement>(a: &mut Matrix<T>) {
    column_prefix_inplace(a);
    row_prefix_inplace(a);
}

/// **4R1W(CPU)**: the SAT by evaluating, in raster scan order and in place,
///
/// ```text
/// s(i,j) = a(i,j) + s(i−1,j) + s(i,j−1) − s(i−1,j−1)
/// ```
///
/// (Formula (1) of the paper). One sweep with four reads and one write per
/// element; faster than 2R2W(CPU) in practice because of access locality —
/// the paper's best CPU baseline.
pub fn sat_4r1w_cpu<T: SatElement>(a: &mut Matrix<T>) {
    let (rows, cols) = (a.rows(), a.cols());
    if rows == 0 || cols == 0 {
        return;
    }
    let data = a.as_mut_slice();
    // Row 0: plain row prefix.
    for j in 1..cols {
        data[j] = data[j].add(data[j - 1]);
    }
    for i in 1..rows {
        let base = i * cols;
        // Column 0: only the cell above contributes.
        data[base] = data[base].add(data[base - cols]);
        for j in 1..cols {
            let v = data[base + j]
                .add(data[base + j - cols]) // s(i−1, j)
                .add(data[base + j - 1]) // s(i, j−1)
                .sub(data[base + j - cols - 1]); // s(i−1, j−1)
            data[base + j] = v;
        }
    }
}

/// Out-of-place reference SAT (2R2W order). Every parallel algorithm is
/// checked against this.
pub fn sat_reference<T: SatElement>(a: &Matrix<T>) -> Matrix<T> {
    let mut s = a.clone();
    sat_2r2w_cpu(&mut s);
    s
}

/// Brute-force SAT by direct summation — `O(n²·m²)` work, for tiny inputs
/// only; the ground truth beneath [`sat_reference`].
pub fn sat_naive<T: SatElement>(a: &Matrix<T>) -> Matrix<T> {
    Matrix::from_fn(a.rows(), a.cols(), |i, j| {
        let mut acc = T::ZERO;
        for u in 0..=i {
            for v in 0..=j {
                acc = acc.add(a.get(u, v));
            }
        }
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{fig3_column_prefix, fig3_input, fig3_sat};

    #[test]
    fn fig3_column_pass() {
        let mut a = fig3_input();
        column_prefix_inplace(&mut a);
        assert_eq!(a, fig3_column_prefix());
    }

    #[test]
    fn fig3_worked_example_2r2w() {
        let mut a = fig3_input();
        sat_2r2w_cpu(&mut a);
        assert_eq!(a, fig3_sat());
    }

    #[test]
    fn fig3_worked_example_4r1w() {
        let mut a = fig3_input();
        sat_4r1w_cpu(&mut a);
        assert_eq!(a, fig3_sat());
    }

    #[test]
    fn reference_matches_naive_on_small_inputs() {
        for (rows, cols) in [(1, 1), (1, 5), (5, 1), (3, 4), (7, 7)] {
            let a = Matrix::from_fn(rows, cols, |i, j| (i * 31 + j * 7) as i64 % 13 - 6);
            assert_eq!(sat_reference(&a), sat_naive(&a), "{rows}x{cols}");
        }
    }

    #[test]
    fn empty_and_degenerate_matrices() {
        let mut z: Matrix<i64> = Matrix::zeros(0, 0);
        sat_4r1w_cpu(&mut z); // must not panic
        let mut one = Matrix::from_vec(1, 1, vec![42i64]);
        sat_4r1w_cpu(&mut one);
        assert_eq!(one.get(0, 0), 42);
    }

    #[test]
    fn wrapping_integers_agree_between_algorithms() {
        // Overflow exercises the wrapping group structure: both algorithms
        // must still compute the same function.
        let a = Matrix::from_fn(6, 6, |i, j| u8::MAX - (i * j) as u8);
        let mut x = a.clone();
        let mut y = a.clone();
        sat_2r2w_cpu(&mut x);
        sat_4r1w_cpu(&mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn float_inputs() {
        let a = Matrix::from_fn(5, 5, |i, j| (i + j) as f64 * 0.5);
        let s = sat_reference(&a);
        assert_eq!(s.get(0, 0), 0.0);
        assert_eq!(s.get(4, 4), {
            // Σ (i+j)/2 over 5×5 = (Σi·5 + Σj·5)/2 = (50 + 50)/2
            50.0
        });
    }
}
