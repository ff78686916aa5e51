//! Row-major matrices, the inputs and outputs of SAT computation.

use crate::element::SatElement;

/// A dense row-major matrix.
///
/// The SAT algorithms of this crate are defined for square matrices whose
/// side is a multiple of the machine width `w` (the paper's setting); the
/// top-level driver [`crate::compute_sat`] zero-pads arbitrary shapes first —
/// zero padding on the right/bottom does not change the SAT values of the
/// original region.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: SatElement> Matrix<T> {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Build a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wrap an existing row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` for a square matrix.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Overwrite element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The backing row-major storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable backing storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume into the backing storage.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Copy into a `size × size` zero-padded matrix (`size ≥ max(rows, cols)`).
    pub fn zero_padded(&self, size: usize) -> Matrix<T> {
        self.zero_padded_to(size, size)
    }

    /// Copy into a `rows × cols` zero-padded matrix (both dimensions may
    /// only grow). Zero padding on the right/bottom does not change the SAT
    /// values of the original region.
    pub fn zero_padded_to(&self, rows: usize, cols: usize) -> Matrix<T> {
        assert!(rows >= self.rows && cols >= self.cols, "padding must grow");
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..self.rows {
            data.extend_from_slice(self.row(i));
            data.resize((i + 1) * cols, T::ZERO);
        }
        data.resize(rows * cols, T::ZERO);
        Matrix { rows, cols, data }
    }

    /// Extract the top-left `rows × cols` corner, copied one row slice at
    /// a time.
    pub fn cropped(&self, rows: usize, cols: usize) -> Matrix<T> {
        assert!(rows <= self.rows && cols <= self.cols, "crop must shrink");
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            data.extend_from_slice(&self.row(i)[..cols]);
        }
        Matrix { rows, cols, data }
    }

    /// The top-left `rows × cols` corner of the row-major `data`, `pitch`
    /// wide, compacted in place: each row moves forward with one
    /// `copy_within` (none moves when `cols == pitch`), then the tail is cut
    /// off. Its capacity is released only when the cut was most of the
    /// buffer. Shrinking by a few padded rows frees little, and a large
    /// buffer reallocated smaller can leave the allocator's mmap threshold
    /// just below the next padded size: on glibc every such call then maps
    /// and page-faults a fresh buffer (4,081 faults per 1080 × 1920 call).
    pub(crate) fn crop_in_place(
        mut data: Vec<T>,
        pitch: usize,
        rows: usize,
        cols: usize,
    ) -> Matrix<T> {
        assert!(
            cols <= pitch && rows * pitch <= data.len(),
            "crop must shrink"
        );
        if cols < pitch {
            for i in 1..rows {
                data.copy_within(i * pitch..i * pitch + cols, i * cols);
            }
        }
        data.truncate(rows * cols);
        if data.capacity() > 2 * data.len() {
            data.shrink_to_fit();
        }
        Matrix { rows, cols, data }
    }

    /// The transpose.
    pub fn transposed(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Map every element.
    pub fn map<U: SatElement>(&self, f: impl Fn(T) -> U) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }
}

impl Matrix<f64> {
    /// Maximum absolute elementwise difference (for float comparisons).
    pub fn max_abs_diff(&self, other: &Matrix<f64>) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as i64);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(1, 2), 12);
        assert_eq!(m.row(1), &[10, 11, 12]);
        assert!(!m.is_square());
    }

    #[test]
    fn padding_and_cropping_round_trip() {
        let m = Matrix::from_fn(3, 2, |i, j| (i + j) as i32);
        let p = m.zero_padded(5);
        assert_eq!(p.rows(), 5);
        assert_eq!(p.get(2, 1), 3);
        assert_eq!(p.get(4, 4), 0);
        assert_eq!(p.get(2, 3), 0);
        assert_eq!(p.cropped(3, 2), m);
        assert_eq!(Matrix::crop_in_place(p.clone().into_vec(), 5, 3, 2), m);
        // `cols == pitch`: no row moves, only the rows below are cut.
        let wide = m.zero_padded_to(4, 2);
        assert_eq!(Matrix::crop_in_place(wide.into_vec(), 2, 3, 2), m);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(4, 7, |i, j| (3 * i + j) as u32);
        assert_eq!(m.transposed().transposed(), m);
        assert_eq!(m.transposed().get(5, 2), m.get(2, 5));
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn from_vec_checks_shape() {
        let _ = Matrix::from_vec(2, 2, vec![1i32, 2, 3]);
    }

    #[test]
    fn map_converts() {
        let m = Matrix::from_fn(2, 2, |i, j| (i + j) as i64);
        let f = m.map(|v| v as f64);
        assert_eq!(f.get(1, 1), 2.0);
    }
}
