//! Box and mean filtering via the summed area table.
//!
//! A box filter of radius `r` replaces each pixel by the sum (or mean) of
//! the `(2r+1) × (2r+1)` window around it, clamped at the image borders.
//! With a SAT each output pixel costs four lookups regardless of `r` — the
//! canonical SAT application.

use sat_core::{Matrix, Rect, SatElement, SumTable};

/// The clamped window `[i−r, i+r] × [j−r, j+r]` of an image of the given
/// shape.
pub fn clamped_window(rows: usize, cols: usize, i: usize, j: usize, r: usize) -> Rect {
    Rect::new(
        i.saturating_sub(r),
        j.saturating_sub(r),
        i.saturating_add(r).min(rows - 1),
        j.saturating_add(r).min(cols - 1),
    )
}

/// Box *sum* filter: output pixel = sum of the clamped radius-`r` window.
pub fn box_filter<T: SatElement>(table: &SumTable<T>, r: usize) -> Matrix<T> {
    let (rows, cols) = (table.sat().rows(), table.sat().cols());
    Matrix::from_fn(rows, cols, |i, j| {
        table.sum(clamped_window(rows, cols, i, j, r))
    })
}

/// Mean filter: output pixel = mean of the clamped radius-`r` window.
pub fn mean_filter(table: &SumTable<f64>, r: usize) -> Matrix<f64> {
    let (rows, cols) = (table.sat().rows(), table.sat().cols());
    Matrix::from_fn(rows, cols, |i, j| {
        let rect = clamped_window(rows, cols, i, j, r);
        let s: f64 = table.sum(rect);
        s / rect.area() as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{int_noise, noise};

    fn brute_box(img: &Matrix<i64>, r: usize) -> Matrix<i64> {
        let (rows, cols) = (img.rows(), img.cols());
        Matrix::from_fn(rows, cols, |i, j| {
            let rect = clamped_window(rows, cols, i, j, r);
            let mut acc = 0;
            for u in rect.r0..=rect.r1 {
                for v in rect.c0..=rect.c1 {
                    acc += img.get(u, v);
                }
            }
            acc
        })
    }

    #[test]
    fn matches_brute_force() {
        let img = int_noise(17, 23, 100, 3);
        for r in [0usize, 1, 2, 5, 30] {
            assert_eq!(
                box_filter(&SumTable::build(&img), r),
                brute_box(&img, r),
                "r={r}"
            );
        }
    }

    #[test]
    fn radius_zero_is_identity() {
        let img = int_noise(9, 9, 50, 1);
        assert_eq!(box_filter(&SumTable::build(&img), 0), img);
    }

    #[test]
    fn mean_of_constant_image_is_constant() {
        let img = sat_core::Matrix::from_fn(12, 12, |_, _| 7.0);
        let t = SumTable::build(&img);
        let m = mean_filter(&t, 3);
        for i in 0..12 {
            for j in 0..12 {
                assert!((m.get(i, j) - 7.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn huge_radius_covers_whole_image() {
        let img = noise(10, 10, 5);
        let t = SumTable::build(&img);
        let total: f64 = img.as_slice().iter().sum();
        let b = box_filter(&t, 100);
        for i in 0..10 {
            for j in 0..10 {
                assert!((b.get(i, j) - total).abs() < 1e-9);
            }
        }
        // A radius past `usize::MAX − i` must clamp, not wrap the window.
        assert_eq!(box_filter(&t, usize::MAX), box_filter(&t, 10));
    }

    #[test]
    fn filtering_smooths_noise() {
        let img = noise(32, 32, 11);
        let t = SumTable::build(&img);
        let m = mean_filter(&t, 4);
        let var = |x: &Matrix<f64>| {
            let mean = x.as_slice().iter().sum::<f64>() / (32.0 * 32.0);
            x.as_slice().iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (32.0 * 32.0)
        };
        assert!(var(&m) < var(&img) / 4.0);
    }
}
