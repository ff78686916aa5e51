//! Property tests for the core SAT library (device algorithms, scan,
//! transpose, mirror variant) over randomly shaped rectangular inputs.

use gpu_exec::{Device, DeviceOptions, GlobalBuffer};
use hmm_model::MachineConfig;
use proptest::prelude::*;
use sat_core::par;
use sat_core::scan::{exclusive_scan, inclusive_scan, inclusive_scan_host};
use sat_core::seq::sat_reference;
use sat_core::transpose::transpose;
use sat_core::Matrix;

fn dev(w: usize) -> Device {
    Device::new(DeviceOptions::new(MachineConfig::with_width(w)).workers(1))
}

/// Random block-aligned rectangle: (w, rows, cols) with both sides
/// multiples of w.
fn arb_grid() -> impl Strategy<Value = (usize, usize, usize)> {
    (2usize..=6, 1usize..=6, 1usize..=6).prop_map(|(w, mr, mc)| (w, mr * w, mc * w))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn one_r1w_and_mirror_agree_on_rectangles(
        (w, rows, cols) in arb_grid(),
        seed in 0i64..1000,
    ) {
        let a = Matrix::from_fn(rows, cols, |i, j| ((i as i64 * 31 + j as i64 * 7 + seed) % 41) - 20);
        let want = sat_reference(&a);
        let d = dev(w);
        for mirror in [false, true] {
            let ab = GlobalBuffer::from_vec(a.as_slice().to_vec());
            let sb = GlobalBuffer::filled(0i64, rows * cols);
            if mirror {
                par::sat_1r1w_mirror(&d, &ab, &sb, rows, cols);
            } else {
                par::sat_1r1w(&d, &ab, &sb, rows, cols);
            }
            prop_assert_eq!(sb.into_vec(), want.as_slice(), "mirror={} {}x{}", mirror, rows, cols);
        }
    }

    #[test]
    fn two_r1w_matches_reference_on_rectangles(
        (w, rows, cols) in arb_grid(),
        seed in 0i64..1000,
    ) {
        let a = Matrix::from_fn(rows, cols, |i, j| ((i as i64 * 13 + j as i64 * 17 + seed) % 23) - 11);
        let d = dev(w);
        let ab = GlobalBuffer::from_vec(a.as_slice().to_vec());
        let sb = GlobalBuffer::filled(0i64, rows * cols);
        par::sat_2r1w(&d, &ab, &sb, rows, cols);
        prop_assert_eq!(sb.into_vec(), sat_reference(&a).into_vec());
    }

    #[test]
    fn kogge_stone_matches_reference((w, rows, cols) in arb_grid(), seed in 0i64..100) {
        let a = Matrix::from_fn(rows, cols, |i, j| ((i as i64 * 5 + j as i64 * 3 + seed) % 19) - 9);
        let d = dev(w);
        let ab = GlobalBuffer::from_vec(a.as_slice().to_vec());
        let tmp = GlobalBuffer::filled(0i64, rows * cols);
        par::sat_kogge_stone(&d, &ab, &tmp, rows, cols);
        prop_assert_eq!(ab.into_vec(), sat_reference(&a).into_vec());
    }

    #[test]
    fn transpose_round_trip_rectangles((w, rows, cols) in arb_grid(), seed in 0i64..100) {
        let a = Matrix::from_fn(rows, cols, |i, j| (i as i64 * 101 + j as i64 + seed) % 257);
        let d = dev(w);
        let src = GlobalBuffer::from_vec(a.as_slice().to_vec());
        let t = GlobalBuffer::filled(0i64, rows * cols);
        transpose(&d, &src, &t, rows, cols);
        let tv = t.into_vec();
        let at = a.transposed();
        prop_assert_eq!(&tv, at.as_slice());
        let t2 = GlobalBuffer::from_vec(tv);
        let back = GlobalBuffer::filled(0i64, rows * cols);
        transpose(&d, &t2, &back, cols, rows);
        prop_assert_eq!(back.into_vec(), a.into_vec());
    }

    #[test]
    fn scan_matches_host(len in 0usize..3000, w in 2usize..=8, seed in 0i64..100) {
        let v: Vec<i64> = (0..len).map(|i| (i as i64 * 7 + seed) % 31 - 15).collect();
        let d = dev(w);
        let input = GlobalBuffer::from_vec(v.clone());
        let output = GlobalBuffer::filled(0i64, len);
        inclusive_scan(&d, &input, &output, len);
        prop_assert_eq!(output.into_vec(), inclusive_scan_host(&v));
    }

    #[test]
    fn exclusive_plus_value_is_inclusive(len in 1usize..2000, w in 2usize..=8) {
        let v: Vec<i64> = (0..len).map(|i| (i as i64 * 13) % 27 - 13).collect();
        let d = dev(w);
        let input = GlobalBuffer::from_vec(v.clone());
        let output = GlobalBuffer::filled(0i64, len);
        exclusive_scan(&d, &input, &output, len);
        let ex = output.into_vec();
        let inc = inclusive_scan_host(&v);
        for i in 0..len {
            prop_assert_eq!(ex[i] + v[i], inc[i], "i={}", i);
        }
    }

    #[test]
    fn sat_monotone_for_nonnegative_inputs((w, rows, cols) in arb_grid()) {
        // With non-negative entries the SAT is monotone along rows and
        // columns — a structural invariant independent of any reference.
        let a = Matrix::from_fn(rows, cols, |i, j| ((i * 31 + j * 7) % 13) as i64);
        let d = dev(w);
        let ab = GlobalBuffer::from_vec(a.as_slice().to_vec());
        let sb = GlobalBuffer::filled(0i64, rows * cols);
        par::sat_1r1w(&d, &ab, &sb, rows, cols);
        let s = sb.into_vec();
        for i in 0..rows {
            for j in 1..cols {
                prop_assert!(s[i * cols + j] >= s[i * cols + j - 1]);
            }
        }
        for j in 0..cols {
            for i in 1..rows {
                prop_assert!(s[i * cols + j] >= s[(i - 1) * cols + j]);
            }
        }
    }
}
