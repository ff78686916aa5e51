//! Batched SATs for a stream of video frames: fuse the 1R1W wavefront
//! across the batch so its narrow corner stages finally hide latency.
//!
//! ```sh
//! cargo run --release --example video_batch
//! ```
//!
//! Computes the SAT of 16 synthetic frames two ways — one at a time versus
//! batch-fused — and compares launches and dependency-aware simulated time
//! per frame on the machine model.

use gpu_exec::{Device, DeviceOptions, GlobalBuffer};
use hmm_model::MachineConfig;
use hmm_sim::AsyncHmm;
use sat_core::par::{sat_1r1w, sat_1r1w_batch};
use sat_core::seq::sat_reference;
use sat_core::Matrix;
use sat_image::synth::scene_with_object;

fn main() {
    let (rows, cols, batch) = (128usize, 128usize, 16usize);
    let cfg = MachineConfig::with_width(16).latency(200).num_dmms(64);

    // Synthetic "video": the bright object drifts across the gradient.
    let frames: Vec<Matrix<f64>> = (0..batch)
        .map(|k| scene_with_object(rows, cols, 20 + 2 * k, 10 + 5 * k, 16, 16))
        .collect();
    println!(
        "{batch} frames of {rows}x{cols}, machine: w = {}, L = {}, d = {}\n",
        cfg.width, cfg.latency, cfg.num_dmms
    );

    // One frame at a time.
    let dev = Device::new(DeviceOptions::new(cfg).workers(0).record_trace(true));
    let staged: Vec<Vec<f64>> = frames
        .iter()
        .map(|f| {
            let a = GlobalBuffer::from_vec(f.as_slice().to_vec());
            let s = GlobalBuffer::filled(0.0f64, rows * cols);
            sat_1r1w(&dev, &a, &s, rows, cols);
            s.into_vec()
        })
        .collect();
    let seq_launches = dev.launches();
    let seq_time = AsyncHmm::new(cfg).simulate(&dev.take_trace()).total_time;

    // Batch-fused wavefront.
    let dev = Device::new(DeviceOptions::new(cfg).workers(0).record_trace(true));
    let ins: Vec<GlobalBuffer<f64>> = frames
        .iter()
        .map(|f| GlobalBuffer::from_vec(f.as_slice().to_vec()))
        .collect();
    let outs: Vec<GlobalBuffer<f64>> = (0..batch)
        .map(|_| GlobalBuffer::filled(0.0f64, rows * cols))
        .collect();
    sat_1r1w_batch(
        &dev,
        &ins.iter().collect::<Vec<_>>(),
        &outs.iter().collect::<Vec<_>>(),
        rows,
        cols,
    );
    let batch_launches = dev.launches();
    let batch_time = AsyncHmm::new(cfg).simulate(&dev.take_trace()).total_time;

    // Verify every frame: both strategies run the same per-block arithmetic,
    // so they agree bit for bit, and they match the sequential reference
    // (float tolerance: different summation orders round differently).
    for (k, (out, one)) in outs.into_iter().zip(staged).enumerate() {
        let got = out.into_vec();
        assert!(
            got.iter()
                .zip(&one)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "frame {k}: batched and one-at-a-time results differ"
        );
        let diff = Matrix::from_vec(rows, cols, got).max_abs_diff(&sat_reference(&frames[k]));
        assert!(diff < 1e-6, "frame {k}: max diff {diff}");
    }

    println!(
        "{:<22} {:>10} {:>16} {:>16}",
        "strategy", "launches", "sim time", "per frame"
    );
    println!(
        "{:<22} {:>10} {:>16} {:>16.0}",
        "one frame at a time",
        seq_launches,
        seq_time,
        seq_time as f64 / batch as f64
    );
    println!(
        "{:<22} {:>10} {:>16} {:>16.0}",
        "wavefront fused",
        batch_launches,
        batch_time,
        batch_time as f64 / batch as f64
    );
    println!(
        "\nspeed-up per frame: {:.2}x with {}x fewer launches",
        seq_time as f64 / batch_time as f64,
        seq_launches / batch_launches
    );
}
