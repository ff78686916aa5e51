//! Model-conformance observatory, end to end: a fault-free service's
//! online fit converges to the configured machine with zero drift alerts.

use std::time::Duration;

use hmm_model::cost::SatAlgorithm;
use hmm_model::MachineConfig;
use sat_core::Matrix;
use sat_service::{Service, ServiceConfig};

fn image(seed: usize) -> Matrix<f64> {
    Matrix::from_fn(16, 16, |i, j| {
        ((i * 31 + j * 7 + seed * 13) % 29) as f64 - 14.0
    })
}

fn base_config() -> ServiceConfig {
    ServiceConfig {
        machine: MachineConfig::with_width(4),
        device_workers: Some(2),
        queue_capacity: 64,
        max_batch: 4,
        max_linger: Duration::from_micros(200),
        default_deadline: Duration::from_secs(30),
        observer: obs::Obs::new(),
        ..ServiceConfig::default()
    }
}

#[test]
fn fault_free_service_converges_to_the_configured_machine() {
    let service = Service::start(base_config());
    let client = service.client();
    for k in 0..24usize {
        client
            .submit(image(k), SatAlgorithm::OneR1W, None)
            .expect("accepted");
    }
    let fit = service.conformance().fit();
    assert!(fit.samples >= 24, "{fit:?}");
    assert!(fit.converged, "the online fit must converge: {fit:?}");
    // The fitted parameters recover the configured machine: width 4 and
    // Λ = latency + barrier_overhead = 100, within the default tolerance
    // the check.sh gate also uses.
    let machine = MachineConfig::with_width(4);
    assert!(
        fit.matches(machine.width as u64, machine.window_overhead(), 0.1),
        "fitted (w, Λ) = ({}, {}) vs configured ({}, {})",
        fit.width,
        fit.window_overhead,
        machine.width,
        machine.window_overhead()
    );
    assert_eq!(
        service.conformance().alerts().len(),
        0,
        "a fault-free run never drifts"
    );
    // The observatory's gauges and histograms ride the shared registry.
    let text = service.metrics_text();
    for family in [
        "sat_service_model_samples_total",
        "sat_service_model_fitted_width",
        "sat_service_model_fitted_window_overhead",
        "sat_service_model_fit_converged 1",
        "sat_service_model_tau_ns",
        "sat_service_model_residual_relative",
        "sat_service_model_drift_alerts_total 0",
    ] {
        assert!(text.contains(family), "scrape is missing {family}:\n{text}");
    }
    // The report carries the contract fields and buckets the traffic under
    // its (algorithm, shape) cell.
    let report = service.conformance_report();
    assert!(
        report.contains("\"schema\":\"sat-hmm/conformance/v2\""),
        "{report}"
    );
    assert!(report.contains("\"1R1W/16x16\""), "{report}");
    assert!(report.contains("\"drifted\":false"), "{report}");
    service.shutdown();
}
