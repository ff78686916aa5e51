//! `satcli` — command-line front end for the SAT pipelines.
//!
//! ```text
//! satcli gen <out.pgm> [--kind gradient|checker|noise|scene] [--size RxC] [--seed S]
//! satcli sat <in.pgm> <out.pgm> [--alg ALG]       # SAT, normalised to 16-bit
//! satcli boxfilter <in.pgm> <out.pgm> [--radius R] [--alg ALG]
//! satcli threshold <in.pgm> <out.pgm> [--radius R] [--t F]
//! satcli variance <in.pgm> <out.pgm> [--radius R]
//! satcli stats <in.pgm> [--alg ALG]               # access statistics + cost
//! ```
//!
//! `ALG` ∈ {2r2w, 4r4w, 4r1w, 2r1w, 1r1w, hybrid} (default: hybrid).
//! Everything runs on the virtual GPU with the GTX-780-Ti-calibrated
//! machine profile; `stats` prints the Table-I-style accounting for the
//! chosen algorithm on the given image.

use std::process::ExitCode;

use gpu_exec::{Device, DeviceOptions};
use hmm_model::MachineConfig;
use sat_core::{compute_sat, Matrix, SumTable};
use sat_image::boxfilter::mean_filter;
use sat_image::pgm;
use sat_image::synth;
use sat_image::threshold::adaptive_threshold;
use sat_image::variance::local_variance;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

fn flag_parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value for {name}: {v:?}")),
    }
}

fn device() -> Device {
    Device::new(DeviceOptions::new(MachineConfig::gtx780ti()))
}

fn load(path: &str) -> Result<Matrix<f64>, String> {
    Ok(pgm::read_pgm(path)
        .map_err(|e| format!("reading {path}: {e}"))?
        .pixels)
}

fn save(path: &str, img: &Matrix<f64>, maxval: u32) -> Result<(), String> {
    pgm::write_pgm(path, img, maxval).map_err(|e| format!("writing {path}: {e}"))
}

fn run() -> Result<(), String> {
    let all: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, args) = all.split_first().ok_or_else(|| {
        "usage: satcli <gen|sat|boxfilter|threshold|variance|stats> …".to_string()
    })?;
    match cmd.as_str() {
        "gen" => {
            let out = args.first().ok_or("gen: missing output path")?;
            let size = flag(args, "--size").unwrap_or("256x256");
            let (r, c) = size
                .split_once('x')
                .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
                .ok_or_else(|| format!("bad --size {size:?} (want RxC)"))?;
            let seed: u64 = flag_parse(args, "--seed", 42)?;
            let kind = flag(args, "--kind").unwrap_or("scene");
            let img = match kind {
                "gradient" => synth::radial_gradient(r, c),
                "checker" => synth::checkerboard(r, c, 16),
                "noise" => synth::noise(r, c, seed),
                "scene" => synth::scene_with_object(r, c, r / 4, c / 2, r / 6, c / 6),
                other => return Err(format!("unknown --kind {other:?}")),
            };
            save(out, &img, 255)?;
            println!("wrote {r}x{c} {kind} image to {out}");
        }
        "sat" => {
            let input = args.first().ok_or("sat: missing input")?;
            let output = args.get(1).ok_or("sat: missing output")?;
            let alg = flag(args, "--alg").unwrap_or("hybrid").parse()?;
            let img = load(input)?;
            let dev = device();
            let sat = compute_sat(&dev, alg, &img);
            // Normalise monotone SAT values into 16 bits for viewing.
            let max = sat.get(sat.rows() - 1, sat.cols() - 1).max(1.0);
            let norm = sat.map(|v| v / max * 65535.0);
            save(output, &norm, 65535)?;
            println!(
                "SAT of {}x{} via {} → {output} (total sum {max})",
                img.rows(),
                img.cols(),
                alg.name()
            );
        }
        "boxfilter" => {
            let input = args.first().ok_or("boxfilter: missing input")?;
            let output = args.get(1).ok_or("boxfilter: missing output")?;
            let radius: usize = flag_parse(args, "--radius", 4)?;
            let alg = flag(args, "--alg").unwrap_or("hybrid").parse()?;
            let img = load(input)?;
            let dev = device();
            let table = SumTable::from_sat(compute_sat(&dev, alg, &img));
            let filtered = mean_filter(&table, radius);
            save(output, &filtered, 255)?;
            println!("mean-filtered (r = {radius}) via {} → {output}", alg.name());
        }
        "threshold" => {
            let input = args.first().ok_or("threshold: missing input")?;
            let output = args.get(1).ok_or("threshold: missing output")?;
            let radius: usize = flag_parse(args, "--radius", 8)?;
            let t: f64 = flag_parse(args, "--t", 0.15)?;
            let img = load(input)?;
            let bin = adaptive_threshold(&img, radius, t);
            save(output, &bin.map(|v| v as f64 * 255.0), 255)?;
            let on: usize = bin.as_slice().iter().map(|&v| v as usize).sum();
            println!("adaptive threshold (r = {radius}, t = {t}) → {output} ({on} foreground px)");
        }
        "variance" => {
            let input = args.first().ok_or("variance: missing input")?;
            let output = args.get(1).ok_or("variance: missing output")?;
            let radius: usize = flag_parse(args, "--radius", 3)?;
            let img = load(input)?;
            let var = local_variance(&img, radius);
            let max = var.as_slice().iter().fold(1.0f64, |m, &v| m.max(v));
            save(output, &var.map(|v| v / max * 255.0), 255)?;
            println!("local variance (r = {radius}) → {output} (max {max:.1})");
        }
        "stats" => {
            let input = args.first().ok_or("stats: missing input")?;
            let alg = flag(args, "--alg").unwrap_or("hybrid").parse()?;
            let img = load(input)?;
            let dev = device();
            dev.reset_stats();
            let _ = compute_sat(&dev, alg, &img);
            let s = dev.stats();
            let cfg = dev.config();
            // Per-element rates over the padded device matrix.
            let w = cfg.width;
            let area = (img.rows().next_multiple_of(w) * img.cols().next_multiple_of(w)) as f64;
            println!(
                "{} on {}x{} ({}):",
                alg.name(),
                img.rows(),
                img.cols(),
                input
            );
            println!(
                "  reads/element    {:.3}",
                (s.coalesced_reads + s.stride_reads) as f64 / area
            );
            println!(
                "  writes/element   {:.3}",
                (s.coalesced_writes + s.stride_writes) as f64 / area
            );
            println!("  coalesced ops    {}", s.coalesced_ops());
            println!("  stride ops       {}", s.stride_ops());
            println!("  barrier steps    {}", s.barrier_steps);
            println!("  shared ops       {}", s.shared_reads + s.shared_writes);
            println!("  model cost       {:.0} time units", s.global_cost(cfg));
        }
        other => {
            return Err(format!(
                "unknown command {other:?}; see --help in the module docs"
            ))
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("satcli: {e}");
            ExitCode::FAILURE
        }
    }
}
