//! Minimal PGM (portable graymap) image I/O — no dependencies.
//!
//! Supports reading both the ASCII (`P2`) and binary (`P5`) variants with
//! 8-bit or 16-bit samples, and writing `P5`/`P2`. Enough to round-trip real
//! grayscale images through the SAT pipelines without pulling an image
//! crate into the workspace.

use std::fmt;
use std::io::Write;
use std::path::Path;

use sat_core::Matrix;

/// Errors from PGM parsing or I/O.
#[derive(Debug)]
pub enum PgmError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed or unsupported PGM content.
    Format(String),
}

impl fmt::Display for PgmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PgmError::Io(e) => write!(f, "I/O error: {e}"),
            PgmError::Format(m) => write!(f, "PGM format error: {m}"),
        }
    }
}

impl std::error::Error for PgmError {}

impl From<std::io::Error> for PgmError {
    fn from(e: std::io::Error) -> Self {
        PgmError::Io(e)
    }
}

fn format_err(msg: impl Into<String>) -> PgmError {
    PgmError::Format(msg.into())
}

/// Largest accepted value for either image dimension.
///
/// PGM headers are attacker-controlled: `P5 99999999999 99999999999 255`
/// must not drive `rows * cols` into an overflow or a multi-gigabyte
/// `Vec::with_capacity`. 2²⁰ per side (and [`MAX_PIXELS`] overall) is far
/// beyond any image this workspace processes while keeping the worst-case
/// allocation bounded.
pub const MAX_DIM: usize = 1 << 20;

/// Largest accepted total pixel count (`rows × cols`), bounding the decode
/// allocation to 512 MB of `f64` samples.
pub const MAX_PIXELS: usize = 1 << 26;

/// A decoded grayscale image: sample matrix plus its declared maximum value.
#[derive(Debug, Clone, PartialEq)]
pub struct Pgm {
    /// Samples, row-major, in `[0, maxval]`.
    pub pixels: Matrix<f64>,
    /// Declared maximum sample value (255 for 8-bit, up to 65535).
    pub maxval: u32,
}

/// Read the next header token, skipping whitespace and `#` comments.
fn next_token(data: &[u8], pos: &mut usize) -> Result<String, PgmError> {
    loop {
        while *pos < data.len() && data[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
        if *pos < data.len() && data[*pos] == b'#' {
            while *pos < data.len() && data[*pos] != b'\n' {
                *pos += 1;
            }
            continue;
        }
        break;
    }
    let start = *pos;
    while *pos < data.len() && !data[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
    if start == *pos {
        return Err(format_err("unexpected end of header"));
    }
    Ok(String::from_utf8_lossy(&data[start..*pos]).into_owned())
}

/// Decode a PGM from raw bytes.
pub fn decode(data: &[u8]) -> Result<Pgm, PgmError> {
    let mut pos = 0usize;
    let magic = next_token(data, &mut pos)?;
    if magic != "P2" && magic != "P5" {
        return Err(format_err(format!("not a PGM (magic {magic:?})")));
    }
    let parse = |tok: String, what: &str| -> Result<usize, PgmError> {
        tok.parse::<usize>()
            .map_err(|_| format_err(format!("bad {what}: {tok:?}")))
    };
    let cols = parse(next_token(data, &mut pos)?, "width")?;
    let rows = parse(next_token(data, &mut pos)?, "height")?;
    let maxval = parse(next_token(data, &mut pos)?, "maxval")?;
    if rows == 0 || cols == 0 {
        return Err(format_err("zero-sized image"));
    }
    if rows > MAX_DIM || cols > MAX_DIM {
        return Err(format_err(format!(
            "dimensions {cols}x{rows} exceed the {MAX_DIM} per-side cap"
        )));
    }
    if maxval == 0 || maxval > 65535 {
        return Err(format_err(format!("maxval {maxval} out of range")));
    }
    let n = rows
        .checked_mul(cols)
        .filter(|&n| n <= MAX_PIXELS)
        .ok_or_else(|| {
            format_err(format!(
                "image {cols}x{rows} exceeds the {MAX_PIXELS}-pixel cap"
            ))
        })?;
    let mut vals = Vec::with_capacity(n);
    if magic == "P2" {
        for _ in 0..n {
            let v = parse(next_token(data, &mut pos)?, "sample")?;
            if v > maxval {
                return Err(format_err(format!("sample {v} exceeds maxval {maxval}")));
            }
            vals.push(v as f64);
        }
    } else {
        // P5: exactly one whitespace byte after maxval, then raw samples.
        match data.get(pos) {
            Some(b) if b.is_ascii_whitespace() => pos += 1,
            Some(b) => {
                return Err(format_err(format!(
                    "expected single whitespace byte after maxval, found 0x{b:02x}"
                )))
            }
            None => return Err(format_err("missing raster after maxval")),
        }
        let bytes_per = if maxval < 256 { 1 } else { 2 };
        // `n ≤ MAX_PIXELS`, so `n * bytes_per` cannot overflow; still use
        // the checked form so the bound is load-bearing, not incidental.
        let need = n.checked_mul(bytes_per).expect("bounded by MAX_PIXELS");
        if data.len().saturating_sub(pos) < need {
            return Err(format_err(format!(
                "raster truncated: need {need} bytes, have {}",
                data.len().saturating_sub(pos)
            )));
        }
        for k in 0..n {
            let v = if bytes_per == 1 {
                data[pos + k] as u32
            } else {
                // Big-endian per the spec.
                u32::from(data[pos + 2 * k]) << 8 | u32::from(data[pos + 2 * k + 1])
            };
            if v as usize > maxval {
                return Err(format_err(format!("sample {v} exceeds maxval {maxval}")));
            }
            vals.push(v as f64);
        }
    }
    Ok(Pgm {
        pixels: Matrix::from_vec(rows, cols, vals),
        maxval: maxval as u32,
    })
}

/// Read a PGM file.
pub fn read_pgm(path: impl AsRef<Path>) -> Result<Pgm, PgmError> {
    decode(&std::fs::read(path)?)
}

/// Encode an image as binary PGM (`P5`). Samples are clamped to
/// `[0, maxval]` and rounded.
pub fn encode_p5(img: &Matrix<f64>, maxval: u32) -> Result<Vec<u8>, PgmError> {
    if img.rows() == 0 || img.cols() == 0 {
        return Err(format_err("zero-sized image"));
    }
    if maxval == 0 || maxval > 65535 {
        return Err(format_err(format!("maxval {maxval} out of range")));
    }
    let mut out = Vec::new();
    write!(out, "P5\n{} {}\n{}\n", img.cols(), img.rows(), maxval)?;
    for &v in img.as_slice() {
        let q = v.round().clamp(0.0, maxval as f64) as u32;
        if maxval < 256 {
            out.push(q as u8);
        } else {
            out.push((q >> 8) as u8);
            out.push((q & 0xFF) as u8);
        }
    }
    Ok(out)
}

/// Encode as ASCII PGM (`P2`), mostly for golden files and debugging.
pub fn encode_p2(img: &Matrix<f64>, maxval: u32) -> Result<Vec<u8>, PgmError> {
    if img.rows() == 0 || img.cols() == 0 {
        return Err(format_err("zero-sized image"));
    }
    let mut out = Vec::new();
    write!(out, "P2\n{} {}\n{}\n", img.cols(), img.rows(), maxval)?;
    for i in 0..img.rows() {
        let row: Vec<String> = (0..img.cols())
            .map(|j| {
                let q = img.get(i, j).round().clamp(0.0, maxval as f64) as u32;
                q.to_string()
            })
            .collect();
        writeln!(out, "{}", row.join(" "))?;
    }
    Ok(out)
}

/// Write a binary PGM file.
pub fn write_pgm(path: impl AsRef<Path>, img: &Matrix<f64>, maxval: u32) -> Result<(), PgmError> {
    std::fs::write(path, encode_p5(img, maxval)?)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::noise;

    #[test]
    fn p5_round_trip_8bit() {
        let img = noise(13, 17, 1);
        let bytes = encode_p5(&img, 255).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back.maxval, 255);
        assert_eq!(back.pixels, img);
    }

    #[test]
    fn p5_round_trip_16bit() {
        let img = sat_core::Matrix::from_fn(5, 7, |i, j| ((i * 9999 + j * 777) % 65536) as f64);
        let bytes = encode_p5(&img, 65535).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back.maxval, 65535);
        assert_eq!(back.pixels, img);
    }

    #[test]
    fn p2_round_trip_and_comments() {
        let img = noise(4, 6, 2);
        let mut text = String::from_utf8(encode_p2(&img, 255).unwrap()).unwrap();
        // Inject a comment line after the magic; parsers must skip it.
        text = text.replacen("P2\n", "P2\n# a comment\n", 1);
        let back = decode(text.as_bytes()).unwrap();
        assert_eq!(back.pixels, img);
    }

    #[test]
    fn clamping_on_encode() {
        let img = sat_core::Matrix::from_vec(1, 3, vec![-5.0, 100.0, 400.0]);
        let bytes = encode_p5(&img, 255).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back.pixels.as_slice(), &[0.0, 100.0, 255.0]);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("sat_hmm_pgm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("img.pgm");
        let img = noise(9, 9, 3);
        write_pgm(&path, &img, 255).unwrap();
        let back = read_pgm(&path).unwrap();
        assert_eq!(back.pixels, img);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_garbage() {
        assert!(decode(b"P6\n1 1\n255\n\0").is_err()); // PPM, not PGM
        assert!(decode(b"P5\n0 3\n255\n").is_err()); // zero width
        assert!(decode(b"P5\n2 2\n255\nab").is_err()); // truncated raster
        assert!(decode(b"P2\n2 1\n10\n3 99\n").is_err()); // sample > maxval
        assert!(decode(b"").is_err());
    }

    #[test]
    fn rejects_overflowing_and_oversized_dimensions() {
        // Would overflow `rows * cols` on 64-bit too if unchecked up-front.
        assert!(decode(b"P5 99999999999999999999 99999999999999999999 255 ").is_err());
        // Each side over the cap.
        assert!(decode(b"P5 1048577 1 255 ").is_err());
        assert!(decode(b"P5 1 1048577 255 ").is_err());
        // Sides individually legal but the product exceeds MAX_PIXELS; this
        // must fail fast, before any raster-sized allocation.
        assert!(decode(b"P5 1048576 1048576 255 ").is_err());
        // `rows * cols` overflowing usize with sides under usize::MAX.
        assert!(decode(b"P2 4294967295 4294967295 255 ").is_err());
    }

    #[test]
    fn p5_rejects_samples_over_maxval_like_p2() {
        // 8-bit: sample 200 > maxval 100.
        assert!(decode(b"P5\n1 1\n100\n\xc8").is_err());
        // 16-bit: sample 0x0400 = 1024 > maxval 500.
        assert!(decode(b"P5\n1 1\n500\n\x04\x00").is_err());
        // Boundary values stay accepted.
        assert!(decode(b"P5\n1 1\n100\n\x64").is_ok());
        assert!(decode(b"P5\n1 1\n500\n\x01\xf4").is_ok());
    }

    #[test]
    fn p5_requires_whitespace_separator_after_maxval() {
        // 'X' where the single whitespace byte must be.
        assert!(decode(b"P5\n1 1\n255X\x07").is_err());
        // Header ending right after maxval: no separator, no raster.
        assert!(decode(b"P5\n1 1\n255").is_err());
        // Any single ASCII whitespace byte is a legal separator.
        for sep in [b' ', b'\n', b'\t', b'\r'] {
            let bytes = [b"P5\n1 1\n255".as_slice(), &[sep, 0x07]].concat();
            assert_eq!(decode(&bytes).unwrap().pixels.as_slice(), &[7.0]);
        }
    }

    #[test]
    fn error_display() {
        let e = decode(b"nope").unwrap_err();
        assert!(e.to_string().contains("PGM"));
    }
}
