//! Facts about the host and the process: core count, cache sizes, peak
//! resident memory, CPU time and the commit under test.

use std::time::Duration;

/// Logical CPUs the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Unified cache sizes of CPU 0 by level, as `/sys` reports them (for
/// example `[("L2", "2048K"), ("L3", "307200K")]`).
pub fn caches() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read =
            |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            continue;
        };
        if kind == "Unified" {
            out.push((format!("L{level}"), size));
        }
    }
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU time of the whole process (every thread) so far.
pub fn cpu_time() -> Duration {
    const RUSAGE_SELF: i32 = 0;
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `u` is a live, writable `struct rusage` with the 64-bit Linux
    // layout (two `timeval`s followed by fourteen `long`s), and
    // `RUSAGE_SELF` asks for the calling process only.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail on a valid buffer"
    );
    let us = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(us(&u.utime) + us(&u.stime))
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without running git; `"unknown"` outside a repository.
pub fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
