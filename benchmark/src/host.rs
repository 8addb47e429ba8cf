//! Host-side measurement helpers: estimators, digests, and the probes
//! that show whether a run was taken in one of the host's slow phases.

use std::hint::black_box;
use std::time::Instant;

/// Quantile `q` in `[0, 1]` of `values` by linear interpolation between
/// order statistics; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The estimator for the traced run's per-layer host times: the fastest
/// of many fresh repetitions. Contention only ever slows a repetition
/// down, so the fastest one is the nearest to the uncontended speed.
pub fn low(values: &[f64]) -> f64 {
    quantile(values, 0.0)
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of a value's `Debug` rendering. For the simulator's statistics
/// this covers every counter and every `f64` (Rust prints a float's
/// shortest round-trip form, so equal text means equal bits).
pub fn debug_digest<T: std::fmt::Debug>(value: &T) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

/// A fixed probe kernel: `steps` steps of four independent integer
/// streams with data-dependent branches and updates to a fresh table of
/// `words` 32-bit words. It keeps the core's execution units busy, as the
/// simulator does, so it slows in the same host phases. A table of
/// megabytes also faults its pages in and misses the caches, as a fresh
/// simulator does. Returns its host time in milliseconds.
pub fn probe_ms(steps: u64, words: usize) -> f64 {
    assert!(words.is_power_of_two());
    let mut pages = FreshPages::new(words);
    let table = pages.words();
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    let mut acc = 0u64;
    let start = Instant::now();
    for i in 0..steps {
        a ^= a << 13;
        a ^= a >> 7;
        a ^= a << 17;
        b = b.wrapping_add(0x9E37_79B9_7F4A_7C15);
        c = c.rotate_left(5) ^ i;
        d = d.wrapping_mul(3).wrapping_add(a);
        let slot = ((a ^ b) as usize) & (words - 1);
        if table[slot] & 1 == 0 {
            table[slot] = table[slot].wrapping_add(c as u32);
        } else {
            acc = acc.wrapping_add(d);
        }
        table[((c ^ d) as usize) & (words - 1)] ^= b as u32;
    }
    black_box((acc, &table));
    start.elapsed().as_secs_f64() * 1e3
}

/// `mmap(2)` protection and flags (Linux values).
const PROT_READ_WRITE: i32 = 0x1 | 0x2;
const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;

extern "C" {
    fn mmap(addr: *mut u32, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u32;
    fn munmap(addr: *mut u32, len: usize) -> i32;
}

/// A fresh zero-filled anonymous mapping of 32-bit words, unmapped on
/// drop. It bypasses the allocator, so the probe neither leaves memory
/// resident nor moves the allocator's thresholds for the simulator.
struct FreshPages {
    ptr: *mut u32,
    words: usize,
}

impl FreshPages {
    fn new(words: usize) -> FreshPages {
        let len = words * std::mem::size_of::<u32>();
        // SAFETY: an anonymous private mapping at no fixed address and no
        // file; the result is checked before use.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ_WRITE,
                MAP_PRIVATE_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(ptr as isize != -1, "probe table mapping failed");
        FreshPages { ptr, words }
    }

    fn words(&mut self) -> &mut [u32] {
        // SAFETY: the mapping is `words` zero-filled, writable, aligned
        // u32s, owned by `self` until drop.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.words) }
    }
}

impl Drop for FreshPages {
    fn drop(&mut self) {
        // SAFETY: unmaps exactly the mapping `new` created, once.
        unsafe {
            munmap(self.ptr, self.words * std::mem::size_of::<u32>());
        }
    }
}

/// Time this thread has spent runnable but waiting for a CPU, in seconds
/// (second field of `/proc/thread-self/schedstat`); 0 where unavailable.
pub fn runq_wait_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// Peak resident set size of this process (`VmHWM`) in MB; 0 where
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bits of a `cpu_set_t`: glibc's fixed 1024-CPU mask.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Moves the calling thread from one allowed CPU to the next between
/// repetitions. Each vCPU of a shared host has slow phases of its own, so
/// a run that visits every CPU is far less likely to spend its whole
/// length in one. The program stays on one thread throughout.
#[derive(Debug)]
pub struct CpuRotation {
    original: [u64; CPU_SET_WORDS],
    cpus: Vec<usize>,
    next: usize,
}

impl CpuRotation {
    /// Reads the CPUs this thread may run on; rotation is a no-op where
    /// the mask cannot be read.
    pub fn new() -> CpuRotation {
        let mut original = [0u64; CPU_SET_WORDS];
        // SAFETY: `original` is a writable buffer of exactly the size
        // passed, as `sched_getaffinity` requires; pid 0 is this thread.
        let ok = unsafe {
            sched_getaffinity(0, std::mem::size_of_val(&original), original.as_mut_ptr())
        } == 0;
        let cpus = if ok {
            (0..CPU_SET_WORDS * 64)
                .filter(|&cpu| original[cpu / 64] >> (cpu % 64) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        CpuRotation {
            original,
            cpus,
            next: 0,
        }
    }

    /// Pins this thread to the next CPU in turn.
    pub fn advance(&mut self) {
        if self.cpus.is_empty() {
            return;
        }
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        let mut mask = [0u64; CPU_SET_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        set_affinity(&mask);
    }

    /// Restores the mask the thread started with.
    pub fn restore(&self) {
        if !self.cpus.is_empty() {
            set_affinity(&self.original);
        }
    }
}

/// Sets this thread's CPU mask; a refusal only leaves the mask as it was.
fn set_affinity(mask: &[u64; CPU_SET_WORDS]) {
    // SAFETY: `mask` is a readable buffer of exactly the size passed, as
    // `sched_setaffinity` requires; pid 0 is this thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr());
    }
}
