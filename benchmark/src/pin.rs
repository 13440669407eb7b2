//! CPU placement. The server and the load generator run on disjoint CPUs,
//! so they never queue behind each other for a core, and every run places
//! them the same way: with the scheduler free to choose, a run where the
//! client and the server share a core and a run where they do not differ
//! by a fifth in latency and server CPU per request.

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Bits for CPUs 0..1024, the size glibc's `cpu_set_t` has.
type Mask = [u64; 16];

/// Restricts the calling thread, and every thread or process it starts
/// afterwards, to `cpus`. Returns whether the kernel accepted the mask.
fn pin_current_thread(cpus: impl IntoIterator<Item = usize>) -> bool {
    let mut mask: Mask = [0; 16];
    for cpu in cpus {
        if let Some(word) = mask.get_mut(cpu / 64) {
            *word |= 1 << (cpu % 64);
        }
    }
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed, which the kernel only reads; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
}

/// The CPUs this process may use, counted before any pinning narrows the
/// calling thread's own view of them.
pub fn cpus() -> usize {
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Where the next thread or process started from this thread runs.
#[derive(Debug, Clone, Copy)]
pub enum Place {
    /// CPU 0: the load generator.
    Client,
    /// CPUs 1 and up: the server.
    Server,
    /// Every CPU: builds and in-process measurements.
    Anywhere,
}

/// Pins the calling thread to `place`; a machine with one CPU runs
/// everything there.
pub fn to(place: Place) -> bool {
    let n = cpus();
    if n < 2 {
        return false;
    }
    match place {
        Place::Client => pin_current_thread([0]),
        Place::Server => pin_current_thread(1..n),
        Place::Anywhere => pin_current_thread(0..n),
    }
}
