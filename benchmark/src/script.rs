//! The inputs a runtime is driven with, and the flat mirror its answers
//! are checked against.
//!
//! Everything here is derived from the seed by the harness; the runtimes
//! under test only ever see the generated ops.

use kona::RemoteMemoryRuntime;
use kona_trace::Trace;
use kona_types::{AccessKind, MemAccess, VirtAddr, CACHE_LINE_SIZE};

/// One application operation at a byte offset into the allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub addr: u64,
    pub len: u32,
    pub write: bool,
}

impl Op {
    pub fn kind(&self) -> AccessKind {
        if self.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        }
    }

    /// Indices (address / 64) of the lines the op spans, in the order
    /// the runtimes walk them.
    pub fn lines(&self) -> std::ops::Range<u64> {
        let first = self.addr / CACHE_LINE_SIZE;
        first..first + lines_spanned(self.addr, self.len)
    }
}

/// 64-byte lines `[addr, addr + len)` touches — the benchmark's unit of
/// work ("access"), computed from the op, never read back from a runtime.
pub fn lines_spanned(addr: u64, len: u32) -> u64 {
    let len = u64::from(len.max(1));
    (addr + len - 1) / CACHE_LINE_SIZE - addr / CACHE_LINE_SIZE + 1
}

/// The ops of a generated trace (timestamps dropped: the runtime's own
/// simulated costs define time).
pub fn ops_from_trace(trace: &Trace) -> Vec<Op> {
    trace
        .iter()
        .map(|e| Op {
            addr: e.access.addr.raw(),
            len: e.access.len,
            write: e.access.kind.is_write(),
        })
        .collect()
}

pub fn op_accesses(ops: &[Op]) -> Vec<u64> {
    ops.iter()
        .map(|op| lines_spanned(op.addr, op.len))
        .collect()
}

/// splitmix64: the harness's own stream for fill bytes and derived seeds.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What became of one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ran,
    /// Shed by admission control before reaching the runtime.
    Throttled,
    Failed,
}

/// Anything ops can be driven into: every `RemoteMemoryRuntime`, and the
/// serving front end's per-tenant port (which can also throttle).
pub trait Target {
    fn access(&mut self, addr: u64, len: u32, kind: AccessKind) -> Outcome;
    fn write(&mut self, addr: u64, data: &[u8]) -> Outcome;
    fn read(&mut self, addr: u64, buf: &mut [u8]) -> Outcome;
}

fn ran<T>(res: kona_types::Result<T>) -> Outcome {
    if res.is_ok() {
        Outcome::Ran
    } else {
        Outcome::Failed
    }
}

impl<R: RemoteMemoryRuntime> Target for R {
    fn access(&mut self, addr: u64, len: u32, kind: AccessKind) -> Outcome {
        ran(RemoteMemoryRuntime::access(
            self,
            MemAccess::new(VirtAddr::new(addr), len, kind),
        ))
    }
    fn write(&mut self, addr: u64, data: &[u8]) -> Outcome {
        ran(self.write_bytes(VirtAddr::new(addr), data))
    }
    fn read(&mut self, addr: u64, buf: &mut [u8]) -> Outcome {
        ran(self.read_bytes(VirtAddr::new(addr), buf))
    }
}

/// How ops reach the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `RemoteMemoryRuntime::access`: timing only, no bytes.
    Access,
    /// `write_bytes` / `read_bytes`, every read compared with the mirror.
    Bytes,
}

/// Drives ops into a runtime and checks what comes back.
///
/// Holds the flat `Vec<u8>` mirror (the reference memory: what a machine
/// with all data local would hold), the fill-byte stream, and the failure
/// counts that feed `failed_frac`.
#[derive(Debug, Clone)]
pub struct Driver {
    path: Path,
    seed: u64,
    /// Ops driven so far; indexes the fill-byte stream so every write of
    /// a run stores a different byte and a replay stores the same ones.
    issued: u64,
    mirror: Vec<u8>,
    buf: Vec<u8>,
    /// Compare reads with the mirror (off when the runtime under test is
    /// timing-only and returns no bytes).
    check: bool,
    pub attempted: u64,
    pub errors: u64,
    pub mismatches: u64,
}

impl Driver {
    /// A driver over `footprint` bytes. The mirror is only allocated for
    /// [`Path::Bytes`].
    pub fn new(path: Path, seed: u64, footprint: u64, max_len: u32) -> Driver {
        let mirror = match path {
            Path::Access => Vec::new(),
            Path::Bytes => vec![0u8; footprint as usize],
        };
        Driver {
            path,
            seed,
            issued: 0,
            mirror,
            buf: vec![0u8; max_len as usize],
            check: true,
            attempted: 0,
            errors: 0,
            mismatches: 0,
        }
    }

    /// For runtimes that return no bytes: keep the harness's work, ignore
    /// the comparison's verdict.
    pub fn unchecked(mut self) -> Driver {
        self.check = false;
        self
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.mismatches
    }

    fn fill_byte(&self) -> u8 {
        splitmix64(self.seed ^ self.issued) as u8
    }

    /// Issues `op` at `base + op.addr`. A throttled op leaves the mirror
    /// alone; whether it counts as a failure is the caller's call (it
    /// knows which tenants have a rate limit).
    pub fn issue<T: Target>(&mut self, rt: &mut T, base: u64, op: &Op) -> Outcome {
        self.attempted += 1;
        let addr = base + op.addr;
        let outcome = match self.path {
            Path::Access => rt.access(addr, op.len, op.kind()),
            Path::Bytes => {
                let len = op.len as usize;
                let at = op.addr as usize;
                if op.write {
                    let fill = self.fill_byte();
                    self.buf[..len].fill(fill);
                    let outcome = rt.write(addr, &self.buf[..len]);
                    if outcome == Outcome::Ran {
                        self.mirror[at..at + len].fill(fill);
                    }
                    outcome
                } else {
                    let outcome = rt.read(addr, &mut self.buf[..len]);
                    if outcome == Outcome::Ran
                        && self.check
                        && self.buf[..len] != self.mirror[at..at + len]
                    {
                        self.mismatches += 1;
                    }
                    outcome
                }
            }
        };
        self.issued += 1;
        if outcome == Outcome::Failed {
            self.errors += 1;
        }
        outcome
    }

    /// Reads the whole footprint back through `read` (after a final
    /// `sync`) and counts every chunk that differs from the mirror.
    pub fn read_back(&mut self, mut read: impl FnMut(u64, &mut [u8]) -> bool) {
        if self.path != Path::Bytes {
            return;
        }
        let mut page = vec![0u8; 4096];
        for at in (0..self.mirror.len()).step_by(page.len()) {
            let len = page.len().min(self.mirror.len() - at);
            self.attempted += 1;
            if !read(at as u64, &mut page[..len]) {
                self.errors += 1;
            } else if page[..len] != self.mirror[at..at + len] {
                self.mismatches += 1;
            }
        }
    }
}

/// The null runtime: a flat memory with no model behind it. Driving the
/// script into it times the harness's own share of a pass.
#[derive(Debug, Default)]
pub struct FlatMemory {
    bytes: Vec<u8>,
}

impl FlatMemory {
    pub fn new(path: Path, footprint: u64) -> FlatMemory {
        FlatMemory {
            bytes: match path {
                Path::Access => Vec::new(),
                Path::Bytes => vec![0u8; footprint as usize],
            },
        }
    }
}

impl RemoteMemoryRuntime for FlatMemory {
    fn name(&self) -> &str {
        "flat"
    }
    fn allocate(&mut self, _bytes: u64) -> kona_types::Result<VirtAddr> {
        Ok(VirtAddr::new(0))
    }
    fn free(&mut self, _addr: VirtAddr, _bytes: u64) {}
    fn access(&mut self, access: MemAccess) -> kona_types::Result<kona_types::Nanos> {
        std::hint::black_box(access);
        Ok(kona_types::Nanos::ZERO)
    }
    fn write_bytes(
        &mut self,
        addr: VirtAddr,
        data: &[u8],
    ) -> kona_types::Result<kona_types::Nanos> {
        let at = addr.raw() as usize;
        self.bytes[at..at + data.len()].copy_from_slice(data);
        Ok(kona_types::Nanos::ZERO)
    }
    fn read_bytes(
        &mut self,
        addr: VirtAddr,
        buf: &mut [u8],
    ) -> kona_types::Result<kona_types::Nanos> {
        let at = addr.raw() as usize;
        buf.copy_from_slice(&self.bytes[at..at + buf.len()]);
        Ok(kona_types::Nanos::ZERO)
    }
    fn sync(&mut self) -> kona_types::Result<kona_types::Nanos> {
        Ok(kona_types::Nanos::ZERO)
    }
    fn stats(&self) -> kona::RuntimeStats {
        kona::RuntimeStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_spanned_counts_partial_lines_at_both_ends() {
        assert_eq!(lines_spanned(0, 1), 1);
        assert_eq!(lines_spanned(0, 64), 1);
        assert_eq!(lines_spanned(0, 65), 2);
        assert_eq!(lines_spanned(63, 2), 2);
        assert_eq!(lines_spanned(60, 144), 4); // 60..204 touches lines 0..=3
        assert_eq!(lines_spanned(4096, 4096), 64);
        assert_eq!(lines_spanned(4097, 4096), 65);
        assert_eq!(lines_spanned(128, 0), 1); // a zero-length op still touches its line
    }

    #[test]
    fn op_lines_match_lines_spanned() {
        let op = Op {
            addr: 60,
            len: 144,
            write: false,
        };
        assert_eq!(op.lines(), 0..4);
        assert_eq!(op.lines().count() as u64, lines_spanned(op.addr, op.len));
    }

    #[test]
    fn driver_catches_a_runtime_that_loses_a_write() {
        /// Stores nothing: every read returns zeros.
        struct Amnesiac(FlatMemory);
        impl RemoteMemoryRuntime for Amnesiac {
            fn name(&self) -> &str {
                "amnesiac"
            }
            fn allocate(&mut self, b: u64) -> kona_types::Result<VirtAddr> {
                self.0.allocate(b)
            }
            fn free(&mut self, _: VirtAddr, _: u64) {}
            fn access(&mut self, a: MemAccess) -> kona_types::Result<kona_types::Nanos> {
                RemoteMemoryRuntime::access(&mut self.0, a)
            }
            fn write_bytes(
                &mut self,
                _: VirtAddr,
                _: &[u8],
            ) -> kona_types::Result<kona_types::Nanos> {
                Ok(kona_types::Nanos::ZERO)
            }
            fn read_bytes(
                &mut self,
                a: VirtAddr,
                b: &mut [u8],
            ) -> kona_types::Result<kona_types::Nanos> {
                self.0.read_bytes(a, b)
            }
            fn sync(&mut self) -> kona_types::Result<kona_types::Nanos> {
                Ok(kona_types::Nanos::ZERO)
            }
            fn stats(&self) -> kona::RuntimeStats {
                kona::RuntimeStats::default()
            }
        }

        let ops = [
            Op {
                addr: 100,
                len: 80,
                write: true,
            },
            Op {
                addr: 100,
                len: 80,
                write: false,
            },
        ];
        let mut good = FlatMemory::new(Path::Bytes, 4096);
        let mut driver = Driver::new(Path::Bytes, 9, 4096, 128);
        for op in &ops {
            driver.issue(&mut good, 0, op);
        }
        driver.read_back(|at, buf| good.read_bytes(VirtAddr::new(at), buf).is_ok());
        assert_eq!((driver.attempted, driver.failed()), (3, 0));

        let mut bad = Amnesiac(FlatMemory::new(Path::Bytes, 4096));
        let mut driver = Driver::new(Path::Bytes, 9, 4096, 128);
        for op in &ops {
            driver.issue(&mut bad, 0, op);
        }
        // The fill byte for op 0 is non-zero for this seed, so the read differs.
        assert_ne!(splitmix64(9) as u8, 0);
        assert_eq!(driver.mismatches, 1);
    }
}
