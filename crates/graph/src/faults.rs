//! Deterministic I/O fault injection and the bounded retry policy.
//!
//! The fault harness (ISSUE 2) needs to reproduce ingestion failures
//! exactly: a truncated file, a flipped bit at a known offset, a device
//! that returns `ErrorKind::Interrupted`/`WouldBlock` a few times before
//! succeeding. [`FaultyReader`] wraps any [`Read`] and injects those
//! failures from an [`IoFaultPlan`] — seeded and replayable, with no
//! wall-clock or ambient randomness in the plan itself. [`read_retrying`]
//! is the consumption side: the bounded retry + backoff loop every read of
//! the `load_*`/`read_*` entry points goes through, which turns transient
//! errors into successful loads and persistent ones into typed errors
//! instead of hangs.

use std::io::{ErrorKind, Read};
use std::time::Duration;

/// SplitMix64 — the workspace-standard seeded generator (same scheme as the
/// vendored `rand` stand-in), used only to pick *which* transient error
/// kind each injected failure reports.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic plan of ingestion faults. Every field is explicit — the
/// plan contains no clock reads and no hidden RNG state, so the same plan
/// over the same bytes reproduces the same failure byte-for-byte.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoFaultPlan {
    /// Seed for the transient-error-kind choice (`Interrupted` vs
    /// `WouldBlock`).
    pub seed: u64,
    /// Report end-of-file after this many bytes (truncation).
    pub truncate_at: Option<u64>,
    /// XOR the byte at this offset with this mask (bit flip / corruption).
    pub bitflip: Option<(u64, u8)>,
    /// Fail the first N `read` calls with a transient error before serving
    /// any data.
    pub transient_errors: u32,
}

impl IoFaultPlan {
    /// A plan that injects nothing (the clean-path control).
    pub fn clean() -> Self {
        IoFaultPlan::default()
    }

    /// Builder: seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: truncate after `n` bytes.
    pub fn with_truncation(mut self, n: u64) -> Self {
        self.truncate_at = Some(n);
        self
    }

    /// Builder: flip `mask` bits of the byte at `offset`.
    pub fn with_bitflip(mut self, offset: u64, mask: u8) -> Self {
        self.bitflip = Some((offset, mask));
        self
    }

    /// Builder: fail the first `n` reads transiently.
    pub fn with_transient_errors(mut self, n: u32) -> Self {
        self.transient_errors = n;
        self
    }
}

/// A [`Read`] adapter that injects the faults described by an
/// [`IoFaultPlan`] into the wrapped reader's byte stream.
pub struct FaultyReader<R> {
    inner: R,
    plan: IoFaultPlan,
    /// Bytes already served to the caller.
    offset: u64,
    /// Transient errors emitted so far.
    transients_emitted: u32,
    /// RNG state for the error-kind choice.
    rng: u64,
}

impl<R: Read> FaultyReader<R> {
    /// Wraps `inner` with `plan`'s faults.
    pub fn new(inner: R, plan: IoFaultPlan) -> Self {
        let rng = plan.seed ^ 0xA076_1D64_78BD_642F;
        FaultyReader {
            inner,
            plan,
            offset: 0,
            transients_emitted: 0,
            rng,
        }
    }

    /// Number of transient errors injected so far (test observability).
    pub fn transients_emitted(&self) -> u32 {
        self.transients_emitted
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        // Transient failures come first: a flaky device errors before it
        // delivers anything.
        if self.transients_emitted < self.plan.transient_errors {
            self.transients_emitted += 1;
            let kind = if splitmix64(&mut self.rng) & 1 == 0 {
                ErrorKind::Interrupted
            } else {
                ErrorKind::WouldBlock
            };
            return Err(std::io::Error::new(kind, "injected transient I/O error"));
        }
        // Truncation: clamp the visible stream length.
        let limit = match self.plan.truncate_at {
            Some(t) => {
                let left = t.saturating_sub(self.offset);
                if left == 0 {
                    return Ok(0); // injected EOF
                }
                (left as usize).min(buf.len())
            }
            None => buf.len(),
        };
        let n = self.inner.read(&mut buf[..limit])?;
        // Bit flip: corrupt the byte at the planned absolute offset if this
        // read covers it.
        if let Some((at, mask)) = self.plan.bitflip {
            if at >= self.offset && at < self.offset + n as u64 {
                buf[(at - self.offset) as usize] ^= mask;
            }
        }
        self.offset += n as u64;
        Ok(n)
    }
}

/// Bounded retry + backoff policy for transient read errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Transient failures tolerated before giving up.
    pub max_retries: u32,
    /// Base backoff; attempt `k` sleeps `k * backoff` (linear, bounded).
    pub backoff: Duration,
}

impl RetryPolicy {
    /// Default ingestion policy: 8 retries, 100µs base backoff — generous
    /// for `EINTR`-class noise, still sub-millisecond worst case per read.
    pub const DEFAULT: RetryPolicy = RetryPolicy {
        max_retries: 8,
        backoff: Duration::from_micros(100),
    };

    /// No retries at all (strict mode; tests of the give-up path).
    pub const NONE: RetryPolicy = RetryPolicy {
        max_retries: 0,
        backoff: Duration::ZERO,
    };
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::DEFAULT
    }
}

/// Outcome counters from a retried read (surfaced into bench reports so
/// clean runs can assert zero retries).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Transient errors absorbed by retrying.
    pub retries: u32,
}

/// One `read` of `reader` into `buf`, absorbing transient
/// (`Interrupted`/`WouldBlock`) errors with linear backoff while `stats`
/// counts no more than `policy.max_retries` of them. Any other error kind,
/// or exhaustion of the retry budget, is returned to the caller. Every
/// loader read goes through here: the whole-input reader below and the
/// block reader of the text loaders.
pub(crate) fn read_retried<R: Read>(
    reader: &mut R,
    buf: &mut [u8],
    policy: RetryPolicy,
    stats: &mut RetryStats,
) -> std::io::Result<usize> {
    loop {
        match reader.read(buf) {
            Err(e) if matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::WouldBlock) => {
                if stats.retries >= policy.max_retries {
                    return Err(std::io::Error::new(
                        e.kind(),
                        format!(
                            "transient I/O error persisted after {} retries",
                            stats.retries
                        ),
                    ));
                }
                stats.retries += 1;
                if !policy.backoff.is_zero() {
                    std::thread::sleep(policy.backoff * stats.retries);
                }
            }
            r => return r,
        }
    }
}

/// Reads `reader` to end, each read retried per `policy` as above.
pub fn read_retrying<R: Read>(
    reader: R,
    policy: RetryPolicy,
) -> std::io::Result<(Vec<u8>, RetryStats)> {
    read_retrying_within(reader, policy, 0, u64::MAX)
}

/// [`read_retrying`] into a buffer pre-sized for `len_hint` bytes, which
/// stops as soon as it holds more than `max_bytes`: the caller tells a
/// refused input from its length.
pub(crate) fn read_retrying_within<R: Read>(
    mut reader: R,
    policy: RetryPolicy,
    len_hint: u64,
    max_bytes: u64,
) -> std::io::Result<(Vec<u8>, RetryStats)> {
    let room = |n: u64| usize::try_from(n.min(max_bytes).saturating_add(1)).unwrap_or(usize::MAX);
    let mut out = vec![0u8; room(len_hint)];
    let mut filled = 0;
    let mut stats = RetryStats::default();
    loop {
        if filled == out.len() {
            out.resize(room((filled as u64).saturating_mul(2).max(64 << 10)), 0);
        }
        match read_retried(&mut reader, &mut out[filled..], policy, &mut stats)? {
            0 => break,
            n => filled += n,
        }
        if filled as u64 > max_bytes {
            break;
        }
    }
    out.truncate(filled);
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload() -> Vec<u8> {
        (0..1000u32).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn clean_plan_is_transparent() {
        let data = payload();
        let r = FaultyReader::new(&data[..], IoFaultPlan::clean());
        let (got, stats) = read_retrying(r, RetryPolicy::DEFAULT).unwrap();
        assert_eq!(got, data);
        assert_eq!(stats.retries, 0);
    }

    #[test]
    fn truncation_cuts_the_stream() {
        let data = payload();
        let r = FaultyReader::new(&data[..], IoFaultPlan::clean().with_truncation(137));
        let (got, _) = read_retrying(r, RetryPolicy::DEFAULT).unwrap();
        assert_eq!(got, &data[..137]);
    }

    #[test]
    fn bitflip_corrupts_exactly_one_byte() {
        let data = payload();
        let r = FaultyReader::new(&data[..], IoFaultPlan::clean().with_bitflip(500, 0x40));
        let (got, _) = read_retrying(r, RetryPolicy::DEFAULT).unwrap();
        assert_eq!(got.len(), data.len());
        for (i, (a, b)) in got.iter().zip(&data).enumerate() {
            if i == 500 {
                assert_eq!(*a, b ^ 0x40);
            } else {
                assert_eq!(a, b, "byte {i} disturbed");
            }
        }
    }

    #[test]
    fn transient_errors_are_absorbed_by_retry() {
        let data = payload();
        let r = FaultyReader::new(
            &data[..],
            IoFaultPlan::clean().with_seed(7).with_transient_errors(3),
        );
        let policy = RetryPolicy {
            max_retries: 5,
            backoff: Duration::ZERO,
        };
        let (got, stats) = read_retrying(r, policy).unwrap();
        assert_eq!(got, data);
        assert_eq!(stats.retries, 3);
    }

    #[test]
    fn retry_budget_exhaustion_is_a_typed_error() {
        let data = payload();
        let r = FaultyReader::new(
            &data[..],
            IoFaultPlan::clean().with_seed(7).with_transient_errors(10),
        );
        let policy = RetryPolicy {
            max_retries: 2,
            backoff: Duration::ZERO,
        };
        let err = read_retrying(r, policy).unwrap_err();
        assert!(matches!(
            err.kind(),
            ErrorKind::Interrupted | ErrorKind::WouldBlock
        ));
    }

    #[test]
    fn plans_are_deterministic() {
        let data = payload();
        let run = || {
            let r = FaultyReader::new(
                &data[..],
                IoFaultPlan::clean()
                    .with_seed(42)
                    .with_transient_errors(2)
                    .with_bitflip(3, 0x01)
                    .with_truncation(900),
            );
            read_retrying(r, RetryPolicy::DEFAULT).unwrap().0
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn faults_compose_truncation_wins_over_flip_beyond_cut() {
        let data = payload();
        // Flip beyond the truncation point: never observed.
        let r = FaultyReader::new(
            &data[..],
            IoFaultPlan::clean()
                .with_truncation(100)
                .with_bitflip(500, 0xFF),
        );
        let (got, _) = read_retrying(r, RetryPolicy::DEFAULT).unwrap();
        assert_eq!(got, &data[..100]);
    }
}
