//! Pins the allocation bound of `TrainedModel::load` on hostile blobs: a
//! header that declares a huge architecture but carries no matching
//! weight payload must be rejected as `BadModelBlob` *before* the loader
//! builds the network, so the memory it touches is bounded by the blob,
//! not by the header's claims.
//!
//! Method: a counting global allocator tracks live heap bytes and their
//! high-water mark. Each hostile blob is loaded with the mark reset to
//! the current live figure; the growth must stay under 1 MiB. Two blobs:
//!
//! * a real saved model with `in_channels` patched to 10^6 (building that
//!   stem convolution alone would take ~288 MB);
//! * a 72-byte hand-made header declaring `in_channels = 10^8` (~28.8 GB,
//!   an allocation failure aborts rather than unwinds) with no weights.
//!
//! The allocator needs `unsafe` to delegate to the system allocator (its
//! default `realloc` goes through `alloc`/`dealloc`, so growth is
//! tracked too); the workspace itself is `#![forbid(unsafe_code)]`.

#![allow(unsafe_code)]

use diffpattern::diffusion::{DiffusionError, NeuralDenoiser, NoiseSchedule, TrainedModel};
use diffpattern::nn::{UNet, UNetConfig};
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the atomic counters never touch the
// pointers or layouts.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its result with the growth of the live-heap
/// high-water mark over the live figure at entry.
fn peak_growth<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let start = LIVE.load(Ordering::SeqCst);
    PEAK.store(start, Ordering::SeqCst);
    let out = f();
    (PEAK.load(Ordering::SeqCst) - start, out)
}

const MIB: usize = 1 << 20;

/// A saved small model (1 fold channel, untrained weights): the layout
/// of its header is `magic 0..8, version 8..12, in 12..16, out 16..20, ...`.
fn saved_small_model() -> Vec<u8> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let config = UNetConfig {
        in_channels: 1,
        out_channels: 2,
        base_channels: 8,
        ..UNetConfig::default()
    };
    let denoiser = NeuralDenoiser::new(UNet::new(&config, &mut rng));
    let schedule = NoiseSchedule::linear(10, 0.05, 0.5).unwrap();
    TrainedModel::new(denoiser, schedule, 8).unwrap().save()
}

/// A 72-byte v2 header with nothing after it.
fn bare_header(in_channels: u32) -> Vec<u8> {
    // version, in, out, base, one level of multiplier 1, one res block,
    // no attention levels, time_dim 16, groups 4
    let arch = [2, in_channels, 2 * in_channels, 8, 1, 1, 1, 0, 16, 4];
    // dropout 0.0 (as f32 bits), side 8, precision tag 0, one step
    let rest = [0, 8, 0, 1];
    let mut blob = b"DPMODEL\x01".to_vec();
    blob.extend(arch.iter().chain(&rest).flat_map(|w| w.to_le_bytes()));
    blob.extend(0.5f64.to_le_bytes()); // the step's beta
    blob
}

/// This file holds exactly one test so no sibling test thread can move
/// the global live-heap figure during a measurement.
#[test]
fn oversized_architecture_is_rejected_before_allocating() {
    let mut patched = saved_small_model();
    patched[12..16].copy_from_slice(&1_000_000u32.to_le_bytes());
    patched[16..20].copy_from_slice(&2_000_000u32.to_le_bytes());
    let bare = bare_header(100_000_000);
    assert_eq!(bare.len(), 72);

    for (label, blob) in [
        ("in = 10^6, real payload", &patched),
        ("in = 10^8, bare", &bare),
    ] {
        let (peak, result) = peak_growth(|| TrainedModel::load(blob));
        assert!(
            peak < MIB,
            "[{label}] load grew the live heap by {peak} bytes before rejecting"
        );
        // The payload-size check, not a later one, must be what fired.
        assert!(
            matches!(&result, Err(DiffusionError::BadModelBlob { reason }) if reason.contains("payload")),
            "[{label}] expected BadModelBlob from the payload check, got {result:?}"
        );
    }
}
