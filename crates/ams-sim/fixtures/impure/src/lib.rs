//! Uses every item `crates/ams-sim/clippy.toml` bans, once each, and
//! breaks each lint the workspace denies (LINTS.md). Clippy reads the
//! nearest `clippy.toml` up the tree, and `scripts/check.sh` lints this
//! package at the root's `[workspace.lints]` levels, so linting it must
//! name them all: the proof that the purity bans on `ams-sim`, the no-panic
//! zones, the SAFETY audit and the escape reasons fire.

/// Every banned type.
pub struct Impure(
    pub std::time::Instant,
    pub std::time::SystemTime,
    pub std::sync::Mutex<()>,
    pub std::sync::RwLock<()>,
    pub std::sync::Condvar,
    pub std::sync::Barrier,
    pub std::sync::Once,
    pub std::sync::OnceLock<()>,
    pub std::sync::LazyLock<()>,
    pub std::sync::atomic::AtomicBool,
    pub std::sync::atomic::AtomicI8,
    pub std::sync::atomic::AtomicI16,
    pub std::sync::atomic::AtomicI32,
    pub std::sync::atomic::AtomicI64,
    pub std::sync::atomic::AtomicIsize,
    pub std::sync::atomic::AtomicU8,
    pub std::sync::atomic::AtomicU16,
    pub std::sync::atomic::AtomicU32,
    pub std::sync::atomic::AtomicU64,
    pub std::sync::atomic::AtomicUsize,
    pub std::sync::atomic::AtomicPtr<()>,
    pub std::sync::mpsc::Sender<()>,
    pub std::sync::mpsc::SyncSender<()>,
    pub std::sync::mpsc::Receiver<()>,
);

/// Every banned method.
pub fn impure() {
    let _ = (std::time::Instant::now(), std::time::SystemTime::now());
    std::thread::spawn(|| std::thread::sleep(std::time::Duration::ZERO));
}

/// Every call, macro and index a no-panic zone bans (LINTS.md), under the
/// zone's `deny`.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable,
    clippy::indexing_slicing,
    clippy::disallowed_macros
)]
pub fn zone(bytes: &[u8], byte: Option<u8>) -> u8 {
    assert!(!bytes.is_empty());
    assert_eq!(bytes.len(), 1);
    assert_ne!(bytes.len(), 0);
    match byte.unwrap() ^ byte.expect("a byte") ^ bytes[0] {
        0 => panic!("zero"),
        1 => todo!(),
        2 => unimplemented!(),
        3 => unreachable!(),
        b => b,
    }
}

/// An `unsafe` block with no SAFETY argument above it.
pub fn unargued(bytes: &[u8]) -> u8 {
    unsafe { *bytes.as_ptr() }
}

/// An `allow` that gives no reason.
#[allow(clippy::needless_return)]
pub fn unexplained() -> u8 {
    return 0;
}
