//! Uses every item `crates/ams-sim/clippy.toml` bans, once each. Clippy
//! reads the nearest `clippy.toml` up the tree, so linting this package
//! must name them all: the proof that the purity bans on `ams-sim` fire.

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
