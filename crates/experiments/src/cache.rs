//! Fingerprinted on-disk model cache shared by the `mroam` CLI, the
//! experiment binaries, and the serving daemon.
//!
//! The cache file is the [`storage`] format: coverage lists plus the
//! derived CSR structures as fixed-width 8-aligned sections, keyed by a
//! [`ModelFingerprint`] of the inputs (λ, store checksum, dimensions).
//! `load_or_build` is the one entry point: a fresh file is opened,
//! anything else (missing, stale λ or city, corrupt, older format
//! version) falls back to a full build and rewrites the file. The cache is
//! advisory — I/O failures log and degrade to building, never abort.
//!
//! How a fresh file opens is fixed at build time. With the `mmap` feature
//! (the default) it is *mapped*: the coverage and derived CSR columns stay
//! on disk and page in lazily, so models larger than RAM serve queries
//! with identical semantics at a fraction of the resident footprint.
//! Without it the file is decoded onto the heap. Files are replaced by
//! rename, never rewritten in place, so a model mapped from a path keeps
//! reading the file it mapped.

use mroam_data::{BillboardStore, TrajectoryStore};
use mroam_datagen::City;
use mroam_influence::storage::{self, ModelFingerprint, StorageError};
use mroam_influence::CoverageModel;
use std::io;
use std::path::{Path, PathBuf};

/// How [`load_or_build`] obtained its model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Opened from a fresh cache file (fingerprint verified, derived
    /// structures pre-installed).
    Hit,
    /// Built from the stores — the file was missing, stale, or unreadable
    /// — and the cache was (best-effort) rewritten.
    Rebuilt,
}

/// Conventional cache file name for a `(city, λ)` pair inside `dir`:
/// `<city>_<λ in µm>.cov`. λ is keyed in micrometres so distinct radii
/// never collide on a rounded display value; the fingerprint still
/// protects against any collision that does happen.
pub fn cache_path(dir: &Path, city: &str, lambda_m: f64) -> PathBuf {
    let lambda_um = (lambda_m * 1e6).round() as u64;
    dir.join(format!("{}_{lambda_um}.cov", city.to_ascii_lowercase()))
}

/// Opens a model file the way this build serves models: mapped.
#[cfg(feature = "mmap")]
fn open(path: &Path, fingerprint: &ModelFingerprint) -> Result<CoverageModel, StorageError> {
    storage::open_model_mmap(path, fingerprint)
}

/// Opens a model file the way this build serves models: decoded onto the
/// heap (the `mmap` feature is compiled out).
#[cfg(not(feature = "mmap"))]
fn open(path: &Path, fingerprint: &ModelFingerprint) -> Result<CoverageModel, StorageError> {
    let bytes = std::fs::read(path).map_err(|e| StorageError::Io(e.kind()))?;
    storage::read_model(&bytes, fingerprint)
}

/// Writes `model`, built from the inputs `fingerprint` names, to `path`
/// exactly as [`load_or_build`] caches it, and returns the file size. The
/// bytes go to a temporary file in the same directory that is then
/// renamed over `path`, so a model already mapped from `path` keeps its
/// file.
pub fn save(
    path: &Path,
    model: &CoverageModel,
    fingerprint: &ModelFingerprint,
) -> io::Result<usize> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let bytes = storage::encode(model, fingerprint);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let written = std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written.map(|()| bytes.len())
}

/// Loads the model from `path` when its fingerprint matches `(U, T, λ)`,
/// else builds it and rewrites the cache. Either way the returned model
/// has every derived structure warm ([`CoverageModel::precompute`]); the
/// bitmap is materialised on the heap under the model's bitmap budget.
pub fn load_or_build(
    billboards: &BillboardStore,
    trajectories: &TrajectoryStore,
    lambda_m: f64,
    path: &Path,
) -> (CoverageModel, CacheStatus) {
    let fingerprint = ModelFingerprint::new(billboards, trajectories, lambda_m);
    match open(path, &fingerprint) {
        Ok(model) => {
            model.precompute();
            return (model, CacheStatus::Hit);
        }
        Err(StorageError::Io(io::ErrorKind::NotFound)) => {}
        Err(e) => eprintln!("[model-cache] {}: {e}; rebuilding", path.display()),
    }
    let model = CoverageModel::build(billboards, trajectories, lambda_m);
    match save(path, &model, &fingerprint) {
        // Serve the file just written the way a later hit would (mapped in
        // `mmap` builds), so the building process gets the same footprint.
        Ok(_) => match open(path, &fingerprint) {
            Ok(stored) => {
                stored.precompute();
                return (stored, CacheStatus::Rebuilt);
            }
            Err(e) => eprintln!("[model-cache] reopening {}: {e}", path.display()),
        },
        Err(e) => eprintln!("[model-cache] cannot write {}: {e}", path.display()),
    }
    model.precompute();
    (model, CacheStatus::Rebuilt)
}

/// Coverage model for a generated [`City`], optionally cached under
/// `cache_dir` at [`cache_path`]`(dir, city.name, λ)`. With no cache dir
/// this is `city.coverage(λ)` plus an eager
/// [`precompute`](CoverageModel::precompute) — either way the model
/// comes back with its derived structures warm.
pub fn city_model(city: &City, lambda_m: f64, cache_dir: Option<&Path>) -> CoverageModel {
    match cache_dir {
        Some(dir) => {
            let path = cache_path(dir, &city.name, lambda_m);
            let (model, status) =
                load_or_build(&city.billboards, &city.trajectories, lambda_m, &path);
            eprintln!(
                "[model-cache] {} λ={lambda_m}m: {} {}",
                city.name,
                match status {
                    CacheStatus::Hit => "loaded from",
                    CacheStatus::Rebuilt => "built and cached to",
                },
                path.display()
            );
            model
        }
        None => {
            let model = city.coverage(lambda_m);
            model.precompute();
            model
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mroam_geo::Point;

    fn tiny_stores() -> (BillboardStore, TrajectoryStore) {
        let mut billboards = BillboardStore::new();
        billboards.push(Point::new(0.0, 0.0));
        billboards.push(Point::new(500.0, 0.0));
        let mut trajectories = TrajectoryStore::new();
        trajectories
            .push_at_speed(&[Point::new(10.0, 0.0)], 10.0)
            .unwrap();
        trajectories
            .push_at_speed(&[Point::new(490.0, 0.0)], 10.0)
            .unwrap();
        trajectories
            .push_at_speed(&[Point::new(250.0, 0.0)], 10.0)
            .unwrap();
        (billboards, trajectories)
    }

    fn scratch_file(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mroam_cache_test_{}_{tag}.cov", std::process::id()))
    }

    #[test]
    fn miss_then_hit_roundtrip() {
        let (billboards, trajectories) = tiny_stores();
        let path = scratch_file("roundtrip");
        let _ = std::fs::remove_file(&path);

        let (built, s1) = load_or_build(&billboards, &trajectories, 50.0, &path);
        assert_eq!(s1, CacheStatus::Rebuilt);
        let (loaded, s2) = load_or_build(&billboards, &trajectories, 50.0, &path);
        assert_eq!(s2, CacheStatus::Hit);
        assert_eq!(loaded.coverage_lists(), built.coverage_lists());
        assert_eq!(loaded.inverted_index(), built.inverted_index());
        assert_eq!(loaded.overlap_graph(), built.overlap_graph());
        assert_eq!(loaded.coverage_bitmap(), built.coverage_bitmap());

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_lambda_rebuilds_instead_of_loading() {
        let (billboards, trajectories) = tiny_stores();
        let path = scratch_file("stale");
        let _ = std::fs::remove_file(&path);

        let (narrow, _) = load_or_build(&billboards, &trajectories, 50.0, &path);
        // Same file path, wider λ: must NOT serve the λ=50 model.
        let (wide, status) = load_or_build(&billboards, &trajectories, 260.0, &path);
        assert_eq!(status, CacheStatus::Rebuilt);
        assert!(wide.supply() > narrow.supply());
        // The rewrite upgraded the file to the new λ.
        let (again, status) = load_or_build(&billboards, &trajectories, 260.0, &path);
        assert_eq!(status, CacheStatus::Hit);
        assert_eq!(again.coverage_lists(), wide.coverage_lists());

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn changed_inputs_rebuild() {
        let (billboards, trajectories) = tiny_stores();
        let path = scratch_file("inputs");
        let _ = std::fs::remove_file(&path);

        load_or_build(&billboards, &trajectories, 50.0, &path);
        let mut moved = BillboardStore::new();
        moved.push(Point::new(0.0, 1.0));
        moved.push(Point::new(500.0, 0.0));
        let (_, status) = load_or_build(&moved, &trajectories, 50.0, &path);
        assert_eq!(status, CacheStatus::Rebuilt);

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hits_open_the_way_the_build_serves_models() {
        let (billboards, trajectories) = tiny_stores();
        let path = scratch_file("open");
        let _ = std::fs::remove_file(&path);

        let built = CoverageModel::build(&billboards, &trajectories, 50.0);
        let (rebuilt, _) = load_or_build(&billboards, &trajectories, 50.0, &path);
        let (hit, status) = load_or_build(&billboards, &trajectories, 50.0, &path);
        assert_eq!(status, CacheStatus::Hit);
        for model in [&rebuilt, &hit] {
            assert_eq!(model.coverage_lists().is_mapped(), cfg!(feature = "mmap"));
            assert_eq!(model.coverage_lists(), built.coverage_lists());
            assert_eq!(model.inverted_index(), built.inverted_index());
            assert_eq!(model.overlap_graph(), built.overlap_graph());
            assert_eq!(
                model.set_influence(model.billboard_ids()),
                built.set_influence(built.billboard_ids())
            );
        }

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rewriting_a_stale_file_leaves_a_mapped_model_intact() {
        let (billboards, trajectories) = tiny_stores();
        let path = scratch_file("remap");
        let _ = std::fs::remove_file(&path);

        load_or_build(&billboards, &trajectories, 50.0, &path);
        let (narrow, status) = load_or_build(&billboards, &trajectories, 50.0, &path);
        assert_eq!(status, CacheStatus::Hit);
        // A wider λ on the same path replaces the file under the live
        // model (mapped in `mmap` builds); the λ=50 model must still read
        // the λ=50 file, not the new one's bytes.
        let (_, status) = load_or_build(&billboards, &trajectories, 300.0, &path);
        assert_eq!(status, CacheStatus::Rebuilt);
        let fresh = CoverageModel::build(&billboards, &trajectories, 50.0);
        assert_eq!(narrow.coverage_lists(), fresh.coverage_lists());
        assert_eq!(narrow.inverted_index(), fresh.inverted_index());
        assert_eq!(narrow.overlap_graph(), fresh.overlap_graph());
        // No temporary file is left next to the cache.
        let dir = path.parent().unwrap();
        let stem = path.file_name().unwrap().to_str().unwrap();
        let leftovers = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|name| name.starts_with(stem) && name != stem)
            .count();
        assert_eq!(leftovers, 0);

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn older_format_versions_rebuild_as_the_current_one() {
        let (billboards, trajectories) = tiny_stores();
        let fp = ModelFingerprint::new(&billboards, &trajectories, 50.0);
        let model = CoverageModel::build(&billboards, &trajectories, 50.0);
        for version in [1u8, 2] {
            let path = scratch_file(&format!("v{version}"));
            // A current file relabelled with the older version byte and a
            // fixed-up checksum: only the version check can refuse it.
            let mut bytes = storage::encode(&model, &fp);
            bytes[8] = version;
            let end = bytes.len() - 8;
            let mut h = mroam_influence::hash::FxHasher::default();
            std::hash::Hasher::write(&mut h, &bytes[storage::MAGIC.len()..end]);
            bytes[end..].copy_from_slice(&std::hash::Hasher::finish(&h).to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(
                storage::read_model(&bytes, &fp).unwrap_err(),
                StorageError::BadVersion(version)
            );

            let (_, status) = load_or_build(&billboards, &trajectories, 50.0, &path);
            assert_eq!(status, CacheStatus::Rebuilt);
            assert_eq!(std::fs::read(&path).unwrap(), storage::encode(&model, &fp));
            let (_, status) = load_or_build(&billboards, &trajectories, 50.0, &path);
            assert_eq!(status, CacheStatus::Hit);

            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn cache_path_is_lambda_exact() {
        let dir = Path::new("/tmp/cache");
        assert_eq!(
            cache_path(dir, "NYC", 100.0),
            Path::new("/tmp/cache/nyc_100000000.cov")
        );
        assert_ne!(
            cache_path(dir, "nyc", 100.0),
            cache_path(dir, "nyc", 100.000001)
        );
    }
}
