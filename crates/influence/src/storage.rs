//! Binary persistence for coverage models.
//!
//! The meets computation is the most expensive preprocessing step at the
//! paper's full scale (millions of trajectory points against thousands of
//! boards per λ value), and its output is reused by every experiment at
//! that λ. This module gives it one durable on-disk form: fixed-width,
//! 8-aligned CSR sections, so the file doubles as an in-memory
//! representation.
//!
//! ```text
//! [0]  magic   b"MROAMCOV"
//! [8]  version u8 = 3, flags u8 = 1 (derived sections present), 6 pad bytes
//! [16] λ_µm u64, input_checksum u64, |T| u64, |U| u64   (all LE)
//! [48] cov_offsets (|U|+1) × u64, cov_data × u32, zero-padded to 8
//!      inv_offsets (|T|+1) × u64, inv_data × u32 pad8
//!      ov_offsets  (|U|+1) × u64, ov_data  × u32 pad8
//! [-8] checksum u64 LE (FxHash of everything after the magic)
//! ```
//!
//! The header carries a *source fingerprint* — λ in micrometres, the
//! input-store checksum, and the store dimensions — which every load
//! verifies, so a file from a different λ or city is refused
//! ([`StorageError::FingerprintMismatch`]) instead of silently served.
//! Files of any other version (the earlier varint formats 1 and 2) are
//! refused with [`StorageError::BadVersion`]; a cache rebuilds them.
//!
//! A file loads two ways with identical read semantics: [`read_model`]
//! copies each section into owned columns (any alignment, any endianness
//! of the *host* — sections are LE), and [`open_model_mmap`] maps the
//! file and serves every column as a zero-copy view, so cities larger
//! than RAM fault pages in lazily instead of materialising gigabytes up
//! front.

use crate::hash::FxHasher;
use crate::model::{CoverageLists, CoverageModel, InvertedIndex, OverlapGraph};
use mroam_data::col::{align8, put_pod_section, read_pod_vec, Pod};
use mroam_data::{BillboardStore, Col, TrajectoryStore};
use std::hash::Hasher;

/// File magic.
pub const MAGIC: &[u8; 8] = b"MROAMCOV";
/// Format version: fingerprint + fixed-width 8-aligned CSR sections,
/// loadable by copy or by mmap.
pub const VERSION: u8 = 3;

/// Flags byte of every file: the derived CSR sections follow the
/// coverage lists.
const FLAG_DERIVED: u8 = 1;

/// Byte offset of the first section (the fixed-width header ends here).
const SECTIONS_START: usize = 48;

/// Identity of the inputs a stored model was computed from. Two model
/// files with equal fingerprints were built from bit-identical stores at
/// the same λ, so loading one in place of a rebuild is sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelFingerprint {
    /// Influence radius λ in micrometres (exact for any λ expressed in
    /// metres with ≤ 6 decimal places, which covers every config knob).
    pub lambda_um: u64,
    /// [`stores_checksum`] over the billboard + trajectory stores.
    pub input_checksum: u64,
    /// `|U|` of the source billboard store.
    pub n_billboards: u64,
    /// `|T|` of the source trajectory store.
    pub n_trajectories: u64,
}

impl ModelFingerprint {
    /// Fingerprints a `(U, T, λ)` triple.
    pub fn new(billboards: &BillboardStore, trajectories: &TrajectoryStore, lambda_m: f64) -> Self {
        Self {
            lambda_um: (lambda_m * 1e6).round() as u64,
            input_checksum: stores_checksum(billboards, trajectories),
            n_billboards: billboards.len() as u64,
            n_trajectories: trajectories.len() as u64,
        }
    }
}

/// Order-sensitive FxHash over every coordinate, cost, timestamp, and
/// offset in the stores. Both ingestion paths (CSV and datagen) produce
/// stores, so one checksum definition covers both cache keys.
pub fn stores_checksum(billboards: &BillboardStore, trajectories: &TrajectoryStore) -> u64 {
    let mut h = FxHasher::default();
    for p in billboards.locations() {
        h.write(&p.x.to_bits().to_le_bytes());
        h.write(&p.y.to_bits().to_le_bytes());
    }
    if billboards.has_costs() {
        for &c in billboards.costs() {
            h.write(&c.to_le_bytes());
        }
    }
    for &o in trajectories.offsets() {
        h.write(&o.to_le_bytes());
    }
    for p in trajectories.point_column() {
        h.write(&p.x.to_bits().to_le_bytes());
        h.write(&p.y.to_bits().to_le_bytes());
    }
    for t in trajectories.iter() {
        for &ts in t.timestamps {
            h.write(&ts.to_bits().to_le_bytes());
        }
    }
    h.finish()
}
/// Errors produced when decoding a stored model.
#[derive(Debug, PartialEq, Eq)]
pub enum StorageError {
    /// The magic bytes did not match.
    BadMagic,
    /// Unknown format version.
    BadVersion(u8),
    /// Input ended before the structure was complete.
    Truncated,
    /// The payload checksum did not match.
    ChecksumMismatch,
    /// A CSR slice referenced an id out of range (`billboard` is the
    /// slice index).
    IdOutOfRange { billboard: usize, id: u64 },
    /// The file's source fingerprint does not match the inputs the caller
    /// is about to serve — the cache is stale (different λ, city, or store
    /// contents) and must be rebuilt, never silently loaded.
    FingerprintMismatch {
        /// What the caller's inputs fingerprint to.
        expected: ModelFingerprint,
        /// What the file claims it was built from.
        found: ModelFingerprint,
    },
    /// The header or section table is internally inconsistent (bad flags,
    /// non-monotone offsets, sections past the payload, bad padding).
    Inconsistent(&'static str),
    /// The file could not be opened, read or mapped.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::BadMagic => write!(f, "not a MROAM coverage file (bad magic)"),
            StorageError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            StorageError::Truncated => write!(f, "truncated coverage file"),
            StorageError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            StorageError::IdOutOfRange { billboard, id } => {
                write!(
                    f,
                    "billboard {billboard} references trajectory {id} out of range"
                )
            }
            StorageError::FingerprintMismatch { expected, found } => {
                write!(
                    f,
                    "stale model cache: file was built from {found:?}, inputs are {expected:?}"
                )
            }
            StorageError::Inconsistent(what) => {
                write!(f, "inconsistent section table: {what}")
            }
            StorageError::Io(kind) => write!(f, "model file I/O error: {kind}"),
        }
    }
}

impl std::error::Error for StorageError {}

fn checksum(payload: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(payload);
    h.finish()
}

/// Serialises a model built from the inputs `fingerprint` names: the
/// fixed-width header, then the coverage, inverted-index and
/// overlap-graph CSR sections (see the module docs for the layout),
/// forcing the derived builds if not yet materialised. The bitmap is never
/// stored: rebuilding it from the lists is a sequential OR-sweep, cheaper
/// than reading the equivalent bytes back from disk.
pub fn encode(model: &CoverageModel, fingerprint: &ModelFingerprint) -> Vec<u8> {
    debug_assert_eq!(fingerprint.n_billboards, model.n_billboards() as u64);
    debug_assert_eq!(fingerprint.n_trajectories, model.n_trajectories() as u64);
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&[VERSION, FLAG_DERIVED, 0, 0, 0, 0, 0, 0]);
    for word in [
        fingerprint.lambda_um,
        fingerprint.input_checksum,
        model.n_trajectories() as u64,
        model.n_billboards() as u64,
    ] {
        out.extend_from_slice(&word.to_le_bytes());
    }
    let cov = model.coverage_lists();
    let inv = model.inverted_index();
    let ov = model.overlap_graph();
    for (offsets, entries) in [
        (cov.offset_column(), cov.entry_column()),
        (inv.offset_column(), inv.entry_column()),
        (ov.offset_column(), ov.entry_column()),
    ] {
        put_pod_section(&mut out, offsets);
        put_pod_section(&mut out, entries);
        align8(&mut out);
    }
    let sum = checksum(&out[MAGIC.len()..]);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// One fixed-width section: `n` records starting at byte `at`.
#[derive(Debug, Clone, Copy)]
struct Section {
    at: usize,
    n: usize,
}

/// The decoded header plus the byte positions of every CSR section.
/// Pure arithmetic over the header words — no section data is touched, so
/// building a layout from a mapped file faults in one page.
struct Layout {
    n_trajectories: usize,
    n_billboards: usize,
    /// (offsets, data) of the coverage lists, the inverted index and the
    /// overlap graph, in file order.
    csr: [(Section, Section); 3],
}

fn read_u64_at(data: &[u8], at: usize) -> Result<u64, StorageError> {
    data.get(at..at + 8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        .ok_or(StorageError::Truncated)
}

/// Verifies the envelope of a whole file (magic through checksum
/// trailer) — magic, checksum, version, flags — refuses a file built from
/// other inputs than `expected`, and walks the section table. This only
/// validates that the claimed dimensions fit inside the payload; the
/// section contents are checked by [`assemble`].
fn layout(data: &[u8], expected: &ModelFingerprint) -> Result<Layout, StorageError> {
    if !data.starts_with(MAGIC) {
        return Err(if data.len() < MAGIC.len() {
            StorageError::Truncated
        } else {
            StorageError::BadMagic
        });
    }
    if data.len() < MAGIC.len() + 1 + 8 {
        return Err(StorageError::Truncated);
    }
    let payload_end = data.len() - 8;
    let stored_sum = read_u64_at(data, payload_end)?;
    if checksum(&data[MAGIC.len()..payload_end]) != stored_sum {
        return Err(StorageError::ChecksumMismatch);
    }
    if data[8] != VERSION {
        return Err(StorageError::BadVersion(data[8]));
    }
    if data.len() < SECTIONS_START + 8 {
        return Err(StorageError::Truncated);
    }
    if data[9] != FLAG_DERIVED {
        return Err(StorageError::Inconsistent(
            "flags must mark the derived sections",
        ));
    }
    let found = ModelFingerprint {
        lambda_um: read_u64_at(data, 16)?,
        input_checksum: read_u64_at(data, 24)?,
        n_trajectories: read_u64_at(data, 32)?,
        n_billboards: read_u64_at(data, 40)?,
    };
    if found != *expected {
        return Err(StorageError::FingerprintMismatch {
            expected: *expected,
            found,
        });
    }
    let n_trajectories = found.n_trajectories as usize;
    let n_billboards = found.n_billboards as usize;

    let mut at = SECTIONS_START;
    // Reads one (offsets, data) CSR pair at the cursor, sized by the
    // offsets section's own last element, and advances past the padding.
    let mut csr = |n_slices: usize| -> Result<(Section, Section), StorageError> {
        let n_offsets = n_slices
            .checked_add(1)
            .ok_or(StorageError::Inconsistent("slice count overflows"))?;
        let off_bytes = n_offsets
            .checked_mul(8)
            .ok_or(StorageError::Inconsistent("offsets section overflows"))?;
        let off = Section { at, n: n_offsets };
        let off_end = at
            .checked_add(off_bytes)
            .filter(|&e| e <= payload_end)
            .ok_or(StorageError::Truncated)?;
        let total = read_u64_at(data, off_end - 8)? as usize;
        let dat = Section {
            at: off_end,
            n: total,
        };
        let dat_end = total
            .checked_mul(4)
            .and_then(|b| off_end.checked_add(b))
            .filter(|&e| e <= payload_end)
            .ok_or(StorageError::Truncated)?;
        at = dat_end.div_ceil(8) * 8;
        if at > payload_end {
            return Err(StorageError::Truncated);
        }
        Ok((off, dat))
    };
    let csr = [csr(n_billboards)?, csr(n_trajectories)?, csr(n_billboards)?];
    if at != payload_end {
        return Err(StorageError::Inconsistent("trailing bytes after sections"));
    }
    Ok(Layout {
        n_trajectories,
        n_billboards,
        csr,
    })
}

/// Validates one CSR: offsets start at 0, never decrease, end exactly at
/// the data length, and every id is `< bound`.
fn validate_csr(
    offsets: &[u64],
    data: &[u32],
    bound: u64,
    what: &'static str,
) -> Result<(), StorageError> {
    if offsets.first() != Some(&0) {
        return Err(StorageError::Inconsistent(what));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(StorageError::Inconsistent(what));
    }
    if *offsets.last().expect("non-empty offsets") != data.len() as u64 {
        return Err(StorageError::Inconsistent(what));
    }
    for (slice, w) in offsets.windows(2).enumerate() {
        for &id in &data[w[0] as usize..w[1] as usize] {
            if u64::from(id) >= bound {
                return Err(StorageError::IdOutOfRange {
                    billboard: slice,
                    id: u64::from(id),
                });
            }
        }
    }
    Ok(())
}

/// Validates the three CSR sections of `lay` — given as owned copies or
/// as views of a mapping, so both load paths refuse the same malformed
/// inputs — and assembles the model with its derived structures
/// installed.
fn assemble(
    lay: &Layout,
    [cov, inv, ov]: [(Col<u64>, Col<u32>); 3],
) -> Result<CoverageModel, StorageError> {
    let (n_t, n_b) = (lay.n_trajectories as u64, lay.n_billboards as u64);
    validate_csr(&cov.0, &cov.1, n_t, "coverage")?;
    validate_csr(&inv.0, &inv.1, n_b, "inverted")?;
    validate_csr(&ov.0, &ov.1, n_b, "overlap")?;
    let model = CoverageModel::from_cov(CoverageLists::from_cols(cov.0, cov.1), lay.n_trajectories);
    model.install_derived(
        Some(InvertedIndex::from_cols(inv.0, inv.1)),
        Some(OverlapGraph::from_cols(ov.0, ov.1)),
        None,
    );
    Ok(model)
}

/// Decodes a model file onto the heap: every section is copied into owned
/// columns via [`read_pod_vec`] (alignment-safe). Refuses a file built
/// from other inputs than `expected` ([`StorageError::FingerprintMismatch`]).
pub fn read_model(data: &[u8], expected: &ModelFingerprint) -> Result<CoverageModel, StorageError> {
    fn copy<T: Pod>(data: &[u8], s: Section) -> Result<Col<T>, StorageError> {
        let (v, _) = read_pod_vec(&data[s.at..], s.n).ok_or(StorageError::Truncated)?;
        Ok(v.into())
    }
    let lay = layout(data, expected)?;
    let [cov, inv, ov] = lay
        .csr
        .map(|(off, dat)| Ok::<_, StorageError>((copy(data, off)?, copy(data, dat)?)));
    assemble(&lay, [cov?, inv?, ov?])
}

/// Opens a model file through a memory mapping: every CSR column becomes
/// a zero-copy view of the mapping — pages fault in on first touch, so a
/// model bigger than RAM opens in O(validation) and the OS evicts cold
/// pages under pressure.
///
/// Refuses stale files exactly like [`read_model`]. The payload checksum
/// and CSR invariants are verified up front (one sequential pass — this is
/// the only part that touches every page), so the returned model answers
/// every query identically to a heap load of the same file.
pub fn open_model_mmap(
    path: &std::path::Path,
    expected: &ModelFingerprint,
) -> Result<CoverageModel, StorageError> {
    let map = mroam_data::mmap::Mmap::open(path).map_err(|e| StorageError::Io(e.kind()))?;
    let lay = layout(map.as_slice(), expected)?;
    let view = |(off, dat): (Section, Section)| {
        (
            Col::mapped(map.clone(), off.at, off.n),
            Col::mapped(map.clone(), dat.at, dat.n),
        )
    };
    assemble(&lay, lay.csr.map(view))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_model() -> CoverageModel {
        CoverageModel::from_lists(
            vec![vec![0, 1, 5, 130, 10_000], vec![], vec![2], vec![0, 9_999]],
            10_001,
        )
    }

    fn fingerprint_of(model: &CoverageModel) -> ModelFingerprint {
        ModelFingerprint {
            lambda_um: 100_000_000, // λ = 100 m
            input_checksum: 0xfeed_beef,
            n_billboards: model.n_billboards() as u64,
            n_trajectories: model.n_trajectories() as u64,
        }
    }

    fn sample_fingerprint() -> ModelFingerprint {
        fingerprint_of(&sample_model())
    }

    /// Recomputes the checksum trailer after a deliberate edit, so the
    /// structural checks behind it are what gets exercised.
    fn fix_checksum(bytes: &mut [u8]) {
        let end = bytes.len() - 8;
        let sum = checksum(&bytes[MAGIC.len()..end]);
        bytes[end..].copy_from_slice(&sum.to_le_bytes());
    }

    fn trailer(bytes: &[u8]) -> u64 {
        u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap())
    }

    #[test]
    fn encoding_is_pinned_to_the_v3_bytes_already_on_disk() {
        // Length and checksum trailer of these models' files. Cache files
        // already on disk must keep loading as hits, so the bytes written
        // for a model may never change within a version.
        let bytes = encode(&sample_model(), &sample_fingerprint());
        assert_eq!(bytes.len(), 80_224);
        assert_eq!(trailer(&bytes), 0xb054_05f6_a8ce_3ce3);
        let empty = CoverageModel::from_lists(vec![], 0);
        let fp = ModelFingerprint {
            lambda_um: 1,
            input_checksum: 2,
            n_billboards: 0,
            n_trajectories: 0,
        };
        let bytes = encode(&empty, &fp);
        assert_eq!(bytes.len(), 80);
        assert_eq!(trailer(&bytes), 0xbbd3_a818_8b9e_85cc);
    }

    #[test]
    fn roundtrip_preserves_model_and_derived_structures() {
        let model = sample_model();
        let fp = sample_fingerprint();
        let bytes = encode(&model, &fp);
        assert_eq!(bytes.len() % 8, 0, "files are whole words");
        let back = read_model(&bytes, &fp).unwrap();
        for b in model.billboard_ids() {
            assert_eq!(back.coverage(b), model.coverage(b));
        }
        assert_eq!(back.supply(), model.supply());
        assert_eq!(back.inverted_index(), model.inverted_index());
        assert_eq!(back.overlap_graph(), model.overlap_graph());
    }

    #[test]
    fn empty_model_roundtrips() {
        let model = CoverageModel::from_lists(vec![], 0);
        let fp = fingerprint_of(&model);
        let back = read_model(&encode(&model, &fp), &fp).unwrap();
        assert_eq!(back.n_billboards(), 0);
        assert_eq!(back.n_trajectories(), 0);
    }

    #[test]
    fn bad_magic_detected() {
        let fp = sample_fingerprint();
        let mut bytes = encode(&sample_model(), &fp);
        bytes[0] = b'X';
        assert_eq!(read_model(&bytes, &fp).unwrap_err(), StorageError::BadMagic);
    }

    #[test]
    fn bit_flip_detected_by_checksum() {
        let fp = sample_fingerprint();
        let mut bytes = encode(&sample_model(), &fp);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert_eq!(
            read_model(&bytes, &fp).unwrap_err(),
            StorageError::ChecksumMismatch
        );
    }

    #[test]
    fn every_truncation_is_detected() {
        let model = CoverageModel::from_lists(vec![vec![0, 2], vec![], vec![1]], 3);
        let fp = fingerprint_of(&model);
        let bytes = encode(&model, &fp);
        for cut in 0..bytes.len() {
            let err = read_model(&bytes[..cut], &fp).unwrap_err();
            assert!(
                matches!(
                    err,
                    StorageError::Truncated | StorageError::ChecksumMismatch
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn other_versions_are_refused() {
        // The earlier varint formats (1, 2) and unknown future ones all
        // fail the version check, even with a valid checksum.
        let fp = sample_fingerprint();
        for version in [1u8, 2, 4, 99] {
            let mut bytes = encode(&sample_model(), &fp);
            bytes[8] = version;
            fix_checksum(&mut bytes);
            assert_eq!(
                read_model(&bytes, &fp).unwrap_err(),
                StorageError::BadVersion(version)
            );
        }
    }

    #[test]
    fn missing_derived_flag_is_refused() {
        let fp = sample_fingerprint();
        let mut bytes = encode(&sample_model(), &fp);
        bytes[9] = 0;
        fix_checksum(&mut bytes);
        assert!(matches!(
            read_model(&bytes, &fp),
            Err(StorageError::Inconsistent(_))
        ));
    }

    #[test]
    fn stale_fingerprint_is_refused() {
        let model = sample_model();
        let fp = sample_fingerprint();
        let bytes = encode(&model, &fp);
        // Same stores, different λ — the classic stale-cache hazard.
        let other = ModelFingerprint {
            lambda_um: fp.lambda_um + 1,
            ..fp
        };
        match read_model(&bytes, &other).unwrap_err() {
            StorageError::FingerprintMismatch { expected, found } => {
                assert_eq!(expected, other);
                assert_eq!(found, fp);
            }
            e => panic!("expected FingerprintMismatch, got {e:?}"),
        }
        // Different input contents or dimensions at the same λ are
        // equally refused.
        for other in [
            ModelFingerprint {
                input_checksum: fp.input_checksum ^ 1,
                ..fp
            },
            ModelFingerprint {
                n_trajectories: fp.n_trajectories + 1,
                ..fp
            },
        ] {
            assert!(matches!(
                read_model(&bytes, &other),
                Err(StorageError::FingerprintMismatch { .. })
            ));
        }
    }

    #[test]
    fn out_of_range_ids_are_rejected() {
        // Hand-corrupt one entry past its bound and fix the checksum: the
        // structural validation must catch what the checksum now blesses.
        let model = sample_model();
        let fp = sample_fingerprint();
        let n_b = model.n_billboards();
        let cov_data_at = SECTIONS_START + (n_b + 1) * 8;
        let mut bytes = encode(&model, &fp);
        bytes[cov_data_at..cov_data_at + 4]
            .copy_from_slice(&(model.n_trajectories() as u32).to_le_bytes());
        fix_checksum(&mut bytes);
        assert!(matches!(
            read_model(&bytes, &fp).unwrap_err(),
            StorageError::IdOutOfRange { billboard: 0, .. }
        ));
        // The first inverted-index entry (trajectory 0 is covered by
        // billboard 0) pointing past |U|.
        let supply = model.supply() as usize;
        let inv_data_at =
            (cov_data_at + supply * 4).div_ceil(8) * 8 + (model.n_trajectories() + 1) * 8;
        let mut bytes = encode(&model, &fp);
        bytes[inv_data_at..inv_data_at + 4].copy_from_slice(&(n_b as u32).to_le_bytes());
        fix_checksum(&mut bytes);
        assert!(matches!(
            read_model(&bytes, &fp).unwrap_err(),
            StorageError::IdOutOfRange { billboard: 0, .. }
        ));
    }

    mod mmap_tests {
        use super::*;

        fn scratch(name: &str, bytes: &[u8]) -> std::path::PathBuf {
            let path = std::env::temp_dir()
                .join(format!("mroam-storage-{}-{name}.bin", std::process::id()));
            std::fs::write(&path, bytes).unwrap();
            path
        }

        #[test]
        fn mmap_load_matches_heap_load() {
            let model = sample_model();
            let fp = sample_fingerprint();
            let path = scratch("ident", &encode(&model, &fp));
            let mapped = open_model_mmap(&path, &fp).unwrap();
            assert!(mapped.coverage_lists().is_mapped());
            assert_eq!(mapped.coverage_lists(), model.coverage_lists());
            assert_eq!(mapped.supply(), model.supply());
            for b in model.billboard_ids() {
                assert_eq!(mapped.coverage(b), model.coverage(b));
            }
            // Query semantics identical to the heap model, including the
            // stored derived structures.
            assert_eq!(mapped.inverted_index(), model.inverted_index());
            assert_eq!(mapped.overlap_graph(), model.overlap_graph());
            assert_eq!(
                mapped.set_influence(mapped.billboard_ids()),
                model.set_influence(model.billboard_ids())
            );
            let stats = mapped.memory_stats();
            assert!(stats.lists_mapped_bytes > 0);
            assert!(stats.inverted_mapped_bytes > 0);
            assert_eq!(stats.lists_heap_bytes, 0);
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn mmap_refuses_stale_fingerprint_corruption_and_old_versions() {
            let model = sample_model();
            let fp = sample_fingerprint();
            let bytes = encode(&model, &fp);
            let path = scratch("stale", &bytes);
            let other = ModelFingerprint {
                input_checksum: fp.input_checksum ^ 1,
                ..fp
            };
            assert!(matches!(
                open_model_mmap(&path, &other),
                Err(StorageError::FingerprintMismatch { .. })
            ));
            std::fs::remove_file(&path).ok();

            let mut flipped = bytes.clone();
            let mid = flipped.len() / 2;
            flipped[mid] ^= 0x40;
            let path = scratch("corrupt", &flipped);
            assert_eq!(
                open_model_mmap(&path, &fp).unwrap_err(),
                StorageError::ChecksumMismatch
            );
            std::fs::remove_file(&path).ok();

            let mut v2 = bytes;
            v2[8] = 2;
            fix_checksum(&mut v2);
            let path = scratch("v2", &v2);
            assert_eq!(
                open_model_mmap(&path, &fp).unwrap_err(),
                StorageError::BadVersion(2)
            );
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn mmap_missing_file_is_io_error() {
            let path = std::env::temp_dir().join("mroam-storage-definitely-missing.bin");
            assert!(matches!(
                open_model_mmap(&path, &sample_fingerprint()),
                Err(StorageError::Io(std::io::ErrorKind::NotFound))
            ));
        }
    }

    #[test]
    fn stores_checksum_is_content_sensitive() {
        use mroam_geo::Point;
        let mut billboards = BillboardStore::new();
        billboards.push(Point::new(1.0, 2.0));
        let mut trajectories = TrajectoryStore::new();
        trajectories
            .push_at_speed(&[Point::new(3.0, 4.0)], 10.0)
            .unwrap();
        let base = stores_checksum(&billboards, &trajectories);
        assert_eq!(base, stores_checksum(&billboards, &trajectories));
        let mut moved = BillboardStore::new();
        moved.push(Point::new(1.0, 2.5));
        assert_ne!(base, stores_checksum(&moved, &trajectories));
        let mut longer = TrajectoryStore::new();
        longer
            .push_at_speed(&[Point::new(3.0, 4.0), Point::new(5.0, 4.0)], 10.0)
            .unwrap();
        assert_ne!(base, stores_checksum(&billboards, &longer));
    }

    fn model_of(
        lists: Vec<std::collections::BTreeSet<u32>>,
        n_trajectories: usize,
    ) -> CoverageModel {
        let lists = lists.into_iter().map(|s| s.into_iter().collect()).collect();
        CoverageModel::from_lists(lists, n_trajectories)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_roundtrip_with_derived(
            lists in proptest::collection::vec(
                proptest::collection::btree_set(0u32..2_000, 0..40), 0..10),
            lambda_um in 1u64..10_000_000_000,
            input_checksum in any::<u64>(),
        ) {
            let model = model_of(lists, 2_000);
            let fp = ModelFingerprint {
                lambda_um,
                input_checksum,
                ..fingerprint_of(&model)
            };
            let back = read_model(&encode(&model, &fp), &fp).unwrap();
            prop_assert_eq!(back.coverage_lists(), model.coverage_lists());
            prop_assert_eq!(back.inverted_index(), model.inverted_index());
            prop_assert_eq!(back.overlap_graph(), model.overlap_graph());
            prop_assert_eq!(back.coverage_bitmap(), model.coverage_bitmap());
        }

        #[test]
        fn prop_random_corruption_never_panics(
            lists in proptest::collection::vec(
                proptest::collection::btree_set(0u32..500, 0..20), 1..6),
            flip in any::<(usize, u8)>(),
        ) {
            let model = model_of(lists, 500);
            let fp = fingerprint_of(&model);
            let mut bytes = encode(&model, &fp);
            let idx = flip.0 % bytes.len();
            bytes[idx] ^= flip.1;
            // Either decodes (the flip was a no-op) or errors — but never
            // panics.
            let _ = read_model(&bytes, &fp);
        }

        #[test]
        fn prop_corruption_behind_a_valid_checksum_is_typed_or_in_range(
            lists in proptest::collection::vec(
                proptest::collection::btree_set(0u32..500, 0..20), 1..6),
            flip in any::<(usize, u8)>(),
        ) {
            // The checksum is recomputed after the flip, so the header,
            // section-table and CSR checks alone stand between the bytes
            // and the model: a typed error, or a model of the fingerprinted
            // dimensions whose every id indexes in range.
            let model = model_of(lists, 500);
            let fp = fingerprint_of(&model);
            let mut bytes = encode(&model, &fp);
            let idx = flip.0 % (bytes.len() - 8);
            bytes[idx] ^= flip.1;
            fix_checksum(&mut bytes);
            if let Ok(back) = read_model(&bytes, &fp) {
                prop_assert_eq!(back.n_billboards(), model.n_billboards());
                prop_assert_eq!(back.n_trajectories(), model.n_trajectories());
                for b in back.billboard_ids() {
                    prop_assert!(back.coverage(b).iter().all(|&t| (t as usize) < 500));
                    let n_b = back.n_billboards() as u32;
                    prop_assert!(back.overlap_graph().neighbors(b.0).iter().all(|&o| o < n_b));
                }
                let inv = back.inverted_index();
                for t in 0..back.n_trajectories() as u32 {
                    let n_b = back.n_billboards() as u32;
                    prop_assert!(inv.billboards_covering(t).iter().all(|&b| b < n_b));
                }
                let _ = back.set_influence(back.billboard_ids());
            }
        }
    }
}
