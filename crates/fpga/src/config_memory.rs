//! Device configuration memory: the frame-addressable state the ICAP writes.
//!
//! This module is the **ECC doorway**: every legitimate frame mutation goes
//! through [`ConfigMemory::write_frame`], [`ConfigMemory::erase_frame`] (or
//! [`ConfigMemory::restore`] / [`ConfigMemory::clear_frames`]), which keep
//! the per-frame SECDED shadow in [`crate::ecc`] consistent with the
//! payload. The only path that bypasses the shadow on purpose is
//! [`ConfigMemory::corrupt_bit`] — the SEU backdoor, which models an
//! in-fabric upset precisely because it does *not* touch the check codes.
//! The `config-memory-doorway` rule of `presp-analyze` (`analyze.json`)
//! forbids direct `frames`/`ecc` map manipulation anywhere else in the
//! crate.
//!
//! The doorway is also where a reconfiguration becomes transactional: a
//! [`ConfigMemory::begin_transaction`] journals the entry each doorway
//! write displaces, so [`ConfigMemory::rollback`] can undo a failed load
//! without a copy of the whole memory.

use crate::ecc::{scrub_frame_words, FrameEcc, FrameRepair};
use crate::error::Error;
use crate::fabric::Device;
use crate::frame::FrameAddress;
use std::collections::BTreeMap;

/// One configuration frame's payload.
pub type Frame = Vec<u32>;

/// A bit-exact copy of a set of frames and their check codes: the per-tile
/// golden store and the source image of a region move.
///
/// The store is sparse like [`ConfigMemory`] itself: it keeps the captured
/// addresses (sorted, deduplicated) and copies only the frames present in
/// the memory; every other captured address was erased (zero payload,
/// zero check codes).
#[derive(Debug, Clone, Eq)]
pub struct RegionSnapshot {
    addresses: Vec<FrameAddress>,
    /// The captured frames present in the memory, in address order: a
    /// subsequence of `addresses`.
    frames: Vec<(FrameAddress, Frame, FrameEcc)>,
    frame_words: usize,
}

/// A captured frame's payload and codes, `None` when it was erased.
type Entry<'a> = Option<(&'a Frame, &'a FrameEcc)>;

/// `true` when a captured frame holds the erased state.
fn is_erased(entry: Entry<'_>) -> bool {
    entry.is_none_or(|(data, ecc)| {
        data.iter().all(|&w| w == 0) && (0..ecc.len()).all(|i| ecc.check(i) == 0)
    })
}

/// Equality over the captured contents: an erased entry equals an
/// explicit all-zero payload with all-zero check codes.
impl PartialEq for RegionSnapshot {
    fn eq(&self, other: &RegionSnapshot) -> bool {
        self.frame_words == other.frame_words
            && self.addresses == other.addresses
            && self
                .entries()
                .zip(other.entries())
                .all(|((_, x), (_, y))| match (x, y) {
                    (Some(x), Some(y)) => x == y,
                    _ => is_erased(x) && is_erased(y),
                })
    }
}

impl RegionSnapshot {
    /// Addresses captured by this snapshot, in address order.
    pub fn addresses(&self) -> Vec<FrameAddress> {
        self.addresses.clone()
    }

    /// Number of captured frames.
    pub fn len(&self) -> usize {
        self.addresses.len()
    }

    /// `true` when no frames are captured.
    pub fn is_empty(&self) -> bool {
        self.addresses.is_empty()
    }

    /// Every captured address with its frame, in address order.
    fn entries(&self) -> impl Iterator<Item = (FrameAddress, Entry<'_>)> {
        let mut present = self.frames.iter().peekable();
        self.addresses.iter().map(move |&addr| {
            let entry = present
                .next_if(|(a, ..)| *a == addr)
                .map(|(_, data, ecc)| (data, ecc));
            (addr, entry)
        })
    }

    /// Returns a copy of this snapshot re-addressed `col_delta` columns
    /// away, payload and check codes bit-exact.
    ///
    /// This is the configuration-memory half of region relocation: restore
    /// the shifted snapshot and the ECC shadow at the destination is in the
    /// exact state it held at the source — an upset captured mid-move stays
    /// detectable instead of being silently re-encoded as truth.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadFrameAddress`] when a shifted address leaves the
    /// fabric or lands on a column of a different kind.
    pub fn shift_columns(&self, device: &Device, col_delta: i64) -> Result<RegionSnapshot, Error> {
        let shift = |addr: FrameAddress| {
            let col = addr.column as i64 + col_delta;
            FrameAddress::new(addr.row, col as u32, addr.minor)
        };
        for addr in &self.addresses {
            let col = addr.column as i64 + col_delta;
            if col < 0 || col as usize >= device.columns() {
                return Err(Error::BadFrameAddress {
                    detail: format!(
                        "shifted column {col} outside the fabric's {} columns",
                        device.columns()
                    ),
                });
            }
            let src_kind = device.column_kind(addr.column as usize);
            let dst_kind = device.column_kind(col as usize);
            if src_kind != dst_kind {
                return Err(Error::BadFrameAddress {
                    detail: format!(
                        "shift maps {src_kind:?} column {} onto {dst_kind:?} column {col}: \
                         frame geometry differs",
                        addr.column
                    ),
                });
            }
            device.validate_frame(shift(*addr))?;
        }
        // Addresses order by (row, column, minor), so a uniform column
        // shift keeps both lists sorted.
        Ok(RegionSnapshot {
            addresses: self.addresses.iter().map(|&a| shift(a)).collect(),
            frames: self
                .frames
                .iter()
                .map(|(addr, data, ecc)| (shift(*addr), data.clone(), ecc.clone()))
                .collect(),
            frame_words: self.frame_words,
        })
    }
}

/// The entry a journaled write displaced: `None` where the map held
/// nothing (an erased frame, or an upset erased frame's implicit code).
#[derive(Debug, Clone)]
struct Displaced {
    addr: FrameAddress,
    frame: Option<Frame>,
    ecc: Option<FrameEcc>,
}

/// `true` when two stored payloads read back identically (absent reads
/// as all-zero).
fn same_payload(a: Option<&Frame>, b: Option<&Frame>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => x == y,
        (Some(x), None) | (None, Some(x)) => x.iter().all(|&w| w == 0),
        (None, None) => true,
    }
}

/// The frame-addressable configuration memory of a device.
///
/// Frames that were never written read back as all-zero (the post-PROG state
/// of the real device). An erased frame implicitly carries an all-zero check
/// code, which is exactly `FrameEcc::encode(&zeros)` — the sparse map and the
/// ECC shadow agree by construction.
///
/// # Example
///
/// ```
/// use presp_fpga::config_memory::ConfigMemory;
/// use presp_fpga::frame::FrameAddress;
/// use presp_fpga::part::FpgaPart;
///
/// let device = FpgaPart::Vc707.device();
/// let mut mem = ConfigMemory::new(&device);
/// let addr = FrameAddress::new(0, 1, 0);
/// mem.write_frame(addr, vec![0xDEAD_BEEF; mem.frame_words()])?;
/// assert_eq!(mem.frame(addr)[0], 0xDEAD_BEEF);
///
/// // A transaction undoes every doorway write since it began.
/// mem.begin_transaction();
/// mem.erase_frame(addr)?;
/// assert_eq!(mem.rollback(), 1);
/// assert_eq!(mem.frame(addr)[0], 0xDEAD_BEEF);
/// # Ok::<(), presp_fpga::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct ConfigMemory {
    device: Device,
    frame_words: usize,
    frames: BTreeMap<FrameAddress, Frame>,
    ecc: BTreeMap<FrameAddress, FrameEcc>,
    /// Whether doorway writes are being journaled.
    journaling: bool,
    /// Entries displaced since [`ConfigMemory::begin_transaction`], oldest
    /// first.
    journal: Vec<Displaced>,
}

impl ConfigMemory {
    /// Creates an all-zero configuration memory for `device`.
    pub fn new(device: &Device) -> ConfigMemory {
        ConfigMemory {
            device: device.clone(),
            frame_words: device.part().family().frame_words(),
            frames: BTreeMap::new(),
            ecc: BTreeMap::new(),
            journaling: false,
            journal: Vec::new(),
        }
    }

    /// Words per frame on this device.
    pub fn frame_words(&self) -> usize {
        self.frame_words
    }

    /// The device this memory belongs to.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Writes one frame, refreshing its SECDED check codes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadFrameAddress`] if the address does not exist on the
    /// device or the payload length differs from the frame size.
    pub fn write_frame(&mut self, addr: FrameAddress, data: Frame) -> Result<(), Error> {
        self.device.validate_frame(addr)?;
        if data.len() != self.frame_words {
            return Err(Error::BadFrameAddress {
                detail: format!(
                    "frame payload {} words, expected {}",
                    data.len(),
                    self.frame_words
                ),
            });
        }
        if data.iter().all(|&w| w == 0) {
            // All-zero equals the erased state; keep the map sparse. The
            // implicit check code of an erased frame is all-zero too.
            self.erase(addr);
        } else {
            let ecc = FrameEcc::encode(&data);
            self.install(addr, data, ecc);
        }
        Ok(())
    }

    /// Returns one frame to the erased state: the same as writing an
    /// all-zero payload, without building one.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadFrameAddress`] if the address does not exist on
    /// the device.
    pub fn erase_frame(&mut self, addr: FrameAddress) -> Result<(), Error> {
        self.device.validate_frame(addr)?;
        self.erase(addr);
        Ok(())
    }

    /// Stores `addr`'s payload and check codes, journaling what they
    /// displace.
    fn install(&mut self, addr: FrameAddress, data: Frame, ecc: FrameEcc) {
        let frame = self.frames.insert(addr, data);
        let ecc = self.ecc.insert(addr, ecc);
        if self.journaling {
            self.journal.push(Displaced { addr, frame, ecc });
        }
    }

    /// Drops `addr` from both maps, journaling what was there (an already
    /// erased frame displaces nothing and records nothing).
    fn erase(&mut self, addr: FrameAddress) {
        let frame = self.frames.remove(&addr);
        let ecc = self.ecc.remove(&addr);
        if self.journaling && (frame.is_some() || ecc.is_some()) {
            self.journal.push(Displaced { addr, frame, ecc });
        }
    }

    /// Opens a transaction: from here on every doorway write
    /// ([`write_frame`], [`erase_frame`], [`restore`], [`clear_frames`])
    /// journals the entry it displaces, moved out of the map rather than
    /// copied. An upset ([`corrupt_bit`]) and the in-place repair of
    /// [`scrub_frame`] bypass the journal, so rollback restores the
    /// pre-transaction image exactly when neither runs inside the
    /// transaction (the SoC opens one only around an ICAP load).
    ///
    /// [`write_frame`]: ConfigMemory::write_frame
    /// [`erase_frame`]: ConfigMemory::erase_frame
    /// [`restore`]: ConfigMemory::restore
    /// [`clear_frames`]: ConfigMemory::clear_frames
    /// [`corrupt_bit`]: ConfigMemory::corrupt_bit
    /// [`scrub_frame`]: ConfigMemory::scrub_frame
    pub fn begin_transaction(&mut self) {
        self.journal.clear();
        self.journaling = true;
    }

    /// Closes the open transaction, keeping its writes.
    pub fn commit(&mut self) {
        self.journaling = false;
        self.journal.clear();
    }

    /// Closes the open transaction and undoes its writes, payload and
    /// check codes bit-exact, by replaying the journal in reverse.
    ///
    /// Returns the number of frames whose payload the transaction had
    /// changed: what [`ConfigMemory::diff`] between the pre-transaction
    /// image and the memory before the rollback would report.
    pub fn rollback(&mut self) -> usize {
        self.journaling = false;
        let mut journal = std::mem::take(&mut self.journal);
        // The first entry journaled for an address holds its
        // pre-transaction state; the stable sort keeps it first.
        let mut first: Vec<&Displaced> = journal.iter().collect();
        first.sort_by_key(|d| d.addr);
        first.dedup_by_key(|d| d.addr);
        let dirty = first
            .iter()
            .filter(|d| !same_payload(d.frame.as_ref(), self.frames.get(&d.addr)))
            .count();
        for Displaced { addr, frame, ecc } in journal.drain(..).rev() {
            match frame {
                Some(data) => self.frames.insert(addr, data),
                None => self.frames.remove(&addr),
            };
            match ecc {
                Some(codes) => self.ecc.insert(addr, codes),
                None => self.ecc.remove(&addr),
            };
        }
        self.journal = journal;
        dirty
    }

    /// Reads back one frame (all-zero if never written).
    pub fn frame(&self, addr: FrameAddress) -> Frame {
        self.frames
            .get(&addr)
            .cloned()
            .unwrap_or_else(|| vec![0; self.frame_words])
    }

    /// The SECDED check codes currently shadowing `addr` (the implicit
    /// all-zero code for erased frames).
    pub fn frame_ecc(&self, addr: FrameAddress) -> FrameEcc {
        self.ecc
            .get(&addr)
            .cloned()
            .unwrap_or_else(|| FrameEcc::erased(self.frame_words))
    }

    /// Returns `true` if the frame was written with non-zero content.
    pub fn is_configured(&self, addr: FrameAddress) -> bool {
        self.frames.contains_key(&addr)
    }

    /// Number of frames holding non-zero content.
    pub fn configured_frames(&self) -> usize {
        self.frames.len()
    }

    /// Addresses of every configured (non-erased) frame, in address order.
    pub fn configured_addresses(&self) -> Vec<FrameAddress> {
        self.frames.keys().copied().collect()
    }

    /// Flips one payload bit **without** updating the check codes: the SEU
    /// backdoor. The resulting frame/ECC disagreement is what readback
    /// scrubbing detects and repairs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadFrameAddress`] for an invalid address or a
    /// word/bit index outside the frame.
    pub fn corrupt_bit(&mut self, addr: FrameAddress, word: usize, bit: u32) -> Result<(), Error> {
        self.device.validate_frame(addr)?;
        if word >= self.frame_words || bit >= 32 {
            return Err(Error::BadFrameAddress {
                detail: format!("upset target word {word} bit {bit} outside frame"),
            });
        }
        let frame = self
            .frames
            .entry(addr)
            .or_insert_with(|| vec![0; self.frame_words]);
        frame[word] ^= 1 << bit;
        // Deliberately no ECC refresh: the shadow now disagrees with the
        // payload, exactly as a real upset leaves the fabric. An upset in a
        // previously-erased frame is covered by the implicit all-zero code.
        Ok(())
    }

    /// Reads back `addr` and repairs what SECDED can, in place.
    ///
    /// On a correctable upset the payload is restored and (for check-code
    /// upsets) the shadow re-encoded; an uncorrectable frame is left
    /// untouched so a golden restore can still be attempted.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadFrameAddress`] for an invalid address.
    pub fn scrub_frame(&mut self, addr: FrameAddress) -> Result<FrameRepair, Error> {
        self.device.validate_frame(addr)?;
        let Some(frame) = self.frames.get_mut(&addr) else {
            // Erased frames are implicitly clean (zero payload, zero code).
            return Ok(FrameRepair::Clean);
        };
        let repair = match self.ecc.get(&addr) {
            Some(ecc) => scrub_frame_words(frame, ecc),
            None => scrub_frame_words(frame, &FrameEcc::erased(self.frame_words)),
        };
        if matches!(repair, FrameRepair::Corrected { .. }) {
            // Re-latch both sides of the doorway: a repaired frame gets a
            // fresh code, and a frame repaired back to all-zero returns to
            // the sparse erased state.
            let data = frame.clone();
            self.write_frame(addr, data)?;
        }
        Ok(repair)
    }

    /// Captures a bit-exact snapshot (payload + check codes) of `addrs`,
    /// in any order and with duplicates.
    ///
    /// The addresses are sorted (a region is a few ascending runs, which
    /// the stable sort merges in linear time) and then joined in one pass
    /// with the stored frames of their address range.
    ///
    /// # Errors
    ///
    /// Returns an error on the first invalid address.
    pub fn snapshot<'a, I: IntoIterator<Item = &'a FrameAddress>>(
        &self,
        addrs: I,
    ) -> Result<RegionSnapshot, Error> {
        let mut addresses = addrs
            .into_iter()
            .map(|&addr| self.device.validate_frame(addr).map(|()| addr))
            .collect::<Result<Vec<_>, Error>>()?;
        addresses.sort();
        addresses.dedup();
        let mut frames = Vec::new();
        if let (Some(&first), Some(&last)) = (addresses.first(), addresses.last()) {
            let mut wanted = addresses.iter().peekable();
            for (&addr, data) in self.frames.range(first..=last) {
                while wanted.next_if(|&&w| w < addr).is_some() {}
                if wanted.next_if_eq(&&addr).is_some() {
                    frames.push((addr, data.clone(), self.frame_ecc(addr)));
                }
            }
        }
        Ok(RegionSnapshot {
            addresses,
            frames,
            frame_words: self.frame_words,
        })
    }

    /// Restores every frame in `snap` bit-for-bit, check codes included.
    ///
    /// # Errors
    ///
    /// Returns an error on the first invalid address (only possible when the
    /// snapshot came from a different device geometry).
    pub fn restore(&mut self, snap: &RegionSnapshot) -> Result<(), Error> {
        for (addr, entry) in snap.entries() {
            self.device.validate_frame(addr)?;
            match entry {
                Some((data, ecc)) if data.iter().any(|&w| w != 0) => {
                    self.install(addr, data.clone(), ecc.clone());
                }
                _ => self.erase(addr),
            }
        }
        Ok(())
    }

    /// Clears every frame in `addrs` back to the erased state.
    ///
    /// # Errors
    ///
    /// Returns an error on the first invalid address.
    pub fn clear_frames<'a, I: IntoIterator<Item = &'a FrameAddress>>(
        &mut self,
        addrs: I,
    ) -> Result<(), Error> {
        for addr in addrs {
            self.erase_frame(*addr)?;
        }
        Ok(())
    }

    /// Addresses whose content differs between `self` and `other`.
    pub fn diff(&self, other: &ConfigMemory) -> Vec<FrameAddress> {
        let mut addrs: Vec<FrameAddress> = self
            .frames
            .keys()
            .chain(other.frames.keys())
            .copied()
            .collect();
        addrs.sort_unstable();
        addrs.dedup();
        addrs
            .into_iter()
            .filter(|a| self.frame(*a) != other.frame(*a))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::part::FpgaPart;

    fn mem() -> ConfigMemory {
        ConfigMemory::new(&FpgaPart::Vc707.device())
    }

    #[test]
    fn unwritten_frames_read_zero() {
        let m = mem();
        let addr = FrameAddress::new(2, 3, 1);
        assert!(m.frame(addr).iter().all(|&w| w == 0));
        assert!(!m.is_configured(addr));
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut m = mem();
        let addr = FrameAddress::new(1, 2, 3);
        let data: Frame = (0..m.frame_words() as u32).collect();
        m.write_frame(addr, data.clone()).unwrap();
        assert_eq!(m.frame(addr), data);
        assert_eq!(m.configured_frames(), 1);
    }

    #[test]
    fn zero_write_erases() {
        let mut m = mem();
        let addr = FrameAddress::new(1, 2, 3);
        m.write_frame(addr, vec![7; m.frame_words()]).unwrap();
        m.write_frame(addr, vec![0; m.frame_words()]).unwrap();
        assert!(!m.is_configured(addr));
    }

    #[test]
    fn wrong_length_is_rejected() {
        let mut m = mem();
        let addr = FrameAddress::new(0, 1, 0);
        assert!(m.write_frame(addr, vec![1, 2, 3]).is_err());
    }

    #[test]
    fn invalid_address_is_rejected() {
        let mut m = mem();
        let words = m.frame_words();
        assert!(m
            .write_frame(FrameAddress::new(999, 0, 0), vec![1; words])
            .is_err());
    }

    #[test]
    fn diff_reports_changed_frames() {
        let mut a = mem();
        let mut b = mem();
        let f1 = FrameAddress::new(0, 1, 0);
        let f2 = FrameAddress::new(0, 1, 1);
        let words = a.frame_words();
        a.write_frame(f1, vec![1; words]).unwrap();
        b.write_frame(f1, vec![1; words]).unwrap();
        b.write_frame(f2, vec![2; words]).unwrap();
        assert_eq!(a.diff(&b), vec![f2]);
        assert_eq!(a.diff(&a), Vec::new());
    }

    #[test]
    fn clear_frames_restores_erased_state() {
        let mut m = mem();
        let addr = FrameAddress::new(3, 4, 2);
        m.write_frame(addr, vec![9; m.frame_words()]).unwrap();
        m.clear_frames(std::iter::once(&addr)).unwrap();
        assert_eq!(m.configured_frames(), 0);
    }

    #[test]
    fn corrupt_then_scrub_repairs_single_bit() {
        let mut m = mem();
        let addr = FrameAddress::new(0, 1, 0);
        let data: Frame = (1..=m.frame_words() as u32).collect();
        m.write_frame(addr, data.clone()).unwrap();
        m.corrupt_bit(addr, 4, 13).unwrap();
        assert_ne!(m.frame(addr), data);
        assert_eq!(
            m.scrub_frame(addr).unwrap(),
            FrameRepair::Corrected { words: vec![4] }
        );
        assert_eq!(m.frame(addr), data);
        assert_eq!(m.scrub_frame(addr).unwrap(), FrameRepair::Clean);
    }

    #[test]
    fn double_bit_upset_is_uncorrectable_and_untouched() {
        let mut m = mem();
        let addr = FrameAddress::new(0, 1, 0);
        m.write_frame(addr, vec![0xCAFE_F00D; m.frame_words()])
            .unwrap();
        m.corrupt_bit(addr, 2, 5).unwrap();
        m.corrupt_bit(addr, 2, 30).unwrap();
        let corrupted = m.frame(addr);
        assert_eq!(
            m.scrub_frame(addr).unwrap(),
            FrameRepair::Uncorrectable { word: 2 }
        );
        assert_eq!(m.frame(addr), corrupted, "uncorrectable frame left as-is");
    }

    #[test]
    fn upset_in_erased_frame_scrubs_back_to_erased() {
        let mut m = mem();
        let addr = FrameAddress::new(1, 1, 1);
        m.corrupt_bit(addr, 0, 0).unwrap();
        assert!(m.is_configured(addr), "upset materializes the frame");
        assert_eq!(
            m.scrub_frame(addr).unwrap(),
            FrameRepair::Corrected { words: vec![0] }
        );
        assert!(
            !m.is_configured(addr),
            "repair returns to sparse erased state"
        );
    }

    #[test]
    fn snapshot_restore_is_bit_exact() {
        let mut m = mem();
        let a1 = FrameAddress::new(0, 1, 0);
        let a2 = FrameAddress::new(0, 1, 1);
        let words = m.frame_words();
        m.write_frame(a1, vec![3; words]).unwrap();
        m.write_frame(a2, vec![4; words]).unwrap();
        let snap = m.snapshot([a1, a2].iter()).unwrap();
        assert_eq!(snap.len(), 2);
        m.corrupt_bit(a1, 0, 7).unwrap();
        m.write_frame(a2, vec![9; words]).unwrap();
        m.restore(&snap).unwrap();
        assert_eq!(m.frame(a1), vec![3; words]);
        assert_eq!(m.frame(a2), vec![4; words]);
        assert_eq!(m.scrub_frame(a1).unwrap(), FrameRepair::Clean);
        assert_eq!(m.scrub_frame(a2).unwrap(), FrameRepair::Clean);
    }

    /// Every observable of `addr`: payload, check codes and whether the
    /// frame is materialized in the sparse map.
    fn observe(m: &ConfigMemory, addr: FrameAddress) -> (Frame, FrameEcc, bool) {
        (m.frame(addr), m.frame_ecc(addr), m.is_configured(addr))
    }

    /// Two CLB columns (so a shift between them keeps frame geometry)
    /// and a mixed region in the first: configured frames, erased frames
    /// and an SEU in a previously erased frame.
    fn mixed_region(m: &mut ConfigMemory) -> (Vec<FrameAddress>, i64) {
        use crate::fabric::ColumnKind;
        let d = m.device().clone();
        let clb: Vec<u32> = (0..d.columns())
            .filter(|&i| d.column_kind(i) == ColumnKind::Clb)
            .map(|i| i as u32)
            .collect();
        let (src, dst) = (clb[0], clb[3]);
        let region: Vec<FrameAddress> = (0..6)
            .map(|minor| FrameAddress::new(1, src, minor))
            .collect();
        let words = m.frame_words();
        m.write_frame(region[0], (1..=words as u32).collect())
            .unwrap();
        m.write_frame(region[2], vec![0xCAFE_F00D; words]).unwrap();
        m.corrupt_bit(region[2], 3, 9).unwrap();
        m.corrupt_bit(region[4], 7, 30).unwrap();
        (region, i64::from(dst) - i64::from(src))
    }

    #[test]
    fn sparse_snapshot_restores_mixed_regions_bit_for_bit() {
        let mut m = mem();
        let (region, _) = mixed_region(&mut m);
        let before: Vec<_> = region.iter().map(|&a| observe(&m, a)).collect();
        let snap = m.snapshot(region.iter()).unwrap();
        assert_eq!(snap.len(), region.len());
        assert_eq!(snap.addresses(), region);
        let words = m.frame_words();
        for &addr in &region {
            m.write_frame(addr, vec![0x5A5A_5A5A; words]).unwrap();
        }
        m.restore(&snap).unwrap();
        let after: Vec<_> = region.iter().map(|&a| observe(&m, a)).collect();
        assert_eq!(after, before);
        // The SEUs survive as upsets: the restored codes still expose them.
        assert_eq!(
            m.scrub_frame(region[2]).unwrap(),
            FrameRepair::Corrected { words: vec![3] }
        );
        assert_eq!(
            m.scrub_frame(region[4]).unwrap(),
            FrameRepair::Corrected { words: vec![7] }
        );
        assert!(!m.is_configured(region[4]));
    }

    #[test]
    fn sparse_snapshot_survives_a_column_shift_bit_for_bit() {
        let mut m = mem();
        let (region, delta) = mixed_region(&mut m);
        let before: Vec<_> = region.iter().map(|&a| observe(&m, a)).collect();
        let shifted = m
            .snapshot(region.iter())
            .unwrap()
            .shift_columns(m.device(), delta)
            .unwrap();
        m.clear_frames(region.iter()).unwrap();
        m.restore(&shifted).unwrap();
        let moved: Vec<FrameAddress> = shifted.addresses();
        assert_eq!(moved.len(), region.len());
        for (src, dst) in region.iter().zip(&moved) {
            assert_eq!(i64::from(dst.column) - i64::from(src.column), delta);
            assert_eq!((dst.row, dst.minor), (src.row, src.minor));
            assert!(!m.is_configured(*src));
        }
        let after: Vec<_> = moved.iter().map(|&a| observe(&m, a)).collect();
        assert_eq!(after, before);
    }

    #[test]
    fn snapshot_equality_is_by_content() {
        let mut m = mem();
        let (region, _) = mixed_region(&mut m);
        let snap = m.snapshot(region.iter()).unwrap();
        assert_eq!(snap, m.snapshot(region.iter()).unwrap());
        // Restoring into a fresh memory and re-capturing reproduces it.
        let mut copy = mem();
        copy.restore(&snap).unwrap();
        assert_eq!(copy.snapshot(region.iter()).unwrap(), snap);
        // Any difference in payload or check codes shows.
        m.corrupt_bit(region[0], 0, 0).unwrap();
        assert_ne!(m.snapshot(region.iter()).unwrap(), snap);
        // An upset flipped back leaves an explicit all-zero frame in the
        // map; its snapshot still equals that of the erased frame.
        let addr = region[5];
        let erased = m.snapshot(std::iter::once(&addr)).unwrap();
        m.corrupt_bit(addr, 1, 1).unwrap();
        m.corrupt_bit(addr, 1, 1).unwrap();
        assert!(m.is_configured(addr));
        assert_eq!(m.snapshot(std::iter::once(&addr)).unwrap(), erased);
    }

    #[test]
    fn restoring_an_erased_snapshot_erases() {
        let mut m = mem();
        let addr = FrameAddress::new(2, 2, 0);
        let snap = m.snapshot(std::iter::once(&addr)).unwrap();
        m.write_frame(addr, vec![5; m.frame_words()]).unwrap();
        m.restore(&snap).unwrap();
        assert!(!m.is_configured(addr));
    }

    /// The per-address construction the merge join replaced: one map
    /// lookup per captured address.
    fn snapshot_per_address(m: &ConfigMemory, addrs: &[FrameAddress]) -> RegionSnapshot {
        let captured: BTreeMap<FrameAddress, Option<(Frame, FrameEcc)>> = addrs
            .iter()
            .map(|&addr| {
                let entry = m
                    .frames
                    .get(&addr)
                    .map(|data| (data.clone(), m.frame_ecc(addr)));
                (addr, entry)
            })
            .collect();
        RegionSnapshot {
            addresses: captured.keys().copied().collect(),
            frames: captured
                .into_iter()
                .filter_map(|(addr, entry)| entry.map(|(data, ecc)| (addr, data, ecc)))
                .collect(),
            frame_words: m.frame_words,
        }
    }

    /// A payload derived from `v`: all-zero for `v == 0`.
    fn payload(m: &ConfigMemory, v: u32) -> Frame {
        (1..=m.frame_words() as u32)
            .map(|i| v.wrapping_mul(i))
            .collect()
    }

    #[test]
    fn transaction_commit_keeps_and_rollback_undoes_writes() {
        let mut m = mem();
        let (a, b) = (FrameAddress::new(0, 1, 0), FrameAddress::new(0, 1, 1));
        m.write_frame(a, payload(&m, 3)).unwrap();
        m.begin_transaction();
        m.write_frame(b, payload(&m, 5)).unwrap();
        m.commit();
        assert_eq!(m.rollback(), 0, "a committed transaction leaves no journal");
        assert_eq!(m.frame(b), payload(&m, 5));
        // Erasing an erased frame displaces nothing and changes nothing.
        m.begin_transaction();
        m.erase_frame(FrameAddress::new(0, 1, 2)).unwrap();
        assert!(m.journal.is_empty());
        m.write_frame(a, payload(&m, 7)).unwrap();
        m.erase_frame(b).unwrap();
        assert_eq!(m.rollback(), 2);
        assert_eq!(m.frame(a), payload(&m, 3));
        assert_eq!(m.frame(b), payload(&m, 5));
        assert_eq!(m.configured_frames(), 2);
        assert!(m.erase_frame(FrameAddress::new(999, 0, 0)).is_err());
    }

    /// Eight addresses of one column: the universe the generated
    /// sequences draw from.
    fn universe() -> Vec<FrameAddress> {
        (0..8).map(|minor| FrameAddress::new(1, 2, minor)).collect()
    }

    /// Applies one generated operation: 0 writes `v`'s payload, 1 erases,
    /// 2 writes zeros, 3 clears the frame and its neighbour, 4 flips a bit
    /// without touching the codes (pre-state only).
    fn apply(m: &mut ConfigMemory, (idx, op, v): (usize, u32, u32)) {
        let addrs = universe();
        let addr = addrs[idx];
        match op {
            0 => m.write_frame(addr, payload(m, v)).unwrap(),
            1 => m.erase_frame(addr).unwrap(),
            2 => m.write_frame(addr, vec![0; m.frame_words()]).unwrap(),
            3 => m
                .clear_frames([addr, addrs[(idx + 1) % addrs.len()]].iter())
                .unwrap(),
            _ => m
                .corrupt_bit(addr, v as usize % m.frame_words(), v % 32)
                .unwrap(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Rollback restores every address to a clone taken before the
        /// transaction (payload, codes and sparseness) and reports what
        /// `diff` against that clone reports.
        #[test]
        fn rollback_matches_a_pre_transaction_clone(
            pre in proptest::collection::vec((0usize..8, 0u32..5, 0u32..4), 0..24),
            tx in proptest::collection::vec((0usize..8, 0u32..4, 0u32..4), 1..24),
            restore_golden in proptest::bool::ANY,
        ) {
            let mut m = mem();
            for op in pre {
                apply(&mut m, op);
            }
            let golden = m.snapshot(universe().iter()).unwrap();
            let before = m.clone();
            m.begin_transaction();
            // The first frame is written twice, whatever else happens.
            let twice = (tx[0].0, 0, 3);
            apply(&mut m, twice);
            for &op in &tx {
                apply(&mut m, op);
            }
            apply(&mut m, twice);
            if restore_golden {
                m.restore(&golden).unwrap();
            }
            let after = m.clone();
            let dirty = m.rollback();
            proptest::prop_assert_eq!(dirty, before.diff(&after).len());
            for addr in universe() {
                proptest::prop_assert_eq!(observe(&m, addr), observe(&before, addr));
            }
            proptest::prop_assert_eq!(m.configured_frames(), before.configured_frames());
        }

        /// The merge join over the memory's address range builds the same
        /// snapshot as one lookup per address, for unsorted, duplicated
        /// address lists with other regions' frames inside the range.
        #[test]
        fn merge_built_snapshot_matches_per_address_construction(
            frames in proptest::collection::vec((0u32..3, 1u32..6, 0u32..28, 0u32..3), 0..60),
            wanted in proptest::collection::vec((0u32..3, 1u32..6, 0u32..28), 0..80),
        ) {
            let mut m = mem();
            for (row, col, minor, v) in frames {
                let addr = FrameAddress::new(row, col, minor);
                match v {
                    0 => m.corrupt_bit(addr, minor as usize, col).unwrap(),
                    _ => m.write_frame(addr, payload(&m, v)).unwrap(),
                }
            }
            let addrs: Vec<FrameAddress> = wanted
                .into_iter()
                .map(|(row, col, minor)| FrameAddress::new(row, col, minor))
                .collect();
            let merged = m.snapshot(addrs.iter()).unwrap();
            let reference = snapshot_per_address(&m, &addrs);
            proptest::prop_assert_eq!(&merged.addresses, &reference.addresses);
            proptest::prop_assert_eq!(&merged.frames, &reference.frames);
            proptest::prop_assert_eq!(merged, reference);
        }
    }
}
