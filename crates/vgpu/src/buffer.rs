//! Device buffers.
//!
//! A [`BufData`] buffer is a flat, typed allocation in "device memory". Kernel
//! execution requires concurrent writes from many work-items into the same
//! buffer (the whole point of the paper's in-place primitives), so the
//! storage uses interior mutability behind [`SharedBuf`].
//!
//! # Safety model
//!
//! Work-items of one launch write **disjoint** locations — this is the
//! correctness condition of any OpenCL kernel without atomics, and the
//! acoustics kernels satisfy it because boundary indices are unique.
//! `SharedBuf` exposes `unsafe` element accessors whose contract is exactly
//! that disjointness; the safe wrapper in [`crate::device`] upholds it by
//! construction, and on a sanitizing runtime the shadow memory
//! ([`crate::sanitize`]) tags each element with its last writer and fails
//! the launch if two work-items ever wrote the same element.

use lift::prelude::{ScalarKind, Value};
use std::cell::UnsafeCell;

/// Typed flat storage.
#[derive(Debug, Clone, PartialEq)]
pub enum BufData {
    /// 32-bit floats.
    F32(Vec<f32>),
    /// 64-bit floats.
    F64(Vec<f64>),
    /// 32-bit ints.
    I32(Vec<i32>),
}

impl BufData {
    /// Zero-filled buffer of `len` elements of `kind`.
    pub fn zeros(kind: ScalarKind, len: usize) -> BufData {
        match kind {
            ScalarKind::F32 => BufData::F32(vec![0.0; len]),
            ScalarKind::F64 => BufData::F64(vec![0.0; len]),
            ScalarKind::I32 | ScalarKind::Bool => BufData::I32(vec![0; len]),
            ScalarKind::Real => panic!("buffers require a resolved precision"),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            BufData::F32(v) => v.len(),
            BufData::F64(v) => v.len(),
            BufData::I32(v) => v.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element kind.
    pub fn kind(&self) -> ScalarKind {
        match self {
            BufData::F32(_) => ScalarKind::F32,
            BufData::F64(_) => ScalarKind::F64,
            BufData::I32(_) => ScalarKind::I32,
        }
    }

    /// Element size in bytes.
    pub fn elem_bytes(&self) -> usize {
        match self {
            BufData::F64(_) => 8,
            _ => 4,
        }
    }

    /// Reads element `i` (bounds-checked).
    pub fn get(&self, i: usize) -> Value {
        match self {
            BufData::F32(v) => Value::F32(v[i]),
            BufData::F64(v) => Value::F64(v[i]),
            BufData::I32(v) => Value::I32(v[i]),
        }
    }

    /// Reads element `i` (bounds-checked) as its raw register bit pattern
    /// (f32/i32 zero-extended to 64 bits): the same bits the tape executors'
    /// register encoding assigns to `get(i)`, without the `Value`
    /// round-trip.
    pub fn get_bits(&self, i: usize) -> u64 {
        match self {
            BufData::F32(v) => v[i].to_bits() as u64,
            BufData::F64(v) => v[i].to_bits(),
            BufData::I32(v) => v[i] as u32 as u64,
        }
    }

    /// Writes element `i` (bounds-checked), casting `val` to the buffer's
    /// kind with C semantics.
    pub fn set(&mut self, i: usize, val: Value) {
        match self {
            BufData::F32(v) => v[i] = val.cast(ScalarKind::F32).as_f64() as f32,
            BufData::F64(v) => v[i] = val.as_f64(),
            BufData::I32(v) => v[i] = val.as_i64() as i32,
        }
    }

    /// Copies out as f64 (lossless for f32/i32 payloads).
    pub fn to_f64_vec(&self) -> Vec<f64> {
        match self {
            BufData::F32(v) => v.iter().map(|&x| x as f64).collect(),
            BufData::F64(v) => v.clone(),
            BufData::I32(v) => v.iter().map(|&x| x as f64).collect(),
        }
    }

    /// Copies out the element range `[off, off+len)` (bounds-checked).
    pub fn slice(&self, off: usize, len: usize) -> BufData {
        match self {
            BufData::F32(v) => BufData::F32(v[off..off + len].to_vec()),
            BufData::F64(v) => BufData::F64(v[off..off + len].to_vec()),
            BufData::I32(v) => BufData::I32(v[off..off + len].to_vec()),
        }
    }

    /// Overwrites elements `[off, off+src.len())` from `src`, which must
    /// have the same element kind.
    pub fn copy_from(&mut self, off: usize, src: &BufData) {
        match (self, src) {
            (BufData::F32(d), BufData::F32(s)) => d[off..off + s.len()].copy_from_slice(s),
            (BufData::F64(d), BufData::F64(s)) => d[off..off + s.len()].copy_from_slice(s),
            (BufData::I32(d), BufData::I32(s)) => d[off..off + s.len()].copy_from_slice(s),
            (d, s) => panic!("region copy kind mismatch: {:?} <- {:?}", d.kind(), s.kind()),
        }
    }
}

impl From<Vec<f32>> for BufData {
    fn from(v: Vec<f32>) -> Self {
        BufData::F32(v)
    }
}
impl From<Vec<f64>> for BufData {
    fn from(v: Vec<f64>) -> Self {
        BufData::F64(v)
    }
}
impl From<Vec<i32>> for BufData {
    fn from(v: Vec<i32>) -> Self {
        BufData::I32(v)
    }
}

/// Raw typed base pointer of a buffer's storage, for the fused-block
/// executor's gather/scatter lane loops: the element-kind dispatch happens once per
/// superinstruction instead of once per lane, and element access compiles
/// to a plain indexed load/store. Every dereference must satisfy both the
/// bounds discipline of the access site (asserted, or statically proven)
/// and [`SharedBuf`]'s disjointness contract.
#[derive(Clone, Copy)]
pub(crate) enum BufPtr {
    /// 32-bit float storage.
    F32(*mut f32),
    /// 64-bit float storage.
    F64(*mut f64),
    /// 32-bit int storage.
    I32(*mut i32),
}

/// Shared-storage wrapper enabling concurrent disjoint writes during a
/// launch. See the module docs for the safety contract.
pub struct SharedBuf {
    data: UnsafeCell<BufData>,
    /// Fixed with the data, so a launch reads them without a reference to it.
    ptr: BufPtr,
    len: usize,
    kind: ScalarKind,
    /// Shadow memory, present only under `VGPU_SANITIZE=shadow`. `Shadow`
    /// is internally synchronized (atomics + mutex), so it sits outside the
    /// `UnsafeCell` contract.
    shadow: Option<crate::sanitize::Shadow>,
}

// SAFETY: concurrent access is restricted by the launch contract — work-items
// write disjoint elements and never read an element another work-item writes
// in the same launch. A sanitizing runtime's shadow checks write disjointness.
unsafe impl Sync for SharedBuf {}
unsafe impl Send for SharedBuf {}

impl SharedBuf {
    /// Wraps buffer data, with no shadow memory.
    pub fn new(data: BufData) -> Self {
        Self::with_shadow(data, false, true)
    }

    /// Wraps buffer data with a shadow when `sanitize` (the owning device's
    /// sanitizer setting) is on. `initialized` states whether the data
    /// already holds meaningful values (uploads, zero-initialized
    /// allocations) or is raw device memory whose reads should be flagged.
    pub(crate) fn with_shadow(mut data: BufData, sanitize: bool, initialized: bool) -> Self {
        let shadow = sanitize.then(|| crate::sanitize::Shadow::new(data.len(), initialized));
        let ptr = match &mut data {
            BufData::F32(v) => BufPtr::F32(v.as_mut_ptr()),
            BufData::F64(v) => BufPtr::F64(v.as_mut_ptr()),
            BufData::I32(v) => BufPtr::I32(v.as_mut_ptr()),
        };
        SharedBuf { ptr, len: data.len(), kind: data.kind(), data: UnsafeCell::new(data), shadow }
    }

    /// The buffer's shadow memory, when the sanitizer allocated one.
    pub(crate) fn shadow(&self) -> Option<&crate::sanitize::Shadow> {
        self.shadow.as_ref()
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element kind.
    pub fn kind(&self) -> ScalarKind {
        self.kind
    }

    /// Element bytes.
    pub fn elem_bytes(&self) -> usize {
        match self.ptr {
            BufPtr::F64(_) => 8,
            _ => 4,
        }
    }

    /// The pointer to element `i`, bounds-checked. The element accessors go
    /// through it, not through a reference to the whole storage, which
    /// other work-items of a launch write at the same time.
    fn at(&self, i: usize) -> BufPtr {
        assert!(i < self.len, "index out of bounds: the len is {} but the index is {i}", self.len);
        match self.ptr {
            BufPtr::F32(p) => BufPtr::F32(p.wrapping_add(i)),
            BufPtr::F64(p) => BufPtr::F64(p.wrapping_add(i)),
            BufPtr::I32(p) => BufPtr::I32(p.wrapping_add(i)),
        }
    }

    /// Reads one element.
    ///
    /// # Safety
    /// No other thread may be writing element `i` concurrently.
    pub unsafe fn get(&self, i: usize) -> Value {
        match self.at(i) {
            BufPtr::F32(p) => Value::F32(*p),
            BufPtr::F64(p) => Value::F64(*p),
            BufPtr::I32(p) => Value::I32(*p),
        }
    }

    /// Writes one element, cast to the buffer's kind as [`BufData::set`] does.
    ///
    /// # Safety
    /// No other thread may be reading or writing element `i` concurrently.
    pub unsafe fn set(&self, i: usize, val: Value) {
        match self.at(i) {
            BufPtr::F32(p) => *p = val.cast(ScalarKind::F32).as_f64() as f32,
            BufPtr::F64(p) => *p = val.as_f64(),
            BufPtr::I32(p) => *p = val.as_i64() as i32,
        }
    }

    /// The raw typed base pointer of the storage (see [`BufPtr`]), which never
    /// moves while the buffer lives; reads/writes through it carry the
    /// per-element contract of [`Self::get`]/[`Self::set`].
    pub(crate) fn ptr(&self) -> BufPtr {
        self.ptr
    }

    /// Writes `src` at `off`, in place; `src` as long as the buffer becomes
    /// its storage instead, whatever its kind.
    pub fn write(&mut self, off: usize, src: BufData) {
        if off == 0 && src.len() == self.len {
            *self = SharedBuf { shadow: self.shadow.take(), ..Self::new(src) };
        } else {
            self.data.get_mut().copy_from(off, &src)
        }
    }

    /// The contents.
    ///
    /// # Safety
    /// Only outside a launch: no thread may write the buffer while the
    /// reference lives.
    pub(crate) unsafe fn data(&self) -> &BufData {
        &*self.data.get()
    }

    /// Overwrites the contents in place (differential-mode rollback).
    ///
    /// # Safety
    /// Only outside a launch: no other thread may access the buffer.
    pub(crate) unsafe fn restore(&self, data: &BufData) {
        (*self.data.get()).copy_from(0, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_kinds() {
        let b = BufData::zeros(ScalarKind::F64, 4);
        assert_eq!(b.len(), 4);
        assert_eq!(b.kind(), ScalarKind::F64);
        assert_eq!(b.elem_bytes(), 8);
        assert_eq!(b.get(2), Value::F64(0.0));
    }

    #[test]
    fn set_casts_to_buffer_kind() {
        let mut b = BufData::zeros(ScalarKind::I32, 2);
        b.set(0, Value::F64(3.7));
        assert_eq!(b.get(0), Value::I32(3));
        let mut f = BufData::zeros(ScalarKind::F32, 2);
        f.set(1, Value::F64(0.1));
        assert_eq!(f.get(1), Value::F32(0.1f64 as f32));
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        BufData::zeros(ScalarKind::F32, 2).get(5);
    }

    #[test]
    fn shared_buf_single_thread_roundtrip() {
        let s = SharedBuf::new(BufData::from(vec![1.0f32, 2.0]));
        unsafe {
            s.set(0, Value::F32(9.0));
            assert_eq!(s.get(0), Value::F32(9.0));
            assert_eq!(s.get(1), Value::F32(2.0));
        }
    }

    #[test]
    fn shared_buf_parallel_disjoint_writes() {
        use rayon::prelude::*;
        let s = SharedBuf::new(BufData::zeros(ScalarKind::I32, 1000));
        (0..1000usize).into_par_iter().for_each(|i| unsafe {
            s.set(i, Value::I32(i as i32));
        });
        let data = unsafe { s.data() };
        for i in (0..1000).step_by(97) {
            assert_eq!(data.get(i), Value::I32(i as i32));
        }
    }

    /// The length, kind and base pointer a launch reads are the data's:
    /// a partial `write` and `restore` write in place, a whole one replaces.
    #[test]
    fn fixed_values_are_the_data_s() {
        let base = |s: &SharedBuf| match s.ptr() {
            BufPtr::F32(p) => p as usize,
            BufPtr::F64(p) => p as usize,
            BufPtr::I32(p) => p as usize,
        };
        let mut s = SharedBuf::new(BufData::zeros(ScalarKind::F32, 4));
        let at = base(&s);
        s.write(1, BufData::from(vec![5.0f32, 6.0]));
        unsafe { s.restore(&BufData::from(vec![1.0f32, 2.0, 3.0, 4.0])) };
        assert_eq!((base(&s), unsafe { s.get(2) }), (at, Value::F32(3.0)));
        s.write(0, BufData::zeros(ScalarKind::F64, 4));
        assert_eq!((s.len(), s.kind(), s.elem_bytes()), (4, ScalarKind::F64, 8));
        let (BufPtr::F64(p), BufData::F64(v)) = (s.ptr(), unsafe { s.data() }) else { panic!() };
        assert_eq!(p.cast_const(), v.as_ptr());
    }
}
