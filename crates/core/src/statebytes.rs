//! Little-endian byte codecs shared by the journalable learner states
//! (`F_mo`'s snapshot, the RL controller, the EA population). All readers
//! are bounds-checked and return `None` on truncation or implausible
//! sizes — a corrupt state stream must fail restore, never build garbage.

use automc_tensor::Tensor;

/// Split `n` bytes off the front of `r`; `None` if fewer remain.
pub(crate) fn take_bytes<'a>(r: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if r.len() < n {
        return None;
    }
    let (head, tail) = r.split_at(n);
    *r = tail;
    Some(head)
}

/// Append a `u64` in little-endian.
pub(crate) fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Read a [`write_u64`] value.
pub(crate) fn read_u64(r: &mut &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(take_bytes(r, 8)?.try_into().ok()?))
}

/// Append an `f32` in little-endian.
pub(crate) fn write_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Read a [`write_f32`] value.
pub(crate) fn read_f32(r: &mut &[u8]) -> Option<f32> {
    Some(f32::from_le_bytes(take_bytes(r, 4)?.try_into().ok()?))
}

/// The number of bytes [`write_tensor_list`] appends for `tensors`.
pub(crate) fn tensor_list_len(tensors: &[&Tensor]) -> usize {
    let size = |t: &&Tensor| 8 * (1 + t.dims().len()) + 4 * t.numel();
    8 + tensors.iter().map(size).sum::<usize>()
}

/// Append a counted list of tensors (count, then per-tensor rank, dims,
/// and raw f32 data), reserving its exact size first.
pub(crate) fn write_tensor_list(out: &mut Vec<u8>, tensors: &[&Tensor]) {
    out.reserve_exact(tensor_list_len(tensors));
    write_u64(out, tensors.len() as u64);
    for t in tensors {
        write_u64(out, t.dims().len() as u64);
        for &d in t.dims() {
            write_u64(out, d as u64);
        }
        for &v in t.data() {
            write_f32(out, v);
        }
    }
}

/// Read a [`write_tensor_list`] list, rejecting implausible counts,
/// ranks, and element totals.
pub(crate) fn read_tensor_list(r: &mut &[u8]) -> Option<Vec<Tensor>> {
    let count = read_u64(r)? as usize;
    if count > 1_000 {
        return None;
    }
    let mut tensors = Vec::with_capacity(count);
    for _ in 0..count {
        let rank = read_u64(r)? as usize;
        if rank > 8 {
            return None;
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(read_u64(r)? as usize);
        }
        let numel: usize = dims.iter().product();
        if numel > 100_000_000 {
            return None;
        }
        let mut data = vec![0f32; numel];
        for v in &mut data {
            *v = read_f32(r)?;
        }
        tensors.push(Tensor::from_vec(&dims, data).ok()?);
    }
    Some(tensors)
}
