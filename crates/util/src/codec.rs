//! Length-prefixed binary encoding.
//!
//! The workspace deliberately ships no serde *format* crate, so persisted
//! artifacts (LSH indexes, column wire frames in the simulated CDW protocol)
//! use this small hand-rolled codec: little-endian fixed-width integers,
//! IEEE-754 floats, and `u32`-length-prefixed byte strings. Every `put_*`
//! appends to a `Vec<u8>` and has a matching `get_*` that reads off the
//! front of a `&[u8]`, advancing it; decoding is bounds-checked and never
//! panics on truncated or corrupt input.

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value could be read.
    UnexpectedEof,
    /// Structurally valid bytes with an invalid meaning (bad magic, bad
    /// enum tag, non-UTF-8 string, implausible length).
    Invalid(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::Invalid(msg) => write!(f, "invalid encoding: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Decoding result.
pub type CodecResult<T> = Result<T, CodecError>;

/// Maximum accepted length prefix (1 GiB): rejects absurd lengths from
/// corrupt input before any allocation is attempted.
const MAX_LEN: u32 = 1 << 30;

/// Split the first `n` bytes off `buf`, or fail without consuming any.
#[inline]
fn take<'a>(buf: &mut &'a [u8], n: usize) -> CodecResult<&'a [u8]> {
    if buf.len() < n {
        return Err(CodecError::UnexpectedEof);
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

/// [`take`] into a fixed-size array.
#[inline]
fn take_array<const N: usize>(buf: &mut &[u8]) -> CodecResult<[u8; N]> {
    Ok(take(buf, N)?.try_into().expect("N bytes"))
}

/// Write a `u8`.
#[inline]
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Read a `u8`.
#[inline]
pub fn get_u8(buf: &mut &[u8]) -> CodecResult<u8> {
    Ok(take(buf, 1)?[0])
}

/// Write a `u32` (little-endian).
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Read a `u32`.
#[inline]
pub fn get_u32(buf: &mut &[u8]) -> CodecResult<u32> {
    take_array(buf).map(u32::from_le_bytes)
}

/// Write a `u64` (little-endian).
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Read a `u64`.
#[inline]
pub fn get_u64(buf: &mut &[u8]) -> CodecResult<u64> {
    take_array(buf).map(u64::from_le_bytes)
}

/// Write an `i64` (little-endian, two's complement).
#[inline]
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Read an `i64`.
#[inline]
pub fn get_i64(buf: &mut &[u8]) -> CodecResult<i64> {
    take_array(buf).map(i64::from_le_bytes)
}

/// Write an `f32` (IEEE-754 bits, little-endian).
#[inline]
pub fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Read an `f32`.
#[cfg(test)]
fn get_f32(buf: &mut &[u8]) -> CodecResult<f32> {
    take_array(buf).map(f32::from_le_bytes)
}

/// Write an `f64`.
#[inline]
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Read an `f64`.
#[inline]
pub fn get_f64(buf: &mut &[u8]) -> CodecResult<f64> {
    take_array(buf).map(f64::from_le_bytes)
}

/// Write a length prefix. Panics if `len` exceeds `MAX_LEN` — encoders
/// control their own lengths, so this indicates a bug, not bad input.
#[inline]
pub fn put_len(buf: &mut Vec<u8>, len: usize) {
    assert!(len as u64 <= MAX_LEN as u64, "encoded length {len} exceeds limit");
    put_u32(buf, len as u32);
}

/// Read a length prefix, rejecting implausible values.
#[inline]
pub fn get_len(buf: &mut &[u8]) -> CodecResult<usize> {
    let len = get_u32(buf)?;
    if len > MAX_LEN {
        return Err(CodecError::Invalid(format!("length {len} exceeds limit")));
    }
    Ok(len as usize)
}

/// Read an item count whose items each encode to at least `min_item_bytes`
/// (> 0), rejecting a count the bytes that remain cannot hold. Decoders
/// reserve for a count only after this: the reservation is then bounded by
/// the input's own size, whatever the prefix claims.
#[inline]
pub fn get_count(buf: &mut &[u8], min_item_bytes: usize) -> CodecResult<usize> {
    let count = get_len(buf)?;
    if count > buf.len() / min_item_bytes {
        return Err(CodecError::Invalid(format!(
            "count {count} needs at least {min_item_bytes} bytes each, {} remain",
            buf.len()
        )));
    }
    Ok(count)
}

/// Write a byte string with a length prefix.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_len(buf, bytes.len());
    buf.extend_from_slice(bytes);
}

/// Append whatever `body` writes as one length-prefixed byte string —
/// [`put_bytes`] for a frame that is encoded straight into `buf` instead
/// of into a buffer of its own first.
pub fn put_bytes_with(buf: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = buf.len();
    put_len(buf, 0);
    body(buf);
    let len = buf.len() - at - 4;
    assert!(len as u64 <= MAX_LEN as u64, "encoded length {len} exceeds limit");
    buf[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Read a length-prefixed byte string in place, borrowed from the input.
pub fn get_bytes_ref<'a>(buf: &mut &'a [u8]) -> CodecResult<&'a [u8]> {
    let len = get_len(buf)?;
    take(buf, len)
}

/// Read a length-prefixed byte string.
pub fn get_bytes(buf: &mut &[u8]) -> CodecResult<Vec<u8>> {
    get_bytes_ref(buf).map(<[u8]>::to_vec)
}

/// Write a UTF-8 string with a length prefix.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Read a length-prefixed UTF-8 string.
pub fn get_str(buf: &mut &[u8]) -> CodecResult<String> {
    let bytes = get_bytes(buf)?;
    String::from_utf8(bytes).map_err(|_| CodecError::Invalid("non-UTF-8 string".into()))
}

/// Elements moved per [`put_le`] step: one `extend_from_slice` per chunk
/// instead of one per element, through a stack buffer (512 bytes at the
/// widest element).
const CHUNK: usize = 64;

/// Append `xs` as little-endian `W`-byte values, no length prefix.
fn put_le<T: Copy, const W: usize>(buf: &mut Vec<u8>, xs: &[T], to_le: fn(T) -> [u8; W]) {
    let mut bytes = [0u8; CHUNK * 8];
    for chunk in xs.chunks(CHUNK) {
        for (dst, &x) in bytes.chunks_exact_mut(W).zip(chunk) {
            dst.copy_from_slice(&to_le(x));
        }
        buf.extend_from_slice(&bytes[..chunk.len() * W]);
    }
}

/// Fill `out` from little-endian `W`-byte values, no length prefix.
fn get_le<T, const W: usize>(
    buf: &mut &[u8],
    out: &mut [T],
    from_le: fn([u8; W]) -> T,
) -> CodecResult<()> {
    let raw = take(buf, out.len().checked_mul(W).ok_or(CodecError::UnexpectedEof)?)?;
    for (dst, src) in out.iter_mut().zip(raw.chunks_exact(W)) {
        *dst = from_le(src.try_into().expect("W bytes"));
    }
    Ok(())
}

/// Read a length prefix, then that many `W`-byte values.
fn get_le_vec<T, const W: usize>(
    buf: &mut &[u8],
    from_le: fn([u8; W]) -> T,
) -> CodecResult<Vec<T>> {
    let len = get_len(buf)?;
    // Taken before the allocation: a lying prefix costs nothing.
    let raw = take(buf, len.checked_mul(W).ok_or(CodecError::UnexpectedEof)?)?;
    Ok(raw.chunks_exact(W).map(|src| from_le(src.try_into().expect("W bytes"))).collect())
}

/// Write `f32`s back to back, no length prefix (fixed-width rows whose
/// length the frame header already states).
pub fn put_f32s(buf: &mut Vec<u8>, xs: &[f32]) {
    put_le(buf, xs, f32::to_le_bytes);
}

/// Fill `out` with `out.len()` unprefixed `f32`s — straight into the
/// caller's storage, no intermediate `Vec`.
pub fn get_f32s(buf: &mut &[u8], out: &mut [f32]) -> CodecResult<()> {
    get_le(buf, out, f32::from_le_bytes)
}

/// Write a `Vec<f32>` with a length prefix.
pub fn put_f32_slice(buf: &mut Vec<u8>, xs: &[f32]) {
    put_len(buf, xs.len());
    put_f32s(buf, xs);
}

/// Read a length-prefixed `Vec<f32>`.
pub fn get_f32_vec(buf: &mut &[u8]) -> CodecResult<Vec<f32>> {
    get_le_vec(buf, f32::from_le_bytes)
}

/// Write a `&[u64]` with a length prefix.
pub fn put_u64_slice(buf: &mut Vec<u8>, xs: &[u64]) {
    put_len(buf, xs.len());
    put_le(buf, xs, u64::to_le_bytes);
}

/// Read a length-prefixed `Vec<u64>`.
pub fn get_u64_vec(buf: &mut &[u8]) -> CodecResult<Vec<u64>> {
    get_le_vec(buf, u64::from_le_bytes)
}

/// Write a `&[u32]` with a length prefix.
pub fn put_u32_slice(buf: &mut Vec<u8>, xs: &[u32]) {
    put_len(buf, xs.len());
    put_le(buf, xs, u32::to_le_bytes);
}

/// Read a length-prefixed `Vec<u32>`.
pub fn get_u32_vec(buf: &mut &[u8]) -> CodecResult<Vec<u32>> {
    get_le_vec(buf, u32::from_le_bytes)
}

/// Write a 4-byte magic plus a format version.
pub fn put_header(buf: &mut Vec<u8>, magic: [u8; 4], version: u32) {
    buf.extend_from_slice(&magic);
    put_u32(buf, version);
}

/// Read and validate a 4-byte magic plus version; returns the version.
pub fn get_header(buf: &mut &[u8], magic: [u8; 4]) -> CodecResult<u32> {
    let got: [u8; 8] = take_array(buf)?;
    if got[..4] != magic {
        return Err(CodecError::Invalid(format!(
            "bad magic {:?}, expected {:?}",
            &got[..4],
            magic
        )));
    }
    Ok(u32::from_le_bytes(got[4..].try_into().expect("4 bytes")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX);
        put_i64(&mut buf, -42);
        put_f32(&mut buf, 1.5);
        put_f64(&mut buf, -2.25);
        let mut r = &buf[..];
        assert_eq!(get_u8(&mut r).unwrap(), 7);
        assert_eq!(get_u32(&mut r).unwrap(), 0xdead_beef);
        assert_eq!(get_u64(&mut r).unwrap(), u64::MAX);
        assert_eq!(get_i64(&mut r).unwrap(), -42);
        assert_eq!(get_f32(&mut r).unwrap(), 1.5);
        assert_eq!(get_f64(&mut r).unwrap(), -2.25);
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn string_roundtrip() {
        let mut buf = Vec::new();
        put_str(&mut buf, "héllo, wörld");
        put_str(&mut buf, "");
        let mut r = &buf[..];
        assert_eq!(get_str(&mut r).unwrap(), "héllo, wörld");
        assert_eq!(get_str(&mut r).unwrap(), "");
    }

    #[test]
    fn slice_roundtrips() {
        let mut buf = Vec::new();
        put_f32_slice(&mut buf, &[1.0, -2.0, 3.5]);
        put_u64_slice(&mut buf, &[1, 2, 3]);
        put_u32_slice(&mut buf, &[9, 8]);
        let mut r = &buf[..];
        assert_eq!(get_f32_vec(&mut r).unwrap(), vec![1.0, -2.0, 3.5]);
        assert_eq!(get_u64_vec(&mut r).unwrap(), vec![1, 2, 3]);
        assert_eq!(get_u32_vec(&mut r).unwrap(), vec![9, 8]);
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hello");
        let mut r = &buf[..buf.len() - 1];
        assert_eq!(get_str(&mut r), Err(CodecError::UnexpectedEof));
        let mut empty: &[u8] = &[];
        assert_eq!(get_u64(&mut empty), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn implausible_length_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        let mut r = &buf[..];
        assert!(matches!(get_len(&mut r), Err(CodecError::Invalid(_))));
    }

    #[test]
    fn header_roundtrip_and_mismatch() {
        let mut buf = Vec::new();
        put_header(&mut buf, *b"WGIX", 3);
        let mut r = &buf[..];
        assert_eq!(get_header(&mut r, *b"WGIX").unwrap(), 3);
        let mut r = &buf[..];
        assert!(matches!(get_header(&mut r, *b"NOPE"), Err(CodecError::Invalid(_))));
    }

    #[test]
    fn put_bytes_with_writes_what_put_bytes_writes() {
        let mut direct = b"before".to_vec();
        put_bytes(&mut direct, b"the frame");
        let mut in_place = b"before".to_vec();
        put_bytes_with(&mut in_place, |buf| buf.extend_from_slice(b"the frame"));
        assert_eq!(in_place, direct);
    }

    #[test]
    fn non_utf8_string_rejected() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, &[0xff, 0xfe]);
        let mut r = &buf[..];
        assert!(matches!(get_str(&mut r), Err(CodecError::Invalid(_))));
    }

    /// Values of one element type at the lengths around the chunk size,
    /// encoded by the chunked path and by one scalar `put_*` per element;
    /// decoded from a slice and one scalar `get_*` at a time.
    macro_rules! chunked_path_equals_per_element_loop {
        ($make:expr, $put_one:ident, $get_one:ident, $put_slice:ident, $get_vec:ident) => {
            for len in [0usize, 1, 63, 64, 65, 4097] {
                let values: Vec<_> = (0..len as u64)
                    .map(|i| $make(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i))
                    .collect();
                let mut chunked = Vec::new();
                $put_slice(&mut chunked, &values);
                let mut by_element = Vec::new();
                put_len(&mut by_element, len);
                values.iter().for_each(|&x| $put_one(&mut by_element, x));
                assert_eq!(chunked, by_element, "encoded bytes differ at length {len}");

                let mut r = &chunked[..];
                assert_eq!($get_vec(&mut r).unwrap(), values, "slice decode, length {len}");
                assert!(r.is_empty());
                let mut r = &chunked[4..];
                let one_by_one: Vec<_> = (0..len).map(|_| $get_one(&mut r).unwrap()).collect();
                assert_eq!(one_by_one, values, "per-element decode, length {len}");

                // A prefix that promises one value more than the bytes hold.
                let mut short = chunked.clone();
                short[..4].copy_from_slice(&(len as u32 + 1).to_le_bytes());
                assert_eq!($get_vec(&mut &short[..]), Err(CodecError::UnexpectedEof));
            }
        };
    }

    #[test]
    fn chunked_slices_equal_the_per_element_loop() {
        // One exponent bit cleared: every bit pattern but NaN/inf, which
        // would not compare equal to themselves.
        let finite = |x: u64| f32::from_bits(x as u32 & 0x7F7F_FFFF);
        chunked_path_equals_per_element_loop!(finite, put_f32, get_f32, put_f32_slice, get_f32_vec);
        chunked_path_equals_per_element_loop!(
            |x| x as u32,
            put_u32,
            get_u32,
            put_u32_slice,
            get_u32_vec
        );
        chunked_path_equals_per_element_loop!(
            |x: u64| x,
            put_u64,
            get_u64,
            put_u64_slice,
            get_u64_vec
        );
    }

    #[test]
    fn unprefixed_slices_fill_the_callers_storage() {
        let floats: Vec<f32> = (0..130).map(|i| i as f32 * 0.5 - 7.0).collect();
        let mut buf = Vec::new();
        put_f32s(&mut buf, &floats);
        assert_eq!(buf.len(), floats.len() * 4, "no length prefix");
        let mut r = &buf[..];
        let mut f = vec![0.0f32; floats.len()];
        get_f32s(&mut r, &mut f).unwrap();
        assert_eq!(f, floats);
        assert!(r.is_empty());
        // One byte short: refused before anything is consumed.
        let mut r = &buf[..7];
        assert_eq!(get_f32s(&mut r, &mut [0.0; 2]), Err(CodecError::UnexpectedEof));
        assert_eq!(r.len(), 7);
    }

    #[test]
    fn counts_the_remaining_bytes_cannot_hold_are_refused() {
        let mut buf = Vec::new();
        put_len(&mut buf, 3);
        buf.extend_from_slice(&[0u8; 24]);
        assert_eq!(get_count(&mut &buf[..], 8).unwrap(), 3);
        assert!(matches!(get_count(&mut &buf[..], 9), Err(CodecError::Invalid(_))));
        // The largest prefix the codec accepts, over a few bytes.
        let mut lying = Vec::new();
        put_u32(&mut lying, MAX_LEN);
        lying.extend_from_slice(&[0u8; 16]);
        assert!(matches!(get_count(&mut &lying[..], 1), Err(CodecError::Invalid(_))));
    }
}
