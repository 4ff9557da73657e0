//! Direct byte encoders for the durable formats: the snapshot and the
//! WAL lines are written straight into a `Vec<u8>`, in exactly the bytes
//! the `serde_json` printer gives for the same values, without building
//! a `Value` tree first. Their integers are mostly 19–20-digit
//! `to_bits()` values, so [`push_u64`] emits two digits per step.

/// `"00"`, `"01"`, …, `"99"` back to back.
const PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Appends the decimal digits of `x`, as `x.to_string()` spells them.
pub(crate) fn push_u64(out: &mut Vec<u8>, mut x: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while x >= 100 {
        let d = (x % 100) as usize * 2;
        x /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&PAIRS[d..d + 2]);
    }
    if x >= 10 {
        let d = x as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&PAIRS[d..d + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + x as u8;
    }
    out.extend_from_slice(&buf[i..]);
}

/// Appends `"k0":v0,"k1":v1,…`, the members of a compact JSON object
/// without its braces. Keys are written verbatim: plain identifiers.
pub(crate) fn push_fields(out: &mut Vec<u8>, fields: &[(&str, u64)]) {
    for (i, &(key, x)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.push(b'"');
        out.extend_from_slice(key.as_bytes());
        out.extend_from_slice(b"\":");
        push_u64(out, x);
    }
}

/// Appends the compact JSON array `[x0,x1,…` and then `tail`, which
/// closes it (`]`, or further members and `]`).
pub(crate) fn push_row(out: &mut Vec<u8>, xs: &[u64], tail: &[u8]) {
    out.push(b'[');
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_u64(out, x);
    }
    out.extend_from_slice(tail);
}

/// Appends the compact JSON array `[…]` of `items`, each written by
/// `item`.
pub(crate) fn push_list<T>(
    out: &mut Vec<u8>,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut Vec<u8>, T),
) {
    out.push(b'[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        item(out, x);
    }
    out.push(b']');
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn digits(x: u64) -> String {
        let mut out = Vec::new();
        push_u64(&mut out, x);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn digits_equal_to_string() {
        let mut xs = vec![0, 9, 10, 99, 100, u64::MAX, u64::MAX - 1];
        let mut p = 1u64;
        for _ in 0..20 {
            xs.extend([p - 1, p, p + 1]);
            p = p.saturating_mul(10);
        }
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(26);
        for _ in 0..20_000 {
            // Every magnitude, not just the 19–20-digit bulk.
            let x: u64 = rng.gen();
            xs.push(x >> rng.gen_range(0..64));
        }
        xs.extend((0..1000).map(|_| rng.gen::<f64>().to_bits()));
        for x in xs {
            assert_eq!(digits(x), x.to_string(), "{x}");
        }
    }

    #[test]
    fn fields_and_rows_print_compact_json() {
        let mut out = b"{".to_vec();
        push_fields(&mut out, &[("a", 0), ("bc", 12)]);
        out.extend_from_slice(b",\"xs\":");
        push_row(&mut out, &[], b"]");
        out.extend_from_slice(b",\"ys\":");
        push_row(&mut out, &[7, u64::MAX], b",true]");
        out.extend_from_slice(b",\"zs\":");
        push_list(&mut out, [&[][..], &[1], &[2, 3]], |out, xs| push_row(out, xs, b"]"));
        out.push(b'}');
        let v = serde_json::json!({
            "a": 0u64,
            "bc": 12u64,
            "xs": serde_json::json!([]),
            "ys": serde_json::json!([7u64, u64::MAX, true]),
            "zs": serde_json::json!([
                serde_json::json!([]),
                serde_json::json!([1u64]),
                serde_json::json!([2u64, 3u64]),
            ]),
        });
        assert_eq!(String::from_utf8(out).unwrap(), serde_json::to_string(&v));
    }
}
