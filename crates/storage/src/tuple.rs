//! Tuples (rows) and their binary encoding.
//!
//! The encoding is a length-prefixed sequence of tagged values:
//!
//! ```text
//! tuple  := u16 arity, value*
//! value  := u8 tag, payload
//! tag    := 0 Null | 1 Int | 2 Float | 3 Text | 4 Bool | 5 Point | 6 Rect
//! ```
//!
//! Integers and floats are little-endian; text is a `u32` length followed by
//! UTF-8 bytes. The format is what [`crate::page::Page`] stores in its slots.

use crate::error::{StorageError, StorageResult};
use crate::value::Value;
use std::fmt;

/// A row of values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The values, in column order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at ordinal `i`.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }

    /// Consume the tuple, yielding its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Concatenate two tuples (join output row).
    pub fn join(&self, right: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.values.len() + right.values.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&right.values);
        Tuple { values }
    }

    /// Project a subset of values by ordinal (out-of-range ordinals are
    /// skipped, mirroring [`crate::schema::Schema::project`]).
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple {
            values: indices
                .iter()
                .filter_map(|&i| self.values.get(i).cloned())
                .collect(),
        }
    }

    /// Size of the binary encoding in bytes.
    pub fn encoded_size(&self) -> usize {
        2 + self.values.iter().map(Value::encoded_size).sum::<usize>()
    }

    /// Append the binary encoding to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        debug_assert!(self.values.len() <= u16::MAX as usize);
        buf.extend_from_slice(&(self.values.len() as u16).to_le_bytes());
        for v in &self.values {
            match v {
                Value::Null => buf.push(0),
                Value::Int(x) => {
                    buf.push(1);
                    buf.extend_from_slice(&x.to_le_bytes());
                }
                Value::Float(x) => {
                    buf.push(2);
                    buf.extend_from_slice(&x.to_le_bytes());
                }
                Value::Text(s) => {
                    buf.push(3);
                    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    buf.extend_from_slice(s.as_bytes());
                }
                Value::Bool(b) => {
                    buf.push(4);
                    buf.push(*b as u8);
                }
                Value::Point(x, y) => {
                    buf.push(5);
                    buf.extend_from_slice(&x.to_le_bytes());
                    buf.extend_from_slice(&y.to_le_bytes());
                }
                Value::Rect(a, b, c, d) => {
                    buf.push(6);
                    for v in [a, b, c, d] {
                        buf.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
    }

    /// Decode a tuple from the front of `bytes`, returning the tuple and the
    /// number of bytes consumed.
    pub fn decode(bytes: &[u8]) -> StorageResult<(Tuple, usize)> {
        let mut tuple = Tuple::default();
        let used = tuple.decode_into(bytes)?;
        Ok((tuple, used))
    }

    /// [`decode`](Self::decode) into `self`, reusing its value buffer:
    /// scans decode every row of a page into one scratch tuple and clone
    /// only the rows they keep. Returns the number of bytes consumed; on
    /// error `self` holds an unspecified prefix of the row.
    pub fn decode_into(&mut self, bytes: &[u8]) -> StorageResult<usize> {
        let corrupt = |msg: &str| StorageError::Corrupt(msg.to_owned());
        if bytes.len() < 2 {
            return Err(corrupt("truncated arity"));
        }
        let arity = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        // Fixed-width reads: slice then convert, with both the bounds
        // check and the width check surfacing as `Corrupt` rather than
        // panicking on adversarial page bytes.
        let need8 = |off: usize| -> StorageResult<[u8; 8]> {
            bytes
                .get(off..off + 8)
                .and_then(|s| <[u8; 8]>::try_from(s).ok())
                .ok_or_else(|| corrupt("truncated payload"))
        };
        let need4 = |off: usize| -> StorageResult<[u8; 4]> {
            bytes
                .get(off..off + 4)
                .and_then(|s| <[u8; 4]>::try_from(s).ok())
                .ok_or_else(|| corrupt("truncated payload"))
        };
        let mut off = 2;
        let values = &mut self.values;
        values.truncate(arity);
        values.reserve(arity - values.len());
        for k in 0..arity {
            let tag = *bytes.get(off).ok_or_else(|| corrupt("truncated tag"))?;
            off += 1;
            let v = match tag {
                0 => Value::Null,
                1 => {
                    let b = need8(off)?;
                    off += 8;
                    Value::Int(i64::from_le_bytes(b))
                }
                2 => {
                    let b = need8(off)?;
                    off += 8;
                    Value::Float(f64::from_le_bytes(b))
                }
                3 => {
                    let lb = need4(off)?;
                    off += 4;
                    let len = u32::from_le_bytes(lb) as usize;
                    let raw = bytes
                        .get(off..off + len)
                        .ok_or_else(|| corrupt("truncated text"))?;
                    off += len;
                    let text = std::str::from_utf8(raw).map_err(|_| corrupt("invalid utf8"))?;
                    // Overwrite a text value left by the previous row in
                    // place, keeping its allocation.
                    if let Some(Value::Text(prev)) = values.get_mut(k) {
                        prev.clear();
                        prev.push_str(text);
                        continue;
                    }
                    Value::Text(text.to_owned())
                }
                4 => {
                    let b = *bytes.get(off).ok_or_else(|| corrupt("truncated bool"))?;
                    off += 1;
                    Value::Bool(b != 0)
                }
                5 => {
                    let xb = need8(off)?;
                    let yb = need8(off + 8)?;
                    off += 16;
                    Value::Point(f64::from_le_bytes(xb), f64::from_le_bytes(yb))
                }
                6 => {
                    let mut vals = [0.0f64; 4];
                    for (k, v) in vals.iter_mut().enumerate() {
                        *v = f64::from_le_bytes(need8(off + k * 8)?);
                    }
                    off += 32;
                    Value::Rect(vals[0], vals[1], vals[2], vals[3])
                }
                t => return Err(StorageError::Corrupt(format!("unknown value tag {t}"))),
            };
            match values.get_mut(k) {
                Some(slot) => *slot = v,
                None => values.push(v),
            }
        }
        Ok(off)
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tuple {
        Tuple::new(vec![
            Value::Int(42),
            Value::Float(3.5),
            Value::Text("The Matrix".into()),
            Value::Null,
            Value::Bool(true),
            Value::Point(-93.2, 44.9),
            Value::Rect(0.0, 0.0, 10.5, 20.25),
        ])
    }

    #[test]
    fn encode_decode_roundtrip() {
        let t = sample();
        let mut buf = Vec::new();
        t.encode_into(&mut buf);
        assert_eq!(buf.len(), t.encoded_size());
        let (back, used) = Tuple::decode(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(back, t);
    }

    #[test]
    fn decode_two_consecutive_tuples() {
        let a = Tuple::new(vec![Value::Int(1)]);
        let b = Tuple::new(vec![Value::Text("x".into())]);
        let mut buf = Vec::new();
        a.encode_into(&mut buf);
        b.encode_into(&mut buf);
        let (da, n) = Tuple::decode(&buf).unwrap();
        let (db, m) = Tuple::decode(&buf[n..]).unwrap();
        assert_eq!(da, a);
        assert_eq!(db, b);
        assert_eq!(n + m, buf.len());
    }

    #[test]
    fn decode_into_reuses_the_scratch_tuple() {
        let mut buf = Vec::new();
        sample().encode_into(&mut buf);
        let short = Tuple::new(vec![Value::Int(7)]);
        short.encode_into(&mut buf);
        let mut scratch = Tuple::default();
        let used = scratch.decode_into(&buf).unwrap();
        assert_eq!(scratch, sample());
        // A shorter row overwrites the longer one completely, and a
        // longer one after it (text reused in place) decodes exactly.
        scratch.decode_into(&buf[used..]).unwrap();
        assert_eq!(scratch, short);
        scratch.decode_into(&buf).unwrap();
        scratch.decode_into(&buf).unwrap();
        assert_eq!(scratch, sample());
    }

    #[test]
    fn decode_rejects_truncation_at_every_prefix() {
        let t = sample();
        let mut buf = Vec::new();
        t.encode_into(&mut buf);
        for cut in 0..buf.len() {
            assert!(
                Tuple::decode(&buf[..cut]).is_err(),
                "prefix of {cut} bytes should not decode"
            );
        }
    }

    #[test]
    fn decode_rejects_bad_tag_and_bad_utf8() {
        // arity 1, tag 9.
        let buf = vec![1, 0, 9];
        assert!(matches!(Tuple::decode(&buf), Err(StorageError::Corrupt(_))));
        // arity 1, text of length 1 with invalid UTF-8.
        let buf = vec![1, 0, 3, 1, 0, 0, 0, 0xFF];
        assert!(matches!(Tuple::decode(&buf), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn join_and_project() {
        let l = Tuple::new(vec![Value::Int(1), Value::Int(2)]);
        let r = Tuple::new(vec![Value::Text("a".into())]);
        let j = l.join(&r);
        assert_eq!(j.arity(), 3);
        let p = j.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Text("a".into()), Value::Int(1)]);
    }

    #[test]
    fn display_is_parenthesized() {
        let t = Tuple::new(vec![Value::Int(1), Value::Text("x".into())]);
        assert_eq!(t.to_string(), "(1, x)");
    }

    #[test]
    fn empty_tuple_roundtrip() {
        let t = Tuple::default();
        let mut buf = Vec::new();
        t.encode_into(&mut buf);
        let (back, used) = Tuple::decode(&buf).unwrap();
        assert_eq!(back, t);
        assert_eq!(used, 2);
    }
}
