//! Data entries: the typed, reference-counted values living on the board.

use bytes::Bytes;
use std::any::Any;
use std::sync::Arc;

/// Entry type identifier: a hash of `(level, type name)`.
///
/// Hashing the blackboard *level* (one level per instrumented application,
/// Figure 5) into the id is what lets identical knowledge sources and data
/// types coexist across applications.
pub type TypeId = u64;

/// FNV-1a over level and name with a separator, as a stable 64-bit id.
pub fn type_id(level: &str, name: &str) -> TypeId {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(level.as_bytes());
    eat(&[0x1f]); // unit separator: ("ab","c") != ("a","bc")
    eat(name.as_bytes());
    h
}

/// Entry payload: either a raw byte blob (as streamed off the wire) or a
/// typed in-memory value produced by a knowledge source.
pub enum Payload {
    /// Raw bytes (e.g. an encoded event pack).
    Bytes(Bytes),
    /// Arbitrary typed value.
    Value(Box<dyn Any + Send + Sync>),
}

impl Payload {
    /// Byte view, if this is a byte payload.
    pub fn as_bytes(&self) -> Option<&Bytes> {
        match self {
            Payload::Bytes(b) => Some(b),
            Payload::Value(_) => None,
        }
    }

    /// Typed view, if this is a value payload of type `T`.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        match self {
            Payload::Bytes(_) => None,
            Payload::Value(v) => v.downcast_ref::<T>(),
        }
    }

    /// Payload size in bytes (0 for typed values of unknown size — the
    /// paper's `Size` field describes wire blobs).
    pub fn size(&self) -> usize {
        match self {
            Payload::Bytes(b) => b.len(),
            Payload::Value(_) => 0,
        }
    }
}

/// A reference-counted entry. Cloning shares the payload.
#[derive(Clone)]
pub struct DataEntry {
    ty: TypeId,
    /// Wire bytes a typed value stands for (a byte payload has its length).
    value_size: usize,
    payload: Arc<Payload>,
}

impl DataEntry {
    /// Entry holding raw bytes.
    pub fn bytes(ty: TypeId, data: Bytes) -> DataEntry {
        DataEntry {
            ty,
            value_size: 0,
            payload: Arc::new(Payload::Bytes(data)),
        }
    }

    /// Entry holding a typed value (of unknown size: [`DataEntry::size`]
    /// reads 0).
    pub fn value<T: Any + Send + Sync>(ty: TypeId, value: T) -> DataEntry {
        DataEntry::value_sized(ty, value, 0)
    }

    /// Entry holding a typed value decoded from `size` bytes of wire data,
    /// so a consumer can account the volume without seeing the blob.
    pub fn value_sized<T: Any + Send + Sync>(ty: TypeId, value: T, size: usize) -> DataEntry {
        DataEntry {
            ty,
            value_size: size,
            payload: Arc::new(Payload::Value(Box::new(value))),
        }
    }

    /// The entry's type id.
    pub fn ty(&self) -> TypeId {
        self.ty
    }

    /// The entry's payload.
    pub fn payload(&self) -> &Payload {
        &self.payload
    }

    /// The paper's `Size` field: a byte payload's length, or the wire
    /// bytes a typed value was declared to stand for.
    pub fn size(&self) -> usize {
        match &*self.payload {
            Payload::Bytes(b) => b.len(),
            Payload::Value(_) => self.value_size,
        }
    }

    /// Current number of references to the payload.
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.payload)
    }

    /// Mutable access to the payload — only while this is the sole owner
    /// (the paper's "a data being writable only if its ref-counter is equal
    /// to one").
    pub fn payload_mut(&mut self) -> Option<&mut Payload> {
        Arc::get_mut(&mut self.payload)
    }

    /// Shorthand: typed view of a value payload.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }
}

impl std::fmt::Debug for DataEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataEntry")
            .field("ty", &self.ty)
            .field("size", &self.size())
            .field("refs", &self.ref_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_id_separates_levels_and_names() {
        assert_ne!(type_id("app0", "event"), type_id("app1", "event"));
        assert_ne!(type_id("app0", "event"), type_id("app0", "pack"));
        assert_eq!(type_id("app0", "event"), type_id("app0", "event"));
        // The separator prevents concatenation collisions.
        assert_ne!(type_id("ab", "c"), type_id("a", "bc"));
    }

    #[test]
    fn bytes_payload_size_and_view() {
        let e = DataEntry::bytes(1, Bytes::from_static(b"hello"));
        assert_eq!(e.size(), 5);
        assert_eq!(&e.payload().as_bytes().unwrap()[..], b"hello");
        assert!(e.downcast_ref::<u32>().is_none());
    }

    #[test]
    fn value_payload_downcast() {
        let e = DataEntry::value(2, vec![1u32, 2, 3]);
        assert_eq!(e.downcast_ref::<Vec<u32>>().unwrap(), &vec![1, 2, 3]);
        assert!(e.downcast_ref::<String>().is_none());
        assert!(e.payload().as_bytes().is_none());
        assert_eq!(e.size(), 0);
        let sized = DataEntry::value_sized(2, vec![1u32, 2, 3], 12);
        assert_eq!(sized.size(), 12);
        assert_eq!(sized.clone().size(), 12);
    }

    #[test]
    fn writable_only_when_unique() {
        let mut e = DataEntry::bytes(3, Bytes::from_static(b"x"));
        assert_eq!(e.ref_count(), 1);
        assert!(e.payload_mut().is_some());
        let shared = e.clone();
        assert_eq!(e.ref_count(), 2);
        assert!(e.payload_mut().is_none(), "shared entry must be read-only");
        drop(shared);
        assert!(e.payload_mut().is_some(), "unique again after drop");
    }
}
