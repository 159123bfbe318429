//! The one error type of every boundary codec, and the typed field
//! readers the decoders are built from.
//!
//! Sweep jobs, reports, checkpoints, campaign documents and daemon frames
//! all cross a process or disk boundary, so their decoders take bytes
//! from outside the process. Each one returns a [`CodecError`] — never a
//! panic — and they all read fields through the same [`Json`] readers, so
//! a malformed input fails the same typed way wherever it arrives:
//! [`CodecError::Missing`] for an absent field, [`CodecError::Invalid`]
//! for a present but mistyped or out-of-range one, and
//! [`CodecError::Version`] for a schema version this code does not speak.
//! The byte-level variants come from the frame format
//! ([`crate::read_frame`]).

use std::fmt;
use std::io;

use crate::frame::{FRAME_MAGIC, MAX_FRAME_BYTES};
use crate::json::{Json, JsonParseError};

/// Why bytes or a document could not be decoded (or a value encoded).
/// Every variant is a typed, recoverable condition.
#[derive(Debug)]
pub enum CodecError {
    /// The underlying reader or writer failed.
    Io(io::Error),
    /// A frame does not start with [`FRAME_MAGIC`] (wrong protocol,
    /// garbage injection, or a reader desynchronized mid-stream).
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// A frame declares a payload longer than [`MAX_FRAME_BYTES`].
    Oversized {
        /// The declared length.
        declared: u32,
    },
    /// The stream ended inside a frame (torn write or killed peer).
    Truncated {
        /// Bytes the frame still owed when the stream ended.
        missing: usize,
    },
    /// The bytes are not valid UTF-8.
    Utf8,
    /// The text is not a valid JSON document.
    Parse(JsonParseError),
    /// A required field is absent (or its parent is not an object).
    Missing(&'static str),
    /// A field is present but malformed.
    Invalid {
        /// Name of the offending field.
        field: &'static str,
        /// What was wrong with it.
        why: String,
    },
    /// A version field names a schema this code does not speak.
    Version {
        /// The version field.
        field: &'static str,
        /// The version found.
        got: u64,
        /// The version this code speaks.
        expected: u64,
    },
    /// The value cannot be encoded by design (MIN oracle traces).
    Unsupported(String),
}

impl CodecError {
    /// A [`CodecError::Invalid`] for `field`.
    pub fn invalid(field: &'static str, why: impl Into<String>) -> Self {
        CodecError::Invalid {
            field,
            why: why.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "I/O error: {e}"),
            CodecError::BadMagic { found } => write!(
                f,
                "bad frame magic {found:02x?} (expected {FRAME_MAGIC:02x?})"
            ),
            CodecError::Oversized { declared } => write!(
                f,
                "frame declares {declared} bytes (limit {MAX_FRAME_BYTES})"
            ),
            CodecError::Truncated { missing } => {
                write!(f, "stream ended inside a frame ({missing} bytes missing)")
            }
            CodecError::Utf8 => write!(f, "not valid UTF-8"),
            CodecError::Parse(e) => write!(f, "{e}"),
            CodecError::Missing(field) => write!(f, "missing field '{field}'"),
            CodecError::Invalid { field, why } => write!(f, "field '{field}' invalid: {why}"),
            CodecError::Version {
                field,
                got,
                expected,
            } => write!(f, "unsupported {field} {got} (expected {expected})"),
            CodecError::Unsupported(what) => write!(f, "not encodable: {what}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            CodecError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

impl From<JsonParseError> for CodecError {
    fn from(e: JsonParseError) -> Self {
        CodecError::Parse(e)
    }
}

/// The [`CodecError::Invalid`] of a field holding the wrong JSON type.
fn mistyped(field: &'static str, expected: &str) -> CodecError {
    CodecError::invalid(field, format!("expected {expected}"))
}

/// Typed field readers: `Missing` when the field is absent (or `self` is
/// not an object), `Invalid` when it holds the wrong type. An error is
/// built only on failure.
impl Json {
    /// The field `key`, of any type.
    pub fn field(&self, key: &'static str) -> Result<&Json, CodecError> {
        self.get(key).ok_or(CodecError::Missing(key))
    }

    /// The field `key` as a non-negative integer.
    pub fn u64_field(&self, key: &'static str) -> Result<u64, CodecError> {
        self.field(key)?
            .as_u64()
            .ok_or_else(|| mistyped(key, "an unsigned integer"))
    }

    /// The field `key` as a non-negative integer that fits in `usize`.
    pub fn usize_field(&self, key: &'static str) -> Result<usize, CodecError> {
        usize::try_from(self.u64_field(key)?)
            .map_err(|_| CodecError::invalid(key, "does not fit in usize"))
    }

    /// The field `key` as an `f64` stored as its raw IEEE-754 bit pattern,
    /// which keeps text round trips exact.
    pub fn f64_bits_field(&self, key: &'static str) -> Result<f64, CodecError> {
        self.u64_field(key).map(f64::from_bits)
    }

    /// The field `key` as a boolean.
    pub fn bool_field(&self, key: &'static str) -> Result<bool, CodecError> {
        match self.field(key)? {
            Json::Bool(b) => Ok(*b),
            _ => Err(mistyped(key, "a boolean")),
        }
    }

    /// The field `key` as a string.
    pub fn str_field(&self, key: &'static str) -> Result<&str, CodecError> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| mistyped(key, "a string"))
    }

    /// The field `key` as an array.
    pub fn arr_field(&self, key: &'static str) -> Result<&[Json], CodecError> {
        match self.field(key)? {
            Json::Arr(items) => Ok(items),
            _ => Err(mistyped(key, "an array")),
        }
    }

    /// The field `key`, which must be an object.
    pub fn obj_field(&self, key: &'static str) -> Result<&Json, CodecError> {
        match self.field(key)? {
            obj @ Json::Obj(_) => Ok(obj),
            _ => Err(mistyped(key, "an object")),
        }
    }

    /// Checks that the version field `key` holds `expected`.
    pub fn check_version(&self, key: &'static str, expected: u64) -> Result<(), CodecError> {
        match self.u64_field(key)? {
            got if got == expected => Ok(()),
            got => Err(CodecError::Version {
                field: key,
                got,
                expected,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_separate_missing_from_mistyped() {
        let doc = Json::parse(
            r#"{"n": 3, "b": true, "s": "x", "a": [1], "o": {}, "bits": 4607182418800017408,
                "neg": -1, "v": 2}"#,
        )
        .unwrap();
        assert_eq!(doc.u64_field("n").unwrap(), 3);
        assert_eq!(doc.usize_field("n").unwrap(), 3);
        assert!(doc.bool_field("b").unwrap());
        assert_eq!(doc.str_field("s").unwrap(), "x");
        assert_eq!(doc.arr_field("a").unwrap(), &[Json::UInt(1)]);
        assert_eq!(doc.obj_field("o").unwrap(), &Json::Obj(vec![]));
        assert_eq!(doc.f64_bits_field("bits").unwrap(), 1.0);
        assert!(doc.check_version("v", 2).is_ok());

        assert!(matches!(
            doc.u64_field("gone"),
            Err(CodecError::Missing("gone"))
        ));
        assert!(matches!(
            Json::Null.str_field("s"),
            Err(CodecError::Missing("s"))
        ));
        for err in [
            doc.u64_field("neg").unwrap_err(),
            doc.u64_field("s").unwrap_err(),
            doc.bool_field("n").unwrap_err(),
            doc.str_field("n").unwrap_err(),
            doc.arr_field("o").unwrap_err(),
            doc.obj_field("a").unwrap_err(),
        ] {
            assert!(matches!(err, CodecError::Invalid { .. }), "{err:?}");
        }
        let err = doc.check_version("v", 1).unwrap_err();
        assert!(matches!(
            err,
            CodecError::Version {
                field: "v",
                got: 2,
                expected: 1
            }
        ));
        assert_eq!(err.to_string(), "unsupported v 2 (expected 1)");
        assert_eq!(
            doc.bool_field("s").unwrap_err().to_string(),
            "field 's' invalid: expected a boolean"
        );
    }
}
