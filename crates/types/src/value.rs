//! Attribute values.

use std::fmt;

/// A single attribute value.
///
/// Numeric attributes take [`Value::Int`] (the paper models numeric domains
/// as "the set of all integers"); categorical attributes take
/// [`Value::Cat`] with values in `0..U` for a domain of size `U`.
///
/// The derived `Ord` orders all `Int` values before all `Cat` values, but in
/// a well-formed dataset a column is homogeneous, so cross-variant
/// comparisons never arise when sorting tuples of the same schema.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Value {
    /// A numeric value.
    Int(i64),
    /// A categorical value (an index into the attribute's domain).
    Cat(u32),
}

impl Value {
    /// Returns the inner numeric value, or `None` for categorical values.
    #[inline]
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(x) => Some(x),
            Value::Cat(_) => None,
        }
    }

    /// Returns the inner categorical value, or `None` for numeric values.
    #[inline]
    pub fn as_cat(self) -> Option<u32> {
        match self {
            Value::Cat(c) => Some(c),
            Value::Int(_) => None,
        }
    }

    /// Returns the numeric value, panicking on a categorical value.
    ///
    /// Intended for callers that have already validated the tuple against a
    /// schema (e.g. the crawl algorithms after `Schema::validate_tuple`).
    #[inline]
    pub fn expect_int(self) -> i64 {
        match self {
            Value::Int(x) => x,
            Value::Cat(c) => panic!("expected numeric value, found categorical {c}"),
        }
    }

    /// Returns the categorical value, panicking on a numeric value.
    #[inline]
    pub fn expect_cat(self) -> u32 {
        match self {
            Value::Cat(c) => c,
            Value::Int(x) => panic!("expected categorical value, found numeric {x}"),
        }
    }

    /// True if this is a numeric value.
    #[inline]
    pub fn is_int(self) -> bool {
        matches!(self, Value::Int(_))
    }

    /// True if this is a categorical value.
    #[inline]
    pub fn is_cat(self) -> bool {
        matches!(self, Value::Cat(_))
    }

    /// The compact token every serialized format writes for this value
    /// (checkpoints, the wire protocol, the replay cache): `c5` is
    /// categorical 5, `i-7` is numeric −7. Tokens contain only
    /// `[ci0-9-]`, so the JSON formats quote them without escaping.
    #[inline]
    pub fn token(self) -> ValueToken {
        ValueToken(self)
    }

    /// Parses a [`Value::token`]: a kind letter, an optional minus
    /// (numeric only), then decimal digits in the kind's range. Anything
    /// else, including a `+` sign or an empty number, is `None`.
    pub fn from_token(token: &str) -> Option<Value> {
        let number = token.get(1..)?;
        let digits = number.strip_prefix('-').unwrap_or(number);
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        match token.as_bytes()[0] {
            b'c' => number.parse().ok().map(Value::Cat),
            b'i' => number.parse().ok().map(Value::Int),
            _ => None,
        }
    }
}

/// Display adapter for [`Value::token`].
#[derive(Clone, Copy, Debug)]
pub struct ValueToken(Value);

impl fmt::Display for ValueToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Value::Cat(c) => write!(f, "c{c}"),
            Value::Int(x) => write!(f, "i{x}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(x) => write!(f, "{x}"),
            Value::Cat(c) => write!(f, "#{c}"),
        }
    }
}

impl From<i64> for Value {
    fn from(x: i64) -> Self {
        Value::Int(x)
    }
}

impl From<u32> for Value {
    fn from(c: u32) -> Self {
        Value::Cat(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_roundtrip() {
        assert_eq!(Value::Int(-7).as_int(), Some(-7));
        assert_eq!(Value::Int(-7).as_cat(), None);
        assert_eq!(Value::Cat(3).as_cat(), Some(3));
        assert_eq!(Value::Cat(3).as_int(), None);
        assert_eq!(Value::Int(5).expect_int(), 5);
        assert_eq!(Value::Cat(9).expect_cat(), 9);
    }

    #[test]
    fn kind_predicates() {
        assert!(Value::Int(0).is_int());
        assert!(!Value::Int(0).is_cat());
        assert!(Value::Cat(0).is_cat());
        assert!(!Value::Cat(0).is_int());
    }

    #[test]
    #[should_panic(expected = "expected numeric")]
    fn expect_int_panics_on_cat() {
        Value::Cat(1).expect_int();
    }

    #[test]
    #[should_panic(expected = "expected categorical")]
    fn expect_cat_panics_on_int() {
        Value::Int(1).expect_cat();
    }

    #[test]
    fn ordering_within_variant() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Int(-5) < Value::Int(0));
        assert!(Value::Cat(1) < Value::Cat(2));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Cat(4).to_string(), "#4");
    }

    #[test]
    fn tokens_round_trip_at_the_range_edges() {
        for v in [
            Value::Cat(0),
            Value::Cat(u32::MAX),
            Value::Int(0),
            Value::Int(-7),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
        ] {
            assert_eq!(Value::from_token(&v.token().to_string()), Some(v));
        }
        assert_eq!(Value::Cat(5).token().to_string(), "c5");
        assert_eq!(Value::Int(-7).token().to_string(), "i-7");
    }

    #[test]
    fn malformed_tokens_are_none() {
        for bad in [
            "",
            "c",
            "i",
            "i-",
            "c-1",
            "c+1",
            "i+1",
            "x5",
            "c4294967296",
            "i9223372036854775808",
            "c 1",
            "c1 ",
            "é1",
            "5",
        ] {
            assert_eq!(Value::from_token(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from(7u32), Value::Cat(7));
    }
}
